(** Plain-text rendering helpers for the tables and figure series: ASCII
    bars make the shapes (who wins, by how much) visible in a
    terminal. *)

val bar : ?width:int -> ?full:float -> float -> string
(** A bar of [#]s, saturating at [full] (default 3.0). *)

val heading : Buffer.t -> string -> unit
val row : Buffer.t -> ('a, unit, string, unit) format4 -> 'a
val pct : float -> string
