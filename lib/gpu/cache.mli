(** Set-associative LRU cache tag store (timing model only — data always
    lives in the single functional memory image). Used for the per-CU
    write-through L1 and the shared L2. *)

type t

val create : bytes:int -> line_bytes:int -> assoc:int -> t
val copy : t -> t
(** Same tags and LRU state; sharing nothing mutable with the original. *)

val line_addr : t -> int -> int

val probe : t -> int -> bool
(** Residency check without LRU update. *)

val access : ?on_evict:(int -> unit) -> t -> int -> bool
(** Look up a line, allocating (with LRU eviction) on a miss; [true] on
    hit. The evicted line is reported so fault poison attached to it can
    be cleared. *)

val invalidate : t -> int -> unit
(** Drop a line if resident (atomics operate at the L2). *)

val random_resident_line : t -> seed:int -> int option
(** Pick a resident line for fault injection; [None] when empty. *)

