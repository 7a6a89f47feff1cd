(** Plain-text rendering of the paper's tables and figure series. Bar
    charts become aligned numeric columns plus an ASCII bar so the shape
    (who wins, by how much, where the crossovers fall) is visible in a
    terminal. *)

let bar ?(width = 32) ?(full = 3.0) v =
  let v' = Float.max 0.0 (Float.min v full) in
  let n = int_of_float (v' /. full *. float_of_int width) in
  String.make n '#'

let heading buf title =
  Buffer.add_string buf ("\n== " ^ title ^ " ==\n")

let row buf fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt

let pct v = Printf.sprintf "%5.1f%%" v
