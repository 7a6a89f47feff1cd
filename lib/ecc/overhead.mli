(** ECC overhead model reproducing paper Table 1: SEC-DED cost for the
    storage structures of one GCN compute unit, computed from the Hamming
    bound in {!Sec_ded}. *)

type granularity = Word32 | Line of int  (** line size in bytes *)

type structure = { s_name : string; s_bytes : int; s_gran : granularity }

val gcn_cu_structures : structure list
val ecc_bytes : structure -> float

type row = { r_name : string; r_size_bytes : int; r_ecc_bytes : float }

val table1 : unit -> row list

val totals : row list -> float * float
(** Total ECC bytes and overhead fraction. *)

val render : unit -> string
