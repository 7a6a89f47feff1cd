(** SEC-DED (single-error-correct, double-error-detect) storage cost,
    from the Hamming bound. Sizes the Table 1 overhead estimates. *)

val check_bits : int -> int
(** Hamming check bits needed for [k] data bits. *)

val total_bits : int -> int
(** Total stored bits for [k] data bits under SEC-DED (check bits plus
    the overall parity bit). *)

val overhead_bits : word_bits:int -> data_bits:int -> int
(** Storage overhead in bits for a structure of [data_bits] protected at
    a granularity of [word_bits] per code word. *)
