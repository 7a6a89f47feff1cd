(** SEC-DED (single-error-correct, double-error-detect) storage cost.

    Sizes the ECC overheads of Table 1 from the Hamming bound: [k] data
    bits need [r] check bits with [2^r >= k + r + 1], plus one overall
    parity bit for double-error detection. That gives a (39,32) code for
    register-granularity protection (6 check bits + 1 parity per 32-bit
    word) and 11 extra bits per 512-bit cache line. *)

(** Number of Hamming check bits needed for [k] data bits. *)
let check_bits k =
  let rec go r = if 1 lsl r >= k + r + 1 then r else go (r + 1) in
  go 1

(** Total stored bits for [k] data bits under SEC-DED. *)
let total_bits k = k + check_bits k + 1

(** SEC-DED storage overhead in bits for a structure of [data_bits]
    protected at a granularity of [word_bits] per code word. *)
let overhead_bits ~word_bits ~data_bits =
  let words = (data_bits + word_bits - 1) / word_bits in
  words * (total_bits word_bits - word_bits)
