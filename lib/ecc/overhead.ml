(** ECC overhead model reproducing Table 1 of the paper: estimated
    SEC-DED cost for the storage structures of one GCN compute unit,
    assuming register-granularity protection (one code per 32-bit word)
    for register files and the LDS, and cache-line-granularity protection
    for the L1.

    The check-bit counts come from the Hamming bound in {!Sec_ded}, not
    from hard-coded constants: 7 bits per 32-bit word, 11 bits per 512-bit
    line. Note the paper's L1 row (343.75 B) corresponds to interpreting
    16 kB as 16,000 bytes; we use binary kB throughout (352 B) and record
    the delta in EXPERIMENTS.md. *)

type granularity = Word32 | Line of int  (** line size in bytes *)

type structure = {
  s_name : string;
  s_bytes : int;
  s_gran : granularity;
}

(** The four protected structures of a GCN CU (paper Table 1). *)
let gcn_cu_structures =
  [
    { s_name = "Local data share"; s_bytes = 64 * 1024; s_gran = Word32 };
    { s_name = "Vector register file"; s_bytes = 256 * 1024; s_gran = Word32 };
    { s_name = "Scalar register file"; s_bytes = 8 * 1024; s_gran = Word32 };
    { s_name = "R/W L1 cache"; s_bytes = 16 * 1024; s_gran = Line 64 };
  ]

(** ECC bytes needed to protect [s]. *)
let ecc_bytes (s : structure) =
  let word_bits = match s.s_gran with Word32 -> 32 | Line b -> b * 8 in
  let bits = Sec_ded.overhead_bits ~word_bits ~data_bits:(s.s_bytes * 8) in
  float_of_int bits /. 8.0

type row = {
  r_name : string;
  r_size_bytes : int;
  r_ecc_bytes : float;
}

let table1 () =
  List.map
    (fun s -> { r_name = s.s_name; r_size_bytes = s.s_bytes; r_ecc_bytes = ecc_bytes s })
    gcn_cu_structures

(** Total ECC bytes and overhead fraction across the CU. *)
let totals rows =
  let total_data =
    List.fold_left (fun a r -> a + r.r_size_bytes) 0 rows
  in
  let total_ecc = List.fold_left (fun a r -> a +. r.r_ecc_bytes) 0.0 rows in
  (total_ecc, total_ecc /. float_of_int total_data)

let pretty_bytes b =
  if Float.rem b 1024.0 = 0.0 then Printf.sprintf "%g kB" (b /. 1024.0)
  else if b >= 1024.0 then Printf.sprintf "%.2f kB" (b /. 1024.0)
  else Printf.sprintf "%.2f B" b

(** Render Table 1 as text. *)
let render () =
  let rows = table1 () in
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "%-22s %10s %18s\n" "Structure" "Size" "Estimated ECC");
  List.iter
    (fun r ->
      Buffer.add_string buf
        (Printf.sprintf "%-22s %10s %18s\n" r.r_name
           (pretty_bytes (float_of_int r.r_size_bytes))
           (pretty_bytes r.r_ecc_bytes)))
    rows;
  let total, frac = totals rows in
  Buffer.add_string buf
    (Printf.sprintf "Total ECC per CU: %s (%.1f%% overhead)\n"
       (pretty_bytes total) (100.0 *. frac));
  Buffer.contents buf
