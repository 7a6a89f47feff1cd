(* Tests for the SEC-DED Hamming bound and the Table 1 overhead model. *)

open Ecc

let check = Alcotest.check
let tc = Alcotest.test_case

let test_check_bits () =
  check Alcotest.int "k=32 needs 6 check bits" 6 (Sec_ded.check_bits 32);
  check Alcotest.int "k=64 needs 7 check bits" 7 (Sec_ded.check_bits 64);
  check Alcotest.int "k=512 needs 10 check bits" 10 (Sec_ded.check_bits 512);
  check Alcotest.int "k=32 total (38,32)+parity" 39 (Sec_ded.total_bits 32);
  check Alcotest.int "k=64 total (71,64)+parity" 72 (Sec_ded.total_bits 64)

let test_hamming_bound_minimal () =
  (* [check_bits k] is the least r with 2^r >= k + r + 1 *)
  for k = 1 to 1024 do
    let r = Sec_ded.check_bits k in
    if 1 lsl r < k + r + 1 then
      Alcotest.failf "k=%d: %d check bits break the bound" k r;
    if r > 1 && 1 lsl (r - 1) >= k + r then
      Alcotest.failf "k=%d: %d check bits are not the fewest" k r
  done

let test_ecc_bytes_by_granularity () =
  let s name bytes gran = { Overhead.s_name = name; s_bytes = bytes; s_gran = gran } in
  (* 7 bits per 32-bit word: 4 bytes of data cost 7/8 byte *)
  check (Alcotest.float 1e-9) "one word" 0.875
    (Overhead.ecc_bytes (s "w" 4 Overhead.Word32));
  (* 11 bits per 64-byte line *)
  check (Alcotest.float 1e-9) "one line" 1.375
    (Overhead.ecc_bytes (s "l" 64 (Overhead.Line 64)));
  (* a partial word still pays for a whole code word *)
  check (Alcotest.float 1e-9) "partial word" 0.875
    (Overhead.ecc_bytes (s "p" 1 Overhead.Word32))

let test_render () =
  let text = Overhead.render () in
  let contains sub =
    let n = String.length sub and m = String.length text in
    let rec go i = i + n <= m && (String.sub text i n = sub || go (i + 1)) in
    go 0
  in
  List.iter
    (fun st ->
      check Alcotest.bool (st.Overhead.s_name ^ " listed") true
        (contains st.Overhead.s_name))
    Overhead.gcn_cu_structures;
  check Alcotest.bool "VRF size" true (contains "256 kB");
  check Alcotest.bool "VRF cost" true (contains "56 kB");
  check Alcotest.bool "total line" true (contains "Total ECC per CU:")

let test_table1_values () =
  let rows = Overhead.table1 () in
  let find name =
    (List.find (fun r -> r.Overhead.r_name = name) rows).Overhead.r_ecc_bytes
  in
  (* the paper's Table 1 values *)
  check (Alcotest.float 0.1) "LDS 14 kB" (14.0 *. 1024.0) (find "Local data share");
  check (Alcotest.float 0.1) "VRF 56 kB" (56.0 *. 1024.0)
    (find "Vector register file");
  check (Alcotest.float 0.1) "SRF 1.75 kB" (1.75 *. 1024.0)
    (find "Scalar register file");
  (* paper: 343.75 B with a 16,000-byte L1; 352 B with binary kB *)
  check (Alcotest.float 0.1) "L1 352 B" 352.0 (find "R/W L1 cache");
  let total, frac = Overhead.totals rows in
  check Alcotest.bool "~72 kB total" true
    (total > 71.0 *. 1024.0 && total < 73.0 *. 1024.0);
  check Alcotest.bool "~21% overhead" true (frac > 0.20 && frac < 0.22)

let test_overhead_bits () =
  (* 7 extra bits per 32-bit word *)
  check Alcotest.int "one word" 7 (Sec_ded.overhead_bits ~word_bits:32 ~data_bits:32);
  check Alcotest.int "1 kB of words" (7 * 256)
    (Sec_ded.overhead_bits ~word_bits:32 ~data_bits:(1024 * 8))

let suite =
  [
    tc "check bits" `Quick test_check_bits;
    tc "hamming bound is the least" `Quick test_hamming_bound_minimal;
    tc "ecc bytes by granularity" `Quick test_ecc_bytes_by_granularity;
    tc "render lists every structure" `Quick test_render;
    tc "table 1 values" `Quick test_table1_values;
    tc "overhead bits" `Quick test_overhead_bits;
  ]
