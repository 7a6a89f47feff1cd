(* Correctness tests for the 16 AMD SDK benchmark kernels: every kernel is
   verified against its CPU reference under the original version, and a
   fast subset also under every RMT flavor (the full grid runs in the
   bench harness). *)

module T = Rmt_core.Transform

let check = Alcotest.check
let tc = Alcotest.test_case

let test_original (bench : Kernels.Bench.t) () =
  let s = Harness.Run.run bench T.Original in
  check Alcotest.bool "finished" true
    (s.Harness.Run.outcome = Gpu_sim.Device.Finished);
  check Alcotest.bool "verified against CPU reference" true
    s.Harness.Run.verified

let rmt_subset = [ "BinS"; "BlkSch"; "DWT"; "PS"; "R"; "SF"; "URNG"; "FWT" ]

let test_rmt_variants id () =
  let bench = Kernels.Registry.find id in
  List.iter
    (fun variant ->
      let s = Harness.Run.run bench variant in
      check Alcotest.bool
        (Printf.sprintf "%s %s verified" id (T.name variant))
        true
        (s.Harness.Run.outcome = Gpu_sim.Device.Finished
        && s.Harness.Run.verified))
    [
      T.intra_plus_lds;
      T.intra_minus_lds;
      T.intra_plus_lds_fast;
      T.inter_group;
    ]

let test_kernel_statics () =
  (* spot-check the documented workload characters against static stats *)
  let stats id =
    Gpu_ir.Stats.collect ((Kernels.Registry.find id).make_kernel ())
  in
  let bo = stats "BO" in
  check Alcotest.bool "BO uses LDS" true
    (bo.Gpu_ir.Stats.local_loads + bo.Gpu_ir.Stats.local_stores > 0);
  let bits = stats "BitS" in
  check Alcotest.int "BitS stores two elements" 2 bits.Gpu_ir.Stats.global_stores;
  let blk = stats "BlkSch" in
  check Alcotest.bool "BlkSch is VALU-heavy" true
    (blk.Gpu_ir.Stats.valu > 5 * (blk.Gpu_ir.Stats.global_loads + blk.Gpu_ir.Stats.global_stores));
  let sc = stats "SC" in
  check Alcotest.bool "SC is load-heavy" true (sc.Gpu_ir.Stats.global_loads > 10)

let test_multipass_structure () =
  let dev = Gpu_sim.Device.create Gpu_sim.Config.default in
  let prep = (Kernels.Registry.find "FWT").prepare dev ~scale:1 in
  check Alcotest.int "FWT: log2(8192) passes" 13
    (List.length prep.Kernels.Bench.steps);
  let dev2 = Gpu_sim.Device.create Gpu_sim.Config.default in
  let prep2 = (Kernels.Registry.find "FW").prepare dev2 ~scale:1 in
  check Alcotest.int "FW: one pass per node" 64
    (List.length prep2.Kernels.Bench.steps)

let test_underutilization () =
  (* NB and PS deliberately under-fill the 12-CU device (paper Sec. 7.4) *)
  let groups id =
    let dev = Gpu_sim.Device.create Gpu_sim.Config.default in
    let prep = (Kernels.Registry.find id).prepare dev ~scale:1 in
    Gpu_sim.Geom.total_groups (List.hd prep.Kernels.Bench.steps).Kernels.Bench.nd
  in
  check Alcotest.int "NB launches 8 groups" 8 (groups "NB");
  check Alcotest.int "PS launches 1 group" 1 (groups "PS");
  check Alcotest.bool "others saturate 12 CUs" true (groups "SF" >= 12)

let base_suite =
  List.map
    (fun (b : Kernels.Bench.t) ->
      tc (Printf.sprintf "original: %s" b.id) `Slow (test_original b))
    Kernels.Registry.all
  @ List.map
      (fun id -> tc (Printf.sprintf "rmt grid: %s" id) `Slow (test_rmt_variants id))
      rmt_subset
  @ [
      tc "static characters" `Quick test_kernel_statics;
      tc "multipass structure" `Quick test_multipass_structure;
      tc "underutilization by design" `Quick test_underutilization;
    ]


(* ------------------------------------------------------------------ *)
(* Mathematical sanity of the device results (beyond reference match)  *)
(* ------------------------------------------------------------------ *)

(* Prepare a registry benchmark on a fresh device and return the device,
   its first step's arguments, and a function that launches the Original
   kernel's whole step sequence. *)
let prepared id =
  let dev = Gpu_sim.Device.create Gpu_sim.Config.default in
  let b = Kernels.Registry.find id in
  let prep = b.prepare dev ~scale:1 in
  let k = b.make_kernel () in
  let args = (List.hd prep.Kernels.Bench.steps).Kernels.Bench.args in
  let launch_all () =
    List.iter
      (fun (step : Kernels.Bench.step) ->
        ignore
          (Gpu_sim.Device.launch dev k ~nd:step.Kernels.Bench.nd
             ~args:step.Kernels.Bench.args))
      prep.Kernels.Bench.steps
  in
  (dev, args, launch_all)

let words (buf : Gpu_sim.Device.buffer) = buf.size / 4

(* The partial sums of Reduction must add up to the total input sum. *)
let test_reduction_totals () =
  let dev, args, launch_all = prepared "R" in
  let input, partial =
    match args with
    | [ A_buf i; A_buf p ] -> (i, p)
    | _ -> Alcotest.fail "R takes two buffers"
  in
  let sum buf =
    let s = ref 0.0 in
    for i = 0 to words buf - 1 do
      s := !s +. Gpu_sim.Device.read_f32 dev buf i
    done;
    !s
  in
  let total = sum input in
  launch_all ();
  let partials = sum partial in
  check Alcotest.bool
    (Printf.sprintf "partials %.3f add up to the input sum %.3f" partials total)
    true
    (Float.abs (partials -. total) <= 1e-5 *. total)

(* BitonicSort output must be a sorted permutation of its input. *)
let test_bitonic_is_sorting_network () =
  let dev, args, launch_all = prepared "BitS" in
  let buf =
    match args with
    | A_buf b :: _ -> b
    | _ -> Alcotest.fail "BitS sorts its first argument"
  in
  let read () = Gpu_sim.Device.read_i32_array dev buf (words buf) in
  let input = read () in
  launch_all ();
  let output = read () in
  let ascending = ref true in
  for i = 1 to Array.length output - 1 do
    if output.(i - 1) > output.(i) then ascending := false
  done;
  check Alcotest.bool "output ascending" true !ascending;
  let sorted a =
    let a = Array.copy a in
    Array.sort compare a;
    a
  in
  check Alcotest.bool "output is a permutation of the input" true
    (sorted input = sorted output)

(* The Walsh transform applied twice is N times the identity; check the
   device output against that analytic property rather than the mirror
   reference. *)
let test_fwt_involution () =
  let open Gpu_ir in
  let n = 256 in
  let k = (Kernels.Registry.find "FWT").make_kernel () in
  let dev = Gpu_sim.Device.create Gpu_sim.Config.small in
  let buf = Gpu_sim.Device.alloc dev (n * 4) in
  let data = Array.init n (fun i -> float_of_int ((i mod 17) - 8)) in
  Gpu_sim.Device.write_f32_array dev buf data;
  let run_all () =
    let s = ref 1 in
    while !s < n do
      ignore
        (Gpu_sim.Device.launch dev k
           ~nd:(Gpu_sim.Geom.make_ndrange (n / 2) 64)
           ~args:[ Gpu_sim.Device.A_buf buf; A_i32 !s ]);
      s := !s * 2
    done
  in
  run_all ();
  run_all ();
  let ok = ref true in
  for i = 0 to n - 1 do
    let got = Gpu_sim.Device.read_f32 dev buf i in
    if not (Kernels.Bench.f32_close ~tol:1e-3 got (float_of_int n *. data.(i)))
    then ok := false
  done;
  ignore (Verify.check_result k);
  check Alcotest.bool "FWT . FWT = N * id" true !ok

(* FloydWarshall distances can never increase and respect the triangle
   inequality through any single intermediate. *)
let test_fw_triangle () =
  let dev, args, launch_all = prepared "FW" in
  let buf, n =
    match args with
    | [ A_buf b; A_i32 n; _ ] -> (b, n)
    | _ -> Alcotest.fail "FW takes the matrix, n and k"
  in
  let read () = Gpu_sim.Device.read_i32_array dev buf (n * n) in
  let input = read () in
  launch_all ();
  let d = read () in
  let never_grew = ref true and triangle = ref true in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if d.((i * n) + j) > input.((i * n) + j) then never_grew := false;
      for k = 0 to n - 1 do
        if d.((i * n) + j) > d.((i * n) + k) + d.((k * n) + j) then
          triangle := false
      done
    done
  done;
  check Alcotest.bool "no distance exceeds the input" true !never_grew;
  check Alcotest.bool "d[i][j] <= d[i][k] + d[k][j]" true !triangle

let property_suite =
  [
    tc "reduction totals" `Quick test_reduction_totals;
    tc "bitonic sorts" `Quick test_bitonic_is_sorting_network;
    tc "fwt involution" `Quick test_fwt_involution;
    tc "fw triangle" `Quick test_fw_triangle;
  ]

let suite = base_suite @ property_suite
