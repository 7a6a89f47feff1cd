(* Tests for the fault library and device injection mechanics: faults land
   where aimed, campaign bookkeeping is consistent, and coverage matches
   the SoR model on a real benchmark. *)

module Sim = Gpu_sim
module T = Rmt_core.Transform
module C = Fault.Campaign

let check = Alcotest.check
let tc = Alcotest.test_case

let test_tally_bookkeeping () =
  let t = C.tally_create () in
  C.record t C.O_masked;
  C.record t C.O_detected;
  C.record t C.O_detected;
  C.record t C.O_sdc;
  check Alcotest.int "total" 4 (C.tally_total t);
  check Alcotest.bool "sdc blocks coverage" false (C.covered t)

let test_classification () =
  let obs oc output_ok =
    {
      C.oc;
      output_ok;
      applied = true;
      latency = None;
      prov = None;
      san_clean = None;
    }
  in
  check Alcotest.bool "detected" true
    (C.classify (obs Sim.Device.Detected false) = C.O_detected);
  check Alcotest.bool "masked" true
    (C.classify (obs Sim.Device.Finished true) = C.O_masked);
  check Alcotest.bool "sdc" true
    (C.classify (obs Sim.Device.Finished false) = C.O_sdc);
  check Alcotest.bool "crash" true
    (C.classify (obs (Sim.Device.Crashed "x") false) = C.O_crash);
  check Alcotest.bool "hang" true
    (C.classify (obs Sim.Device.Hung false) = C.O_hang)

(* An injection aimed at the LDS of a kernel without LDS cannot apply. *)
let test_lds_injection_needs_lds () =
  let bench = Kernels.Registry.find "BlkSch" in
  let s =
    Harness.Run.run ~cfg:Sim.Config.small bench T.Original
      ~inject:{ Sim.Device.at_cycle = 100; target = Sim.Device.T_lds; iseed = 5 }
  in
  check Alcotest.bool "not applied" false s.Harness.Run.inject_applied

let test_vgpr_injection_applies () =
  let bench = Kernels.Registry.find "BlkSch" in
  let s =
    Harness.Run.run ~cfg:Sim.Config.small bench T.Original
      ~inject:{ Sim.Device.at_cycle = 100; target = Sim.Device.T_vgpr; iseed = 5 }
  in
  check Alcotest.bool "applied" true s.Harness.Run.inject_applied

(* Without RMT, injections can produce silent data corruption; the runs
   must never report Detected (there is no checker to fire). *)
let test_original_never_detects () =
  let bench = Kernels.Registry.find "R" in
  let ctx = Harness.Experiments.create_ctx ~cfg:Sim.Config.default () in
  let e = Harness.Experiments.coverage_experiment ctx bench T.Original in
  let t =
    C.run_observations ~n:10 ~target:Sim.Device.T_vgpr ~seed:11 e
    |> C.tally_of_observations
  in
  check Alcotest.int "original cannot detect" 0 t.C.detected

(* Under Intra-Group RMT, VGPR faults must never cause SDC (VRF is inside
   the SoR, Table 2). *)
let test_intra_vgpr_covered () =
  let bench = Kernels.Registry.find "R" in
  let ctx = Harness.Experiments.create_ctx ~cfg:Sim.Config.default () in
  let e = Harness.Experiments.coverage_experiment ctx bench T.intra_plus_lds in
  let t =
    C.run_observations ~n:12 ~target:Sim.Device.T_vgpr ~seed:3 e
    |> C.tally_of_observations
  in
  check Alcotest.int "no SDC through the VRF under intra RMT" 0 t.C.sdc

(* LDS faults under Intra-Group-LDS can slip through (LDS outside SoR);
   under Intra-Group+LDS they must not cause SDC. *)
let test_lds_coverage_difference () =
  let bench = Kernels.Registry.find "R" in
  let ctx = Harness.Experiments.create_ctx ~cfg:Sim.Config.default () in
  let e_plus = Harness.Experiments.coverage_experiment ctx bench T.intra_plus_lds in
  let t_plus =
    C.run_observations ~n:12 ~target:Sim.Device.T_lds ~seed:17 e_plus
    |> C.tally_of_observations
  in
  check Alcotest.int "+LDS: no SDC through LDS" 0 t_plus.C.sdc

let suite =
  [
    tc "tally bookkeeping" `Quick test_tally_bookkeeping;
    tc "classification" `Quick test_classification;
    tc "lds injection needs lds" `Quick test_lds_injection_needs_lds;
    tc "vgpr injection applies" `Quick test_vgpr_injection_applies;
    tc "original never detects" `Slow test_original_never_detects;
    tc "intra covers VGPR" `Slow test_intra_vgpr_covered;
    tc "+LDS covers LDS" `Slow test_lds_coverage_difference;
  ]
