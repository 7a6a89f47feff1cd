(* Tests for fault campaigns and device injection mechanics: faults land
   where aimed, campaign bookkeeping is consistent, and coverage matches
   the SoR model on a real benchmark. *)

module Sim = Gpu_sim
module T = Rmt_core.Transform
module C = Harness.Campaign

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
  let s =
    Harness.Run.run ~cfg:Sim.Config.small (Kernels.Registry.find "PS")
      T.Original
  in
  let obs outcome verified = { s with Harness.Run.outcome; verified } in
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

(* A launch refuses to fork once its flip has landed, whether or not it
   keeps a provenance record: the copy would carry the flip. *)
let test_no_fork_after_flip () =
  let bench = Kernels.Registry.find "BlkSch" in
  let dev = Sim.Device.create Sim.Config.small in
  let step = List.hd (bench.prepare dev ~scale:1).Kernels.Bench.steps in
  let nd = step.Kernels.Bench.nd in
  let k = Harness.Run.transformed_kernel bench T.Original ~nd in
  List.iter
    (fun provenance ->
      let l =
        Sim.Device.Launch.create
          ~opts:{ Sim.Device.default_opts with provenance }
          (Sim.Device.fork dev) k ~nd ~args:step.Kernels.Bench.args
      in
      Sim.Device.Launch.inject l
        { Sim.Device.at_cycle = 100; target = Sim.Device.T_vgpr; iseed = 5 }
        ~stop_when_dead:false;
      Sim.Device.Launch.run_until l 200;
      Alcotest.check_raises "fork after the flip"
        (Invalid_argument "Launch.fork: a fault has landed") (fun () ->
          ignore (Sim.Device.Launch.fork l)))
    [ None; Some (Gpu_prof.Provenance.create ()) ]

(* Without RMT, injections can produce silent data corruption; the runs
   must never report Detected (there is no checker to fire). *)
let test_original_never_detects () =
  let bench = Kernels.Registry.find "R" in
  let ctx = Harness.Experiments.create_ctx ~cfg:Sim.Config.default () in
  let t =
    C.tally
      (Harness.Experiments.campaign ctx ~n:10 ~target:Sim.Device.T_vgpr
         ~seed:11 bench T.Original)
  in
  check Alcotest.int "original cannot detect" 0 t.C.detected

(* Under Intra-Group RMT, VGPR faults must never cause SDC (VRF is inside
   the SoR, Table 2). *)
let test_intra_vgpr_covered () =
  let bench = Kernels.Registry.find "R" in
  let ctx = Harness.Experiments.create_ctx ~cfg:Sim.Config.default () in
  let t =
    C.tally
      (Harness.Experiments.campaign ctx ~n:12 ~target:Sim.Device.T_vgpr
         ~seed:3 bench T.intra_plus_lds)
  in
  check Alcotest.int "no SDC through the VRF under intra RMT" 0 t.C.sdc

(* LDS faults under Intra-Group-LDS can slip through (LDS outside SoR);
   under Intra-Group+LDS they must not cause SDC. *)
let test_lds_coverage_difference () =
  let bench = Kernels.Registry.find "R" in
  let ctx = Harness.Experiments.create_ctx ~cfg:Sim.Config.default () in
  let t_plus =
    C.tally
      (Harness.Experiments.campaign ctx ~n:12 ~target:Sim.Device.T_lds
         ~seed:17 bench T.intra_plus_lds)
  in
  check Alcotest.int "+LDS: no SDC through LDS" 0 t_plus.C.sdc

(* The TMR study's flips are placed over each version's own run, so every
   one of them lands: a flip timed after the run has ended flips nothing,
   yet its run would still count as completed-correct. *)
let test_tmr_study_flips_land () =
  List.iter
    (fun quick ->
      let ctx = Harness.Experiments.create_ctx ~quick () in
      List.iter
        (fun (name, runs) ->
          check Alcotest.int
            (Printf.sprintf "%s runs (quick=%b)" name quick)
            (if quick then 10 else 30)
            (List.length runs);
          List.iteri
            (fun i (s : Harness.Run.summary) ->
              if not s.inject_applied then
                Alcotest.failf "%s flip %d (quick=%b) did not land" name i
                  quick)
            runs)
        (Harness.Experiments.tmr_campaigns ctx))
    [ true; false ]

let suite =
  [
    tc "tally bookkeeping" `Quick test_tally_bookkeeping;
    tc "classification" `Quick test_classification;
    tc "lds injection needs lds" `Quick test_lds_injection_needs_lds;
    tc "vgpr injection applies" `Quick test_vgpr_injection_applies;
    tc "no fork after the flip" `Quick test_no_fork_after_flip;
    tc "original never detects" `Slow test_original_never_detects;
    tc "intra covers VGPR" `Slow test_intra_vgpr_covered;
    tc "+LDS covers LDS" `Slow test_lds_coverage_difference;
    tc "TMR study: every flip lands" `Quick test_tmr_study_flips_land;
  ]
