(* Tests for the activity-based power model. *)

module P = Gpu_power.Power_model
module Counters = Gpu_sim.Counters

let check = Alcotest.check
let tc = Alcotest.test_case
let cfg = Gpu_sim.Config.default

let window ~cycles ~valu =
  let c = Counters.create () in
  c.Counters.cycles <- cycles;
  c.Counters.valu_lane_ops <- valu;
  c

let test_idle_floor () =
  let w = window ~cycles:1000 ~valu:0 in
  let p = P.window_power ~cfg w in
  let floor = P.default.P.static_w +. (float_of_int cfg.n_cus *. P.default.P.idle_cu_w) in
  check (Alcotest.float 0.001) "idle power is the floor" floor p

let test_monotone_in_activity () =
  let p1 = P.window_power ~cfg (window ~cycles:1000 ~valu:10_000) in
  let p2 = P.window_power ~cfg (window ~cycles:1000 ~valu:100_000) in
  check Alcotest.bool "more activity, more power" true (p2 > p1)

let test_report_weighting () =
  (* two windows of equal duration: average is the midpoint *)
  let w1 = window ~cycles:1000 ~valu:0 in
  let w2 = window ~cycles:1000 ~valu:200_000 in
  let rep = P.report ~cfg ~windows:[| w1; w2 |] ~fallback:w1 () in
  let p1 = P.window_power ~cfg w1 and p2 = P.window_power ~cfg w2 in
  check (Alcotest.float 0.01) "weighted average" ((p1 +. p2) /. 2.0)
    rep.P.average_w;
  check (Alcotest.float 0.01) "peak is max" p2 rep.P.peak_w;
  check Alcotest.int "two samples" 2 (Array.length rep.P.samples)

let test_fallback_single_window () =
  let w = window ~cycles:500 ~valu:1000 in
  let rep = P.report ~cfg ~windows:[||] ~fallback:w () in
  check Alcotest.int "one sample from fallback" 1 (Array.length rep.P.samples)

let test_power_in_band_for_real_kernel () =
  let bench = Kernels.Registry.find "R" in
  let s =
    Harness.Run.run ~cfg:{ cfg with window_cycles = 2000 } bench
      Rmt_core.Transform.Original
  in
  let rep = P.report ~cfg ~windows:s.Harness.Run.windows ~fallback:s.Harness.Run.counters () in
  check Alcotest.bool
    (Printf.sprintf "average %.1f W within the paper's 50-90 W band" rep.P.average_w)
    true
    (rep.P.average_w > 50.0 && rep.P.average_w < 90.0)

let suite =
  [
    tc "idle floor" `Quick test_idle_floor;
    tc "monotone in activity" `Quick test_monotone_in_activity;
    tc "report weighting" `Quick test_report_weighting;
    tc "fallback window" `Quick test_fallback_single_window;
    tc "real kernel in band" `Quick test_power_in_band_for_real_kernel;
  ]
