(* Tests for the harness: multi-pass accumulation, slowdown computation,
   experiment caching and the report renderers. *)

module T = Rmt_core.Transform

let check = Alcotest.check
let tc = Alcotest.test_case

let string_contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  go 0

let test_multipass_accumulation () =
  let bench = Kernels.Registry.find "FWT" in
  let s = Harness.Run.run bench T.Original in
  check Alcotest.int "13 steps recorded" 13 s.Harness.Run.steps;
  check Alcotest.bool "counters summed over passes" true
    (s.Harness.Run.counters.Gpu_sim.Counters.groups_launched >= 13);
  check Alcotest.int "cycles equal counter cycles"
    s.Harness.Run.cycles s.Harness.Run.counters.Gpu_sim.Counters.cycles

let test_slowdown () =
  let bench = Kernels.Registry.find "PS" in
  let b = Harness.Run.run bench T.Original in
  let v = Harness.Run.run bench T.intra_plus_lds in
  let s = Harness.Run.slowdown ~base:b v in
  check Alcotest.bool "slowdown positive" true (s > 0.9 && s < 10.0)

let test_experiment_cache () =
  let ctx = Harness.Experiments.create_ctx () in
  let bench = Kernels.Registry.find "PS" in
  let s1 = Harness.Experiments.get ctx bench T.Original in
  let s2 = Harness.Experiments.get ctx bench T.Original in
  check Alcotest.bool "cached result is reused" true (s1 == s2)

let test_table_renderers () =
  let t1 = Harness.Experiments.table1 () in
  check Alcotest.bool "table1 totals 21%" true (string_contains t1 "21.0% overhead");
  check Alcotest.bool "table1 has VRF row" true
    (string_contains t1 "Vector register file");
  let t2 = Harness.Experiments.table2 () in
  check Alcotest.bool "table2 lists both flavors" true
    (string_contains t2 "Intra-Group+LDS" && string_contains t2 "Intra-Group-LDS");
  let t3 = Harness.Experiments.table3 () in
  check Alcotest.bool "table3 lists inter" true (string_contains t3 "Inter-Group");
  let f8 = Harness.Experiments.fig8 () in
  check Alcotest.bool "fig8 shows duplicated lanes" true
    (string_contains f8 "t0=10 t1=10")

let test_report_bar () =
  check Alcotest.string "zero bar" "" (Harness.Report.bar 0.0);
  check Alcotest.bool "full bar caps" true
    (String.length (Harness.Report.bar ~width:10 ~full:2.0 5.0) = 10)

let test_extras_reset () =
  (* Inter-Group extras must reset the counter between launches *)
  let dev = Gpu_sim.Device.create Gpu_sim.Config.small in
  let nd = Gpu_sim.Geom.make_ndrange 128 64 in
  let extras = T.make_extras T.inter_group dev ~nd in
  match extras.T.ex_args with
  | [ Gpu_sim.Device.A_buf counter; Gpu_sim.Device.A_buf _comm ] ->
      Gpu_sim.Device.write_i32 dev counter 0 99;
      extras.T.reset dev;
      check Alcotest.int "counter rezeroed" 0 (Gpu_sim.Device.read_i32 dev counter 0)
  | _ -> Alcotest.fail "expected counter and comm buffers"

let base_suite =
  [
    tc "multipass accumulation" `Quick test_multipass_accumulation;
    tc "slowdown" `Quick test_slowdown;
    tc "experiment cache" `Quick test_experiment_cache;
    tc "table renderers" `Quick test_table_renderers;
    tc "report bars" `Quick test_report_bar;
    tc "extras reset" `Quick test_extras_reset;
  ]

(* ------------------------------------------------------------------ *)
(* Extension experiments                                                *)
(* ------------------------------------------------------------------ *)

(* What the paper's Sec. 3.4 host does: the Original launch sequence
   twice on one device. *)
let double_launch (bench : Kernels.Bench.t) =
  let dev = Gpu_sim.Device.create Gpu_sim.Config.default in
  let prep = bench.prepare dev ~scale:1 in
  let nd = (List.hd prep.Kernels.Bench.steps).Kernels.Bench.nd in
  let kernel = Harness.Run.transformed_kernel bench T.Original ~nd in
  let total = Gpu_sim.Counters.create () in
  for _copy = 1 to 2 do
    List.iter
      (fun (step : Kernels.Bench.step) ->
        let r =
          Gpu_sim.Device.launch dev kernel ~nd:step.nd ~args:step.args
        in
        Gpu_sim.Counters.accumulate ~into:total r.Gpu_sim.Device.counters)
      prep.steps
  done;
  (total, 2 * List.length prep.steps)

(* The derived baseline equals a simulated double launch, on a
   single-pass kernel, a multi-pass in-place sort (BitS) and a
   multi-pass in-place update (FW). *)
let test_naive_duplication () =
  List.iter
    (fun id ->
      let bench = Kernels.Registry.find id in
      let base = Harness.Run.run bench T.Original in
      let nv = Harness.Run.naive_duplication base in
      let counters, steps = double_launch bench in
      check Alcotest.int (id ^ ": cycles of two launches") counters.cycles
        nv.Harness.Run.cycles;
      check
        Alcotest.(list (pair string int))
        (id ^ ": counters of two launches")
        (Gpu_sim.Counters.to_fields counters)
        (Gpu_sim.Counters.to_fields nv.Harness.Run.counters);
      check Alcotest.int (id ^ ": launches") steps nv.Harness.Run.steps;
      check (Alcotest.float 0.0) (id ^ ": exactly 2x") 2.0
        (Harness.Run.slowdown ~base nv))
    [ "PS"; "BitS"; "FW" ]

let test_spearman () =
  check (Alcotest.float 1e-9) "identical ranking" 1.0
    (Harness.Experiments.spearman [ 1.0; 2.0; 3.0; 4.0 ] [ 10.0; 20.0; 30.0; 40.0 ]);
  check (Alcotest.float 1e-9) "reversed ranking" (-1.0)
    (Harness.Experiments.spearman [ 1.0; 2.0; 3.0 ] [ 9.0; 5.0; 1.0 ])

let test_sched_policy_changes_schedule () =
  (* both policies must produce correct results; timings may differ *)
  let bench = Kernels.Registry.find "R" in
  let run policy =
    Harness.Run.run
      ~cfg:{ Gpu_sim.Config.default with Gpu_sim.Config.sched_policy = policy }
      bench T.intra_plus_lds
  in
  let g = run Gpu_sim.Config.Greedy in
  let r = run Gpu_sim.Config.Round_robin in
  check Alcotest.bool "greedy verified" true g.Harness.Run.verified;
  check Alcotest.bool "round-robin verified" true r.Harness.Run.verified

let test_csv_export () =
  let dir = Filename.temp_file "rmt" "" in
  Sys.remove dir;
  let ctx = Harness.Experiments.create_ctx () in
  (* pre-warm the cache with just one kernel pair to keep this test fast
     is not possible through the public API; use the small config rather *)
  ignore ctx;
  let ctx = Harness.Experiments.create_ctx ~cfg:Gpu_sim.Config.default () in
  let benches = [ Kernels.Registry.find "PS"; Kernels.Registry.find "SF" ] in
  let report = Harness.Experiments.export ~dir ~benches ctx in
  check Alcotest.bool "mentions fig2 csv" true
    (string_contains report "fig2_intra_slowdowns.csv");
  let csv =
    In_channel.with_open_text
      (Filename.concat dir "fig2_intra_slowdowns.csv")
      In_channel.input_all
  in
  check Alcotest.bool "header present" true
    (string_contains csv "kernel,intra_plus_lds,intra_minus_lds");
  check Alcotest.bool "2 kernels + header" true
    (List.length (String.split_on_char '\n' (String.trim csv)) = 3)

let extension_suite =
  [
    tc "naive duplication" `Quick test_naive_duplication;
    tc "spearman" `Quick test_spearman;
    tc "sched policy" `Quick test_sched_policy_changes_schedule;
    tc "csv export" `Slow test_csv_export;
  ]

let suite = base_suite @ extension_suite
