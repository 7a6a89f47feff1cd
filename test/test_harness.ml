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

(* ------------------------------------------------------------------ *)
(* One-launch benchmarks from a kernel and argument specs               *)
(* ------------------------------------------------------------------ *)

(* y[i] <- a * x[i] + y[i] over the first n items *)
let axpy_kernel () =
  let open Gpu_ir in
  let b = Builder.create "axpy" in
  let x = Builder.buffer_param b "x" in
  let y = Builder.buffer_param b "y" in
  let a = Builder.scalar_param b "a" in
  let n = Builder.scalar_param b "n" in
  let gid = Builder.global_id b 0 in
  Builder.when_ b (Builder.lt_s b gid n) (fun () ->
      let xv = Builder.gload_elem b x gid in
      let yv = Builder.gload_elem b y gid in
      Builder.gstore_elem b y gid
        (Builder.fma b (Builder.cvt b Types.Bitcast a) xv yv));
  Builder.finish b

let axpy_items = 1024
let axpy_n = 1000

let axpy_args =
  Kernels.Bench.
    [
      Buf (axpy_items, Findex); Buf (axpy_items, Fill_f32 1.0); F32 2.5;
      I32 axpy_n;
    ]

(* The host protocol [Run.run] replaces, written out: fill the buffers,
   transform, launch on the variant's NDRange with the extra buffers
   appended. *)
let hand_launch variant =
  let dev = Gpu_sim.Device.create Gpu_sim.Config.default in
  let x = Gpu_sim.Device.alloc dev (axpy_items * 4) in
  let y = Gpu_sim.Device.alloc dev (axpy_items * 4) in
  for i = 0 to axpy_items - 1 do
    Gpu_sim.Device.write_f32 dev x i (float_of_int i);
    Gpu_sim.Device.write_f32 dev y i 1.0
  done;
  let nd0 = Gpu_sim.Geom.make_ndrange axpy_items 64 in
  let k = T.apply variant ~local_items:64 (axpy_kernel ()) in
  let extras = T.make_extras variant dev ~nd:nd0 in
  let r =
    Gpu_sim.Device.launch dev k ~nd:(T.map_ndrange variant nd0)
      ~args:
        ([ Gpu_sim.Device.A_buf x; A_buf y; A_f32 2.5; A_i32 axpy_n ]
        @ extras.T.ex_args)
  in
  (r, List.map (fun b -> Gpu_sim.Device.read_i32_array dev b axpy_items) [ x; y ])

let test_of_kernel_equals_hand_launch () =
  List.iter
    (fun variant ->
      let what = T.name variant in
      let outputs = ref [] in
      let bench =
        Kernels.Bench.of_kernel ~id:"axpy" ~name:"axpy" ~global:axpy_items
          ~local:64 ~args:axpy_args
          ~verify:(fun dev args ->
            outputs :=
              List.filter_map
                (function
                  | Gpu_sim.Device.A_buf b ->
                      Some (Gpu_sim.Device.read_i32_array dev b (b.size / 4))
                  | A_i32 _ | A_f32 _ -> None)
                args;
            true)
          axpy_kernel
      in
      let s = Harness.Run.run bench variant in
      let r, bufs = hand_launch variant in
      check Alcotest.bool (what ^ ": finished") true
        (s.Harness.Run.outcome = Gpu_sim.Device.Finished
        && r.Gpu_sim.Device.outcome = Gpu_sim.Device.Finished);
      check Alcotest.bool (what ^ ": verified") true s.Harness.Run.verified;
      check Alcotest.int (what ^ ": cycles") r.Gpu_sim.Device.cycles
        s.Harness.Run.cycles;
      check
        Alcotest.(list (pair string int))
        (what ^ ": counters")
        (Gpu_sim.Counters.to_fields r.Gpu_sim.Device.counters)
        (Gpu_sim.Counters.to_fields s.Harness.Run.counters);
      check Alcotest.(list (array int)) (what ^ ": buffers") bufs !outputs;
      check (Alcotest.float 0.0) (what ^ ": y[999] = 2.5 * 999 + 1") 2498.5
        (Gpu_ir.F32.to_float (List.nth !outputs 1).(axpy_n - 1));
      check (Alcotest.float 0.0) (what ^ ": y[1000] untouched") 1.0
        (Gpu_ir.F32.to_float (List.nth !outputs 1).(axpy_n)))
    [ T.Original; T.inter_group ]

let extension_suite =
  [
    tc "naive duplication" `Quick test_naive_duplication;
    tc "spearman" `Quick test_spearman;
    tc "sched policy" `Quick test_sched_policy_changes_schedule;
    tc "csv export" `Slow test_csv_export;
    tc "of_kernel bench: Run.run equals a hand launch" `Quick
      test_of_kernel_equals_hand_launch;
  ]

let suite = base_suite @ extension_suite
