(* Tests for the observability layer: scheduler events (capture, zero
   perturbation, multi-pass splicing, determinism across pool worker
   counts), the Chrome-trace exporter and hand-rolled JSON, and the
   measurement counter fixes (spin_iterations under Inter-Group, the
   power-window tail flush, and write-stall span accounting vs an
   every-cycle scan). *)

open Gpu_ir
module Sim = Gpu_sim
module Sink = Gpu_trace.Sink
module Json = Gpu_trace.Json
module T = Rmt_core.Transform

let check = Alcotest.check
let tc = Alcotest.test_case

(* A kernel with some of everything observable: LDS traffic, a barrier,
   global loads and stores, plenty of VALU work. *)
let busy_kernel ?(iters = 16) () =
  let b = Builder.create "busy" in
  let out = Builder.buffer_param b "out" in
  let lds = Builder.lds_alloc b "x" (64 * 4) in
  let lid = Builder.local_id b 0 in
  let gid = Builder.global_id b 0 in
  let slot i = Builder.add b lds (Builder.shl b i (Builder.imm 2)) in
  Builder.lstore b (slot lid) gid;
  Builder.barrier b;
  let rev = Builder.sub b (Builder.imm 63) lid in
  let v = Builder.lload b (slot rev) in
  let acc = Builder.cell b (Builder.imm 0) in
  Builder.for_ b ~lo:(Builder.imm 0) ~hi:(Builder.imm iters)
    ~step:(Builder.imm 1)
    (fun j -> Builder.set b acc (Builder.add b (Builder.get acc) j));
  Builder.gstore_elem b out gid (Builder.add b v (Builder.get acc));
  Builder.finish b

let traced = { Sim.Device.default_opts with trace = true }

let launch_busy ?(opts = Sim.Device.default_opts) ?iters () =
  let k = busy_kernel ?iters () in
  let dev = Sim.Device.create Sim.Config.small in
  let buf = Sim.Device.alloc dev (256 * 4) in
  Sim.Device.launch ~opts dev k
    ~nd:(Sim.Geom.make_ndrange 256 64)
    ~args:[ Sim.Device.A_buf buf ]

(* ------------------------------------------------------------------ *)
(* Scheduler events                                                    *)
(* ------------------------------------------------------------------ *)

(* timestamps are monotone non-decreasing in emission order *)
let rec monotone last = function
  | [] -> true
  | r :: rest -> r.Sink.at >= last && monotone r.Sink.at rest

let test_collector_captures_ordered_events () =
  let r = launch_busy ~opts:traced () in
  check Alcotest.bool "finished" true (r.Sim.Device.outcome = Sim.Device.Finished);
  let records = r.Sim.Device.events in
  check Alcotest.bool "events captured" true (records <> []);
  check Alcotest.bool "timestamps monotone" true (monotone 0 records);
  (* the very first event is a group dispatch *)
  (match records with
  | { Sink.ev = Sink.Group_dispatch _; _ } :: _ -> ()
  | _ -> Alcotest.fail "first event is not a dispatch");
  let count p = List.length (List.filter p records) in
  let dispatches =
    count (fun r -> match r.Sink.ev with Sink.Group_dispatch _ -> true | _ -> false)
  and retires =
    count (fun r -> match r.Sink.ev with Sink.Group_retire _ -> true | _ -> false)
  and arrivals =
    count (fun r -> match r.Sink.ev with Sink.Barrier_arrive _ -> true | _ -> false)
  and releases =
    count (fun r -> match r.Sink.ev with Sink.Barrier_release _ -> true | _ -> false)
  in
  let groups = r.Sim.Device.counters.Sim.Counters.groups_launched in
  check Alcotest.int "one dispatch per group" groups dispatches;
  check Alcotest.int "one retire per group" groups retires;
  (* every group's single barrier: one arrival per wave, one release *)
  check Alcotest.int "one release per group" groups releases;
  check Alcotest.int "one arrival per wave"
    r.Sim.Device.counters.Sim.Counters.waves_launched arrivals

let counters_fields_equal a b =
  List.for_all2
    (fun (ka, va) (kb, vb) -> ka = kb && va = vb)
    (Sim.Counters.to_fields a) (Sim.Counters.to_fields b)

let test_tracing_does_not_perturb () =
  let plain = launch_busy () in
  let traced = launch_busy ~opts:traced () in
  check Alcotest.int "same cycles" plain.Sim.Device.cycles traced.Sim.Device.cycles;
  check Alcotest.bool "same counters" true
    (counters_fields_equal plain.Sim.Device.counters traced.Sim.Device.counters)

let test_disabled_sink_emits_nothing () =
  check Alcotest.bool "default opts untraced" false
    Sim.Device.default_opts.Sim.Device.trace;
  check Alcotest.bool "untraced launch records nothing" true
    ((launch_busy ()).Sim.Device.events = []);
  check Alcotest.bool "untraced run records nothing" true
    ((Harness.Run.run (Kernels.Registry.find "PS") T.Original).Harness.Run.events
    = [])

(* FWT launches 13 passes: each pass's events are offset by the cycles
   before it, so the spliced stream never goes back in time, reaches the
   last pass, and holds one dispatch per group of every pass. *)
let test_multi_pass_events_spliced () =
  let bench = Kernels.Registry.find "FWT" in
  let plain = Harness.Run.run bench T.Original in
  let s = Harness.Run.run ~trace:true bench T.Original in
  check Alcotest.int "13 passes" 13 s.Harness.Run.steps;
  check Alcotest.int "same cycles" plain.Harness.Run.cycles s.Harness.Run.cycles;
  let evs = s.Harness.Run.events in
  check Alcotest.bool "non-decreasing across passes" true (monotone 0 evs);
  let last = List.fold_left (fun _ r -> r.Sink.at) 0 evs in
  check Alcotest.bool "last pass ends the run" true
    (last > s.Harness.Run.cycles - (s.Harness.Run.cycles / 13)
    && last <= s.Harness.Run.cycles);
  let dispatches =
    List.length
      (List.filter
         (fun r -> match r.Sink.ev with Sink.Group_dispatch _ -> true | _ -> false)
         evs)
  in
  check Alcotest.int "one dispatch per group of every pass"
    s.Harness.Run.counters.Sim.Counters.groups_launched dispatches

let trace_string_of_run bench variant =
  let s = Harness.Run.run ~trace:true bench variant in
  check Alcotest.bool "verified" true s.Harness.Run.verified;
  String.concat "\n" (List.map Sink.record_to_string s.Harness.Run.events)

let test_trace_deterministic_across_jobs () =
  (* the same traced run, executed through pools of different widths,
     yields byte-identical event streams *)
  let bench = Kernels.Registry.find "PS" in
  let job () = trace_string_of_run bench T.intra_plus_lds in
  let with_pool jobs =
    Harness.Pool.map (Harness.Pool.create ~jobs ()) (fun () -> job ()) [ (); () ]
  in
  let seq = with_pool 1 and par = with_pool 4 in
  check Alcotest.bool "streams nonempty" true (List.hd seq <> "");
  List.iter2 (fun a b -> check Alcotest.bool "j1 = j4" true (a = b)) seq par

(* ------------------------------------------------------------------ *)
(* Chrome export and JSON                                              *)
(* ------------------------------------------------------------------ *)

let test_chrome_json_parses () =
  let r = launch_busy ~opts:traced () in
  let s = Gpu_trace.Chrome.to_string ~label:"test" r.Sim.Device.events in
  let j = Json.parse s in
  (match Json.member "displayTimeUnit" j with
  | Some (Json.Str _) -> ()
  | _ -> Alcotest.fail "displayTimeUnit missing");
  match Json.member "traceEvents" j with
  | Some (Json.List evs) ->
      check Alcotest.bool "traceEvents nonempty" true (List.length evs > 0);
      (* every event object carries the mandatory phase field *)
      List.iter
        (fun e ->
          match Json.member "ph" e with
          | Some (Json.Str _) -> ()
          | _ -> Alcotest.fail "event without ph")
        evs
  | _ -> Alcotest.fail "traceEvents missing"

let test_json_roundtrip () =
  let v =
    Json.Obj
      [
        ("s", Json.Str "a \"quoted\"\nline\twith \\ and \x07");
        ("i", Json.Int (-42));
        ("f", Json.Float 2.5);
        ("b", Json.Bool true);
        ("n", Json.Null);
        ("l", Json.List [ Json.Int 1; Json.Str "x"; Json.Obj [] ]);
      ]
  in
  let reparsed = Json.parse (Json.to_string v) in
  check Alcotest.bool "roundtrip equal" true (reparsed = v);
  (* unicode escapes decode to UTF-8 *)
  (match Json.parse {|"éA"|} with
  | Json.Str s -> check Alcotest.string "utf8 decode" "\xc3\xa9A" s
  | _ -> Alcotest.fail "not a string");
  check Alcotest.bool "trailing garbage rejected" true
    (match Json.parse "1 x" with
    | exception Json.Parse_error _ -> true
    | _ -> false)

let test_timeline_renders () =
  let r = launch_busy ~opts:traced () in
  let cfg = Sim.Config.small in
  let s =
    Gpu_trace.Timeline.render ~n_cus:cfg.Sim.Config.n_cus
      ~simds_per_cu:cfg.Sim.Config.simds_per_cu ~cycles:r.Sim.Device.cycles
      ~width:40 r.Sim.Device.events
  in
  let lines = String.split_on_char '\n' (String.trim s) in
  (* one row per CU plus the cycle-scale footer *)
  check Alcotest.int "rows" (cfg.Sim.Config.n_cus + 1) (List.length lines)

(* ------------------------------------------------------------------ *)
(* Counter fixes                                                       *)
(* ------------------------------------------------------------------ *)

let test_spin_counted_under_inter_group () =
  let bench = Kernels.Registry.find "PS" in
  let inter = Harness.Run.run bench T.inter_group in
  check Alcotest.bool "inter-group verified" true inter.Harness.Run.verified;
  check Alcotest.bool "spin polls counted" true
    (inter.Harness.Run.counters.Sim.Counters.spin_iterations > 0)

let test_spin_zero_without_polling () =
  let bench = Kernels.Registry.find "PS" in
  List.iter
    (fun v ->
      let s = Harness.Run.run bench v in
      check Alcotest.int
        (Printf.sprintf "no spin under %s" (T.name v))
        0 s.Harness.Run.counters.Sim.Counters.spin_iterations)
    [ T.Original; T.intra_plus_lds ]

let test_window_tail_flushed () =
  (* with a window period that does not divide the run length, the last
     partial window must still be emitted, and the windows must sum
     exactly to the whole-run counters — field by field *)
  let opts = { Sim.Device.default_opts with window_cycles = Some 777 } in
  let r = launch_busy ~opts ~iters:2000 () in
  let ws = r.Sim.Device.windows in
  check Alcotest.bool "several windows" true (Array.length ws >= 2);
  let sum = Sim.Counters.create () in
  Array.iter (fun w -> Sim.Counters.accumulate ~into:sum w) ws;
  List.iter2
    (fun (k, total) (_, summed) ->
      check Alcotest.int (Printf.sprintf "windows sum to total: %s" k) total
        summed)
    (Sim.Counters.to_fields r.Sim.Device.counters)
    (Sim.Counters.to_fields sum);
  (* the tail window really is partial *)
  let last = ws.(Array.length ws - 1) in
  check Alcotest.bool "tail window partial" true
    (last.Sim.Counters.cycles > 0 && last.Sim.Counters.cycles < 777)

(* Store-heavy kernel: every lane writes a private stretch of lines, far
   exceeding the tolerated DRAM write backlog. *)
let store_flood_kernel () =
  let b = Builder.create "flood" in
  let out = Builder.buffer_param b "out" in
  let gid = Builder.global_id b 0 in
  Builder.for_ b ~lo:(Builder.imm 0) ~hi:(Builder.imm 64) ~step:(Builder.imm 1)
    (fun j ->
      Builder.gstore_elem b out
        (Builder.add b (Builder.mul b gid (Builder.imm 64)) j)
        (Builder.add b gid j));
  Builder.finish b

let launch_flood ~scan_every_cycle () =
  let k = store_flood_kernel () in
  (* starve the per-CU write path so the backlog outgrows the vector
     memory unit's issue rate (4 cycles/line) and stores actually stall *)
  let cfg =
    { Sim.Config.small with Sim.Config.l2_bytes_per_cycle_per_cu = 4.0 }
  in
  let dev = Sim.Device.create cfg in
  let buf = Sim.Device.alloc dev (128 * 64 * 4) in
  let opts = { Sim.Device.default_opts with scan_every_cycle } in
  Sim.Device.launch ~opts dev k
    ~nd:(Sim.Geom.make_ndrange 128 64)
    ~args:[ Sim.Device.A_buf buf ]

let test_write_stall_span_vs_every_cycle_scan () =
  (* the skip-ahead scheduler must account blocked store cycles exactly
     like a scheduler that scans every CU on every cycle *)
  let fast = launch_flood ~scan_every_cycle:false () in
  let slow = launch_flood ~scan_every_cycle:true () in
  check Alcotest.bool "flood finished" true
    (fast.Sim.Device.outcome = Sim.Device.Finished);
  check Alcotest.bool "write stalls observed" true
    (fast.Sim.Device.counters.Sim.Counters.write_stalled > 0);
  check Alcotest.int "same cycles" slow.Sim.Device.cycles fast.Sim.Device.cycles;
  check Alcotest.int "same write-stall span"
    slow.Sim.Device.counters.Sim.Counters.write_stalled
    fast.Sim.Device.counters.Sim.Counters.write_stalled;
  check Alcotest.bool "all counters agree" true
    (counters_fields_equal fast.Sim.Device.counters slow.Sim.Device.counters)

(* Launch every step of a registry benchmark the way [Harness.Run.run]
   does, with the given scan mode; returns the summed cycles and
   counters. *)
let launch_bench ~cfg ~scan_every_cycle id variant =
  let bench = Kernels.Registry.find id in
  let dev = Sim.Device.create cfg in
  let prep = bench.Kernels.Bench.prepare dev ~scale:1 in
  let nd0 = (List.hd prep.Kernels.Bench.steps).Kernels.Bench.nd in
  let k = Harness.Run.transformed_kernel bench variant ~nd:nd0 in
  let extras = T.make_extras variant dev ~nd:nd0 in
  let total = Sim.Counters.create () in
  let cycles =
    List.fold_left
      (fun cycles (step : Kernels.Bench.step) ->
        extras.T.reset ();
        let opts = { Sim.Device.default_opts with scan_every_cycle } in
        let r =
          Sim.Device.launch ~opts dev k
            ~nd:(T.map_ndrange variant step.Kernels.Bench.nd)
            ~args:(step.Kernels.Bench.args @ extras.T.ex_args)
        in
        check Alcotest.bool (id ^ " finished") true
          (r.Sim.Device.outcome = Sim.Device.Finished);
        Sim.Counters.accumulate ~into:total r.Sim.Device.counters;
        cycles + r.Sim.Device.cycles)
      0 prep.Kernels.Bench.steps
  in
  (cycles, total)

let test_skip_ahead_matches_every_cycle_scan () =
  (* idle skip-ahead must not change any schedule: the rotating
     round-robin start and 32-lane waves included *)
  let rr = { Sim.Config.default with sched_policy = Sim.Config.Round_robin } in
  let w32 = { Sim.Config.default with wave_size = 32 } in
  List.iter
    (fun (label, cfg, id, variant) ->
      let fc, fast = launch_bench ~cfg ~scan_every_cycle:false id variant in
      let sc, slow = launch_bench ~cfg ~scan_every_cycle:true id variant in
      check Alcotest.int (label ^ ": same cycles") sc fc;
      check
        Alcotest.(list (pair string int))
        (label ^ ": same counters")
        (Sim.Counters.to_fields slow) (Sim.Counters.to_fields fast))
    [
      ("PS rr inter", rr, "PS", T.inter_group);
      ("BinS rr inter", rr, "BinS", T.inter_group);
      ("FWT rr intra+lds", rr, "FWT", T.intra_plus_lds);
      ("PS w32 intra+lds", w32, "PS", T.intra_plus_lds);
      ("BinS w32 original", w32, "BinS", T.Original);
    ]

(* ------------------------------------------------------------------ *)
(* Metrics JSON                                                        *)
(* ------------------------------------------------------------------ *)

let test_metrics_summary_json () =
  let bench = Kernels.Registry.find "PS" in
  let s = Harness.Run.run bench T.Original in
  let j = Harness.Metrics.summary_json ~label:"PS/Original" s in
  (* serializes, parses back, and carries the full counter set *)
  let r = Json.parse (Json.to_string j) in
  (match Json.member "cycles" r with
  | Some (Json.Int c) -> check Alcotest.int "cycles preserved" s.Harness.Run.cycles c
  | _ -> Alcotest.fail "cycles missing");
  match Json.member "counters" r with
  | Some (Json.Obj fields) ->
      check Alcotest.int "all counters plus derived rates"
        (List.length (Sim.Counters.to_fields s.Harness.Run.counters) + 2)
        (List.length fields)
  | _ -> Alcotest.fail "counters missing"

let suite =
  [
    tc "sink: collector ordered capture" `Quick test_collector_captures_ordered_events;
    tc "sink: tracing does not perturb" `Quick test_tracing_does_not_perturb;
    tc "sink: disabled emits nothing" `Quick test_disabled_sink_emits_nothing;
    tc "sink: multi-pass events non-decreasing" `Quick
      test_multi_pass_events_spliced;
    tc "sink: deterministic at -j1 vs -j4" `Quick test_trace_deterministic_across_jobs;
    tc "chrome: JSON parses" `Quick test_chrome_json_parses;
    tc "json: roundtrip" `Quick test_json_roundtrip;
    tc "timeline: renders" `Quick test_timeline_renders;
    tc "counters: spin under inter-group" `Quick test_spin_counted_under_inter_group;
    tc "counters: spin zero elsewhere" `Quick test_spin_zero_without_polling;
    tc "counters: window tail flushed" `Quick test_window_tail_flushed;
    tc "counters: write-stall span exact" `Quick test_write_stall_span_vs_every_cycle_scan;
    tc "scheduler: skip-ahead = every-cycle scan (registry, RR, wave32)" `Slow
      test_skip_ahead_matches_every_cycle_scan;
    tc "metrics: summary json" `Quick test_metrics_summary_json;
  ]
