(* Tests for the per-instruction profiler, fault-propagation provenance
   and the perfdiff gate: the central property is reconciliation — the
   per-site sums of every cycle-exact collector field must equal the
   whole-run Counters fields, across kernels, RMT variants, pool widths
   and a run cut short by a detection trap. Plus: the annotated report
   and its JSON must agree with the collector, provenance records must
   describe real injections, and the perfdiff gate must flag synthetic
   regressions and nothing else. *)

open Gpu_ir
module Sim = Gpu_sim
module T = Rmt_core.Transform
module C = Gpu_prof.Collector
module Prov = Gpu_prof.Provenance
module Json = Gpu_trace.Json

let check = Alcotest.check
let tc = Alcotest.test_case

let all_variants =
  [
    T.Original;
    T.intra_plus_lds;
    T.intra_minus_lds;
    T.intra_plus_lds_fast;
    T.intra_minus_lds_fast;
    T.inter_group;
  ]

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

(* ------------------------------------------------------------------ *)
(* Reconciliation: per-site sums == whole-run counters                  *)
(* ------------------------------------------------------------------ *)

(* Every cycle-exact collector field against the Counters field of the
   same name, plus issues against the four issue
   counters. *)
let reconcile ~what (ct : Sim.Counters.t) (c : C.t) =
  let open Sim.Counters in
  List.iter
    (fun (field, per_site, total) ->
      check Alcotest.int
        (Printf.sprintf "%s: site sums == counters.%s" what field)
        total (C.sum per_site))
    [
      ("valu_busy", c.C.valu_busy, ct.valu_busy);
      ("salu_busy", c.C.salu_busy, ct.salu_busy);
      ("mem_unit_busy", c.C.mem_unit_busy, ct.mem_unit_busy);
      ("lds_busy", c.C.lds_busy, ct.lds_busy);
      ("write_stalled", c.C.write_stalled, ct.write_stalled);
      ("spin_iterations", c.C.spin_iterations, ct.spin_iterations);
      ("l1_hits", c.C.l1_hits, ct.l1_hits);
      ("l1_misses", c.C.l1_misses, ct.l1_misses);
      ("l2_hits", c.C.l2_hits, ct.l2_hits);
      ("l2_misses", c.C.l2_misses, ct.l2_misses);
      ( "issues",
        c.C.issues,
        ct.valu_insts + ct.salu_insts + ct.vmem_insts + ct.lds_insts );
    ]

(* Several kernels x all RMT variants, through pools of width 1 and 4.
   BitS is multi-pass, so it also exercises summing the per-launch
   profiles of one run. *)
let test_reconciles_across_variants_and_jobs () =
  let benches = List.map Kernels.Registry.find [ "PS"; "BitS" ] in
  let cases =
    List.concat_map (fun b -> List.map (fun v -> (b, v)) all_variants) benches
  in
  let job (bench, v) =
    let s = Harness.Run.run bench v in
    let c = s.Harness.Run.profile in
    (Printf.sprintf "%s/%s" bench.Kernels.Bench.id (T.name v), s, c)
  in
  let run_at jobs =
    Harness.Pool.map (Harness.Pool.create ~jobs ()) job cases
  in
  let results1 = run_at 1 and results4 = run_at 4 in
  List.iter
    (fun (what, (s : Harness.Run.summary), c) ->
      check Alcotest.bool (what ^ ": verified") true s.Harness.Run.verified;
      check Alcotest.bool (what ^ ": profile nonempty") true (C.total_busy c > 0);
      reconcile ~what s.Harness.Run.counters c)
    results1;
  (* and the per-site attribution itself is j-independent *)
  List.iter2
    (fun (what, _, c1) (_, _, c4) ->
      check Alcotest.bool (what ^ ": j1 == j4 per-site") true
        (c1.C.issues = c4.C.issues
        && c1.C.valu_busy = c4.C.valu_busy
        && c1.C.mem_unit_busy = c4.C.mem_unit_busy
        && c1.C.lds_busy = c4.C.lds_busy))
    results1 results4

(* An injected run that ends in a detection trap leaves the issue loop
   by the exception path; its per-site sums must still equal its
   counters, trapping instruction included. *)
let test_detected_run_reconciles () =
  let bench = Kernels.Registry.find "PS" in
  let v = T.intra_plus_lds in
  let golden = Harness.Run.run bench v in
  let plans =
    Harness.Campaign.plans ~n:12 ~target:Sim.Device.T_lds ~seed:7
      ~golden_cycles:golden.Harness.Run.cycles
  in
  let detected =
    List.find_map
      (fun plan ->
        let s = Harness.Run.run ~inject:plan bench v in
        if s.Harness.Run.outcome = Sim.Device.Detected then Some s else None)
      plans
  in
  match detected with
  | None -> Alcotest.fail "no injection ended in a detection"
  | Some s ->
      check Alcotest.bool "cut short" true
        (s.Harness.Run.cycles < golden.Harness.Run.cycles);
      reconcile ~what:"PS intra+lds detected" s.Harness.Run.counters
        s.Harness.Run.profile

(* ------------------------------------------------------------------ *)
(* Site numbering                                                       *)
(* ------------------------------------------------------------------ *)

(* A kernel with LDS traffic, a barrier, a loop and global loads/stores. *)
let mixed_kernel () =
  let b = Builder.create "mixed" in
  let inp = Builder.buffer_param b "inp" in
  let out = Builder.buffer_param b "out" in
  let lds = Builder.lds_alloc b "x" (64 * 4) in
  let lid = Builder.local_id b 0 in
  let gid = Builder.global_id b 0 in
  let slot i = Builder.add b lds (Builder.shl b i (Builder.imm 2)) in
  Builder.lstore b (slot lid) (Builder.gload_elem b inp gid);
  Builder.barrier b;
  let v = Builder.lload b (slot (Builder.sub b (Builder.imm 63) lid)) in
  let acc = Builder.cell b (Builder.imm 0) in
  Builder.for_ b ~lo:(Builder.imm 0) ~hi:(Builder.imm 8) ~step:(Builder.imm 1)
    (fun j -> Builder.set b acc (Builder.add b (Builder.get acc) j));
  Builder.gstore_elem b out gid (Builder.add b v (Builder.get acc));
  Builder.finish b

let test_site_numbering_deterministic () =
  let k = mixed_kernel () in
  let a1, n1 = Site.annotate k.Types.body in
  let a2, n2 = Site.annotate k.Types.body in
  check Alcotest.int "same count" n1 n2;
  check Alcotest.bool "same numbering" true (a1 = a2);
  check Alcotest.int "count matches Site.count" (Site.count k) n1;
  check Alcotest.int "insts array sized" n1 (Array.length (Site.insts k))

(* ------------------------------------------------------------------ *)
(* Report                                                               *)
(* ------------------------------------------------------------------ *)

let test_report_agrees_with_collector () =
  let bench = Kernels.Registry.find "PS" in
  let s = Harness.Run.run bench T.intra_plus_lds in
  let k = s.Harness.Run.kernel and c = s.Harness.Run.profile in
  let listing = Gpu_prof.Report.annotated_listing k c in
  (* one body line per site, plus header and structure lines *)
  check Alcotest.bool "listing has at least one line per site" true
    (List.length (String.split_on_char '\n' listing) > c.C.nsites);
  let hot = Gpu_prof.Report.hotspots ~n:4 k c in
  check Alcotest.bool "hotspots nonempty" true (String.length hot > 0);
  let j = Json.parse (Json.to_string (Gpu_prof.Report.to_json k c)) in
  (match Json.member "nsites" j with
  | Some (Json.Int n) -> check Alcotest.int "json nsites" c.C.nsites n
  | _ -> Alcotest.fail "nsites missing");
  (match Json.member "total_busy" j with
  | Some (Json.Int tb) ->
      check Alcotest.int "json total_busy" (C.total_busy c) tb
  | _ -> Alcotest.fail "total_busy missing");
  (match Json.member "sites" j with
  | Some (Json.List sites) ->
      check Alcotest.int "json one entry per site" c.C.nsites (List.length sites)
  | _ -> Alcotest.fail "sites missing");
  check Alcotest.bool "listing rejects mis-sized collector" true
    (match
       Gpu_prof.Report.annotated_listing k (C.create ~nsites:(c.C.nsites + 1))
     with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* ------------------------------------------------------------------ *)
(* Provenance                                                           *)
(* ------------------------------------------------------------------ *)

(* An injected run returns its provenance record, applied exactly when
   the fault landed in some pass. *)
let run_injected bench v plan =
  let s = Harness.Run.run ~inject:plan bench v in
  match s.Harness.Run.provenance with
  | Some p ->
      check Alcotest.bool "prov applied iff fault applied"
        s.Harness.Run.inject_applied (Prov.applied p);
      (s, p)
  | None -> Alcotest.fail "injected run returned no provenance"

let injection_plans ~n ~target ~seed golden =
  Harness.Campaign.plans ~n ~target ~seed
    ~golden_cycles:golden.Harness.Run.cycles

(* The record comes with every injected run, single-pass (PS) and
   multi-pass (FWT, 13 launches sharing one record), and only then. *)
let test_provenance_is_a_result () =
  List.iter
    (fun id ->
      let bench = Kernels.Registry.find id in
      let v = T.intra_plus_lds in
      let golden = Harness.Run.run bench v in
      check Alcotest.bool (id ^ ": no record without inject") true
        (golden.Harness.Run.provenance = None);
      let landed =
        List.filter
          (fun plan -> Prov.applied (snd (run_injected bench v plan)))
          (injection_plans ~n:3 ~target:Sim.Device.T_vgpr ~seed:5 golden)
      in
      check Alcotest.bool (id ^ ": some flips landed") true (landed <> []))
    [ "PS"; "FWT" ]

let test_provenance_end_to_end () =
  let bench = Kernels.Registry.find "R" in
  let v = T.intra_plus_lds in
  let golden = Harness.Run.run bench v in
  let obs =
    List.map (run_injected bench v)
      (injection_plans ~n:6 ~target:Sim.Device.T_lds ~seed:7 golden)
  in
  List.iter
    (fun ((s : Harness.Run.summary), p) ->
      if Prov.applied p then begin
        check Alcotest.bool "target is LDS" true
          (p.Prov.target = Some Prov.S_lds);
        check Alcotest.bool "bit in a word" true
          (p.Prov.bit >= 0 && p.Prov.bit < 32);
        check Alcotest.bool "inject cycle recorded" true
          (p.Prov.inject_cycle >= 0);
        check Alcotest.bool "described" true (p.Prov.desc <> "");
        check Alcotest.bool "to_string renders" true
          (contains (Prov.to_string p) "LDS")
      end;
      if s.Harness.Run.outcome = Sim.Device.Detected then begin
        check Alcotest.bool "detection recorded" true (Prov.detected p);
        check Alcotest.bool "a consuming site was seen" true
          (p.Prov.first_use <> None);
        match Prov.detect_distance p with
        | Some (di, dc) ->
            check Alcotest.bool "positive distances" true (di > 0 && dc > 0)
        | None -> Alcotest.fail "detected but no distance"
      end)
    obs;
  let applied = List.filter (fun (_, p) -> Prov.applied p) obs in
  check Alcotest.bool "some flips landed" true (applied <> []);
  let agg = Prov.aggregate (List.map snd obs) in
  check Alcotest.bool "aggregate names the structure" true
    (contains (Prov.agg_to_string agg) "LDS");
  (* the campaign-level summary reads the same records *)
  check Alcotest.bool "campaign summary nonempty" true
    (Harness.Campaign.provenance_summary (List.map fst obs) <> "")

let test_provenance_overwrite_is_terminal () =
  (* a record marked overwritten never also carries a first use; check
     over a VGPR campaign where dead-value masking is common *)
  let bench = Kernels.Registry.find "BlkSch" in
  let v = T.intra_plus_lds in
  let golden = Harness.Run.run bench v in
  List.iter
    (fun plan ->
      let _, p = run_injected bench v plan in
      if p.Prov.overwritten then
        check Alcotest.bool "overwritten implies never consumed" true
          (p.Prov.first_use = None))
    (injection_plans ~n:5 ~target:Sim.Device.T_vgpr ~seed:11 golden)

(* A flipped register whose only reader is a branch condition: an [if]
   in one kernel, a loop test in the other. The flip lands after the
   register's def, during a uniform delay loop (flips go to divergent
   registers only), so the branch is its first reader. *)
let branch_reader_kernel ~loop =
  let b = Builder.create (if loop then "loop_reader" else "if_reader") in
  let lid = Builder.local_id b 0 in
  let target =
    if loop then Builder.get (Builder.cell b lid) else lid
  in
  Builder.for_ b ~lo:(Builder.imm 0) ~hi:(Builder.imm 100)
    ~step:(Builder.imm 1) (fun _ -> ());
  (match target with
  | Reg c when loop ->
      Builder.while_ b (fun () -> target) (fun () ->
          Builder.set b c (Builder.imm 0))
  | _ -> Builder.if_ b target (fun () -> ()) (fun () -> ()));
  (Builder.finish b, target)

let test_branch_read_is_consumption () =
  List.iter
    (fun loop ->
      let k, target = branch_reader_kernel ~loop in
      let r = match target with Reg r -> r | _ -> assert false in
      let expect =
        (if loop then "loop break unless " else "if ")
        ^ Pp.string_of_value target
      in
      let hits = ref 0 in
      for iseed = 1 to 8 do
        let provenance = Prov.create () in
        let opts =
          { Sim.Device.default_opts with provenance = Some provenance }
        in
        let dev = Sim.Device.create Sim.Config.default in
        let l =
          Sim.Device.Launch.create ~opts dev k
            ~nd:(Sim.Geom.make_ndrange 64 64) ~args:[]
        in
        Sim.Device.Launch.inject l
          { Sim.Device.at_cycle = 40; target = Sim.Device.T_vgpr; iseed }
          ~stop_when_dead:false;
        let res = Sim.Device.Launch.finish l in
        check Alcotest.bool "flip landed" true res.Sim.Device.inject_applied;
        if contains provenance.Prov.desc (Printf.sprintf "v%d lane" r) then begin
          incr hits;
          match provenance.Prov.first_use with
          | Some u ->
              check Alcotest.int "a branch has no site" (-1) u.Prov.u_site;
              check Alcotest.string "the branch is named" expect u.Prov.u_inst;
              check Alcotest.bool "rendered" true
                (contains (Prov.to_string provenance) ("by " ^ expect))
          | None ->
              Alcotest.failf "%s: flip reported never consumed: %s" expect
                (Prov.to_string provenance)
        end
      done;
      check Alcotest.bool (expect ^ ": some flip hit the branch's register")
        true (!hits > 0))
    [ false; true ]

(* ------------------------------------------------------------------ *)
(* Campaign latency percentiles                                         *)
(* ------------------------------------------------------------------ *)

let test_latency_percentiles () =
  let t = Harness.Campaign.tally_create () in
  check
    Alcotest.(option int)
    "empty median" None
    (Harness.Campaign.median_latency t);
  check Alcotest.(option int) "empty p99" None (Harness.Campaign.p99_latency t);
  check Alcotest.(option int) "empty max" None (Harness.Campaign.max_latency t);
  t.Harness.Campaign.latencies <- [ 9; 1; 7; 3; 5 ];
  check
    Alcotest.(option int)
    "median" (Some 5)
    (Harness.Campaign.median_latency t);
  check Alcotest.(option int) "p99 of 5" (Some 9) (Harness.Campaign.p99_latency t);
  check Alcotest.(option int) "max" (Some 9) (Harness.Campaign.max_latency t);
  t.Harness.Campaign.latencies <- List.init 200 (fun i -> i + 1);
  check
    Alcotest.(option int)
    "median of 1..200" (Some 100)
    (Harness.Campaign.median_latency t);
  check
    Alcotest.(option int)
    "p99 of 1..200" (Some 198)
    (Harness.Campaign.p99_latency t);
  t.Harness.Campaign.detected <- 3;
  t.Harness.Campaign.latencies <- [ 10; 20; 30 ];
  check Alcotest.bool "tally prints percentiles" true
    (contains (Harness.Campaign.tally_to_string t) "p50=20 p99=30 max=30")

(* ------------------------------------------------------------------ *)
(* Atomic metrics write                                                 *)
(* ------------------------------------------------------------------ *)

let test_write_file_atomic () =
  let dir = Filename.temp_file "rmtgpu_metrics" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let path = Filename.concat dir "BENCH_test.json" in
  Harness.Metrics.write_file path
    (Json.Obj [ ("schema", Json.Int 1); ("rev", Json.Str "a") ]);
  (* overwrite in place *)
  Harness.Metrics.write_file path
    (Json.Obj [ ("schema", Json.Int 1); ("rev", Json.Str "b") ]);
  (match Json.member "rev" (Json.parse (read_file path)) with
  | Some (Json.Str r) -> check Alcotest.string "overwritten" "b" r
  | _ -> Alcotest.fail "rev missing");
  (* no temp litter left behind *)
  check
    Alcotest.(list string)
    "only the target remains" [ "BENCH_test.json" ]
    (Array.to_list (Sys.readdir dir));
  Sys.remove path;
  Unix.rmdir dir

(* The revision stamp names the head of the checkout in the working
   directory and marks a tree whose tracked files differ from it. *)
let test_rev_marks_modified_tree () =
  let dir = Filename.temp_dir "rmtgpu_rev" "" in
  let git args =
    let cmd =
      Printf.sprintf "git -C %s %s 2>/dev/null" (Filename.quote dir) args
    in
    let ic = Unix.open_process_in cmd in
    let out = In_channel.input_all ic in
    if Unix.close_process_in ic <> Unix.WEXITED 0 then
      Alcotest.failf "%s failed" cmd;
    String.trim out
  in
  let tracked = Filename.concat dir "tracked.txt" in
  let cwd = Sys.getcwd () in
  Fun.protect
    ~finally:(fun () ->
      Sys.chdir cwd;
      ignore (Sys.command ("rm -rf " ^ Filename.quote dir)))
    (fun () ->
      Out_channel.with_open_text tracked (fun oc -> output_string oc "one\n");
      ignore (git "init -q");
      ignore (git "add tracked.txt");
      ignore
        (git
           "-c user.name=test -c user.email=test@example.com \
            -c commit.gpgsign=false commit -q -m init");
      let head = git "rev-parse --short HEAD" in
      Sys.chdir dir;
      check Alcotest.string "clean tree: the short head" head
        (Harness.Metrics.rev ());
      Out_channel.with_open_text tracked (fun oc -> output_string oc "two\n");
      check Alcotest.string "modified tracked file" (head ^ "-dirty")
        (Harness.Metrics.rev ()));
  check Alcotest.string "working directory restored" cwd (Sys.getcwd ())

(* ------------------------------------------------------------------ *)
(* Perfdiff gate                                                        *)
(* ------------------------------------------------------------------ *)

module PD = Harness.Perfdiff

(* A minimal but schema-complete trajectory document. *)
let traj ?(wall = 1.0) ~rev ~cycles ~valu () =
  Json.Obj
    [
      ("schema", Json.Int 1);
      ("rev", Json.Str rev);
      ("jobs", Json.Int 1);
      ( "experiments",
        Json.List
          [ Json.Obj [ ("name", Json.Str "fig2"); ("wall_s", Json.Float wall) ] ]
      );
      ( "runs",
        Json.List
          [
            Json.Obj
              [
                ("label", Json.Str "PS/Original");
                ( "counters",
                  Json.Obj
                    [
                      ("cycles", Json.Int cycles);
                      ("valu_busy", Json.Int valu);
                      ("valu_insts", Json.Int 999_999);
                    ] );
              ];
          ] );
    ]

let d ~old_doc ~new_doc =
  PD.diff ~old_path:"old.json" ~new_path:"new.json" old_doc new_doc

let test_perfdiff_identical_passes () =
  let doc = traj ~rev:"a" ~cycles:1000 ~valu:500 () in
  let fs = d ~old_doc:doc ~new_doc:doc in
  check Alcotest.bool "no findings" true (fs = []);
  check Alcotest.bool "no regression" false (PD.has_regression fs);
  (* older files (the committed baseline) record per-experiment host
     wall clock; it is never compared *)
  let slower = traj ~wall:2.0 ~rev:"b" ~cycles:1000 ~valu:500 () in
  check Alcotest.bool "wall_s ignored" true (d ~old_doc:doc ~new_doc:slower = [])

let test_perfdiff_flags_counter_regression () =
  let old_doc = traj ~rev:"a" ~cycles:1000 ~valu:500 () in
  let new_doc = traj ~rev:"b" ~cycles:1050 ~valu:500 () in
  let fs = d ~old_doc ~new_doc in
  check Alcotest.bool "regression flagged" true (PD.has_regression fs);
  (match List.find_opt (fun f -> f.PD.severity = PD.Regression) fs with
  | Some f ->
      check Alcotest.string "on the grown counter" "counters.cycles" f.PD.metric;
      check Alcotest.string "for the matched run" "PS/Original" f.PD.subject
  | None -> Alcotest.fail "no regression finding");
  (* 1% growth is inside the default 2% tolerance *)
  let small = traj ~rev:"b" ~cycles:1010 ~valu:500 () in
  check Alcotest.bool "1% growth tolerated" false
    (PD.has_regression (d ~old_doc ~new_doc:small));
  (* tightening the threshold flags it *)
  check Alcotest.bool "tight threshold flags 1%" true
    (PD.has_regression
       (PD.diff ~counter_rel:0.005 ~old_path:"o" ~new_path:"n" old_doc small));
  (* shape counters (valu_insts) are not gated, whatever they do *)
  check Alcotest.bool "valu_insts never gated" false
    (List.mem "counters.valu_insts" (List.map (fun f -> f.PD.metric) fs))

(* A baseline run missing from the new trajectory (dropped, or
   relabelled) fails the gate even at zero counter tolerance; a run only
   in the new trajectory is an info note. *)
let test_perfdiff_vanished_is_regression () =
  let doc = traj ~rev:"a" ~cycles:1000 ~valu:500 () in
  let empty =
    Json.Obj
      [ ("schema", Json.Int 1); ("rev", Json.Str "b"); ("runs", Json.List []) ]
  in
  let severities fs = List.map (fun f -> (f.PD.subject, f.PD.severity)) fs in
  let fs = PD.diff ~counter_rel:0.0 ~old_path:"o" ~new_path:"n" doc empty in
  check Alcotest.bool "vanished run fails the gate" true (PD.has_regression fs);
  check Alcotest.bool "one regression, on the vanished run" true
    (severities fs = [ ("PS/Original", PD.Regression) ]);
  let fs = d ~old_doc:empty ~new_doc:doc in
  check Alcotest.bool "a new run passes the gate" false (PD.has_regression fs);
  check Alcotest.bool "as one info note" true
    (severities fs = [ ("PS/Original", PD.Info) ])

let test_perfdiff_files_and_report () =
  let dir = Filename.temp_file "rmtgpu_pd" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let old_path = Filename.concat dir "BENCH_a.json" in
  let new_path = Filename.concat dir "BENCH_b.json" in
  Harness.Metrics.write_file old_path
    (traj ~rev:"a" ~cycles:1000 ~valu:500 ());
  Harness.Metrics.write_file new_path
    (traj ~rev:"b" ~cycles:2000 ~valu:500 ());
  let text, failed = PD.report ~old_path ~new_path () in
  check Alcotest.bool "gate failed" true failed;
  check Alcotest.bool "report names both revs" true
    (contains text "(a)" && contains text "(b)");
  check Alcotest.bool "report shows the regression" true
    (contains text "REGRESSION");
  check Alcotest.bool "report shows the verdict" true
    (contains text "gate: FAIL");
  let ok_text, ok_failed = PD.report ~old_path ~new_path:old_path () in
  check Alcotest.bool "self-diff passes" false ok_failed;
  check Alcotest.bool "self-diff says PASS" true (contains ok_text "gate: PASS");
  (* malformed input raises Bad_file, it does not pass silently *)
  let bad = Filename.concat dir "bad.json" in
  let oc = open_out bad in
  output_string oc "{ not json";
  close_out oc;
  check Alcotest.bool "Bad_file on garbage" true
    (match PD.diff_files ~old_path ~new_path:bad () with
    | exception PD.Bad_file _ -> true
    | _ -> false);
  List.iter Sys.remove [ old_path; new_path; bad ];
  Unix.rmdir dir

let suite =
  [
    tc "prof: sums reconcile across variants and jobs" `Slow
      test_reconciles_across_variants_and_jobs;
    tc "prof: detected run reconciles" `Quick test_detected_run_reconciles;
    tc "prof: site numbering deterministic" `Quick
      test_site_numbering_deterministic;
    tc "prof: report agrees with collector" `Quick
      test_report_agrees_with_collector;
    tc "prov: a result of every injected run" `Slow test_provenance_is_a_result;
    tc "prov: LDS campaign end-to-end" `Slow test_provenance_end_to_end;
    tc "prov: overwrite is terminal" `Slow test_provenance_overwrite_is_terminal;
    tc "prov: a branch read is consumption" `Quick
      test_branch_read_is_consumption;
    tc "campaign: latency percentiles" `Quick test_latency_percentiles;
    tc "metrics: write_file atomic" `Quick test_write_file_atomic;
    tc "metrics: rev marks a modified tree" `Quick
      test_rev_marks_modified_tree;
    tc "perfdiff: identical passes" `Quick test_perfdiff_identical_passes;
    tc "perfdiff: counter regression" `Quick
      test_perfdiff_flags_counter_regression;
    tc "perfdiff: vanished run is a regression" `Quick
      test_perfdiff_vanished_is_regression;
    tc "perfdiff: files and report" `Quick test_perfdiff_files_and_report;
  ]
