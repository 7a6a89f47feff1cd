(* Exact golden pin of simulated results. Cycles, outcome, verification
   verdict and every Counters field of a fixed set of registry runs must
   match golden_counters.txt exactly: any change to the simulator that
   moves one counter, under any scheduler policy or wave size pinned
   here, fails this test. The file holds one line per run, as printed by
   [line]; on a mismatch the failure message lists the actual lines of
   every run that differs. *)

module Sim = Gpu_sim
module T = Rmt_core.Transform

(* a dependency of the test, staged next to the executable *)
let golden_file =
  Filename.concat (Filename.dirname Sys.executable_name) "golden_counters.txt"

let variants =
  [
    ("original", T.Original);
    ("intra+lds", T.intra_plus_lds);
    ("intra-lds", T.intra_minus_lds);
    ("intra+lds-fast", T.intra_plus_lds_fast);
    ("inter", T.inter_group);
  ]

let rr = { Sim.Config.default with sched_policy = Sim.Config.Round_robin }
let w32 = { Sim.Config.default with wave_size = 32 }

(* (config label, config, bench id, variant name) *)
let runs =
  List.concat_map
    (fun id -> List.map (fun (v, _) -> ("default", Sim.Config.default, id, v)) variants)
    [ "BinS"; "BlkSch"; "FWT"; "PS" ]
  @ List.concat_map
      (fun (label, cfg) ->
        List.concat_map
          (fun id ->
            List.map (fun v -> (label, cfg, id, v)) [ "original"; "intra+lds"; "inter" ])
          [ "PS"; "BinS" ])
      [ ("rr", rr); ("w32", w32) ]

(* simulated once for the counter and stall pins below *)
let summaries =
  lazy
    (List.map
       (fun ((_, cfg, id, vname) as r) ->
         ( r,
           Harness.Run.run ~cfg (Kernels.Registry.find id)
             (List.assoc vname variants) ))
       runs)

let line ((label, _, id, vname), s) =
  String.concat " "
    (Printf.sprintf "%s %s %s cycles=%d outcome=%s verified=%b" id vname label
       s.Harness.Run.cycles
       (Harness.Run.outcome_name s.Harness.Run.outcome)
       s.Harness.Run.verified
    :: List.map
         (fun (k, v) -> Printf.sprintf "%s=%d" k v)
         (Sim.Counters.to_fields s.Harness.Run.counters))

let test_golden () =
  let expected =
    In_channel.with_open_text golden_file In_channel.input_lines
    |> List.filter (fun l -> String.trim l <> "")
  in
  let actual = List.map line (Lazy.force summaries) in
  let diffs =
    if List.length expected <> List.length actual then actual
    else
      List.filter_map
        (fun (e, a) -> if e = a then None else Some a)
        (List.combine expected actual)
  in
  if diffs <> [] then
    Alcotest.failf "%d of %d runs differ from golden_counters.txt; actual:\n%s"
      (List.length diffs) (List.length runs)
      (String.concat "\n" diffs)

(* The scheduler-scan observation fields of the same runs: per run, the
   sums of the four stall_* arrays of the per-site profile and the MD5 of
   the arrays themselves. They count how often a scan saw a wave unable
   to issue, so they pin the scan itself, which the counters above do not
   see. Same temp-file rule as golden_reports.txt below. *)
let golden_stalls_file =
  Filename.concat (Filename.dirname Sys.executable_name) "golden_stalls.txt"

let stall_line ((label, _, id, vname), (s : Harness.Run.summary)) =
  let p = s.Harness.Run.profile in
  let arrays =
    Gpu_prof.Collector.
      [
        ("scoreboard", p.stall_scoreboard);
        ("unit_busy", p.stall_unit_busy);
        ("write_backlog", p.stall_write_backlog);
        ("barrier", p.stall_barrier);
      ]
  in
  Printf.sprintf "%s %s %s %s md5=%s\n" id vname label
    (String.concat " "
       (List.map
          (fun (k, a) -> Printf.sprintf "%s=%d" k (Gpu_prof.Collector.sum a))
          arrays))
    (Digest.to_hex
       (Digest.string
          (Marshal.to_string (List.map snd arrays) [ Marshal.No_sharing ])))

let test_golden_stalls () =
  let expected =
    In_channel.with_open_bin golden_stalls_file In_channel.input_all
  in
  let actual =
    String.concat "" (List.map stall_line (Lazy.force summaries))
  in
  if actual <> expected then begin
    let path = Filename.temp_file "golden_stalls" ".txt" in
    Out_channel.with_open_bin path (fun oc -> output_string oc actual);
    Alcotest.failf
      "stall observations differ from golden_stalls.txt; actual text \
       written to %s"
      path
  end

(* The report text of four extension studies, each under a "== label"
   header: the TMR study (quick campaigns, one worker), the static
   Table 2/3 derivation, the wavefront-size study (one worker; its runs
   use configs other than the context's) and the pooled Inter-Group
   buffer study. On a mismatch the actual text is written to a
   temporary file, which replaces golden_reports.txt when the change is
   deliberate. *)
let golden_reports_file =
  Filename.concat (Filename.dirname Sys.executable_name) "golden_reports.txt"

let golden_reports_text () =
  let ctx = Harness.Experiments.create_ctx ~quick:true ~jobs:1 () in
  let tmr = Harness.Experiments.tmr ctx in
  let wavesize = Harness.Experiments.wavesize ctx in
  let pool = Harness.Experiments.pool ctx in
  Printf.sprintf
    "== exp tmr --quick\n%s== exp table2static\n%s== exp wavesize\n%s== exp pool\n%s"
    tmr
    (Harness.Experiments.table2static ())
    wavesize pool

let test_golden_reports () =
  let expected =
    In_channel.with_open_bin golden_reports_file In_channel.input_all
  in
  let actual = golden_reports_text () in
  if actual <> expected then begin
    let path = Filename.temp_file "golden_reports" ".txt" in
    Out_channel.with_open_bin path (fun oc -> output_string oc actual);
    Alcotest.failf
      "extension reports differ from golden_reports.txt; actual text \
       written to %s"
      path
  end

(* The output of every RMT pass: one line per (kernel, version) with the
   MD5 of the transformed kernel's register count and listing (the
   listing does not print [nregs], which sizes every register file), or
   the pass's refusal. The
   kernels are the registry's, transformed for their first launch's
   work-group as [Run.transformed_kernel] is, and the example .rgk files
   at 64 items; TMR uses 16-item groups, as [Check] does. On a mismatch
   the actual text is written to a temporary file, which replaces
   golden_ir.txt when the change is deliberate. *)
let golden_ir_file =
  Filename.concat (Filename.dirname Sys.executable_name) "golden_ir.txt"

let ir_variants =
  [
    ("original", T.Original);
    ("intra+lds", T.intra_plus_lds);
    ("intra-lds", T.intra_minus_lds);
    ("intra+lds-fast", T.intra_plus_lds_fast);
    ("intra-lds-fast", T.intra_minus_lds_fast);
    ("intra+lds-nocomm", T.Intra { include_lds = true; comm = Comm_none });
    ("intra-lds-nocomm", T.Intra { include_lds = false; comm = Comm_none });
    ("inter", T.Inter Per_item);
    ("inter-nocomm", T.Inter No_comm);
    ("inter-pool64", T.Inter (Pooled 64));
    ("tmr", T.Tmr);
  ]

let golden_ir_text () =
  let ir_line name k0 local_items (label, v) =
    let local_items = if v = T.Tmr then 16 else local_items in
    match T.apply v ~local_items k0 with
    | k ->
        Printf.sprintf "%s %s %s\n" name label
          (Digest.to_hex
             (Digest.string
                (Printf.sprintf "nregs %d\n%s" k.Gpu_ir.Types.nregs
                   (Gpu_ir.Pp.kernel_to_string k))))
    | exception T.Unsupported msg ->
        Printf.sprintf "%s %s unsupported: %s\n" name label msg
  in
  let registry =
    List.map
      (fun (b : Kernels.Bench.t) ->
        let prep = b.prepare (Sim.Device.create Sim.Config.default) ~scale:1 in
        let nd = (List.hd prep.Kernels.Bench.steps).Kernels.Bench.nd in
        (b.id, b.make_kernel (), Sim.Geom.group_items nd))
      Kernels.Registry.all
  in
  let rgk_dir =
    Filename.concat (Filename.dirname Sys.executable_name) "../examples/kernels"
  in
  let rgk =
    List.map
      (fun f ->
        let src =
          In_channel.with_open_text (Filename.concat rgk_dir f)
            In_channel.input_all
        in
        (f, Gpu_ir.Parse.kernel_of_string_checked src, 64))
      [ "histogram.rgk"; "saxpy.rgk" ]
  in
  String.concat ""
    (List.concat_map
       (fun (name, k0, items) -> List.map (ir_line name k0 items) ir_variants)
       (registry @ rgk))

let test_golden_ir () =
  let expected = In_channel.with_open_bin golden_ir_file In_channel.input_all in
  let actual = golden_ir_text () in
  if actual <> expected then begin
    let path = Filename.temp_file "golden_ir" ".txt" in
    Out_channel.with_open_bin path (fun oc -> output_string oc actual);
    Alcotest.failf
      "transformed kernels differ from golden_ir.txt; actual text written \
       to %s"
      path
  end

(* Campaign results: one line per injected run of a fixed plan set, with
   its outcome, verdict, cycles, detection latency, the MD5 of its
   counters, power windows and per-site profile, and its provenance text.
   The set covers every kernel version and target on PS, multi-pass FWT
   with plans on and next to its first pass boundary, sanitized
   campaigns, and detected, crashed and hung runs. Same temp-file rule
   as golden_ir.txt. *)
let golden_campaigns_file =
  Filename.concat (Filename.dirname Sys.executable_name) "golden_campaigns.txt"

let campaign_versions =
  [
    ("original", T.Original);
    ("intra+lds", T.intra_plus_lds);
    ("intra-lds", T.intra_minus_lds);
    ("intra+lds-fast", T.intra_plus_lds_fast);
    ("intra-lds-fast", T.intra_minus_lds_fast);
    ("inter", T.inter_group);
  ]

let campaign_targets =
  [
    ("vgpr", Sim.Device.T_vgpr);
    ("sgpr", Sim.Device.T_sgpr);
    ("lds", Sim.Device.T_lds);
    ("l1", Sim.Device.T_l1);
  ]

(* cycles of the benchmark's first launch alone *)
let first_pass_cycles (bench : Kernels.Bench.t) v =
  let first =
    {
      bench with
      prepare =
        (fun dev ~scale ->
          let p = bench.prepare dev ~scale in
          { p with steps = [ List.hd p.Kernels.Bench.steps ] });
    }
  in
  (Harness.Run.run first v).Harness.Run.cycles

type campaign_case = {
  cc_bench : string;
  cc_version : string;
  cc_target : string;
  cc_sanitize : bool;
  cc_plans : Kernels.Bench.t -> golden:Harness.Run.summary -> Sim.Device.inject_plan list;
}

let sampled ?(sanitize = false) bench version target ~n ~seed =
  {
    cc_bench = bench;
    cc_version = version;
    cc_target = target;
    cc_sanitize = sanitize;
    cc_plans =
      (fun _ ~golden ->
        Harness.Campaign.plans ~n ~target:(List.assoc target campaign_targets)
          ~seed ~golden_cycles:golden.Harness.Run.cycles);
  }

(* plans at the first pass's last cycle and one past it, which lands at
   cycle 1 of the second pass *)
let on_boundary bench version target =
  {
    cc_bench = bench;
    cc_version = version;
    cc_target = target;
    cc_sanitize = false;
    cc_plans =
      (fun b ~golden:_ ->
        let c0 = first_pass_cycles b (List.assoc version campaign_versions) in
        List.concat_map
          (fun at ->
            List.map
              (fun iseed ->
                {
                  Sim.Device.at_cycle = at;
                  target = List.assoc target campaign_targets;
                  iseed;
                })
              [ 3; 11 ])
          [ c0; c0 + 1 ]);
  }

let campaign_cases =
  List.concat_map
    (fun (version, _) ->
      List.map
        (fun (target, _) -> sampled "PS" version target ~n:3 ~seed:1)
        campaign_targets)
    campaign_versions
  @ [
      sampled "PS" "inter" "vgpr" ~n:24 ~seed:9 (* one hangs *);
      sampled "PS" "inter" "sgpr" ~n:8 ~seed:5 (* one crashes *);
      sampled "PS" "intra+lds" "vgpr" ~n:8 ~seed:2 (* detections *);
      sampled ~sanitize:true "PS" "inter" "lds" ~n:4 ~seed:2;
      sampled ~sanitize:true "PS" "intra+lds" "sgpr" ~n:3 ~seed:3;
      sampled "FWT" "intra+lds" "vgpr" ~n:4 ~seed:3;
      sampled "FWT" "intra+lds" "lds" ~n:2 ~seed:3;
      sampled "FWT" "original" "l1" ~n:2 ~seed:3;
      on_boundary "FWT" "intra+lds" "vgpr";
    ]

(* Every plan of a case with its summary, from one forking pass as
   [Experiments.campaign] runs them (children on two workers), or
   ([~one_by_one]) by one [Run.run] each. *)
let campaign_case_runs ?(one_by_one = false) c =
  let bench = Kernels.Registry.find c.cc_bench in
  let v = List.assoc c.cc_version campaign_versions in
  let golden = Harness.Run.run bench v in
  let max_cycles = (golden.Harness.Run.cycles * 10) + 50_000 in
  let sanitize = c.cc_sanitize in
  let plans = c.cc_plans bench ~golden in
  List.combine plans
    (if one_by_one then
       List.map
         (fun inject -> Harness.Run.run ~max_cycles ~inject ~sanitize bench v)
         plans
     else
       Harness.Run.run_plans ~max_cycles ~sanitize
         ~pool:(Harness.Pool.create ~jobs:2 ()) ~golden bench v plans)

(* computed once for the two tests below *)
let forked_campaigns =
  lazy (List.map (fun c -> (c, campaign_case_runs c)) campaign_cases)

let campaign_line c ((p : Sim.Device.inject_plan), (s : Harness.Run.summary)) =
  let module R = Harness.Run in
  Printf.sprintf "%s %s %s%s @%d/%d %s verified=%b cycles=%d latency=%s md5=%s%s | %s\n"
    c.cc_bench c.cc_version c.cc_target
    (if c.cc_sanitize then " sanitized" else "")
    p.at_cycle p.iseed (R.outcome_name s.R.outcome) s.R.verified s.R.cycles
    (match s.R.detection_latency with Some l -> string_of_int l | None -> "-")
    (Digest.to_hex
       (Digest.string
          (Marshal.to_string (s.R.counters, s.R.windows, s.R.profile)
             [ Marshal.No_sharing ])))
    (match s.R.san with
    | Some f -> Printf.sprintf " findings=%d" (List.length f)
    | None -> "")
    (match s.R.provenance with
    | Some pr -> Gpu_prof.Provenance.to_string pr
    | None -> "-")

let check_field what name ok =
  if not ok then Alcotest.failf "%s: %s differs from the injected run" what name

let golden_campaigns_text () =
  String.concat ""
    (List.concat_map
       (fun (c, runs) -> List.map (campaign_line c) runs)
       (Lazy.force forked_campaigns))

let test_golden_campaigns () =
  let expected =
    In_channel.with_open_bin golden_campaigns_file In_channel.input_all
  in
  let actual = golden_campaigns_text () in
  if actual <> expected then begin
    let path = Filename.temp_file "golden_campaigns" ".txt" in
    Out_channel.with_open_bin path (fun oc -> output_string oc actual);
    Alcotest.failf
      "campaign results differ from golden_campaigns.txt; actual text \
       written to %s"
      path
  end

(* Each forked child equals the injected run it stands for, field for
   field, over the case set of golden_campaigns.txt. *)
let test_forked_campaigns_equal_runs () =
  let module R = Harness.Run in
  List.iter
    (fun (c, forked) ->
      List.iter2
        (fun ((p : Sim.Device.inject_plan), (a : R.summary)) (_, (b : R.summary)) ->
          let what =
            Printf.sprintf "%s %s %s%s @%d/%d" c.cc_bench c.cc_version
              c.cc_target
              (if c.cc_sanitize then " sanitized" else "")
              p.at_cycle p.iseed
          in
          let field name ok = check_field what name ok in
          field "bench_id" (a.bench_id = b.bench_id);
          field "variant" (a.variant = b.variant);
          field "cycles" (a.cycles = b.cycles);
          field "counters" (a.counters = b.counters);
          field "windows" (a.windows = b.windows);
          field "outcome" (a.outcome = b.outcome);
          field "verified" (a.verified = b.verified);
          field "occupancy" (a.occupancy = b.occupancy);
          field "usage" (a.usage = b.usage);
          field "steps" (a.steps = b.steps);
          field "inject_applied" (a.inject_applied = b.inject_applied);
          field "detection_latency" (a.detection_latency = b.detection_latency);
          field "kernel" (a.kernel = b.kernel);
          field "profile" (a.profile = b.profile);
          field "events" (a.events = b.events);
          field "provenance" (a.provenance = b.provenance);
          field "san" (a.san = b.san))
        forked
        (campaign_case_runs ~one_by_one:true c))
    (Lazy.force forked_campaigns)

let suite =
  [
    Alcotest.test_case "registry runs match the golden counters" `Quick test_golden;
    Alcotest.test_case "registry runs match the golden stalls" `Quick
      test_golden_stalls;
    Alcotest.test_case "extension reports match golden_reports.txt" `Quick
      test_golden_reports;
    Alcotest.test_case "pass output matches golden_ir.txt" `Quick test_golden_ir;
    Alcotest.test_case "campaigns match golden_campaigns.txt" `Quick
      test_golden_campaigns;
    Alcotest.test_case "forked campaign children equal injected runs" `Quick
      test_forked_campaigns_equal_runs;
  ]
