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

let line (label, cfg, id, vname) =
  let s =
    Harness.Run.run ~cfg (Kernels.Registry.find id) (List.assoc vname variants)
  in
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
  let actual = List.map line runs in
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

(* The report text of three extension studies, each under a "== label"
   header: the TMR study (quick campaigns, one worker), the static
   Table 2/3 derivation and the wavefront-size study (one worker; its
   runs use configs other than the context's). On a mismatch the actual text is written to a
   temporary file, which replaces golden_reports.txt when the change is
   deliberate. *)
let golden_reports_file =
  Filename.concat (Filename.dirname Sys.executable_name) "golden_reports.txt"

let golden_reports_text () =
  let ctx = Harness.Experiments.create_ctx ~quick:true ~jobs:1 () in
  let tmr = Harness.Experiments.tmr ctx in
  let wavesize = Harness.Experiments.wavesize ctx in
  Printf.sprintf "== exp tmr --quick\n%s== exp table2static\n%s== exp wavesize\n%s"
    tmr
    (Harness.Experiments.table2static ())
    wavesize

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

let suite =
  [
    Alcotest.test_case "registry runs match the golden counters" `Quick test_golden;
    Alcotest.test_case "extension reports match golden_reports.txt" `Quick
      test_golden_reports;
  ]
