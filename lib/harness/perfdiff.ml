(** Perf-regression diff gate.

    Compares the per-run simulated cost counters (cycles, unit-busy
    cycles, write stalls, spin iterations) of two [BENCH_<rev>.json]
    perf-trajectory files (the documents {!Metrics.bench_json} emits),
    matched by run label and gated by a relative-increase threshold.
    Counters are deterministic, so a tight tolerance catches real
    simulator or kernel-shape changes. A baseline run missing from the
    new file fails the gate too: a relabelled or dropped run would
    otherwise pass unseen. Any other field (such as the per-experiment
    wall clock of older files) is ignored: host time is measured by
    perfbench.

    The comparison is a library function returning structured findings
    so tests can exercise the gate without subprocesses; the CLI
    ([rmtgpu perfdiff OLD NEW]) renders the findings and exits non-zero
    when any regression crosses a threshold. *)

module Json = Gpu_trace.Json

let default_counter_rel = 0.02

type severity = Regression | Info

type finding = {
  severity : severity;
  subject : string;  (** run label *)
  metric : string;  (** e.g. ["counters.cycles"] *)
  old_value : float;
  new_value : float;
  detail : string;
}

(** The simulated cost counters the gate watches. Counts of work done
    (instructions, lane ops) are shape descriptors, not costs; the gate
    watches the fields where regressions show up as wasted cycles. *)
let gated_counters =
  [
    "cycles";
    "valu_busy";
    "salu_busy";
    "mem_unit_busy";
    "lds_busy";
    "write_stalled";
    "spin_iterations";
  ]

(* ------------------------------------------------------------------ *)
(* Document access                                                     *)
(* ------------------------------------------------------------------ *)

exception Bad_file of string

let fail fmt = Printf.ksprintf (fun s -> raise (Bad_file s)) fmt

let parse_file path =
  let text =
    try
      let ic = open_in_bin path in
      let n = in_channel_length ic in
      let s = really_input_string ic n in
      close_in ic;
      s
    with Sys_error e -> fail "%s: %s" path e
  in
  try Json.parse text
  with Json.Parse_error e -> fail "%s: invalid JSON: %s" path e

let member_exn path key j =
  match Json.member key j with
  | Some v -> v
  | None -> fail "%s: missing field %S" path key

let to_num path key = function
  | Json.Int i -> float_of_int i
  | Json.Float f -> f
  | _ -> fail "%s: field %S is not a number" path key

let to_str path key = function
  | Json.Str s -> s
  | _ -> fail "%s: field %S is not a string" path key

(** [(label, counter assoc)] per run, keeping only the gated counters. *)
let runs path doc =
  match Json.to_list (member_exn path "runs" doc) with
  | None -> fail "%s: \"runs\" is not a list" path
  | Some xs ->
      List.map
        (fun r ->
          let label = to_str path "label" (member_exn path "label" r) in
          let counters = member_exn path "counters" r in
          let fields =
            List.filter_map
              (fun key ->
                match Json.member key counters with
                | Some v -> Some (key, to_num path key v)
                | None -> None)
              gated_counters
          in
          (label, fields))
        xs

let rev path doc =
  match Json.member "rev" doc with Some (Json.Str r) -> r | _ -> path

(* ------------------------------------------------------------------ *)
(* Comparison                                                          *)
(* ------------------------------------------------------------------ *)

let pct_change o n = if o = 0.0 then 0.0 else 100.0 *. (n -. o) /. o

(** Diff two parsed trajectory documents. Findings are ordered:
    regressions first (grown counters, then vanished runs), then
    informational notes (new runs; improvements are not reported). *)
let diff ?(counter_rel = default_counter_rel) ~old_path ~new_path old_doc
    new_doc : finding list =
  let regressions = ref [] and infos = ref [] in
  let reg f = regressions := f :: !regressions in
  let info f = infos := f :: !infos in
  (* simulated counters per run label *)
  let old_runs = runs old_path old_doc in
  let new_runs = runs new_path new_doc in
  List.iter
    (fun (label, nfields) ->
      match List.assoc_opt label old_runs with
      | None ->
          info
            {
              severity = Info;
              subject = label;
              metric = "counters";
              old_value = 0.0;
              new_value = 0.0;
              detail = "run not present in old trajectory";
            }
      | Some ofields ->
          List.iter
            (fun (key, nv) ->
              match List.assoc_opt key ofields with
              | None -> ()
              | Some ov ->
                  if nv > ov +. (counter_rel *. Float.abs ov)
                     && nv -. ov >= 1.0
                  then
                    reg
                      {
                        severity = Regression;
                        subject = label;
                        metric = "counters." ^ key;
                        old_value = ov;
                        new_value = nv;
                        detail =
                          Printf.sprintf "%.0f -> %.0f (+%.2f%% > %.2f%%)" ov
                            nv (pct_change ov nv)
                            (100.0 *. counter_rel);
                      })
            nfields)
    new_runs;
  List.iter
    (fun (label, _) ->
      if List.assoc_opt label new_runs = None then
        reg
          {
            severity = Regression;
            subject = label;
            metric = "counters";
            old_value = 0.0;
            new_value = 0.0;
            detail = "run vanished from new trajectory";
          })
    old_runs;
  List.rev !regressions @ List.rev !infos

(** Diff two trajectory files on disk.
    @raise Bad_file on unreadable or malformed input. *)
let diff_files ?counter_rel ~old_path ~new_path () : finding list =
  let old_doc = parse_file old_path and new_doc = parse_file new_path in
  diff ?counter_rel ~old_path ~new_path old_doc new_doc

let has_regression findings =
  List.exists (fun f -> f.severity = Regression) findings

let finding_to_string f =
  Printf.sprintf "%s %s %s: %s"
    (match f.severity with Regression -> "REGRESSION" | Info -> "info")
    f.subject f.metric f.detail

(** Human-readable report; header names both revisions. *)
let report ?counter_rel ~old_path ~new_path () : string * bool =
  let old_doc = parse_file old_path and new_doc = parse_file new_path in
  let findings = diff ?counter_rel ~old_path ~new_path old_doc new_doc in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "perfdiff: %s (%s) -> %s (%s)\n" old_path
       (rev old_path old_doc) new_path (rev new_path new_doc));
  if findings = [] then Buffer.add_string buf "no differences beyond thresholds\n"
  else
    List.iter
      (fun f ->
        Buffer.add_string buf (finding_to_string f);
        Buffer.add_char buf '\n')
      findings;
  let nreg = List.length (List.filter (fun f -> f.severity = Regression) findings) in
  Buffer.add_string buf
    (if nreg = 0 then "gate: PASS\n"
     else Printf.sprintf "gate: FAIL (%d regression%s)\n" nreg
         (if nreg = 1 then "" else "s"));
  (Buffer.contents buf, nreg > 0)
