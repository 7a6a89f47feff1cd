(** [rmtgpu lint]: translation validation of the RMT compiler passes.

    Where [rmtgpu check] asks "does the transformed kernel {e look}
    right" (static SoR contract) and "does the workload run clean"
    (sanitizer), lint asks the stronger question: {e is the transformed
    kernel equivalent to the original, and does its redundancy actually
    catch faults?} Per target it runs the {!Gpu_tv.Simrel} simulation
    relation — original vs transformed under the pairing map, plus one
    re-execution per sampled fault-injection experiment — and turns
    every violation into an error finding naming the offending store.

    Two static reports ride along per target, rendered and embedded in
    the JSON artifact:

    - the {e protection-domain report} ({!Gpu_tv.Domains}): which CU
      structures the flavor replicates, cross-checked against the
      declared {!Rmt_core.Sor} matrix — a disagreement is itself an
      error finding;
    - the {e cost prediction} ({!Gpu_tv.Costmodel}): register/LDS
      deltas, the occupancy step, and the inserted communication
      instructions.

    Findings flow through the same {!Gpu_findings.Findings} plumbing as
    the check gate and the sanitizer, so severity order, JSON envelope
    and the exit-code policy are identical across all three. *)

module Simrel = Gpu_tv.Simrel
module Domains = Gpu_tv.Domains
module Costmodel = Gpu_tv.Costmodel
module Findings = Gpu_findings.Findings
module Json = Gpu_trace.Json

(** The lint matrix: every RMT flavor with a pairing to validate
    (the baseline has no redundancy to lint). *)
let standard_targets : (string * Rmt_core.Transform.variant) list =
  [
    ("intra+lds", Rmt_core.Transform.intra_plus_lds);
    ("intra-lds", Rmt_core.Transform.intra_minus_lds);
    ("intra+fast", Rmt_core.Transform.intra_plus_lds_fast);
    ("inter", Rmt_core.Transform.inter_group);
    ("tmr", Rmt_core.Transform.Tmr);
  ]

(* Sampling cap per subject: experiments are enumerated replica-major
   and sampled by stride, so every replica stays represented. The cap
   keeps a 16-kernel × 5-target CI sweep in seconds; [--full] lifts it. *)
let default_max_experiments = 150

type entry = {
  l_label : string;
  l_kernel : Gpu_ir.Types.kernel option;
      (** the transformed kernel finding sites index; [None] on skip *)
  l_findings : Findings.finding list;
  l_stats : Simrel.stats option;
  l_domains : Domains.report option;
  l_cost : Costmodel.prediction option;
  l_skip : string option;  (** transform not applicable to this kernel *)
}

type report = { l_name : string; l_entries : entry list }

let entry_clean e = Findings.clean e.l_findings
let clean r = List.for_all entry_clean r.l_entries

let category_of_violation = function
  | Simrel.Spurious_trap _ -> "tv-spurious-trap"
  | Simrel.Not_refined _ -> "tv-not-refined"
  | Simrel.Run_failed _ -> "tv-run-failed"
  | Simrel.Escaped _ -> "tv-escape"

let violation_findings (subj : Simrel.subject) (res : Simrel.result) :
    Findings.finding list =
  let sl = Gpu_ir.Slice.of_kernel subj.Simrel.s_transformed in
  let insts = sl.Gpu_ir.Slice.insts in
  List.map
    (fun v ->
      let site = Simrel.violation_store_site v in
      let site, inst =
        if site >= 0 && site < Array.length insts then
          (Some site, Some (Gpu_ir.Pp.string_of_inst insts.(site)))
        else (None, None)
      in
      Findings.make ~category:(category_of_violation v) ?site ?inst
        (Simrel.describe_violation insts v))
    res.Simrel.res_violations

let lint_target ?(local_items = Simrel.default_local_items)
    ?(max_experiments = default_max_experiments) ?step_limit
    ?(cfg = Gpu_sim.Config.default) ~(k0 : Gpu_ir.Types.kernel)
    (label, variant) : entry =
  match Simrel.subject ~local_items variant k0 with
  | exception Rmt_core.Transform.Unsupported msg ->
      {
        l_label = label;
        l_kernel = None;
        l_findings = [];
        l_stats = None;
        l_domains = None;
        l_cost = None;
        l_skip = Some ("transform not applicable: " ^ msg);
      }
  | subj ->
      let res = Simrel.validate ~max_experiments ?step_limit subj in
      let domains =
        Domains.derive ~variant ~original:subj.Simrel.s_original
          ~transformed:subj.Simrel.s_transformed
      in
      let domain_findings =
        match Domains.sor_flavor variant with
        | None -> []
        | Some flavor ->
            List.map
              (fun s ->
                Findings.make ~category:"domains"
                  (Printf.sprintf
                     "derived protection domain disagrees with the declared \
                      SoR matrix on %s"
                     (Rmt_core.Sor.structure_name s)))
              (Domains.crosscheck_sor domains flavor)
      in
      let cost = Costmodel.predict ~cfg ~local_items variant k0 in
      {
        l_label = label;
        l_kernel = Some subj.Simrel.s_transformed;
        l_findings = violation_findings subj res @ domain_findings;
        l_stats = Some res.Simrel.res_stats;
        l_domains = Some domains;
        l_cost = Some cost;
        l_skip = None;
      }

(** Lint a freestanding kernel against [targets] (default: all five
    RMT flavors). *)
let lint_kernel ?local_items ?max_experiments ?step_limit ?cfg
    ?(targets = standard_targets) ~name (k0 : Gpu_ir.Types.kernel) : report =
  {
    l_name = name;
    l_entries =
      List.map
        (lint_target ?local_items ?max_experiments ?step_limit ?cfg ~k0)
        targets;
  }

(** Lint a registry benchmark's kernel. The validator supplies its own
    tiny synthetic launch (it must execute the kernel hundreds of
    times), so the benchmark's host harness is not involved. *)
let lint_bench ?local_items ?max_experiments ?step_limit ?cfg ?targets
    (bench : Kernels.Bench.t) : report =
  lint_kernel ?local_items ?max_experiments ?step_limit ?cfg ?targets
    ~name:bench.Kernels.Bench.id
    (bench.Kernels.Bench.make_kernel ())

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let stats_line (s : Simrel.stats) =
  Printf.sprintf
    "%d experiments: %d masked, %d detected, %d timeout, %d degraded, %d \
     not-exercised, %d undetected"
    s.Simrel.n_experiments s.Simrel.n_masked s.Simrel.n_detected
    s.Simrel.n_timeout s.Simrel.n_degraded s.Simrel.n_not_exercised
    s.Simrel.n_undetected

let entry_to_string e =
  let buf = Buffer.create 256 in
  let verdict =
    if e.l_skip <> None then "skip" else if entry_clean e then "ok" else "FAIL"
  in
  Buffer.add_string buf (Printf.sprintf "  %-10s %s\n" e.l_label verdict);
  (match e.l_stats with
  | Some s -> Buffer.add_string buf ("    " ^ stats_line s ^ "\n")
  | None -> ());
  (match e.l_cost with
  | Some c -> Buffer.add_string buf ("    " ^ Costmodel.to_string c ^ "\n")
  | None -> ());
  Buffer.add_string buf (Findings.list_to_string ~indent:"    " e.l_findings);
  (match e.l_skip with
  | Some r -> Buffer.add_string buf (Printf.sprintf "    note: %s\n" r)
  | None -> ());
  Buffer.contents buf

let to_string r =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "%s: %s\n" r.l_name
       (if clean r then "clean" else "FINDINGS"));
  List.iter (fun e -> Buffer.add_string buf (entry_to_string e)) r.l_entries;
  (* the Table 2/3 matrix, once over all linted targets *)
  let domains = List.filter_map (fun e -> e.l_domains) r.l_entries in
  if domains <> [] then begin
    Buffer.add_string buf "  protection domains:\n";
    String.split_on_char '\n' (Domains.table domains)
    |> List.iter (fun l ->
           if l <> "" then Buffer.add_string buf ("    " ^ l ^ "\n"))
  end;
  Buffer.contents buf

let stats_json (s : Simrel.stats) : Json.t =
  Obj
    [
      ("experiments", Int s.Simrel.n_experiments);
      ("masked", Int s.Simrel.n_masked);
      ("detected", Int s.Simrel.n_detected);
      ("timeout", Int s.Simrel.n_timeout);
      ("degraded", Int s.Simrel.n_degraded);
      ("not_exercised", Int s.Simrel.n_not_exercised);
      ("undetected", Int s.Simrel.n_undetected);
    ]

let entry_to_json e : Json.t =
  let envelope =
    match Findings.list_to_json e.l_findings with
    | Json.Obj fields -> fields
    | _ -> assert false
  in
  Obj
    (("target", Json.Str e.l_label) :: envelope
    @ [
        ( "stats",
          match e.l_stats with Some s -> stats_json s | None -> Json.Null );
        ( "domains",
          match e.l_domains with
          | Some d -> Domains.to_json d
          | None -> Json.Null );
        ( "cost",
          match e.l_cost with
          | Some c -> Costmodel.to_json c
          | None -> Json.Null );
        ( "skipped",
          match e.l_skip with Some s -> Json.Str s | None -> Json.Null );
      ])

let to_json r : Json.t =
  Obj
    [
      ("kernel", Str r.l_name);
      ("clean", Bool (clean r));
      ("targets", List (List.map entry_to_json r.l_entries));
    ]
