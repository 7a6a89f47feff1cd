(** [rmtgpu check]: run a benchmark's kernel through the static
    SoR-invariant checker and the dynamic sanitizer, per RMT variant.

    Each checked target gets two verdicts:

    - {e static}: {!Rmt_core.Sor_check} walks the transformed kernel and
      verifies the sphere-of-replication contract (every exiting store
      branch-confined, compared against the twin's copy received over
      the communication channel, and — Inter-Group — gated by the
      hand-off flag protocol);
    - {e dynamic}: the benchmark runs to completion under
      {!Gpu_san.Shadow}, which flags data races, uninitialized reads and
      out-of-bounds accesses with both conflicting sites and work-item
      coordinates.

    TMR is checked statically only: the voting exchange requires a whole
    tripled work-group to fit in one wavefront (3 × items ≤ 64), and
    every registry benchmark uses work-groups of 64 or more, so a
    dynamic TMR run of the real workload is architecturally infeasible —
    the TMR property tests in [test/test_tmr.ml] and the sanitized
    synthetic kernels in [test/test_san.ml] cover its dynamic side. *)

module Transform = Rmt_core.Transform
module Sor_check = Rmt_core.Sor_check
module Json = Gpu_trace.Json
module Findings = Gpu_findings.Findings

(** A checkable kernel version: the harness variants, plus TMR (which is
    not a {!Transform.variant} because its tripled launch geometry does
    not fit the registry workloads). *)
type target = T_variant of Transform.variant | T_tmr

(** The gate matrix of the CI check: baseline + the paper's headline RMT
    flavors + TMR. *)
let standard_targets : (string * target) list =
  [
    ("baseline", T_variant Transform.Original);
    ("intra+lds", T_variant Transform.intra_plus_lds);
    ("intra-lds", T_variant Transform.intra_minus_lds);
    ("inter", T_variant Transform.inter_group);
    ("tmr", T_tmr);
  ]

let target_of_string s =
  match List.assoc_opt (String.lowercase_ascii s) standard_targets with
  | Some t -> Some t
  | None -> None

let flavor_of_target = function
  | T_variant Transform.Original -> Sor_check.F_original
  | T_variant (Transform.Intra { include_lds = true; _ }) ->
      Sor_check.F_intra_plus
  | T_variant (Transform.Intra { include_lds = false; _ }) ->
      Sor_check.F_intra_minus
  | T_variant (Transform.Inter _) -> Sor_check.F_inter
  | T_tmr -> Sor_check.F_tmr

(** Why an entry's dynamic check did not run — a machine-readable
    classification next to the human note, so CI consumers can assert
    on the skip (e.g. that TMR is static-only by design, not by
    accident) without parsing prose. *)
type skip_kind =
  | Sk_static_only
      (** by design: the target cannot run the real workload (TMR's
          tripled group exceeds the wavefront) *)
  | Sk_no_harness  (** freestanding kernel: no argument/reference harness *)
  | Sk_not_applicable  (** the transform rejected this kernel *)

let skip_kind_name = function
  | Sk_static_only -> "static_only"
  | Sk_no_harness -> "no_harness"
  | Sk_not_applicable -> "not_applicable"

type entry = {
  e_label : string;
  e_kernel : Gpu_ir.Types.kernel;  (** the kernel the site ids index *)
  e_static : Sor_check.violation list;
  e_shadow : Gpu_san.Shadow.t option;  (** [None] = dynamic check skipped *)
  e_skip_kind : skip_kind option;
  e_skip_reason : string option;
  e_run_problem : string option;
      (** a sanitized run that did not finish verified is itself a
          finding, independent of shadow state *)
}

type report = { r_bench : string; r_entries : entry list }

(** Every verdict of an entry in the shared findings vocabulary: the
    static contract violations, the run problem and the sanitizer's
    findings become one list, which cleanliness, text rendering and the
    JSON envelope are all derived from — the same plumbing
    [rmtgpu lint] and the sanitizer report use. *)
let entry_findings e : Findings.finding list =
  let static =
    List.map
      (fun (v : Sor_check.violation) ->
        Findings.make ~category:"sor" ~site:v.Sor_check.v_site
          ~inst:v.Sor_check.v_inst
          ~space:
            (match v.Sor_check.v_space with
            | Gpu_ir.Types.Global -> "global"
            | Gpu_ir.Types.Local -> "local")
          v.Sor_check.v_reason)
      e.e_static
  in
  let run =
    match e.e_run_problem with
    | Some p -> [ Findings.make ~category:"run" p ]
    | None -> []
  in
  let dynamic =
    match e.e_shadow with
    | Some s -> Gpu_san.Report.to_findings ~kernel:e.e_kernel s
    | None -> []
  in
  static @ run @ dynamic

let entry_clean e = Findings.clean (entry_findings e)

let clean r = List.for_all entry_clean r.r_entries

(* TMR's static shape is independent of the logical group size (it only
   scales immediates), and 16 is the size its benchmarks/examples use. *)
let tmr_static_local_items = 16

let check_target ?(cfg = Gpu_sim.Config.default) ?(scale = 1)
    (bench : Kernels.Bench.t) (label, target) : entry =
  let flavor = flavor_of_target target in
  match target with
  | T_tmr ->
      let kernel =
        Rmt_core.Tmr.transform ~local_items:tmr_static_local_items
          (bench.Kernels.Bench.make_kernel ())
      in
      {
        e_label = label;
        e_kernel = kernel;
        e_static = Sor_check.check flavor kernel;
        e_shadow = None;
        e_skip_kind = Some Sk_static_only;
        e_skip_reason =
          Some
            "dynamic check skipped: TMR requires 3*work-group <= 64 lanes \
             and every registry workload uses >= 64-item groups";
        e_run_problem = None;
      }
  | T_variant variant ->
      let summary = Run.run ~cfg ~scale ~sanitize:true bench variant in
      let kernel = summary.Run.kernel in
      let problem =
        match summary.Run.outcome with
        | Gpu_sim.Device.Finished when summary.Run.verified -> None
        | Gpu_sim.Device.Finished ->
            Some "run finished but output verification failed"
        | o -> Some ("run did not finish: " ^ Run.outcome_name o)
      in
      {
        e_label = label;
        e_kernel = kernel;
        e_static = Sor_check.check flavor kernel;
        e_shadow = summary.Run.san;
        e_skip_kind = None;
        e_skip_reason = None;
        e_run_problem = problem;
      }

(** Check [bench] against [targets] (default: the standard five). *)
let check_bench ?cfg ?scale ?(targets = standard_targets)
    (bench : Kernels.Bench.t) : report =
  {
    r_bench = bench.Kernels.Bench.id;
    r_entries = List.map (check_target ?cfg ?scale bench) targets;
  }

(** Statically check a freestanding kernel (e.g. a parsed [.rgk] file):
    apply each target's transform and verify its SoR contract. The
    dynamic sanitizer needs a benchmark harness (arguments, reference
    output), so it is skipped with a note; a transform that rejects the
    kernel (e.g. global atomics under Intra-Group) is likewise a noted
    skip, not a finding. *)
let check_kernel ?(local_items = 64) ?(targets = standard_targets) ~name
    (k0 : Gpu_ir.Types.kernel) : report =
  let dynamic_note =
    "dynamic check skipped: freestanding kernel has no argument/reference \
     harness; static contract only"
  in
  let entry (label, target) =
    let flavor = flavor_of_target target in
    match
      match target with
      | T_tmr -> Rmt_core.Tmr.transform ~local_items:tmr_static_local_items k0
      | T_variant v -> Transform.apply v ~local_items k0
    with
    | k ->
        {
          e_label = label;
          e_kernel = k;
          e_static = Sor_check.check flavor k;
          e_shadow = None;
          e_skip_kind =
            Some (if target = T_tmr then Sk_static_only else Sk_no_harness);
          e_skip_reason = Some dynamic_note;
          e_run_problem = None;
        }
    | exception
        ( Rmt_core.Intra_group.Unsupported msg
        | Rmt_core.Tmr.Unsupported msg ) ->
        {
          e_label = label;
          e_kernel = k0;
          e_static = [];
          e_shadow = None;
          e_skip_kind = Some Sk_not_applicable;
          e_skip_reason = Some ("transform not applicable: " ^ msg);
          e_run_problem = None;
        }
  in
  { r_bench = name; r_entries = List.map entry targets }

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let entry_to_string e =
  let buf = Buffer.create 256 in
  let verdict = if entry_clean e then "ok" else "FAIL" in
  Buffer.add_string buf (Printf.sprintf "  %-10s %s\n" e.e_label verdict);
  Buffer.add_string buf
    (Findings.list_to_string ~indent:"    " (entry_findings e));
  (match e.e_skip_reason with
  | Some r -> Buffer.add_string buf (Printf.sprintf "    note: %s\n" r)
  | None -> ());
  Buffer.contents buf

let to_string r =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "%s: %s\n" r.r_bench
       (if clean r then "clean" else "FINDINGS"));
  List.iter (fun e -> Buffer.add_string buf (entry_to_string e)) r.r_entries;
  Buffer.contents buf

(* The shared [{"clean"; "findings"}] envelope, extended with the
   entry's target label and the structured skip classification (the
   [skip_kind] field CI asserts on — e.g. TMR must be ["static_only"]). *)
let entry_to_json e : Json.t =
  let envelope =
    match Findings.list_to_json (entry_findings e) with
    | Json.Obj fields -> fields
    | _ -> assert false
  in
  Obj
    (("target", Json.Str e.e_label) :: envelope
    @ [
        ( "skip_kind",
          match e.e_skip_kind with
          | Some k -> Json.Str (skip_kind_name k)
          | None -> Json.Null );
        ( "skip_reason",
          match e.e_skip_reason with
          | Some r -> Json.Str r
          | None -> Json.Null );
      ])

let to_json r : Json.t =
  Obj
    [
      ("bench", Str r.r_bench);
      ("clean", Bool (clean r));
      ("targets", List (List.map entry_to_json r.r_entries));
    ]
