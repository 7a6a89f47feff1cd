(** Static protection-domain report: which compute-unit structures each
    RMT flavor places inside its sphere of replication, derived from the
    validator's pairing map and the transformed kernel itself — a static
    reconstruction of the paper's Table 2/3 matrix.

    {!Rmt_core.Sor} states the matrix as data; this module {e re-derives}
    it from first principles so the two can be checked against each
    other ({!crosscheck_sor}):

    - the {e pairing locality} says where the replicas live. Lane-level
      pairings (Intra twins, TMR triples) put both replicas in one
      wavefront: per-lane state (SIMD ALUs, the vector register file)
      is replicated, per-wave and per-CU state is shared. The
      group-level pairing (Inter) puts replicas in distinct work-groups:
      everything private to a wavefront or work-group is replicated, and
      only structures two groups can share — the L1, reachable when the
      scheduler co-locates a pair on one CU — stay outside;
    - {e LDS} follows the transform's allocation policy, read off the
      transformed kernel: when every original allocation is duplicated
      per replica (+LDS, TMR) the LDS is inside the sphere; when the
      replicas share one copy (−LDS) it is architectural state outside
      it. Inter-Group replicas own separate per-group LDS by
      construction;
    - {!Gpu_ir.Uniformity} quantifies the scalar residue: registers the
      compiler would place in the SRF execute once per wavefront, so
      under a lane-level pairing both twins consume the {e same}
      physical scalar value — the reason Table 2 leaves SU/SRF
      unprotected for Intra-Group and why the report carries the
      uniform/divergent register split.

    The same report cross-checks the dynamic side: a fault-injection
    campaign's per-structure {!Gpu_prof.Provenance} coverage must agree
    with the matrix ({!crosscheck_campaign}) — consumed faults in a
    protected structure must not escape detection, and a structure the
    matrix calls unprotected is expected to show escapes. *)

module Sor = Rmt_core.Sor
module Uniformity = Gpu_ir.Uniformity

type domain = {
  dm_structure : Sor.structure;
  dm_protected : bool;
  dm_why : string;  (** one-line derivation *)
}

type report = {
  dr_label : string;
  dr_pairing : Simrel.pairing;
  dr_domains : domain list;  (** in {!Sor.all_structures} order *)
  dr_uniform_regs : int;  (** SRF-resident state of the transformed kernel *)
  dr_divergent_regs : int;  (** VRF-resident state *)
  dr_lds_replicated : bool;  (** replicas own private copies of kernel LDS *)
  dr_lds_kernel_bytes : int;  (** original kernel's LDS footprint *)
  dr_lds_channel_bytes : int;  (** comm-channel LDS: the checker's own, residue *)
}

(* Replica locality, the single fact the matrix pivots on. *)
type locality = Lx_none | Lx_lane | Lx_group

let locality_of = function
  | Simrel.P_none -> Lx_none
  | Simrel.P_lane_parity | Simrel.P_lane_mod3 -> Lx_lane
  | Simrel.P_group_parity -> Lx_group

(* Does the transform give each replica a private copy of the kernel's
   LDS allocations? Read off the kernels: the transformed allocation of
   every original name grew by an integral replica factor (the channel
   allocations are extra names and do not count). *)
let lds_replicated ~(original : Gpu_ir.Types.kernel)
    ~(transformed : Gpu_ir.Types.kernel) =
  original.Gpu_ir.Types.lds_allocs <> []
  && List.for_all
       (fun (name, bytes) ->
         match
           List.assoc_opt name transformed.Gpu_ir.Types.lds_allocs
         with
         | Some bytes' -> bytes' >= 2 * bytes
         | None -> false)
       original.Gpu_ir.Types.lds_allocs

let channel_names =
  [
    Rmt_core.Intra_group.comm_lds_name;
    Rmt_core.Tmr.comm_lds_name;
    Rmt_core.Inter_group.wgid_lds_name;
  ]

(* The flavor's stated LDS policy, the fallback when the kernel has no
   LDS of its own to read the policy off. *)
let policy_replicates_lds : Rmt_core.Transform.variant -> bool = function
  | Intra { include_lds; _ } -> include_lds
  | Tmr -> true
  | Original -> false
  | Inter _ -> true

let derive ~(variant : Rmt_core.Transform.variant)
    ~(original : Gpu_ir.Types.kernel) ~(transformed : Gpu_ir.Types.kernel) :
    report =
  let pairing = Simrel.pairing_of_variant variant in
  let loc = locality_of pairing in
  let lds_rep =
    match loc with
    | Lx_none -> false
    | Lx_group -> true (* per-group LDS: replicas in distinct groups *)
    | Lx_lane ->
        if original.Gpu_ir.Types.lds_allocs = [] then
          policy_replicates_lds variant
        else lds_replicated ~original ~transformed
  in
  let protected_ (s : Sor.structure) =
    match (loc, s) with
    | Lx_none, _ -> (false, "no redundancy")
    | Lx_lane, (Sor.SIMD_alu | Sor.VRF) ->
        (true, "twins occupy distinct lanes of one wavefront")
    | Lx_lane, Sor.LDS ->
        if lds_rep then (true, "transform duplicates every LDS allocation")
        else (false, "replicas share one LDS copy (architectural state)")
    | Lx_lane, (Sor.SU | Sor.SRF) ->
        (false, "uniform values execute once per wavefront, shared by twins")
    | Lx_lane, (Sor.Instr_decode | Sor.Instr_fetch_sched) ->
        (false, "one wavefront: twins share fetch/decode of every instruction")
    | Lx_lane, Sor.L1_cache -> (false, "twins issue through one memory path")
    | Lx_group, Sor.L1_cache ->
        (false, "paired groups may share a CU and thus a cache line")
    | Lx_group, _ ->
        (true, "replicas live in distinct wavefronts and work-groups")
  in
  let div = Uniformity.analyze transformed in
  let uniform = ref 0 and divergent = ref 0 in
  Array.iter (fun d -> if d then incr divergent else incr uniform) div;
  let kernel_lds =
    List.fold_left (fun a (_, b) -> a + b) 0 original.Gpu_ir.Types.lds_allocs
  in
  let channel_lds =
    List.fold_left
      (fun a (name, b) -> if List.mem name channel_names then a + b else a)
      0 transformed.Gpu_ir.Types.lds_allocs
  in
  {
    dr_label = Rmt_core.Transform.name variant;
    dr_pairing = pairing;
    dr_domains =
      List.map
        (fun s ->
          let p, why = protected_ s in
          { dm_structure = s; dm_protected = p; dm_why = why })
        Sor.all_structures;
    dr_uniform_regs = !uniform;
    dr_divergent_regs = !divergent;
    dr_lds_replicated = lds_rep;
    dr_lds_kernel_bytes = kernel_lds;
    dr_lds_channel_bytes = channel_lds;
  }

(** Derive a flavor's report from a fresh transform of [k0] (a
    convenience over {!Simrel.subject} for callers that only need the
    static matrix). *)
let of_kernel ?(local_items = Simrel.default_local_items) variant
    (k0 : Gpu_ir.Types.kernel) : report =
  derive ~variant ~original:k0
    ~transformed:(Rmt_core.Transform.apply variant ~local_items k0)

let protects r s =
  match List.find_opt (fun d -> d.dm_structure = s) r.dr_domains with
  | Some d -> d.dm_protected
  | None -> false

(* ------------------------------------------------------------------ *)
(* Cross-checks                                                        *)
(* ------------------------------------------------------------------ *)

(** The {!Rmt_core.Sor} flavor whose declared matrix this report must
    reproduce, when the paper states one. *)
let sor_flavor : Rmt_core.Transform.variant -> Sor.flavor option = function
  | Intra { include_lds = true; _ } -> Some Sor.Intra_plus_lds
  | Intra { include_lds = false; _ } -> Some Sor.Intra_minus_lds
  | Inter _ -> Some Sor.Inter_group
  | Original | Tmr -> None

(** Structures on which the derived matrix disagrees with the declared
    {!Sor.protects} table ([[]] = the derivation reproduces the paper's
    row exactly). *)
let crosscheck_sor (r : report) (flavor : Sor.flavor) : Sor.structure list =
  List.filter_map
    (fun d ->
      if d.dm_protected <> Sor.protects flavor d.dm_structure then
        Some d.dm_structure
      else None)
    r.dr_domains

(* The fault campaign's injection targets, mapped onto the matrix. *)
let structure_of_provenance = function
  | Gpu_prof.Provenance.S_vgpr -> Sor.VRF
  | Gpu_prof.Provenance.S_sgpr -> Sor.SRF
  | Gpu_prof.Provenance.S_lds -> Sor.LDS
  | Gpu_prof.Provenance.S_l1 -> Sor.L1_cache

(** Check a fault campaign's per-structure provenance aggregate against
    the static matrix: a {e protected} structure whose consumed faults
    were never detected contradicts the report, as does relying on an
    {e unprotected} structure for coverage claims. Returns human-readable
    inconsistencies ([[]] = campaign agrees with the matrix). *)
let crosscheck_campaign (r : report) (agg : Gpu_prof.Provenance.agg) :
    string list =
  List.filter_map
    (fun ((s : Gpu_prof.Provenance.structure),
          (p : Gpu_prof.Provenance.per_structure)) ->
      let st = structure_of_provenance s in
      let inside = protects r st in
      if inside && p.Gpu_prof.Provenance.consumed > 0
         && p.Gpu_prof.Provenance.detected_n = 0 then
        Some
          (Printf.sprintf
             "%s is inside the %s sphere but %d consumed fault(s) went \
              undetected"
             (Sor.structure_name st) r.dr_label p.Gpu_prof.Provenance.consumed)
      else None)
    agg

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

(** The Table 2/3 matrix over several reports (rows), with the register
    and LDS accounting appended. *)
let table (reports : report list) : string =
  let buf = Buffer.create 512 in
  Buffer.add_string buf (Printf.sprintf "%-22s" "");
  List.iter
    (fun s ->
      Buffer.add_string buf (Printf.sprintf "%-10s" (Sor.structure_name s)))
    Sor.all_structures;
  Buffer.add_string buf "uniform/divergent  LDS (kernel+chan)\n";
  List.iter
    (fun r ->
      Buffer.add_string buf (Printf.sprintf "%-22s" r.dr_label);
      List.iter
        (fun s ->
          Buffer.add_string buf
            (Printf.sprintf "%-10s" (if protects r s then "x" else "")))
        Sor.all_structures;
      Buffer.add_string buf
        (Printf.sprintf "%4d/%-12d %4d+%-4d%s\n" r.dr_uniform_regs
           r.dr_divergent_regs r.dr_lds_kernel_bytes r.dr_lds_channel_bytes
           (if r.dr_lds_replicated then " (replicated)" else "")))
    reports;
  Buffer.contents buf

module Json = Gpu_trace.Json

let to_json (r : report) : Json.t =
  Obj
    [
      ("target", Str r.dr_label);
      ( "domains",
        List
          (List.map
             (fun d ->
               Json.Obj
                 [
                   ("structure", Json.Str (Sor.structure_name d.dm_structure));
                   ("protected", Json.Bool d.dm_protected);
                   ("why", Json.Str d.dm_why);
                 ])
             r.dr_domains) );
      ("uniform_regs", Int r.dr_uniform_regs);
      ("divergent_regs", Int r.dr_divergent_regs);
      ("lds_replicated", Bool r.dr_lds_replicated);
      ("lds_kernel_bytes", Int r.dr_lds_kernel_bytes);
      ("lds_channel_bytes", Int r.dr_lds_channel_bytes);
    ]
