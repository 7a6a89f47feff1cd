(** Predictive cost model: what an RMT flavor should cost, computed
    from the transformed kernel alone — register/LDS deltas, the
    occupancy hit, and the communication instructions the transform
    inserted — and then {e reconciled} against the simulator's measured
    launch ({!reconcile}).

    The predictions split by how exact a static analysis can be:

    - {e resource usage} ({!Gpu_ir.Regpressure}) and {e occupancy}
      ({!Gpu_sim.Occupancy}) are exact by construction: the device
      computes both from the same kernel at launch time, so prediction
      and measurement must be {e equal} — any difference means the model
      looked at a different kernel than the device ran;
    - the {e global-store multiplier} is bounded per flavor. The
      device's counters are {e per-issue}: a wavefront instruction
      counts once per issuing wave, independent of how many lanes are
      active. Group pairing re-runs every original wave, so Inter-Group
      issues each original store in both groups plus the two producer
      deposits (address and value) — exactly three times the baseline,
      an identity that survives multi-pass benchmarks pass by pass.
      Lane pairing only doubles issues for stores whose guarding
      divergence spans the doubled wave population: a store confined to
      a lane range that still fits one wave issues once, a wave-filling
      store issues twice, so Intra-Group lands anywhere in
      [1×, 2×] — the whole registry realises both endpoints;
    - dynamic {e instruction-count floors} follow the same per-issue
      logic: every issuing original wave maps onto at least one issuing
      transformed wave, so lane-level flavors (Intra, TMR) guarantee
      only 1× on VALU/LDS counts, while group-level replication re-runs
      each wave per replica and guarantees replicas ×. The slack above
      the floor is the communication overhead the reconciliation
      quantifies rather than bounds. *)

open Gpu_ir.Types
module Regpressure = Gpu_ir.Regpressure
module Occupancy = Gpu_sim.Occupancy
module Transform = Rmt_core.Transform

(** Static census of the communication/checking code the transform
    inserted, by site over the transformed kernel. *)
type comm_counts = {
  cc_publishes : int;
      (** stores/atomics whose address is channel-tainted: deposits into
          the comm buffer or vote space, flag hand-offs *)
  cc_checks : int;  (** output comparisons ([Trap] sites) *)
  cc_polls : int;  (** [A_poll] spin reads (Inter-Group hand-off) *)
  cc_swizzles : int;  (** cross-lane moves (the FAST channel) *)
  cc_added_sites : int;  (** total site-count delta over the original *)
}

type prediction = {
  c_label : string;
  c_group_items : int;  (** flat work-group size of the transformed launch *)
  c_replicas : int;  (** 1, 2 or 3 *)
  c_usage_base : Regpressure.usage;
  c_usage_rmt : Regpressure.usage;
  c_occ_base : Occupancy.t;
  c_occ_rmt : Occupancy.t;
  c_comm : comm_counts;
  c_store_lo : int;
  c_store_hi : int;
      (** measured [global_store_insts] must fall in
          [lo × baseline, hi × baseline]; [lo = hi] is an exact
          identity (Inter-Group's 3×) *)
  c_inst_floor : int;
      (** sound per-issue floor: measured VALU/LDS instruction counts
          are at least floor × baseline *)
}

let replicas_of : Transform.variant -> int = function
  | Original -> 1
  | Intra _ | Inter _ -> 2
  | Tmr -> 3

let comm_census variant ~(original : kernel) ~(transformed : kernel) :
    comm_counts =
  let publish = Rmt_core.Sor_check.channel_publish_sites variant transformed in
  let sl = Gpu_ir.Slice.of_kernel transformed in
  let insts = sl.Gpu_ir.Slice.insts in
  let sl0 = Gpu_ir.Slice.of_kernel original in
  let count p = Array.fold_left (fun a i -> if p i then a + 1 else a) 0 insts in
  {
    cc_publishes = Array.fold_left (fun a p -> if p then a + 1 else a) 0 publish;
    cc_checks = count (function Trap _ -> true | _ -> false);
    cc_polls = count (function Atomic (A_poll, _, _, _, _) -> true | _ -> false);
    cc_swizzles = count (function Swizzle _ -> true | _ -> false);
    cc_added_sites =
      Array.length insts - Array.length sl0.Gpu_ir.Slice.insts;
  }

(** Predict the cost of [variant] applied to [k0] for a launch with flat
    work-group size [local_items] (the {e original} launch's; the
    transform's own geometry mapping is applied internally, mirroring
    the harness). *)
let predict ?(cfg = Gpu_sim.Config.default) ?(local_items = 64)
    (variant : Transform.variant) (k0 : kernel) : prediction =
  let transformed = Transform.apply variant ~local_items k0 in
  let group_items =
    Gpu_sim.Geom.group_items
      (Transform.map_ndrange variant
         (Gpu_sim.Geom.make_ndrange local_items local_items))
  in
let usage_base = Regpressure.analyze k0 in
  let usage_rmt = Regpressure.analyze transformed in
  let occ_base =
    Occupancy.compute cfg ~usage:usage_base ~group_items:local_items
  in
  let occ_rmt = Occupancy.compute cfg ~usage:usage_rmt ~group_items in
  let replicas = replicas_of variant in
  let store_lo, store_hi =
    match variant with
    | Original -> (1, 1)
    | Intra _ -> (1, 2)
        (* consumer-only commits, but per-issue counting doubles
           wave-filling stores across the doubled wave population *)
    | Inter (Per_item | Pooled _) ->
        (3, 3) (* commit + addr/value deposits, all group-uniform *)
    | Inter No_comm -> (1, 3)
    | Tmr -> (1, 3) (* voter-only commits, tripled lanes *)
  in
  let inst_floor =
    match variant with
    | Original -> 1
    | Intra _ | Tmr -> 1 (* lane-level *)
    | Inter _ -> replicas (* every wave re-runs *)
  in
  {
    c_label = Transform.name variant;
    c_group_items = group_items;
    c_replicas = replicas;
    c_usage_base = usage_base;
    c_usage_rmt = usage_rmt;
    c_occ_base = occ_base;
    c_occ_rmt = occ_rmt;
    c_comm = comm_census variant ~original:k0 ~transformed;
    c_store_lo = store_lo;
    c_store_hi = store_hi;
    c_inst_floor = inst_floor;
  }

(** (VGPR, SGPR, LDS-bytes) deltas of the transform. *)
let deltas p =
  ( p.c_usage_rmt.Regpressure.vgprs - p.c_usage_base.Regpressure.vgprs,
    p.c_usage_rmt.Regpressure.sgprs - p.c_usage_base.Regpressure.sgprs,
    p.c_usage_rmt.Regpressure.lds - p.c_usage_base.Regpressure.lds )

(* ------------------------------------------------------------------ *)
(* Reconciliation against a measured run                               *)
(* ------------------------------------------------------------------ *)

(** The slice of a measured launch the model makes claims about (the
    harness fills this from a {!Harness.Run.summary}; keeping it a plain
    record avoids a dependency cycle). [m_*_insts] are summed over all
    passes of a multi-pass benchmark — the identities are per-pass, so
    they survive the summation. *)
type measured = {
  m_usage : Regpressure.usage;
  m_occupancy : Occupancy.t;
  m_global_store_insts : int;
  m_valu_insts : int;
  m_lds_insts : int;
}

(** [reconcile p ~base ~rmt] checks every prediction against a measured
    baseline run and a measured RMT run of the same benchmark. Returns
    human-readable discrepancies ([[]] = the model's exact claims hold
    and no floor is violated). *)
let reconcile (p : prediction) ~(base : measured) ~(rmt : measured) :
    string list =
  let problems = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let check_usage what (pred : Regpressure.usage) (got : Regpressure.usage) =
    if pred <> got then
      fail
        "%s usage: predicted v%d/s%d/lds%d, device launched with v%d/s%d/lds%d"
        what pred.Regpressure.vgprs pred.Regpressure.sgprs pred.Regpressure.lds
        got.Regpressure.vgprs got.Regpressure.sgprs got.Regpressure.lds
  in
  check_usage "baseline" p.c_usage_base base.m_usage;
  check_usage "rmt" p.c_usage_rmt rmt.m_usage;
  if p.c_occ_rmt <> rmt.m_occupancy then
    fail "occupancy: predicted %d groups/CU (%s), device computed %d (%s)"
      p.c_occ_rmt.Occupancy.groups_per_cu
      (Occupancy.limiter_name p.c_occ_rmt.Occupancy.limiter)
      rmt.m_occupancy.Occupancy.groups_per_cu
      (Occupancy.limiter_name rmt.m_occupancy.Occupancy.limiter);
  let gs = rmt.m_global_store_insts in
  let lo = p.c_store_lo * base.m_global_store_insts
  and hi = p.c_store_hi * base.m_global_store_insts in
  if gs < lo || gs > hi then
    if p.c_store_lo = p.c_store_hi then
      fail "global stores: predicted exactly %d× baseline (%d), measured %d"
        p.c_store_lo lo gs
    else
      fail "global stores: predicted %d×..%d× baseline (%d..%d), measured %d"
        p.c_store_lo p.c_store_hi lo hi gs;
  if rmt.m_valu_insts < p.c_inst_floor * base.m_valu_insts then
    fail "VALU instructions: measured %d under the %d× replication floor %d"
      rmt.m_valu_insts p.c_inst_floor
      (p.c_inst_floor * base.m_valu_insts);
  if rmt.m_lds_insts < p.c_inst_floor * base.m_lds_insts then
    fail "LDS instructions: measured %d under the %d× replication floor %d"
      rmt.m_lds_insts p.c_inst_floor
      (p.c_inst_floor * base.m_lds_insts);
  List.rev !problems

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let store_bound_string p =
  if p.c_store_lo = p.c_store_hi then Printf.sprintf "×%d" p.c_store_lo
  else Printf.sprintf "×%d..%d" p.c_store_lo p.c_store_hi

let to_string (p : prediction) : string =
  let dv, ds, dl = deltas p in
  Printf.sprintf
    "%-12s v%+d s%+d lds%+d  occupancy %d->%d groups/CU (%s)  comm: %d \
     publish %d check %d poll %d swizzle (+%d sites)  stores %s"
    p.c_label dv ds dl p.c_occ_base.Occupancy.groups_per_cu
    p.c_occ_rmt.Occupancy.groups_per_cu
    (Occupancy.limiter_name p.c_occ_rmt.Occupancy.limiter)
    p.c_comm.cc_publishes p.c_comm.cc_checks p.c_comm.cc_polls
    p.c_comm.cc_swizzles p.c_comm.cc_added_sites (store_bound_string p)

module Json = Gpu_trace.Json

let usage_json (u : Regpressure.usage) : Json.t =
  Obj
    [
      ("vgprs", Int u.Regpressure.vgprs);
      ("sgprs", Int u.Regpressure.sgprs);
      ("lds", Int u.Regpressure.lds);
    ]

let to_json (p : prediction) : Json.t =
  let dv, ds, dl = deltas p in
  Obj
    [
      ("target", Str p.c_label);
      ("group_items", Int p.c_group_items);
      ("replicas", Int p.c_replicas);
      ("usage_base", usage_json p.c_usage_base);
      ("usage_rmt", usage_json p.c_usage_rmt);
      ( "delta",
        Obj [ ("vgprs", Int dv); ("sgprs", Int ds); ("lds", Int dl) ] );
      ( "occupancy",
        Obj
          [
            ("base_groups_per_cu", Int p.c_occ_base.Occupancy.groups_per_cu);
            ("rmt_groups_per_cu", Int p.c_occ_rmt.Occupancy.groups_per_cu);
            ( "limiter",
              Str (Occupancy.limiter_name p.c_occ_rmt.Occupancy.limiter) );
          ] );
      ( "comm",
        Obj
          [
            ("publishes", Int p.c_comm.cc_publishes);
            ("checks", Int p.c_comm.cc_checks);
            ("polls", Int p.c_comm.cc_polls);
            ("swizzles", Int p.c_comm.cc_swizzles);
            ("added_sites", Int p.c_comm.cc_added_sites);
          ] );
      ("store_factor_lo", Int p.c_store_lo);
      ("store_factor_hi", Int p.c_store_hi);
      ("inst_floor", Int p.c_inst_floor);
    ]
