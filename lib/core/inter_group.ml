(** Inter-Group RMT transform (Section 7 of the paper).

    The host doubles the number of work-groups in dimension 0. Redundant
    pairs span {e work-groups}, so every per-wavefront structure (scalar
    unit, SRF, fetch/decode, VRF, SIMD, LDS) is duplicated and inside the
    SoR; only the L1 remains shared.

    Because OpenCL guarantees no scheduling order between work-groups, a
    naive even/odd split of the given group ids could schedule only
    consumers and deadlock. As in the paper, each executing work-group
    therefore {e acquires} its role at runtime from a global atomic
    counter: the first work-item of the group increments the counter,
    publishes the acquired id through LDS, and a barrier makes it visible
    group-wide. The low bit of the acquired id is the producer/consumer
    flag; the remaining bits form the logical group id from which all
    global ids and group ids are recomputed.

    Output comparisons must cross work-groups, hence travel through
    global memory: per logical work-item the communication buffer holds a
    hand-off flag, an address slot and a value slot. Producers spin until
    their slot is free, deposit address and value, fence, and set the
    flag; consumers spin on the flag, read the slots back with
    [atomic_add 0] (the paper's idiom for an L2-visible read under the
    write-through, non-coherent L1s), compare, trap on mismatch, release
    the slot and alone perform the store. *)

open Gpu_ir.Types
module B = Gpu_ir.Builder

(** Output-comparison communication scheme. [Per_item] gives every
    logical work-item its own (flag, addr, val) slot — deterministic and
    deadlock-free by construction (the default used in the headline
    figures; documented as a substitution in DESIGN.md). [Pooled n]
    implements the paper's actual two-tier locking over a shared pool of
    [n] buffers: a producer CAS-acquires the buffer its logical id hashes
    to, deposits tag/address/value, and releases; the consumer spins
    until its tag appears. Small pools serialize colliding pairs — the
    contention the paper's scheme is exposed to. [No_comm] is the
    Figure 7 ablation. *)
type comm_scheme = Per_item | Pooled of int | No_comm

let wgid_lds_name = "__rmt_wgid"

exception Unsupported = Intra_group.Unsupported

(** Extra parameters appended by the transform, in order: the global
    work-group counter (one zero-initialized word) and the communication
    buffer (three words per logical work-item, zero-initialized). *)
let extra_params = [ Param_buffer "__rmt_counter"; Param_buffer "__rmt_comm" ]

(** Bytes required for the communication buffer of an original NDRange
    under the given scheme. *)
let comm_buffer_bytes ~scheme (nd : Gpu_sim.Geom.ndrange) =
  match scheme with
  | Per_item | No_comm -> 3 * 4 * Gpu_sim.Geom.total_items nd
  | Pooled n -> 3 * 4 * n

let comm_counter_bytes = 4

(** [transform scheme k] rewrites [k] for Inter-Group RMT. The host must
    launch the result with the dimension-0 global size doubled (local
    size unchanged) and the two extra buffers appended and zeroed. *)
let transform (scheme : comm_scheme) (k : kernel) : kernel =
  Intra_group.reject_unsupported k;
  if List.mem_assoc wgid_lds_name k.lds_allocs then
    raise (Unsupported (wgid_lds_name ^ " LDS allocation already exists"));
  let np = param_count k in
  let b = B.extend k in
  (* ---- prelude: acquire the work-group id ---- *)
  let counter = B.arg b np in
  let comm = B.arg b (np + 1) in
  let lid0 = B.special b (Local_id 0) in
  let lid1 = B.special b (Local_id 1) in
  let lid2 = B.special b (Local_id 2) in
  let lsz0 = B.special b (Local_size 0) in
  let lsz1 = B.special b (Local_size 1) in
  let lsz2 = B.special b (Local_size 2) in
  let row = B.mad b lid2 lsz1 lid1 in
  let flat_lid = B.mad b row lsz0 lid0 in
  let wgid_base = B.special b (Lds_base wgid_lds_name) in
  let is_first = B.eq b flat_lid (B.imm 0) in
  B.when_ b is_first (fun () ->
      let acquired = B.atomic b A_add Global counter (B.imm 1) in
      B.store b Local wgid_base acquired);
  B.barrier b;
  let wgid = B.load b Local wgid_base in
  let flag = B.and_ b wgid (B.imm 1) in
  let is_prod = B.eq b flag (B.imm 0) in
  let is_cons = B.ne b flag (B.imm 0) in
  let lgrp = B.lshr b wgid (B.imm 1) in
  (* logical group coordinates (dimension-0 group count was doubled) *)
  let png0 = B.special b (Num_groups 0) in
  let ng0 = B.lshr b png0 (B.imm 1) in
  let ng1 = B.special b (Num_groups 1) in
  let ng2 = B.special b (Num_groups 2) in
  let lg0 = B.rem_u b lgrp ng0 in
  let t1 = B.div_u b lgrp ng0 in
  let lg1 = B.rem_u b t1 ng1 in
  let lg2 = B.div_u b t1 ng1 in
  let lgid0 = B.mad b lg0 lsz0 lid0 in
  let lgid1 = B.mad b lg1 lsz1 lid1 in
  let lgid2 = B.mad b lg2 lsz2 lid2 in
  let pgsz0 = B.special b (Global_size 0) in
  let lgsz0 = B.lshr b pgsz0 (B.imm 1) in
  (* communication-slot addresses for this logical work-item *)
  let group_items = B.mul b (B.mul b lsz0 lsz1) lsz2 in
  let ngl = B.mul b (B.mul b ng0 ng1) ng2 in
  let total = B.mul b ngl group_items in
  let slot = B.mad b lgrp group_items flat_lid in
  let flag_addr = B.mad b slot (B.imm 4) comm in
  let addr_base = B.mad b total (B.imm 4) comm in
  let addr_addr = B.mad b slot (B.imm 4) addr_base in
  let val_base = B.mad b total (B.imm 8) comm in
  let val_addr = B.mad b slot (B.imm 4) val_base in
  let prelude = B.take b in
  (* ---- store guarding ---- *)
  (* Flag polls are emitted as [A_poll] — functionally the [atomic_add 0]
     L2-visible read, but tagged so the device charges each iteration to
     [Counters.spin_iterations] rather than to useful memory work. *)
  let spin want =
    B.while_ b
      (fun () ->
        let t = B.atomic b A_poll Global flag_addr (B.imm 0) in
        B.ne b t (B.imm want))
      (fun () -> ())
  in
  (* The paper's pooled buffer acquisition, as a two-phase tag protocol:
     tier 1 — a producer RESERVES the buffer its logical id hashes to by
     CAS-ing the tag from 0 (empty) to the negated tag (claimed, not yet
     full); tier 2 — after depositing address and value it publishes the
     positive tag, which only its consumer recognizes. The consumer needs
     no lock at all: a full buffer is exclusively its owner's to drain
     (producers only claim empty buffers), so it polls the tag, verifies,
     and releases by writing 0. Buffer layout: [tag; addr; val]. *)
  let pooled_rendezvous n =
    let my_tag = B.add b slot (B.imm 1) in
    let neg_tag = B.sub b (B.imm 0) my_tag in
    let bufidx = B.rem_u b my_tag (B.imm n) in
    let base = B.mad b bufidx (B.imm 12) comm in
    let tag_a = base in
    let addr_a = B.add b base (B.imm 4) in
    let val_a = B.add b base (B.imm 8) in
    (my_tag, neg_tag, tag_a, addr_a, val_a)
  in
  let guard_store_pooled n addr v : unit =
    let my_tag, neg_tag, tag_a, addr_a, val_a = pooled_rendezvous n in
    B.when_ b is_prod (fun () ->
        let done_ = B.cell b (B.imm 0) in
        B.while_ b
          (fun () -> B.eq b (B.get done_) (B.imm 0))
          (fun () ->
            let old = B.cas b Global tag_a (B.imm 0) neg_tag in
            B.when_ b (B.eq b old (B.imm 0)) (fun () ->
                B.store b Global addr_a addr;
                B.store b Global val_a v;
                B.fence b Global;
                ignore (B.atomic b A_xchg Global tag_a my_tag);
                B.set b done_ (B.imm 1))));
    B.when_ b is_cons (fun () ->
        let done_ = B.cell b (B.imm 0) in
        B.while_ b
          (fun () -> B.eq b (B.get done_) (B.imm 0))
          (fun () ->
            let t = B.atomic b A_poll Global tag_a (B.imm 0) in
            B.when_ b (B.eq b t my_tag) (fun () ->
                let a2 = B.atomic b A_add Global addr_a (B.imm 0) in
                let v2 = B.atomic b A_add Global val_a (B.imm 0) in
                let bad = B.or_ b (B.ne b a2 addr) (B.ne b v2 v) in
                B.trap b bad;
                ignore (B.atomic b A_xchg Global tag_a (B.imm 0));
                B.set b done_ (B.imm 1)));
        B.store b Global addr v)
  in
  let guard_store addr v : stmt list =
    (match scheme with
    | Per_item ->
        B.when_ b is_prod (fun () ->
            spin 0;
            B.store b Global addr_addr addr;
            B.store b Global val_addr v;
            B.fence b Global;
            ignore (B.atomic b A_xchg Global flag_addr (B.imm 1)));
        B.when_ b is_cons (fun () ->
            spin 1;
            let a2 = B.atomic b A_add Global addr_addr (B.imm 0) in
            let v2 = B.atomic b A_add Global val_addr (B.imm 0) in
            let bad = B.or_ b (B.ne b a2 addr) (B.ne b v2 v) in
            B.trap b bad;
            ignore (B.atomic b A_xchg Global flag_addr (B.imm 0));
            B.store b Global addr v)
    | Pooled n -> guard_store_pooled n addr v
    | No_comm -> B.when_ b is_cons (fun () -> B.store b Global addr v));
    B.take b
  in
  let rewrite (s : stmt) : stmt list =
    match s with
    | I (Special (Group_id 0, d)) -> [ I (Mov (d, lg0)) ]
    | I (Special (Group_id 1, d)) -> [ I (Mov (d, lg1)) ]
    | I (Special (Group_id 2, d)) -> [ I (Mov (d, lg2)) ]
    | I (Special (Global_id 0, d)) -> [ I (Mov (d, lgid0)) ]
    | I (Special (Global_id 1, d)) -> [ I (Mov (d, lgid1)) ]
    | I (Special (Global_id 2, d)) -> [ I (Mov (d, lgid2)) ]
    | I (Special (Num_groups 0, d)) -> [ I (Mov (d, ng0)) ]
    | I (Special (Global_size 0, d)) -> [ I (Mov (d, lgsz0)) ]
    | I (Store (Global, addr, v)) -> guard_store addr v
    | _ -> [ s ]
  in
  let body = prelude @ concat_map_stmts rewrite k.body in
  {
    kname =
      (k.kname ^ "_inter"
      ^
      match scheme with
      | Per_item -> ""
      | Pooled n -> Printf.sprintf "_pool%d" n
      | No_comm -> "_nocomm");
    params = k.params @ extra_params;
    lds_allocs = k.lds_allocs @ [ (wgid_lds_name, 4) ];
    body;
    nregs = B.nregs b;
  }

(** Host-side NDRange adaptation: twice the groups in dimension 0. *)
let map_ndrange (nd : Gpu_sim.Geom.ndrange) : Gpu_sim.Geom.ndrange =
  {
    global = [| nd.global.(0) * 2; nd.global.(1); nd.global.(2) |];
    local = Array.copy nd.local;
  }
