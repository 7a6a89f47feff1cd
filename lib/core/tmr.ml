(** Triple modular redundancy (TMR) — an extension beyond the paper.

    The paper's RMT detects faults; recovery is delegated to
    checkpoint/restart. A natural extension the paper's framework
    suggests (and hardware TMR literature motivates) is to {e correct}
    in place: triple each logical work-item and majority-vote the
    outputs, so a single faulty twin is outvoted instead of aborting the
    kernel.

    Mechanically this follows the Intra-Group construction with three
    physical work-items per logical item: the host triples the
    dimension-0 work-group size; physical local id [p] maps to logical
    id [p / 3] with role [p mod 3]; LDS allocations are tripled (the
    analogue of +LDS); and every global store is replaced by

    - roles 0 and 1 publishing address and value into an LDS voting
      buffer (six words per logical item),
    - role 2 voting: if at least two of the three (address, value)
      pairs agree, it performs the store with the majority value;
      a three-way disagreement is unrecoverable and traps.

    A single-bit fault in any one copy is thereby corrected and the
    kernel completes with correct output — the fault campaigns classify
    these runs as {e masked} rather than {e detected}, and the cost is
    ~3x work instead of ~2x. [rmtgpu exp tmr] quantifies the
    detection-vs-correction trade.

    Residual window: the vote runs once, in role 2, and picks its
    operands with a [select] after the agreement compares. A flip in
    the voter's operands ([ra0]/[rv0] or its own address and value)
    between those compares and the [select] therefore reaches the store
    unvoted: the TMR analogue of DMR's window between the output
    comparison and the store it guards. Seed 97 of the [exp tmr --quick]
    campaign hits it and ends as an SDC.

    Restriction: the voting exchange relies on wavefront lockstep (a
    work-group barrier would be illegal under the divergent control flow
    that guards many stores), so a whole tripled work-group must fit in
    one wavefront: [3 * local_items <= 64]. Production deployment would
    pad work-groups to keep triples wave-resident; here the TMR
    benchmarks and examples use 16-item logical groups. *)

open Gpu_ir.Types
module B = Gpu_ir.Builder

let comm_lds_name = "__tmr_vote"

exception Unsupported = Intra_group.Unsupported

(** [transform ~local_items k]: [local_items] is the original (logical)
    flat work-group size; the host must launch with dimension-0 local
    and global sizes tripled. *)
let transform ~local_items (k : kernel) : kernel =
  Intra_group.reject_unsupported k;
  if 3 * local_items > 64 then
    raise
      (Unsupported
         (Printf.sprintf
            "TMR triples must stay within one wavefront: 3 x %d > 64 \
             (use logical work-groups of at most 21 items)"
            local_items));
  if List.mem_assoc comm_lds_name k.lds_allocs then
    raise (Unsupported (comm_lds_name ^ " LDS allocation already exists"));
  let b = B.extend k in
  (* ---- prelude ---- *)
  let plid0 = B.special b (Local_id 0) in
  let role = B.rem_u b plid0 (B.imm 3) in
  let llid0 = B.div_u b plid0 (B.imm 3) in
  let plsz0 = B.special b (Local_size 0) in
  let llsz0 = B.div_u b plsz0 (B.imm 3) in
  let grp0 = B.special b (Group_id 0) in
  let lgid0 = B.mad b grp0 llsz0 llid0 in
  let pgsz0 = B.special b (Global_size 0) in
  let lgsz0 = B.div_u b pgsz0 (B.imm 3) in
  let lid1 = B.special b (Local_id 1) in
  let lid2 = B.special b (Local_id 2) in
  let lsz1 = B.special b (Local_size 1) in
  let row = B.mad b lid2 lsz1 lid1 in
  let flat = B.mad b row llsz0 llid0 in
  let vote_base = B.special b (Lds_base comm_lds_name) in
  (* six words per logical item: addr0 val0 addr1 val1 (roles 0,1), and
     two scratch words the voter uses to publish the verdict if needed *)
  let slot_of k_ =
    B.add b vote_base (B.mad b flat (B.imm 24) (B.imm (k_ * 4)))
  in
  let a0 = slot_of 0 and v0 = slot_of 1 and a1 = slot_of 2 and v1 = slot_of 3 in
  let is_role r = B.eq b role (B.imm r) in
  let is0 = is_role 0 and is1 = is_role 1 and is2 = is_role 2 in
  let prelude = B.take b in
  (* ---- store guarding with majority vote ---- *)
  let guard_store sp addr v : stmt list =
    B.when_ b is0 (fun () ->
        B.store b Local a0 addr;
        B.store b Local v0 v);
    B.when_ b is1 (fun () ->
        B.store b Local a1 addr;
        B.store b Local v1 v);
    B.when_ b is2 (fun () ->
        let ra0 = B.load b Local a0 in
        let rv0 = B.load b Local v0 in
        let ra1 = B.load b Local a1 in
        let rv1 = B.load b Local v1 in
        (* pairwise agreement on (addr, value) *)
        let agree01 = B.and_ b (B.eq b ra0 ra1) (B.eq b rv0 rv1) in
        let agree02 = B.and_ b (B.eq b ra0 addr) (B.eq b rv0 v) in
        let agree12 = B.and_ b (B.eq b ra1 addr) (B.eq b rv1 v) in
        let any = B.or_ b agree01 (B.or_ b agree02 agree12) in
        (* all three disagree: unrecoverable, detect *)
        B.trap b (B.eq b any (B.imm 0));
        (* majority address/value: if 0 and 1 agree take theirs (covers a
           faulty role 2); otherwise role 2 agrees with someone, take own *)
        let maj_a = B.select b agree01 ra0 addr in
        let maj_v = B.select b agree01 rv0 v in
        B.store b sp maj_a maj_v);
    B.take b
  in
  let lds_size name = List.assoc name k.lds_allocs in
  let rewrite (s : stmt) : stmt list =
    match s with
    | I (Special (Global_id 0, d)) -> [ I (Mov (d, lgid0)) ]
    | I (Special (Local_id 0, d)) -> [ I (Mov (d, llid0)) ]
    | I (Special (Local_size 0, d)) -> [ I (Mov (d, llsz0)) ]
    | I (Special (Global_size 0, d)) -> [ I (Mov (d, lgsz0)) ]
    | I (Special (Lds_base name, d)) ->
        (* tripled allocation: role r uses the r-th copy *)
        let base = B.special b (Lds_base name) in
        B.emit b (I (Mad (d, role, B.imm (lds_size name), base)));
        B.take b
    | I (Store (Global, addr, v)) -> guard_store Global addr v
    | _ -> [ s ]
  in
  let body = prelude @ concat_map_stmts rewrite k.body in
  let lds_allocs =
    List.map (fun (n, sz) -> (n, 3 * sz)) k.lds_allocs
    @ [ (comm_lds_name, local_items * 24) ]
  in
  { kname = k.kname ^ "_tmr"; params = k.params; lds_allocs; body; nregs = B.nregs b }

(** Host-side NDRange adaptation: dimension 0 triples. *)
let map_ndrange (nd : Gpu_sim.Geom.ndrange) : Gpu_sim.Geom.ndrange =
  {
    global = [| nd.global.(0) * 3; nd.global.(1); nd.global.(2) |];
    local = [| nd.local.(0) * 3; nd.local.(1); nd.local.(2) |];
  }
