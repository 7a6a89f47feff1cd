(** Intra-Group RMT transform (Sections 6 and 8 of the paper).

    The host doubles the dimension-0 work-group size; this pass rewrites
    the kernel so that physical work-items [2k] and [2k+1] form a
    producer/consumer pair computing the same logical work-item [k]:

    - ID queries are remapped: the low bit of the physical local id
      becomes the producer/consumer flag and the logical ids are the
      physical ids shifted right by one, so twins report identical ids and
      execute identical computation in different registers and SIMD lanes
      of the {e same} wavefront (which guarantees lockstep and removes the
      need for explicit synchronization);
    - with LDS inside the SoR (+LDS) every LDS allocation is doubled and
      the consumer's accesses are offset into the duplicate half;
    - every store that exits the SoR (global stores; local stores too for
      −LDS) is guarded by an output comparison: the producer communicates
      address and value, the consumer compares them against its private
      copies, traps on mismatch, and alone performs the store;
    - communication goes through an LDS buffer ([Comm_lds], the portable
      OpenCL scheme), through the vector register file with the GCN
      [swizzle] instruction ([Comm_fast], Section 8), or is omitted
      entirely ([Comm_none], the component-analysis ablation of
      Figure 4). *)

open Gpu_ir.Types
module B = Gpu_ir.Builder

type comm = Comm_lds | Comm_fast | Comm_none

type opts = {
  include_lds : bool;  (** true = Intra-Group+LDS, false = Intra-Group−LDS *)
  comm : comm;
}

let plus_lds = { include_lds = true; comm = Comm_lds }
let minus_lds = { include_lds = false; comm = Comm_lds }

let comm_lds_name = "__rmt_comm"

exception Unsupported of string

let reject_unsupported (k : kernel) =
  iter_inst
    (fun i ->
      match i with
      | Atomic (_, Global, _, _, _) | Cas (Global, _, _, _, _) ->
          raise
            (Unsupported
               (k.kname
              ^ ": global atomics exit the SoR; handling them is future work \
                 (paper Section 6.2)"))
      | Trap _ ->
          raise (Unsupported (k.kname ^ ": kernel already contains traps"))
      | Swizzle _ ->
          (* cross-lane reads mix producer and consumer lanes: the twins
             would observe different values and the generated comparison
             would fire spuriously (Intra), or the replicas would compute
             different results (Inter). Wave-level intrinsics are outside
             every SoR. *)
          raise
            (Unsupported
               (k.kname ^ ": cross-lane swizzles break twin equivalence"))
      | _ -> ())
    k.body

(** [transform opts ~local_items k] rewrites [k] for Intra-Group RMT.
    [local_items] is the {e original} (logical) flat work-group size,
    needed to size the LDS communication buffer; the host must launch the
    result with dimension-0 local and global sizes doubled. *)
let transform (opts : opts) ~local_items (k : kernel) : kernel =
  reject_unsupported k;
  (* a local atomic is a read-modify-write store: inside the SoR it is
     duplicated per twin (+LDS), but with a shared LDS (-LDS) both twins
     would apply it and double the effect — and guarding it like a plain
     store would lose the atomicity. Reject, as with global atomics. *)
  if not opts.include_lds then
    iter_inst
      (fun i ->
        match i with
        | Atomic (_, Local, _, _, _) | Cas (Local, _, _, _, _) ->
            raise
              (Unsupported
                 (k.kname
                ^ ": local atomics exit the -LDS SoR and cannot be guarded"))
        | _ -> ())
      k.body;
  if List.mem_assoc comm_lds_name k.lds_allocs then
    raise (Unsupported (comm_lds_name ^ " LDS allocation already exists"));
  let b = B.extend k in
  (* ---- prelude: pairing flag and logical IDs ---- *)
  let plid0 = B.special b (Local_id 0) in
  let flag = B.and_ b plid0 (B.imm 1) in
  let is_prod = B.eq b flag (B.imm 0) in
  let is_cons = B.ne b flag (B.imm 0) in
  let llid0 = B.lshr b plid0 (B.imm 1) in
  let plsz0 = B.special b (Local_size 0) in
  let llsz0 = B.lshr b plsz0 (B.imm 1) in
  let grp0 = B.special b (Group_id 0) in
  let lgid0 = B.mad b grp0 llsz0 llid0 in
  let pgsz0 = B.special b (Global_size 0) in
  let lgsz0 = B.lshr b pgsz0 (B.imm 1) in
  (* flat logical local id, for communication slot indexing *)
  let lid1 = B.special b (Local_id 1) in
  let lid2 = B.special b (Local_id 2) in
  let lsz1 = B.special b (Local_size 1) in
  let row = B.mad b lid2 lsz1 lid1 in
  let flat = B.mad b row llsz0 llid0 in
  (* LDS offsets of this item's address and value slots *)
  let comm_addr_base, comm_val_base =
    match opts.comm with
    | Comm_lds ->
        let base = B.special b (Lds_base comm_lds_name) in
        let vbase = B.add b base (B.imm (local_items * 4)) in
        let a_slot = B.mad b flat (B.imm 4) base in
        let v_slot = B.mad b flat (B.imm 4) vbase in
        (a_slot, v_slot)
    | Comm_fast | Comm_none -> (Reg 0, Reg 0)
  in
  let prelude = B.take b in
  (* ---- store guarding ---- *)
  let guard_store sp addr v : stmt list =
    (match opts.comm with
    | Comm_lds ->
        B.when_ b is_prod (fun () ->
            B.store b Local comm_addr_base addr;
            B.store b Local comm_val_base v);
        B.when_ b is_cons (fun () ->
            let a2 = B.load b Local comm_addr_base in
            let v2 = B.load b Local comm_val_base in
            let bad = B.or_ b (B.ne b a2 addr) (B.ne b v2 v) in
            B.trap b bad;
            B.store b sp addr v)
    | Comm_fast ->
        (* producer's operands travel through the VRF: every odd lane reads
           its even partner's register directly (Figure 8) *)
        let a_sw = B.swizzle b Dup_even addr in
        let v_sw = B.swizzle b Dup_even v in
        B.when_ b is_cons (fun () ->
            let bad = B.or_ b (B.ne b a_sw addr) (B.ne b v_sw v) in
            B.trap b bad;
            B.store b sp addr v)
    | Comm_none -> B.when_ b is_cons (fun () -> B.store b sp addr v));
    B.take b
  in
  let lds_size name = List.assoc name k.lds_allocs in
  let rewrite (s : stmt) : stmt list =
    match s with
    | I (Special (Global_id 0, d)) -> [ I (Mov (d, lgid0)) ]
    | I (Special (Local_id 0, d)) -> [ I (Mov (d, llid0)) ]
    | I (Special (Local_size 0, d)) -> [ I (Mov (d, llsz0)) ]
    | I (Special (Global_size 0, d)) -> [ I (Mov (d, lgsz0)) ]
    | I (Special (Lds_base name, d)) when opts.include_lds ->
        (* consumer uses the duplicate half of the doubled allocation *)
        let base = B.special b (Lds_base name) in
        B.emit b (I (Mad (d, flag, B.imm (lds_size name), base)));
        B.take b
    | I (Store (Global, addr, v)) -> guard_store Global addr v
    | I (Store (Local, addr, v)) when not opts.include_lds ->
        guard_store Local addr v
    | _ -> [ s ]
  in
  let body = prelude @ concat_map_stmts rewrite k.body in
  let lds_allocs =
    let originals =
      if opts.include_lds then
        List.map (fun (n, sz) -> (n, 2 * sz)) k.lds_allocs
      else k.lds_allocs
    in
    match opts.comm with
    | Comm_lds -> originals @ [ (comm_lds_name, local_items * 8) ]
    | Comm_fast | Comm_none -> originals
  in
  {
    kname =
      k.kname ^ "_intra"
      ^ (if opts.include_lds then "+lds" else "-lds")
      ^ (match opts.comm with
        | Comm_lds -> ""
        | Comm_fast -> "_fast"
        | Comm_none -> "_nocomm");
    params = k.params;
    lds_allocs;
    body;
    nregs = B.nregs b;
  }

(** Host-side NDRange adaptation: dimension 0 doubles. *)
let map_ndrange (nd : Gpu_sim.Geom.ndrange) : Gpu_sim.Geom.ndrange =
  {
    global = [| nd.global.(0) * 2; nd.global.(1); nd.global.(2) |];
    local = [| nd.local.(0) * 2; nd.local.(1); nd.local.(2) |];
  }
