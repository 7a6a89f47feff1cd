(** Linear-scan register allocation.

    {!Regpressure} estimates how many physical registers a kernel needs;
    this module produces an actual assignment — a mapping from virtual
    registers to physical VGPR/SGPR indices — with the classic
    linear-scan algorithm over the same live intervals. It exists for
    two reasons:

    - it validates the pressure estimate from below: the allocation's
      high-water mark can never beat the max-live bound, and the test
      suite checks the two agree;
    - [rmtgpu dump] can show the physical-register view of a transformed
      kernel, making the RMT register cost concrete per instruction.

    Spilling is out of scope (the virtual register space is the
    allocator's input, and GCN kernels that would spill instead lower
    occupancy); allocation simply uses as many physical registers as the
    interval packing needs. *)

open Types

type interval = Regpressure.interval = {
  i_reg : reg;
  i_start : int;
  i_end : int;
  i_divergent : bool;
}

type assignment = {
  phys : int array;      (** virtual -> physical index within its file *)
  vgprs_used : int;      (** high-water mark of the vector file *)
  sgprs_used : int;      (** high-water mark of the scalar file *)
  intervals : interval list;  (** sorted by start *)
}

(* Classic linear scan over one register file: assign the lowest free
   physical index; expire intervals that ended before the current start. *)
let scan_file intervals =
  let phys = Hashtbl.create 64 in
  let free = ref [] in
  let next_fresh = ref 0 in
  let active = ref [] in  (* (end, physical) sorted by end *)
  let high_water = ref 0 in
  List.iter
    (fun iv ->
      let still, expired =
        List.partition (fun (e, _) -> e >= iv.i_start) !active
      in
      List.iter (fun (_, p) -> free := p :: !free) expired;
      free := List.sort compare !free;
      active := still;
      let p =
        match !free with
        | p :: rest ->
            free := rest;
            p
        | [] ->
            let p = !next_fresh in
            incr next_fresh;
            p
      in
      high_water := max !high_water (p + 1);
      Hashtbl.replace phys iv.i_reg p;
      active := (iv.i_end, p) :: !active)
    intervals;
  (phys, !high_water)

(** Allocate physical registers for [k]: divergent virtuals go to the
    vector file, uniform ones to the scalar file. *)
let allocate (k : kernel) : assignment =
  let ivs = Regpressure.intervals k in
  let vec = List.filter (fun iv -> iv.i_divergent) ivs in
  let sca = List.filter (fun iv -> not iv.i_divergent) ivs in
  let vphys, vhw = scan_file vec in
  let sphys, shw = scan_file sca in
  let phys = Array.make (max k.nregs 1) (-1) in
  Hashtbl.iter (fun r p -> phys.(r) <- p) vphys;
  Hashtbl.iter (fun r p -> phys.(r) <- p) sphys;
  { phys; vgprs_used = vhw; sgprs_used = shw; intervals = ivs }

(** Render an instruction listing annotated with physical registers,
    e.g. [r12:v3] for virtual 12 in VGPR 3 (s = scalar file). *)
let annotate (k : kernel) : string =
  let a = allocate k in
  let div = Uniformity.analyze k in
  let name r =
    if a.phys.(r) < 0 then Printf.sprintf "r%d:?" r
    else
      Printf.sprintf "r%d:%s%d" r (if div.(r) then "v" else "s") a.phys.(r)
  in
  Printf.sprintf "%s: %d VGPRs, %d SGPRs after linear scan\n%s" k.kname
    a.vgprs_used a.sgprs_used
    (Pp.body_to_string ~reg:name k.body)
