(** Fault-propagation provenance.

    A provenance record rides along with one injected run (the harness
    creates it, hands it to each launch through [launch_opts] and
    returns it with the run's summary) and captures the life of the
    flipped bit:

    - where it landed (hardware structure, bit index, human description,
      inject cycle, and the dynamic-instruction index at injection);
    - the first instruction site that {e consumed} the corrupted value —
      read the tainted register lanes, loaded the tainted LDS word, or
      pulled the poisoned line out of L1;
    - whether the tainted value was overwritten before any read
      (dead-value masking, the classic reason register faults vanish);
    - where detection fired, as a site id plus cycle and
      dynamic-instruction index, giving flip-to-detect distance in both
      instructions and cycles.

    {!aggregate} folds many records into per-structure propagation
    histograms for campaign reporting. *)

type structure = S_vgpr | S_sgpr | S_lds | S_l1

let structure_name = function
  | S_vgpr -> "VGPR"
  | S_sgpr -> "SGPR"
  | S_lds -> "LDS"
  | S_l1 -> "L1"

type use = {
  u_site : int;
  u_cycle : int;
  u_inst_index : int;  (** dynamic instructions issued when consumed *)
  u_inst : string;  (** pretty-printed consuming instruction *)
}

type t = {
  mutable target : structure option;  (** [None] until a flip lands *)
  mutable bit : int;
  mutable desc : string;
  mutable inject_cycle : int;
  mutable inject_inst_index : int;
  mutable first_use : use option;
  mutable overwritten : bool;
  mutable detect_site : int;  (** -1 if never detected *)
  mutable detect_cycle : int;
  mutable detect_inst_index : int;
}

let create () =
  {
    target = None;
    bit = -1;
    desc = "";
    inject_cycle = -1;
    inject_inst_index = -1;
    first_use = None;
    overwritten = false;
    detect_site = -1;
    detect_cycle = -1;
    detect_inst_index = -1;
  }

let applied t = t.target <> None
let detected t = t.detect_site >= 0

(** Flip-to-detect distance as [(instructions, cycles)], when both ends
    were recorded. *)
let detect_distance t =
  if detected t && t.inject_cycle >= 0 then
    Some
      ( t.detect_inst_index - t.inject_inst_index,
        t.detect_cycle - t.inject_cycle )
  else None

let to_string t =
  match t.target with
  | None -> "no fault applied"
  | Some s ->
      let b = Buffer.create 128 in
      Buffer.add_string b
        (Printf.sprintf "%s bit %d: %s @ cycle %d (inst #%d)"
           (structure_name s) t.bit t.desc t.inject_cycle t.inject_inst_index);
      (match t.first_use with
      | Some u ->
          Buffer.add_string b
            (Printf.sprintf "; consumed at site %d cycle %d by %s" u.u_site
               u.u_cycle u.u_inst)
      | None ->
          Buffer.add_string b
            (if t.overwritten then "; overwritten before use"
             else "; never consumed"));
      (match detect_distance t with
      | Some (di, dc) ->
          Buffer.add_string b
            (Printf.sprintf "; detected at site %d (+%d insts, +%d cy)"
               t.detect_site di dc)
      | None -> if detected t then () else Buffer.add_string b "; not detected");
      Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Aggregation                                                         *)

(** Log2 bucket for a flip-to-detect instruction distance: 0 -> bucket
    0, 1 -> 1, 2-3 -> 2, 4-7 -> 3, ... *)
let bucket_of d =
  if d <= 0 then 0
  else
    let rec go d acc = if d = 0 then acc else go (d lsr 1) (acc + 1) in
    go d 0

let nbuckets = 16

let bucket_label i =
  if i = 0 then "0"
  else if i = 1 then "1"
  else Printf.sprintf "%d-%d" (1 lsl (i - 1)) ((1 lsl i) - 1)

type per_structure = {
  mutable injected : int;
  mutable consumed : int;
  mutable overwritten_n : int;
  mutable detected_n : int;
  inst_hist : int array;  (** detect-distance histogram, log2 buckets *)
  mutable cycles_sum : int;  (** sum of detect distances in cycles *)
}

type agg = (structure * per_structure) list

let aggregate (records : t list) : agg =
  let fresh () =
    {
      injected = 0;
      consumed = 0;
      overwritten_n = 0;
      detected_n = 0;
      inst_hist = Array.make nbuckets 0;
      cycles_sum = 0;
    }
  in
  let slots = [ (S_vgpr, fresh ()); (S_sgpr, fresh ()); (S_lds, fresh ()); (S_l1, fresh ()) ] in
  List.iter
    (fun r ->
      match r.target with
      | None -> ()
      | Some s ->
          let p = List.assoc s slots in
          p.injected <- p.injected + 1;
          if r.first_use <> None then p.consumed <- p.consumed + 1;
          if r.overwritten then p.overwritten_n <- p.overwritten_n + 1;
          (match detect_distance r with
          | Some (di, dc) ->
              p.detected_n <- p.detected_n + 1;
              let b = min (bucket_of di) (nbuckets - 1) in
              p.inst_hist.(b) <- p.inst_hist.(b) + 1;
              p.cycles_sum <- p.cycles_sum + dc
          | None -> ()))
    records;
  List.filter (fun (_, p) -> p.injected > 0) slots

(** Per-structure campaign coverage as
    [(structure, injected, consumed, detected)] — the shape the static
    protection-domain report cross-checks against: a structure inside a
    flavor's sphere of replication must not show consumed-but-undetected
    faults, and a structure with [injected = 0] was simply never
    exercised (a coverage gap, not evidence either way). *)
let coverage (a : agg) : (structure * int * int * int) list =
  List.map
    (fun (s, p) -> (s, p.injected, p.consumed, p.detected_n))
    a

let agg_to_string (a : agg) =
  let b = Buffer.create 512 in
  List.iter
    (fun (s, p) ->
      Buffer.add_string b
        (Printf.sprintf
           "%-4s injected=%d consumed=%d overwritten=%d detected=%d"
           (structure_name s) p.injected p.consumed p.overwritten_n p.detected_n);
      if p.detected_n > 0 then
        Buffer.add_string b
          (Printf.sprintf " (mean flip->detect %d cy)"
             (p.cycles_sum / p.detected_n));
      Buffer.add_char b '\n';
      let total = Array.fold_left ( + ) 0 p.inst_hist in
      if total > 0 then begin
        Buffer.add_string b "  flip->detect distance (insts): ";
        let parts = ref [] in
        Array.iteri
          (fun i n -> if n > 0 then parts := Printf.sprintf "%s:%d" (bucket_label i) n :: !parts)
          p.inst_hist;
        Buffer.add_string b (String.concat " " (List.rev !parts));
        Buffer.add_char b '\n'
      end)
    a;
  Buffer.contents b
