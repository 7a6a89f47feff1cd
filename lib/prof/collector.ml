(** Per-site profile accumulators.

    One slot per instruction site ({!Gpu_ir.Site}). Every device launch
    builds one, sized by its own site annotation, and its issue loop
    charges each busy cycle, issue, write-stall cycle and spin poll here
    and nowhere else: the issue-side {!Gpu_sim.Counters} fields are the
    per-site sums, filled in at each power-window boundary and at launch
    end. Per-site sums therefore equal the run totals by construction.

    Two classes of field:

    - {b cycle-exact} fields ([issues], [valu_busy], [salu_busy],
      [mem_unit_busy], [lds_busy], [write_stalled], [spin_iterations],
      and the cache hit/miss counts, which are the per-load deltas of the
      counters {!Gpu_sim.Memsys} charges);
    - {b observation} fields ([stall_*]) count scheduler-scan sightings
      of a wave that could not issue, like the traced stall events; they depend on how often the skip-ahead scheduler rescans
      and are diagnostic, not cycle-exact.

    {!accumulate} sums the collectors of a multi-pass benchmark, which is
    sound because every pass runs the same kernel and therefore the same
    site numbering. *)

type t = {
  nsites : int;
  issues : int array;  (** instructions issued at this site *)
  valu_busy : int array;
  salu_busy : int array;
  mem_unit_busy : int array;
  lds_busy : int array;
  write_stalled : int array;
  spin_iterations : int array;
  stall_scoreboard : int array;
  stall_unit_busy : int array;
  stall_write_backlog : int array;
  stall_barrier : int array;
  l1_hits : int array;
  l1_misses : int array;
  l2_hits : int array;
  l2_misses : int array;
}

let create ~nsites =
  let z () = Array.make (max nsites 1) 0 in
  {
    nsites;
    issues = z ();
    valu_busy = z ();
    salu_busy = z ();
    mem_unit_busy = z ();
    lds_busy = z ();
    write_stalled = z ();
    spin_iterations = z ();
    stall_scoreboard = z ();
    stall_unit_busy = z ();
    stall_write_backlog = z ();
    stall_barrier = z ();
    l1_hits = z ();
    l1_misses = z ();
    l2_hits = z ();
    l2_misses = z ();
  }

let fields t =
  [
    t.issues; t.valu_busy; t.salu_busy; t.mem_unit_busy; t.lds_busy;
    t.write_stalled; t.spin_iterations; t.stall_scoreboard; t.stall_unit_busy;
    t.stall_write_backlog; t.stall_barrier; t.l1_hits; t.l1_misses; t.l2_hits;
    t.l2_misses;
  ]

(** [accumulate ~into c] adds every slot of [c] into [into]; both must be
    sized for the same kernel. *)
let accumulate ~into c =
  if into.nsites <> c.nsites then
    invalid_arg "Collector.accumulate: collectors of different kernels";
  List.iter2
    (fun a b -> Array.iteri (fun i v -> a.(i) <- a.(i) + v) b)
    (fields into) (fields c)

let sum a = Array.fold_left ( + ) 0 a

(** Busy cycles charged to site [i] across all units. *)
let busy t i =
  t.valu_busy.(i) + t.salu_busy.(i) + t.mem_unit_busy.(i) + t.lds_busy.(i)

(** Total busy cycles charged across all sites. *)
let total_busy t =
  sum t.valu_busy + sum t.salu_busy + sum t.mem_unit_busy + sum t.lds_busy

(** Stall observations recorded at site [i], all causes. *)
let stalls t i =
  t.stall_scoreboard.(i) + t.stall_unit_busy.(i) + t.stall_write_backlog.(i)
  + t.stall_barrier.(i)
