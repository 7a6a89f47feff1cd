(** Fault-injection campaigns: repeated single-bit flips into one
    architectural structure, with outcomes classified against a CPU
    reference. Empirically validates the paper's SoR tables — a
    structure is {e covered} by a flavor when injections into it never
    end in silent data corruption. *)

type outcome = O_masked | O_detected | O_sdc | O_crash | O_hang

val outcome_name : outcome -> string

type tally = {
  mutable masked : int;
  mutable detected : int;
  mutable sdc : int;
  mutable crash : int;
  mutable hang : int;
  mutable not_applied : int;
  mutable latencies : int list;
      (** detection latencies (flip-to-trap cycles) of detected runs *)
}

val tally_create : unit -> tally
val tally_total : tally -> int
val record : tally -> outcome -> unit
val mean_latency : tally -> int option

val latency_percentile : tally -> float -> int option
(** Nearest-rank percentile (argument in [0,1]) of the detection
    latencies; [None] when no detection carried one. *)

val median_latency : tally -> int option
val p99_latency : tally -> int option
val max_latency : tally -> int option

val tally_to_string : tally -> string
(** Includes the detection-latency distribution (mean/p50/p99/max) when
    any detection carried a latency. *)

type observation = {
  oc : Gpu_sim.Device.outcome;
  output_ok : bool;
  applied : bool;
  latency : int option;
  prov : Gpu_prof.Provenance.t option;
      (** propagation provenance of this run's flip; [Harness.Run.run]
          returns one for every injected run *)
  san_clean : bool option;
      (** sanitizer verdict when the run was sanitized; [None] otherwise *)
}

type experiment = {
  run : inject:Gpu_sim.Device.inject_plan option -> observation;
  golden_cycles : int;  (** fault-free duration, to place injections *)
}

val classify : observation -> outcome

val plans :
  ?n:int ->
  target:Gpu_sim.Device.inject_target ->
  seed:int ->
  golden_cycles:int ->
  unit ->
  Gpu_sim.Device.inject_plan list
(** The campaign's [n] (default 40) injection plans: times spread over
    the middle 80% of the fault-free execution, seeds derived from
    [seed]. Pure, so the injected runs can be dispatched in parallel. *)

val tally_of_observations : observation list -> tally

val run_observations :
  ?n:int ->
  ?map:
    ((Gpu_sim.Device.inject_plan -> observation) ->
    Gpu_sim.Device.inject_plan list ->
    observation list) ->
  target:Gpu_sim.Device.inject_target ->
  seed:int ->
  experiment ->
  observation list
(** Like {!run} but returns the raw observations (plan order) so the
    caller can inspect per-run provenance before tallying. *)

val provenance_summary : observation list -> string
(** Per-structure propagation histograms over the observations carrying
    provenance; [""] when none do. *)

val run :
  ?n:int ->
  ?map:
    ((Gpu_sim.Device.inject_plan -> observation) ->
    Gpu_sim.Device.inject_plan list ->
    observation list) ->
  target:Gpu_sim.Device.inject_target ->
  seed:int ->
  experiment ->
  tally
(** Run [n] (default 40) injections, spread over the middle 80% of the
    fault-free execution. The injected runs are independent; [map]
    (default [List.map]) may run them in parallel — e.g.
    [Harness.Pool.map] — provided it preserves list order. *)

val covered : tally -> bool
(** No SDC observed (and at least one injection applied). *)
