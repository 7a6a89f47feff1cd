(** Fault-injection campaigns: repeated single-bit flips into one
    architectural structure, with outcomes classified against a CPU
    reference. Empirically validates the paper's SoR tables — a
    structure is {e covered} by a flavor when injections into it never
    end in silent data corruption. {!Experiments.campaign} runs the
    flips; this module plans them and folds the injected runs'
    summaries. *)

type outcome = O_masked | O_detected | O_sdc | O_crash | O_hang

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

val classify : Run.summary -> outcome
(** Disposition of one injected run: its device outcome, and for a
    finished run whether the output verified. *)

val plans :
  n:int ->
  target:Gpu_sim.Device.inject_target ->
  seed:int ->
  golden_cycles:int ->
  Gpu_sim.Device.inject_plan list
(** The campaign's [n] injection plans: times spread over
    the middle 80% of the fault-free execution, seeds derived from
    [seed]. Pure, so the injected runs can be dispatched in parallel. *)

val tally : Run.summary list -> tally
(** Classify the injected runs, in list order; a run whose fault found
    no live target counts in [not_applied]. *)

val provenance_summary : Run.summary list -> string
(** Per-structure propagation histograms over the runs carrying
    provenance; [""] when none do. *)

val sanitizer_dirty : Run.summary list -> int
(** Sanitized runs with at least one sanitizer finding. *)

val covered : tally -> bool
(** No SDC observed (and at least one injection applied). *)
