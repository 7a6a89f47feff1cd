(** Experiment runner: execute a benchmark under an RMT variant and
    collect the measurements the figures need. Multi-pass benchmarks
    (BitS, FWT, FW) launch once per pass with counters summed and the
    Inter-Group group-id counter reset between passes. {!run} is the only
    function here that simulates, and everything a run can be observed
    by comes back in its {!summary}. *)

type summary = {
  bench_id : string;
  variant : Rmt_core.Transform.variant;
  cycles : int;
  counters : Gpu_sim.Counters.t;
  windows : Gpu_sim.Counters.t array;
  outcome : Gpu_sim.Device.outcome;
  verified : bool;  (** device output matched the CPU reference *)
  occupancy : Gpu_sim.Occupancy.t;
  usage : Gpu_ir.Regpressure.usage;
  steps : int;
  inject_applied : bool;
  detection_latency : int option;
      (** flip-to-trap cycles when a fault was injected and detected *)
  kernel : Gpu_ir.Types.kernel;
      (** the transformed kernel every launch executed; [profile]'s site
          ids index it *)
  profile : Gpu_prof.Collector.t;
      (** per-site account summed over the launches, like [counters]; its
          busy, issue, write-stall and spin sums equal [counters]' *)
  events : Gpu_trace.Sink.record list;
      (** scheduler events of every launch in one stream, each pass offset
          by the cycles before it, so [at] never decreases; [[]] unless
          [run ~trace:true] *)
  provenance : Gpu_prof.Provenance.t option;
      (** fault-propagation record, [Some] exactly when [run] was given
          [inject]; filled by the pass in which the fault lands *)
  san : Gpu_san.Shadow.finding list option;
      (** every launch's sanitizer findings, in order of first
          occurrence, [Some] exactly when [run ~sanitize:true]; the
          shadow itself does not outlive [run] *)
}

val outcome_name : Gpu_sim.Device.outcome -> string

val transformed_kernel :
  ?optimize:bool ->
  Kernels.Bench.t ->
  Rmt_core.Transform.variant ->
  nd:Gpu_sim.Geom.ndrange ->
  Gpu_ir.Types.kernel
(** Build and transform the benchmark's kernel; [optimize] additionally
    runs the {!Gpu_ir.Opt} pipeline (paper Sec. 6.6's register lever). *)

val run :
  ?cfg:Gpu_sim.Config.t ->
  ?scale:int ->
  ?optimize:bool ->
  ?usage_override:Gpu_ir.Regpressure.usage ->
  ?inject:Gpu_sim.Device.inject_plan ->
  ?trace:bool ->
  ?sanitize:bool ->
  Kernels.Bench.t ->
  Rmt_core.Transform.variant ->
  summary
(** The one host protocol of every run: create a device on [cfg]
    (default {!Gpu_sim.Config.default}), [prepare] the benchmark, apply
    the variant's transform, and launch each step on the variant's
    NDRange with its extra buffers appended (re-zeroed before each
    pass). Each launch's watchdog and power-sampling window are
    [cfg.max_cycles] and [cfg.window_cycles]. [inject] is interpreted
    against cumulative cycles and makes the run return a provenance
    record. [trace] (default [false]) records the scheduler events into
    [summary.events]. [sanitize] (default [false]) creates the device
    with a sanitizer shadow, so the shadow observes every allocation and
    host write, and returns its findings. None of the three perturbs
    timing, counters or outputs.
    @raise Gpu_sim.Device.Out_of_device_memory when the benchmark's
    buffers and the variant's extra buffers do not fit in
    [cfg.memory_bytes]. *)

val run_plans :
  ?cfg:Gpu_sim.Config.t ->
  ?sanitize:bool ->
  pool:Pool.t ->
  golden:summary ->
  Kernels.Bench.t ->
  Rmt_core.Transform.variant ->
  Gpu_sim.Device.inject_plan list ->
  summary list
(** [run_plans ~pool ~golden bench variant plans] is
    [List.map (fun inject -> run ?cfg ~inject ?sanitize bench variant)
    plans], field for field, from one forking
    pass: the fault-free run is simulated once, up to the last plan, and
    forked at each plan's cycle; the children run on [pool] beside the
    pass ({!Pool.overlap}) and come back in plan order. [golden] is the fault-free [run ?cfg bench variant]. A
    child whose flip can no longer be read (see
    {!Gpu_sim.Device.Launch.flip_dead}) stops there and returns [golden]
    with its own [inject_applied], no detection latency and its
    provenance record. That early exit is off under [sanitize] and when
    [golden] did not finish within [cfg.max_cycles]. *)

val naive_duplication : summary -> summary
(** The paper's Section 3.4 baseline (launch everything twice; the host
    checks afterwards), derived from the benchmark's [Original] summary
    without simulating again: every launch starts from cold caches and
    the registry kernels' schedules do not depend on memory contents, so
    the second copy repeats the first exactly. Doubles cycles, counters,
    profile, windows and steps.
    @raise Invalid_argument if the summary is not of an [Original] run. *)

val slowdown : base:summary -> summary -> float
(** Cycles of the second run over cycles of [base].
    @raise Invalid_argument if [base] ran for 0 cycles (a broken run —
    a ratio against it would silently report near-free slowdowns). *)
