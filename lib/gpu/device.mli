(** The device: buffer management, work-group dispatch, the per-cycle
    issue loop, performance counters, power-window sampling and fault
    injection. This is the simulator's public launch API.

    The scheduling model follows GCN: each compute unit owns four SIMD
    units; on cycle [c] the SIMD [c mod 4] gets an issue turn, during
    which its resident wavefronts may each issue at most one instruction
    (one vector ALU op plus at most one memory, one LDS and one scalar op
    to the CU-shared units). Wavefronts are scoreboarded, so memory
    latency is hidden exactly when enough other wavefronts are resident —
    the mechanism behind the paper's "memory-bound kernels get cheap RMT"
    result.

    Each launch decodes its kernel once into a per-site table (register
    uses, def, issue unit, resolved LDS offsets) that the issue loop reads
    on every scan; a scan visits only the waves of the SIMD holding the
    turn, and register files are reused across the device's groups and
    launches (zero-filled).

    Each launch keeps one per-site account ({!Gpu_prof.Collector}): the
    issue loop charges every busy cycle, issue, write-stall cycle and
    spin poll to the instruction site that caused it, once, and the
    issue-side {!Counters} fields are derived as the per-site sums. *)

(** {1 Device and buffers} *)

type t

val create : ?san:Gpu_san.Shadow.t -> Config.t -> t
(** A device whose global memory spans [cfg.memory_bytes] and reads as
    all zeros. The image is sparse ({!Image}), so creation does not
    zero-fill it.

    [san] is the dynamic sanitizer shadow, fixed for the device's
    lifetime, so it sees every allocation range and host write:
    {!alloc}/{!write_i32} (and everything funnelled through
    them) maintain its allocation and initialization maps, and every
    launch checks each lane's memory accesses against it. The shadow only
    observes: counters, timing and outputs are identical to an
    unsanitized run. *)

val sanitizer : t -> Gpu_san.Shadow.t option
(** The shadow given to {!create}, or a fork's copy of it. *)

val fork : t -> t
(** A copy of the device: its image (every resident page), allocation
    pointer and sanitizer shadow, sharing nothing mutable with the
    original. Buffers keep their addresses, so the original's buffer
    values and arguments address the same data in the copy. *)

val resident_pages : t -> int
(** Global-memory pages ({!Image.page_bytes} each) materialised so far:
    those that have held a non-zero word. *)

type buffer = { addr : int; size : int }

val alloc : t -> int -> buffer
(** Bump-allocate [bytes] of device memory (256-byte aligned).
    @raise Invalid_argument when [bytes] is negative. *)

val write_i32 : t -> buffer -> int -> int -> unit
val read_i32 : t -> buffer -> int -> int
val write_f32 : t -> buffer -> int -> float -> unit
val read_f32 : t -> buffer -> int -> float
val write_i32_array : t -> buffer -> int array -> unit
val write_f32_array : t -> buffer -> float array -> unit
val read_i32_array : t -> buffer -> int -> int array
val fill_i32 : t -> buffer -> int -> int -> unit

(** {1 Launching} *)

type arg = A_buf of buffer | A_i32 of int | A_f32 of float

type outcome =
  | Finished
  | Detected  (** an RMT output comparison fired a trap *)
  | Crashed of string  (** wild memory access *)
  | Hung  (** watchdog expired *)

(** {1 Fault injection} *)

type inject_target =
  | T_vgpr  (** one bit, one lane, one live vector register *)
  | T_sgpr  (** one bit of a uniform (scalar-file) register, all lanes *)
  | T_lds   (** one bit of a resident group's LDS *)
  | T_l1    (** poison a resident L1 line on one CU *)

type inject_plan = { at_cycle : int; target : inject_target; iseed : int }

type result = {
  cycles : int;
  outcome : outcome;
  counters : Counters.t;
  windows : Counters.t array;  (** per-power-window event deltas *)
  occupancy : Occupancy.t;
  usage : Gpu_ir.Regpressure.usage;
  groups_completed : int;
  inject_applied : bool;
  injected_at : int option;  (** cycle the fault actually landed *)
  detected_at : int option;
      (** cycle an output comparison trapped; [detected_at - injected_at]
          is the detection latency (containment window) *)
  profile : Gpu_prof.Collector.t;
      (** per-site account of this launch, sized by {!Gpu_ir.Site.count}
          of the kernel. [counters]' busy-cycle fields ([valu_busy],
          [salu_busy], [lds_busy], [mem_unit_busy]), [write_stalled],
          [spin_iterations] and the four issue counts (by each site's
          issue unit) are its sums on every exit path; its cache hit and
          miss slots split [counters]' totals by load site. *)
  events : Gpu_trace.Sink.record list;
      (** scheduler events in simulation order, timestamped in this
          launch's cycles; [[]] unless [launch_opts.trace] is set *)
}

type launch_opts = {
  usage_override : Gpu_ir.Regpressure.usage option;
      (** replace the estimated resource usage (the paper's resource-
          inflation component-analysis experiment) *)
  max_cycles : int option;  (** watchdog override *)
  window_cycles : int option;  (** power-sampling window override *)
  inject : inject_plan option;
  trace : bool;
      (** record scheduler events into [result.events] ([false], the
          default, adds no work to the issue loop; events never perturb
          timing or counters) *)
  provenance : Gpu_prof.Provenance.t option;
      (** fault-propagation record for an injected run: structure and
          bit of the flip, first consuming instruction site, overwrite
          (dead-value) masking, and flip-to-detect distance in dynamic
          instructions and cycles. [Harness.Run.run] creates one per
          injected run and shares it across the run's launches. *)
  scan_every_cycle : bool;
      (** debug: disable idle skip-ahead and scan every CU every cycle;
          timing-equivalent but much slower (cross-checks stall spans) *)
}

val default_opts : launch_opts

val launch :
  ?opts:launch_opts ->
  t ->
  Gpu_ir.Types.kernel ->
  nd:Geom.ndrange ->
  args:arg list ->
  result
(** Run a kernel over an NDRange, after {!Gpu_ir.Verify.check}:
    {!Launch.create}, then {!Launch.finish}. Deterministic: same kernel,
    arguments, memory contents and options produce the same result. *)

type device = t

(** A launch in progress: a value that can be stopped at a cycle,
    resumed and forked. Its state (CUs, groups and their LDS, waves,
    memory system, counters, profile, power windows, provenance record
    and injection RNG) lives in one record, so {!fork} can copy it. *)
module Launch : sig
  type t

  val create :
    ?opts:launch_opts ->
    device ->
    Gpu_ir.Types.kernel ->
    nd:Geom.ndrange ->
    args:arg list ->
    t
  (** Check and set up a launch at cycle 0; nothing is simulated yet.
      @raise Invalid_argument like {!launch}. *)

  val run_until : t -> int -> unit
  (** [run_until l c] simulates every loop iteration before cycle [c]:
      on return the launch has ended, or its next iteration is at cycle
      [c] exactly (the launch stops there even when it would otherwise
      skip over [c], which changes no count or timing), or a flip armed
      with [~stop_when_dead] is dead. *)

  val fork : t -> t
  (** A deep copy on a {!Device.fork} of the launch's device, so both
      run on independently from here and each equals the uninterrupted
      launch. Only before a flip lands.
      @raise Invalid_argument once a fault has landed. *)

  val finish : t -> result
  (** Run to the end (also past a dead flip) and return the result; the
      launch's waves go to its device for reuse. Call once. *)

  val inject : t -> inject_plan -> stop_when_dead:bool -> unit
  (** Arm a flip, as [launch_opts.inject] would have at creation. With
      [stop_when_dead], {!run_until} stops as soon as {!flip_dead}.
      @raise Invalid_argument when a flip is already armed or applied. *)

  val flip_dead : t -> bool
  (** The armed flip landed, nothing consumed it, and nothing can any
      more: its register's tainted lanes were overwritten or its wave
      retired, its LDS word was overwritten or its group retired, its L1
      poison was cleared, or the launch finished. Every later cycle then
      equals the fault-free launch. Needs a provenance record
      ([launch_opts.provenance]); [false] without one. *)

  val device : t -> device

  val ended : t -> bool
  (** Finished, detected, crashed or hung. *)

  val outcome : t -> outcome
  (** [Finished] until the launch ends otherwise. *)

  val provenance : t -> Gpu_prof.Provenance.t option
  (** The launch's provenance record ([fork] copies it). *)
end
