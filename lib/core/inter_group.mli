(** Inter-Group RMT transform (paper Section 7).

    The host doubles the number of dimension-0 work-groups; redundant
    pairs span work-groups, so all per-wavefront structures join the
    sphere of replication (only the L1 stays outside). Work-group roles
    are acquired from a global atomic counter to avoid consumer
    starvation; output comparisons cross groups through global-memory
    slots with spin-wait flag handshakes and L2-visible atomic reads. *)

(** Output-comparison communication scheme. [Per_item]: one slot per
    logical work-item (deterministic; the headline default). [Pooled n]:
    the paper's two-tier locking over a shared pool of [n] buffers —
    small pools serialize colliding pairs. [No_comm]: the Figure 7
    ablation. *)
type comm_scheme =
  | Per_item
  | Pooled of int
      (** Pools far smaller than the concurrently resident logical
          work-items can deadlock (a producer holds the buffer for a
          consumer that cannot be dispatched) — the starvation hazard of
          paper Sec. 7.2; the watchdog surfaces it as [Hung]. Size the
          pool at or above the device's resident-item capacity. *)
  | No_comm

val wgid_lds_name : string
(** LDS slot used to broadcast the acquired group id. *)

exception Unsupported of string

val extra_params : Gpu_ir.Types.param list
(** Parameters appended by the transform: the group counter and the
    communication buffer. *)

val comm_buffer_bytes : scheme:comm_scheme -> Gpu_sim.Geom.ndrange -> int
(** Size of the communication buffer for an original NDRange under
    [scheme]: three words per logical item ([Per_item], [No_comm]) or per
    pooled buffer ([Pooled n]). *)

val comm_counter_bytes : int

val transform : comm_scheme -> Gpu_ir.Types.kernel -> Gpu_ir.Types.kernel
(** Launch the result with {!map_ndrange} and the extra buffers of
    {!Transform.make_extras} appended (counter re-zeroed per launch). *)

val map_ndrange : Gpu_sim.Geom.ndrange -> Gpu_sim.Geom.ndrange
(** Host-side NDRange adaptation: twice the groups in dimension 0. *)
