(** Device configuration for the GCN-class simulator. The default models
    the paper's AMD Radeon HD 7790 (12 CUs, four SIMD-16 units each,
    64-wide wavefronts, fixed 1 GHz core / 1.5 GHz memory clocks); a
    smaller test device keeps unit tests fast. Latency and bandwidth
    values are representative GCN figures — the evaluation depends on
    their relative magnitudes, not the exact numbers. *)

(** Wavefront pick order within a SIMD's issue turn. [Greedy] always
    scans from the oldest resident wavefront (GCN-like); [Round_robin]
    starts cycle [c]'s scan at resident slot [c mod n] ([n] resident
    slots), so its schedule does not depend on idle skip-ahead. *)
type sched_policy = Greedy | Round_robin

type t = {
  n_cus : int;
  simds_per_cu : int;
  wave_size : int;
  max_waves_per_simd : int;
  max_groups_per_cu : int;
  max_workgroup_size : int;
  vgprs_per_simd : int;
  sgprs_per_simd : int;
  lds_per_cu : int;
      (** simulated capacity; scaled below the 64 kB hardware value to
          match the scaled benchmark working sets (see implementation) *)
  line_bytes : int;
  l1_bytes : int;
  l1_assoc : int;
  l2_bytes : int;
  l2_assoc : int;
  l1_latency : int;
  l2_latency : int;
  dram_latency : int;
  atomic_latency : int;
  dram_bytes_per_cycle : float;
  l2_bytes_per_cycle_per_cu : float;
  write_backlog_limit : int;
  valu_latency : int;
  valu_trans_latency : int;
  salu_latency : int;
  lds_latency : int;
  lds_issue_cycles : int;
  sched_policy : sched_policy;
  memory_bytes : int;
  max_cycles : int;
  window_cycles : int;
  clock_ghz : float;
}

val default : t
(** Radeon HD 7790-like device. *)

val small : t
(** 2-CU device for unit tests. *)

val waves_per_group : t -> int -> int
