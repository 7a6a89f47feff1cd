(** Device configuration for the GCN-class simulator.

    The default configuration models the AMD Radeon HD 7790 ("Bonaire")
    used in the paper: 12 compute units, each with four 16-wide SIMD units
    executing 64-wide wavefronts over 4 cycles, a 256 kB vector register
    file (64 kB per SIMD = 256 VGPRs x 64 lanes x 32 bits), an 8 kB scalar
    register file, 64 kB of LDS, and a 16 kB write-through read/write L1
    cache, all at a fixed 1 GHz core clock (the paper pins clocks to avoid
    DVFS noise). Latency and bandwidth values are representative GCN
    figures; the evaluation depends on their relative magnitudes, not the
    exact numbers. *)

(** Wavefront pick order within a SIMD's issue turn. [Greedy] always
    scans from the oldest resident wavefront (GCN-like: prioritizes
    utilization, ignores contention — the behaviour the paper credits
    for some of RMT's accidental speedups and slowdowns);
    [Round_robin] rotates the starting wavefront with the cycle: on
    cycle [c] the scan starts at resident slot [c mod n], so the
    schedule does not depend on which idle cycles the simulator skips. *)
type sched_policy = Greedy | Round_robin

type t = {
  n_cus : int;
  simds_per_cu : int;
  wave_size : int;
  max_waves_per_simd : int;
  max_groups_per_cu : int;
  max_workgroup_size : int;
  vgprs_per_simd : int;  (** VGPR budget per SIMD (register granularity) *)
  sgprs_per_simd : int;  (** SGPR budget per SIMD *)
  lds_per_cu : int;      (** bytes *)
  (* memory hierarchy *)
  line_bytes : int;
  l1_bytes : int;
  l1_assoc : int;
  l2_bytes : int;
  l2_assoc : int;
  l1_latency : int;      (** cycles, L1 hit *)
  l2_latency : int;      (** cycles, L2 hit *)
  dram_latency : int;    (** cycles, DRAM access *)
  atomic_latency : int;  (** cycles, L2 atomic round trip *)
  dram_bytes_per_cycle : float;  (** device-wide DRAM bandwidth *)
  l2_bytes_per_cycle_per_cu : float;  (** per-CU L2/write-through bandwidth *)
  write_backlog_limit : int;
      (** cycles of write backlog tolerated before store issue stalls *)
  (* execution latencies *)
  valu_latency : int;
  valu_trans_latency : int;  (** transcendental (sqrt/exp/...) *)
  salu_latency : int;
  lds_latency : int;
  lds_issue_cycles : int;    (** LDS unit occupancy per access *)
  (* scheduling *)
  sched_policy : sched_policy;
  (* simulation *)
  memory_bytes : int;        (** global memory size *)
  max_cycles : int;          (** watchdog *)
  window_cycles : int;       (** power-sampling window, 1 ms at 1 GHz *)
  clock_ghz : float;
}

(** Radeon HD 7790-like defaults (see module doc). *)
let default =
  {
    n_cus = 12;
    simds_per_cu = 4;
    wave_size = 64;
    max_waves_per_simd = 10;
    max_groups_per_cu = 16;
    max_workgroup_size = 256;
    vgprs_per_simd = 256;
    sgprs_per_simd = 512;
    (* The hardware LDS is 64 kB (Table 1 uses that figure); the simulated
       capacity is scaled to 16 kB because the benchmark working sets and
       work-group sizes are scaled ~4x below the SDK defaults — keeping
       the LDS-allocation-to-capacity ratios, and hence the occupancy
       effects of RMT's doubled allocations, representative. *)
    lds_per_cu = 16 * 1024;
    line_bytes = 64;
    l1_bytes = 16 * 1024;
    l1_assoc = 4;
    l2_bytes = 512 * 1024;
    l2_assoc = 16;
    l1_latency = 24;
    l2_latency = 120;
    dram_latency = 320;
    atomic_latency = 140;
    dram_bytes_per_cycle = 96.0;
    l2_bytes_per_cycle_per_cu = 32.0;
    write_backlog_limit = 256;
    valu_latency = 4;
    valu_trans_latency = 16;
    salu_latency = 4;
    lds_latency = 32;
    lds_issue_cycles = 4;
    sched_policy = Greedy;
    memory_bytes = 64 * 1024 * 1024;
    max_cycles = 200_000_000;
    window_cycles = 1_000_000;
    clock_ghz = 1.0;
  }

(** A smaller device for unit tests (2 CUs, small memory) so tests run in
    microseconds. *)
let small =
  {
    default with
    n_cus = 2;
    memory_bytes = 4 * 1024 * 1024;
    max_cycles = 20_000_000;
  }

let waves_per_group cfg items = (items + cfg.wave_size - 1) / cfg.wave_size
