(** Detection-to-recovery runtime: run, and on a detected fault
    re-execute. The paper treats recovery as orthogonal to its detection
    contribution (Section 1); this module supplies the simplest
    re-execution so the system is usable end to end. *)

val run :
  ?cfg:Gpu_sim.Config.t ->
  inject:Gpu_sim.Device.inject_plan ->
  Kernels.Bench.t ->
  Rmt_core.Transform.variant ->
  Run.summary list
(** [run ~inject bench variant] runs [bench] with the transient fault
    [inject] through {!Run.run}. After a detected, crashed or hung
    attempt it runs again without the fault, at most 3 times; the last
    failed attempt then stands for a permanent fault. Each attempt
    prepares its inputs afresh, so a retry is also the rollback. Returns
    every attempt's summary, oldest first; the last one is the verdict. *)

val recovered : Run.summary list -> bool
(** A detection occurred and a retry finished. *)

val total_cycles : Run.summary list -> int
(** Simulated cost of every attempt, the aborted ones included. *)
