(** Detection-to-recovery runtime.

    The paper builds {e detection} and notes that "the choice of recovery
    techniques (e.g. checkpoint/restart or containment domains) is
    orthogonal" (Section 1). This module supplies the simplest such
    recovery so the system is usable end to end: on a detected fault,
    re-execute. Because the faults of interest are transient, a bounded
    number of retries converges; a retry budget exhausted (a permanent
    fault, by the paper's taxonomy) is reported as such.

    Kernels may run in place (BitS, FWT, FW mutate their inputs), so a
    retry must not see the failed attempt's memory. Every attempt is a
    whole {!Run.run}: a fresh device whose inputs the benchmark prepares
    again, which is the checkpoint restored. *)

let max_retries = 3

(* Wild accesses and watchdog expiries are detected abnormal terminations
   too (a corrupted address or loop bound), equally recoverable by
   re-execution. *)
let failed (s : Run.summary) = s.outcome <> Gpu_sim.Device.Finished

let run ?cfg ~inject bench variant =
  let rec go inject attempts =
    let s = Run.run ?cfg ?inject bench variant in
    let attempts = s :: attempts in
    if failed s && List.length attempts <= max_retries then go None attempts
    else List.rev attempts
  in
  go (Some inject) []

let recovered attempts =
  match List.rev attempts with
  | last :: _ :: _ -> not (failed last)
  | _ -> false

let total_cycles attempts =
  List.fold_left (fun acc (s : Run.summary) -> acc + s.cycles) 0 attempts
