(** Machine-readable run metrics: JSON serialization of {!Counters} and
    {!Run.summary}, and the [BENCH_<rev>.json] perf-trajectory document
    written by [rmtgpu exp --metrics] for future revisions to diff
    against. *)

val schema_version : int

val counters_json : Gpu_sim.Counters.t -> Gpu_trace.Json.t
(** Every raw counter plus derived [l1_hit_pct] / [l2_hit_pct]. *)

val summary_json : label:string -> Run.summary -> Gpu_trace.Json.t

val pool_json : Pool.stats -> Gpu_trace.Json.t

val bench_json :
  rev:string ->
  jobs:int ->
  runs:(string * Run.summary) list ->
  pool:Pool.stats ->
  Gpu_trace.Json.t
(** The whole trajectory document: completed simulated runs and
    worker-pool statistics. *)

val rev : unit -> string
(** The short git head, else ["dev"]. *)

val write_file : string -> Gpu_trace.Json.t -> unit
