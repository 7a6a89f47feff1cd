(** Machine-readable run metrics: JSON serialization of counters and run
    summaries, plus the [BENCH_<rev>.json] perf-trajectory file that
    [rmtgpu exp --metrics] writes so future revisions can diff simulated
    behaviour against this one. *)

module Json = Gpu_trace.Json
module Counters = Gpu_sim.Counters
module T = Rmt_core.Transform

let schema_version = 1

let hit_pct hits misses =
  let total = hits + misses in
  if total = 0 then 0.0 else 100.0 *. float_of_int hits /. float_of_int total

(** A counter set as a JSON object: every raw field (via
    {!Counters.to_fields}) plus the derived cache hit rates. *)
let counters_json (c : Counters.t) : Json.t =
  Json.Obj
    (List.map (fun (k, v) -> (k, Json.Int v)) (Counters.to_fields c)
    @ [
        ("l1_hit_pct", Json.Float (hit_pct c.Counters.l1_hits c.Counters.l1_misses));
        ("l2_hit_pct", Json.Float (hit_pct c.Counters.l2_hits c.Counters.l2_misses));
      ])

let outcome_json (o : Gpu_sim.Device.outcome) =
  Json.Str (Run.outcome_name o)

(** One run summary. [label] is the experiment-cache label
    (["bench/variant..."]); the full counter set rides along. *)
let summary_json ~label (s : Run.summary) : Json.t =
  Json.Obj
    [
      ("label", Json.Str label);
      ("bench", Json.Str s.Run.bench_id);
      ("variant", Json.Str (T.name s.Run.variant));
      ("cycles", Json.Int s.Run.cycles);
      ("outcome", outcome_json s.Run.outcome);
      ("verified", Json.Bool s.Run.verified);
      ("steps", Json.Int s.Run.steps);
      ("windows", Json.Int (Array.length s.Run.windows));
      ("counters", counters_json s.Run.counters);
    ]

let pool_json (p : Pool.stats) : Json.t =
  Json.Obj
    [
      ("jobs", Json.Int p.Pool.s_jobs);
      ( "tasks_per_worker",
        Json.List
          (Array.to_list (Array.map (fun n -> Json.Int n) p.Pool.tasks_per_worker))
      );
      ("total_queue_wait_s", Json.Float p.Pool.total_queue_wait);
      ("max_queue_wait_s", Json.Float p.Pool.max_queue_wait);
    ]

(** The whole perf-trajectory document: every completed simulated run
    (cycles, counters, cache hit rates) and the worker-pool statistics
    of the producing process. *)
let bench_json ~rev ~jobs ~(runs : (string * Run.summary) list)
    ~(pool : Pool.stats) : Json.t =
  Json.Obj
    [
      ("schema", Json.Int schema_version);
      ("rev", Json.Str rev);
      ("jobs", Json.Int jobs);
      ("runs", Json.List (List.map (fun (l, s) -> summary_json ~label:l s) runs));
      ("pool", pool_json pool);
    ]

(** Revision stamp of the trajectory: the short git head, with
    ["-dirty"] appended when tracked files differ from it; ["dev"]
    outside a checkout. Tags are excluded, so the stamp is always the
    abbreviated hash. *)
let rev () =
  try
    let ic =
      Unix.open_process_in
        "git describe --always --dirty --exclude='*' 2>/dev/null"
    in
    let line = try input_line ic with End_of_file -> "" in
    match Unix.close_process_in ic with
    | Unix.WEXITED 0 when String.trim line <> "" -> String.trim line
    | _ -> "dev"
  with _ -> "dev"

(* Atomic: write to a temp file in the destination directory, then
   rename over the target, so a reader (or a crashed writer) never sees
   a half-written trajectory file. Same-directory rename keeps the
   operation on one filesystem. *)
let write_file path json =
  let dir = Filename.dirname path in
  let tmp, oc =
    Filename.open_temp_file ~temp_dir:dir
      ("." ^ Filename.basename path ^ ".") ".tmp"
  in
  (try
     output_string oc (Json.to_string json);
     output_char oc '\n';
     close_out oc
   with e ->
     close_out_noerr oc;
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  try Sys.rename tmp path
  with e ->
    (try Sys.remove tmp with Sys_error _ -> ());
    raise e
