(** Fault-injection campaigns.

    The paper argues the coverage of each RMT flavor analytically
    (Tables 2 and 3); on real hardware it could not inject faults to check
    the argument. The simulator can: a campaign runs a kernel variant many
    times, each run flipping one randomly placed bit in one architectural
    structure (VRF lane register, SRF/uniform register, LDS byte, or a
    resident L1 line), and classifies the outcome against a golden run:

    - {b detected} — an RMT output comparison trapped;
    - {b masked} — the kernel finished and its output matches the golden
      output (the flipped bit was dead or logically masked);
    - {b SDC} — silent data corruption: finished, wrong output;
    - {b crash} — a wild memory access aborted the kernel;
    - {b hang} — the watchdog expired (e.g. a corrupted loop bound).

    A structure is {e covered} by a flavor when injections into it never
    end in SDC — they may still be masked, detected, or crash. *)

type outcome = O_masked | O_detected | O_sdc | O_crash | O_hang

let outcome_name = function
  | O_masked -> "masked"
  | O_detected -> "detected"
  | O_sdc -> "SDC"
  | O_crash -> "crash"
  | O_hang -> "hang"

type tally = {
  mutable masked : int;
  mutable detected : int;
  mutable sdc : int;
  mutable crash : int;
  mutable hang : int;
  mutable not_applied : int;
      (** the fault found no resident target (e.g. empty cache) *)
  mutable latencies : int list;
      (** detection latencies (cycles from flip to trap) of the detected
          runs — the containment window *)
}

let tally_create () =
  {
    masked = 0;
    detected = 0;
    sdc = 0;
    crash = 0;
    hang = 0;
    not_applied = 0;
    latencies = [];
  }

let tally_total t = t.masked + t.detected + t.sdc + t.crash + t.hang

let record t = function
  | O_masked -> t.masked <- t.masked + 1
  | O_detected -> t.detected <- t.detected + 1
  | O_sdc -> t.sdc <- t.sdc + 1
  | O_crash -> t.crash <- t.crash + 1
  | O_hang -> t.hang <- t.hang + 1

(** Mean detection latency in cycles, when any detection carried one. *)
let mean_latency t =
  match t.latencies with
  | [] -> None
  | ls ->
      Some
        (List.fold_left ( + ) 0 ls / List.length ls)

(** Nearest-rank percentile of [q] in [0,1] over the latencies. *)
let latency_percentile t q =
  match t.latencies with
  | [] -> None
  | ls ->
      let a = Array.of_list ls in
      Array.sort compare a;
      let n = Array.length a in
      let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
      Some a.(min (n - 1) (max 0 (rank - 1)))

let median_latency t = latency_percentile t 0.5
let p99_latency t = latency_percentile t 0.99

let max_latency t =
  match t.latencies with
  | [] -> None
  | ls -> Some (List.fold_left max min_int ls)

let tally_to_string t =
  Printf.sprintf "masked=%d detected=%d SDC=%d crash=%d hang=%d%s" t.masked
    t.detected t.sdc t.crash t.hang
    (match (mean_latency t, median_latency t, p99_latency t, max_latency t) with
    | Some m, Some p50, Some p99, Some mx ->
        Printf.sprintf " (detect latency cy: mean=%d p50=%d p99=%d max=%d)" m
          p50 p99 mx
    | _ -> "")

(** One injected run's observable result. *)
type observation = {
  oc : Gpu_sim.Device.outcome;
  output_ok : bool;  (** device output matched the CPU reference *)
  applied : bool;    (** the fault actually landed in a live target *)
  latency : int option;  (** flip-to-trap cycles when detected *)
  prov : Gpu_prof.Provenance.t option;
      (** propagation provenance of this run's flip; [Run.run] returns
          one for every injected run *)
  san_clean : bool option;
      (** [Some true] when the run executed under the dynamic sanitizer
          and came back finding-free; [None] when it was not sanitized *)
}

(** One experiment: how to set up, run and check the workload. The
    harness instantiates this from a benchmark + RMT variant. *)
type experiment = {
  run : inject:Gpu_sim.Device.inject_plan option -> observation;
  golden_cycles : int;  (** fault-free duration, to place injection times *)
}

let classify (o : observation) : outcome =
  match o.oc with
  | Gpu_sim.Device.Detected -> O_detected
  | Gpu_sim.Device.Crashed _ -> O_crash
  | Gpu_sim.Device.Hung -> O_hang
  | Gpu_sim.Device.Finished -> if o.output_ok then O_masked else O_sdc

(** The [n] injection plans of a campaign: injection times spread
    uniformly over the middle 80% of the fault-free execution, each with
    a distinct derived seed. Pure — computing the plans up front is what
    lets a caller run the injections in parallel. *)
let plans ?(n = 40) ~(target : Gpu_sim.Device.inject_target) ~seed
    ~golden_cycles () : Gpu_sim.Device.inject_plan list =
  List.init n (fun i ->
      let frac =
        0.1 +. (0.8 *. float_of_int i /. float_of_int (max 1 (n - 1)))
      in
      let at_cycle = max 1 (int_of_float (frac *. float_of_int golden_cycles)) in
      { Gpu_sim.Device.at_cycle; target; iseed = seed + (i * 7919) })

(** Fold observations into a tally, in plan order. *)
let tally_of_observations (obs : observation list) : tally =
  let t = tally_create () in
  List.iter
    (fun o ->
      if o.applied then begin
        record t (classify o);
        match o.latency with
        | Some l -> t.latencies <- l :: t.latencies
        | None -> ()
      end
      else t.not_applied <- t.not_applied + 1)
    obs;
  t

(** Run [n] injection plans and collect the raw observations (plan
    order), so a caller can inspect per-run provenance before tallying.
    The runs are independent (each builds its own simulated device), so
    [map] — shaped like [List.map], default [List.map] — may evaluate
    them in parallel, as long as it preserves list order. *)
let run_observations ?(n = 40) ?map ~(target : Gpu_sim.Device.inject_target)
    ~seed (e : experiment) : observation list =
  let map = match map with Some m -> m | None -> fun f xs -> List.map f xs in
  plans ~n ~target ~seed ~golden_cycles:e.golden_cycles ()
  |> map (fun plan -> e.run ~inject:(Some plan))

let run ?n ?map ~(target : Gpu_sim.Device.inject_target) ~seed
    (e : experiment) : tally =
  run_observations ?n ?map ~target ~seed e |> tally_of_observations

(** Per-structure propagation summary over the observations that carry
    provenance; empty string when none do. *)
let provenance_summary (obs : observation list) : string =
  let records = List.filter_map (fun o -> o.prov) obs in
  if records = [] then ""
  else Gpu_prof.Provenance.(agg_to_string (aggregate records))

(** Coverage verdict for a tally: no SDC observed. *)
let covered t = t.sdc = 0 && tally_total t > 0
