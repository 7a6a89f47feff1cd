(** Experiment runner: execute a benchmark under a given RMT variant and
    collect the measurements the figures need (total cycles, summed
    counters, power windows, verification verdict).

    Multi-pass benchmarks (BitonicSort, FastWalshTransform,
    FloydWarshall) launch their kernel once per pass, exactly as their
    SDK hosts do; cycles and counters are summed over the passes and the
    Inter-Group group-id counter is reset before each pass. [run] is the
    only function here that simulates. Every observation of a run comes
    back in its summary: the per-site profile and the executed kernel
    always, the scheduler events, fault provenance and sanitizer
    findings when asked for. Naive duplication is derived from the [Original]
    summary. *)

module Device = Gpu_sim.Device
module Counters = Gpu_sim.Counters
module Transform = Rmt_core.Transform

type summary = {
  bench_id : string;
  variant : Transform.variant;
  cycles : int;
  counters : Counters.t;
  windows : Counters.t array;
  outcome : Device.outcome;
  verified : bool;
  occupancy : Gpu_sim.Occupancy.t;
  usage : Gpu_ir.Regpressure.usage;
  steps : int;
  inject_applied : bool;
  detection_latency : int option;
      (** cycles between fault landing and the trap firing, when both
          happened (the containment window) *)
  kernel : Gpu_ir.Types.kernel;
  profile : Gpu_prof.Collector.t;
  events : Gpu_trace.Sink.record list;
  provenance : Gpu_prof.Provenance.t option;
  san : Gpu_san.Shadow.finding list option;
}

let outcome_name = function
  | Device.Finished -> "finished"
  | Device.Detected -> "detected"
  | Device.Crashed m -> "crashed: " ^ m
  | Device.Hung -> "hung"

(** Transform the benchmark's kernel for [variant], given the launch's
    original work-group geometry. [optimize] additionally runs the
    {!Gpu_ir.Opt} cleanup pipeline over the transformed kernel (the
    "more efficient register allocation" direction of paper Sec. 6.6). *)
let transformed_kernel ?(optimize = false) (bench : Kernels.Bench.t) variant
    ~(nd : Gpu_sim.Geom.ndrange) =
  let k = bench.make_kernel () in
  let k = Transform.apply variant ~local_items:(Gpu_sim.Geom.group_items nd) k in
  if optimize then Gpu_ir.Opt.optimize k else k

(** Run [bench] under [variant].

    @param scale problem-size multiplier (1 = paper-scaled default)
    @param usage_override resource inflation for the component analysis
    @param inject a fault plan, interpreted against cumulative cycles;
    the run then returns a provenance record, shared by all passes and
    filled by the one in which the fault lands
    @param trace record scheduler events; multi-pass launches are spliced
    into one monotonic stream by offsetting each pass's events by the
    cycles already simulated
    @param sanitize create a sanitizer shadow with the device, so it
    observes every allocation and host write; all passes check into the
    same shadow (the sanitizer never perturbs timing or outputs), and the
    summary keeps its findings, not the shadow *)
let run ?(cfg = Gpu_sim.Config.default) ?(scale = 1) ?(optimize = false)
    ?window_cycles ?max_cycles ?usage_override ?inject ?(trace = false)
    ?(sanitize = false) (bench : Kernels.Bench.t) (variant : Transform.variant)
    : summary =
  let san = if sanitize then Some (Gpu_san.Shadow.create ()) else None in
  let provenance = Option.map (fun _ -> Gpu_prof.Provenance.create ()) inject in
  let dev = Device.create ?san cfg in
  let prep = bench.prepare dev ~scale in
  let nd0 =
    match prep.steps with
    | s :: _ -> s.Kernels.Bench.nd
    | [] -> invalid_arg "benchmark produced no launch steps"
  in
  let kernel = transformed_kernel ~optimize bench variant ~nd:nd0 in
  let extras = Transform.make_extras variant dev ~nd:nd0 in
  let total = Counters.create () in
  let profile = Gpu_prof.Collector.create ~nsites:(Gpu_ir.Site.count kernel) in
  let windows = ref [] in
  let passes = ref [] in  (* each pass's events, offset; last pass first *)
  let cycles = ref 0 in
  let outcome = ref Device.Finished in
  let occupancy = ref None in
  let usage = ref None in
  let injected = ref false in
  let latency = ref None in
  let inject_remaining = ref inject in
  (try
     List.iter
       (fun (step : Kernels.Bench.step) ->
         extras.Transform.reset ();
         let step_inject =
           match !inject_remaining with
           | Some (plan : Device.inject_plan) when not !injected ->
               Some { plan with Device.at_cycle = max 0 (plan.Device.at_cycle - !cycles) }
           | _ -> None
         in
         let opts =
           {
             Device.default_opts with
             Device.usage_override;
             window_cycles;
             max_cycles;
             inject = step_inject;
             trace;
             provenance;
           }
         in
         let nd = Transform.map_ndrange variant step.Kernels.Bench.nd in
         let r =
           Device.launch ~opts dev kernel ~nd
             ~args:(step.Kernels.Bench.args @ extras.Transform.ex_args)
         in
         if r.Device.inject_applied then injected := true;
         (match (r.Device.injected_at, r.Device.detected_at) with
         | Some i, Some d when d >= i -> latency := Some (d - i)
         | _ -> ());
         let off = !cycles in
         passes :=
           List.map
             (fun (e : Gpu_trace.Sink.record) -> { e with at = e.at + off })
             r.Device.events
           :: !passes;
         cycles := !cycles + r.Device.cycles;
         Counters.accumulate ~into:total r.Device.counters;
         Gpu_prof.Collector.accumulate ~into:profile r.Device.profile;
         windows := List.rev_append (Array.to_list r.Device.windows) !windows;
         occupancy := Some r.Device.occupancy;
         usage := Some r.Device.usage;
         match r.Device.outcome with
         | Device.Finished -> ()
         | (Device.Detected | Device.Crashed _ | Device.Hung) as bad ->
             outcome := bad;
             raise Exit)
       prep.steps
   with Exit -> ());
  total.Counters.cycles <- !cycles;
  let verified =
    match !outcome with Device.Finished -> prep.verify () | _ -> false
  in
  {
    bench_id = bench.id;
    variant;
    cycles = !cycles;
    counters = total;
    windows = Array.of_list (List.rev !windows);
    outcome = !outcome;
    verified;
    occupancy =
      (match !occupancy with
      | Some o -> o
      | None -> failwith "no launch completed");
    usage = (match !usage with Some u -> u | None -> failwith "no launch");
    steps = List.length prep.steps;
    inject_applied = !injected;
    detection_latency = !latency;
    kernel;
    profile;
    events = List.concat (List.rev !passes);
    provenance;
    san = Option.map Gpu_san.Shadow.findings san;
  }

(** Slowdown of [v] relative to [base] (runtimes in cycles). A
    zero-cycle baseline means the base run never executed — report the
    broken run instead of a quietly absurd ratio. *)
let slowdown ~(base : summary) (v : summary) =
  if base.cycles <= 0 then
    invalid_arg
      (Printf.sprintf
         "Run.slowdown: baseline %s/%s ran for %d cycles (broken run)"
         base.bench_id
         (Transform.name base.variant)
         base.cycles);
  float_of_int v.cycles /. float_of_int base.cycles

(** Naive full duplication (paper Section 3.4): the host launches the
    whole kernel sequence twice and compares the outputs itself, so
    detection comes only after both copies finish and a mismatch
    re-executes both. Its cost is derived from [base], the benchmark's
    [Original] summary, instead of being simulated a second time: a
    launch carries no timing state over from the previous one (each
    builds a fresh memory system, so both copies start with cold
    caches), and the registry kernels' schedules do not depend on the
    values they find in memory, in-place sorts and updates included. The
    second copy therefore repeats the first cycle for cycle: twice the
    cycles, counters, profile, power windows and launches. *)
let naive_duplication (base : summary) : summary =
  if base.variant <> Transform.Original then
    invalid_arg "Run.naive_duplication: base must be an Original run";
  let counters = Counters.copy base.counters in
  Counters.accumulate ~into:counters base.counters;
  let profile = Gpu_prof.Collector.create ~nsites:base.profile.nsites in
  Gpu_prof.Collector.accumulate ~into:profile base.profile;
  Gpu_prof.Collector.accumulate ~into:profile base.profile;
  {
    base with
    cycles = 2 * base.cycles;
    counters;
    windows = Array.append base.windows base.windows;
    steps = 2 * base.steps;
    profile;
  }
