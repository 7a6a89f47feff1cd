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

(* One run between and during its launches: the device, the prepared
   benchmark, and everything summed over the passes so far. A forked run
   is a copy of this on a forked device. *)
type state = {
  dev : Device.t;
  bench : Kernels.Bench.t;
  variant : Transform.variant;
  prep : Kernels.Bench.prepared;
  steps : Kernels.Bench.step array;
  kernel : Gpu_ir.Types.kernel;
  extras : Transform.extras;
  opts : Device.launch_opts;  (** every launch's options; no [inject] *)
  stop_when_dead : bool;
  total : Counters.t;
  profile : Gpu_prof.Collector.t;
  mutable windows : Counters.t list;  (** last pass's last first *)
  mutable passes : Gpu_trace.Sink.record list list;
      (** each pass's events, offset; last pass first *)
  mutable cycles : int;  (** summed over the ended passes *)
  mutable pass : int;  (** index of the pass in progress or next *)
  mutable outcome : Device.outcome;
  mutable occupancy : Gpu_sim.Occupancy.t option;
  mutable usage : Gpu_ir.Regpressure.usage option;
  mutable inject : Device.inject_plan option;  (** in cumulative cycles *)
  mutable injected : bool;
  mutable latency : int option;
}

let start ?(cfg = Gpu_sim.Config.default) ?(scale = 1) ?(optimize = false)
    ?window_cycles ?max_cycles ?usage_override ?inject ?(trace = false)
    ?(sanitize = false) ~provenance ~stop_when_dead (bench : Kernels.Bench.t)
    variant =
  let san = if sanitize then Some (Gpu_san.Shadow.create ()) else None in
  let dev = Device.create ?san cfg in
  let prep = bench.prepare dev ~scale in
  let nd0 =
    match prep.steps with
    | s :: _ -> s.Kernels.Bench.nd
    | [] -> invalid_arg "benchmark produced no launch steps"
  in
  let kernel = transformed_kernel ~optimize bench variant ~nd:nd0 in
  {
    dev;
    bench;
    variant;
    prep;
    steps = Array.of_list prep.steps;
    kernel;
    extras = Transform.make_extras variant dev ~nd:nd0;
    opts =
      {
        Device.default_opts with
        Device.usage_override;
        window_cycles;
        max_cycles;
        trace;
        provenance =
          (if provenance then Some (Gpu_prof.Provenance.create ()) else None);
      };
    stop_when_dead;
    total = Counters.create ();
    profile = Gpu_prof.Collector.create ~nsites:(Gpu_ir.Site.count kernel);
    windows = [];
    passes = [];
    cycles = 0;
    pass = 0;
    outcome = Device.Finished;
    occupancy = None;
    usage = None;
    inject;
    injected = false;
    latency = None;
  }

(* Arm the plan on the pass's launch [l] if it has not landed yet: its
   cumulative cycle, less the cycles of the ended passes, is local to
   this pass (0 once past). *)
let arm st l =
  match st.inject with
  | Some plan when not st.injected ->
      Device.Launch.inject l
        { plan with Device.at_cycle = max 0 (plan.Device.at_cycle - st.cycles) }
        ~stop_when_dead:st.stop_when_dead
  | _ -> ()

(* Launch the current pass. *)
let start_pass st =
  let step = st.steps.(st.pass) in
  st.extras.Transform.reset st.dev;
  let l =
    Device.Launch.create ~opts:st.opts st.dev st.kernel
      ~nd:(Transform.map_ndrange st.variant step.Kernels.Bench.nd)
      ~args:(step.Kernels.Bench.args @ st.extras.Transform.ex_args)
  in
  arm st l;
  l

(* Fold the ended launch into the run; true when another pass follows. *)
let end_pass st l =
  let r = Device.Launch.finish l in
  if r.Device.inject_applied then st.injected <- true;
  (match (r.Device.injected_at, r.Device.detected_at) with
  | Some i, Some d when d >= i -> st.latency <- Some (d - i)
  | _ -> ());
  let off = st.cycles in
  st.passes <-
    List.map
      (fun (e : Gpu_trace.Sink.record) -> { e with at = e.at + off })
      r.Device.events
    :: st.passes;
  st.cycles <- st.cycles + r.Device.cycles;
  Counters.accumulate ~into:st.total r.Device.counters;
  Gpu_prof.Collector.accumulate ~into:st.profile r.Device.profile;
  st.windows <- List.rev_append (Array.to_list r.Device.windows) st.windows;
  st.occupancy <- Some r.Device.occupancy;
  st.usage <- Some r.Device.usage;
  st.pass <- st.pass + 1;
  match r.Device.outcome with
  | Device.Finished -> st.pass < Array.length st.steps
  | (Device.Detected | Device.Crashed _ | Device.Hung) as bad ->
      st.outcome <- bad;
      false

(* The one step loop: run launch [l] and every later pass to the end.
   False when a dead flip stopped the run first. *)
let rec complete st l =
  Device.Launch.run_until l max_int;
  if st.stop_when_dead && Device.Launch.flip_dead l then false
  else if end_pass st l then complete st (start_pass st)
  else true

let summarize st =
  st.total.Counters.cycles <- st.cycles;
  let verified =
    match st.outcome with
    | Device.Finished -> st.prep.Kernels.Bench.verify st.dev
    | _ -> false
  in
  {
    bench_id = st.bench.id;
    variant = st.variant;
    cycles = st.cycles;
    counters = st.total;
    windows = Array.of_list (List.rev st.windows);
    outcome = st.outcome;
    verified;
    occupancy =
      (match st.occupancy with
      | Some o -> o
      | None -> failwith "no launch completed");
    usage = (match st.usage with Some u -> u | None -> failwith "no launch");
    steps = Array.length st.steps;
    inject_applied = st.injected;
    detection_latency = st.latency;
    kernel = st.kernel;
    profile = st.profile;
    events = List.concat (List.rev st.passes);
    provenance = st.opts.Device.provenance;
    san = Option.map Gpu_san.Shadow.findings (Device.sanitizer st.dev);
  }

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
let run ?cfg ?scale ?optimize ?window_cycles ?max_cycles ?usage_override
    ?inject ?trace ?sanitize (bench : Kernels.Bench.t)
    (variant : Transform.variant) : summary =
  let st =
    start ?cfg ?scale ?optimize ?window_cycles ?max_cycles ?usage_override
      ?inject ?trace ?sanitize ~provenance:(inject <> None)
      ~stop_when_dead:false bench variant
  in
  ignore (complete st (start_pass st));
  summarize st

(** One summary per plan, each equal to [run ~inject:plan], from one
    forking pass over the fault-free run.

    The pass simulates the run once, in ascending [at_cycle] order of the
    plans, and stops after the last fork. At each plan it forks the
    launch in progress (and the device) at the loop iteration where the
    injected run would flip, mapping cumulative cycles to the pass's
    local ones as {!run} does; a plan past the end of a pass moves on to
    the next pass. Each child arms its flip and runs its launch and the
    remaining passes on its own device, then verifies. Children run on
    [pool]'s helper domains while the pass goes on ({!Pool.overlap}),
    and results come back in plan order.

    A child whose flip is dead ({!Device.Launch.flip_dead}) stops there
    and returns [golden], the fault-free summary, with its own
    [inject_applied], no detection latency and its provenance record:
    every later cycle equals the fault-free run. The early exit is off
    under [sanitize] (the findings after the exit would be missing) and
    when [golden] did not finish within [max_cycles]. *)
let run_plans ?(cfg = Gpu_sim.Config.default) ?max_cycles
    ?(sanitize = false) ~pool ~(golden : summary) (bench : Kernels.Bench.t)
    variant (plans : Device.inject_plan list) : summary list =
  let watchdog = Option.value max_cycles ~default:cfg.Gpu_sim.Config.max_cycles in
  let stop_when_dead =
    (not sanitize) && golden.outcome = Device.Finished && golden.cycles < watchdog
  in
  (* the fault-free pass carries a provenance record, so every fork
     gets its own copy *)
  let st =
    start ~cfg ?max_cycles ~sanitize ~provenance:true ~stop_when_dead
      bench variant
  in
  let futures = Array.make (List.length plans) None in
  let fork_child start l i (plan : Device.inject_plan) =
    let l = Device.Launch.fork l in
    let child =
      {
        st with
        dev = Device.Launch.device l;
        opts = { st.opts with provenance = Device.Launch.provenance l };
        total = Counters.copy st.total;
        profile = Gpu_prof.Collector.copy st.profile;
        inject = Some plan;
      }
    in
    arm child l;
    futures.(i) <-
      Some
        (start (fun () ->
             if complete child l then summarize child
             else
               {
                 golden with
                 inject_applied = true;
                 detection_latency = None;
                 provenance = child.opts.provenance;
               }))
  in
  let rec go start l = function
    | [] -> ()
    | (i, (plan : Device.inject_plan)) :: rest as todo ->
        Device.Launch.run_until l (max 0 (plan.at_cycle - st.cycles));
        if
          Device.Launch.ended l
          && Device.Launch.outcome l = Device.Finished
          && st.pass + 1 < Array.length st.steps
        then begin
          ignore (end_pass st l);
          go start (start_pass st) todo
        end
        else begin
          fork_child start l i plan;
          go start l rest
        end
  in
  (match plans with
  | [] -> ()
  | _ ->
      Pool.overlap pool (fun start ->
          go start (start_pass st)
            (List.stable_sort
               (fun (_, (a : Device.inject_plan)) (_, b) -> compare a.at_cycle b.at_cycle)
               (List.mapi (fun i p -> (i, p)) plans))));
  Array.to_list (Array.map (fun f -> Pool.await (Option.get f)) futures)

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
