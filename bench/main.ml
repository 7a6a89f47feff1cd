(** Benchmark harness.

    Regenerates every table and figure of the paper's evaluation
    (Tables 1–3, Figures 2–9, plus the fault-coverage campaigns). Host
    throughput is measured separately, by perfbench.

    Usage:
      dune exec bench/main.exe                  # everything
      dune exec bench/main.exe -- fig2 fig6     # selected experiments
      dune exec bench/main.exe -- quick         # reduced fault campaigns
      dune exec bench/main.exe -- fig2 -j 4     # 4 worker domains

    Independent simulations run on a pool of OCaml domains; -j N (or
    RMTGPU_JOBS) sets the worker count, defaulting to the machine's
    recommended domain count. Report text is byte-identical at any -j;
    only stderr progress lines may interleave.

    Besides the report text, a machine-readable perf-trajectory file
    [BENCH_<rev>.json] is written (wall-clock seconds per experiment,
    the simulated counters of every completed run, pool statistics) so
    future revisions can diff against this one. RMTGPU_BENCH_OUT
    overrides the path; RMTGPU_REV overrides the revision stamp. *)

let experiments =
  [
    ("table1", fun _ctx -> Harness.Experiments.table1 ());
    ("table2", fun _ctx -> Harness.Experiments.table2 ());
    ("table3", fun _ctx -> Harness.Experiments.table3 ());
    ("fig2", Harness.Experiments.fig2);
    ("fig3", Harness.Experiments.fig3);
    ("fig4", Harness.Experiments.fig4);
    ("fig5", Harness.Experiments.fig5);
    ("fig6", Harness.Experiments.fig6);
    ("fig7", Harness.Experiments.fig7);
    ("fig8", fun _ctx -> Harness.Experiments.fig8 ());
    ("fig9", Harness.Experiments.fig9);
    ("coverage", Harness.Experiments.coverage);
    (* extensions beyond the paper *)
    ("opt", Harness.Experiments.opt_ablation);
    ("tmr", Harness.Experiments.tmr);
    ("wavesize", Harness.Experiments.wavesize);
    ("naive", Harness.Experiments.naive);
    ("schedpolicy", Harness.Experiments.schedpolicy);
    ("occupancy", Harness.Experiments.occupancy);
    ("pool", Harness.Experiments.pool);
    ("devscale", Harness.Experiments.devscale);
    ("table2static", fun _ctx -> Harness.Experiments.table2static ());
    ("coststatic", Harness.Experiments.coststatic);
    ("explain", Harness.Experiments.explain);
    ("compare", Harness.Experiments.paper_compare);
    ("export", fun ctx -> Harness.Experiments.export ctx);
  ]

(* Extract -j N / -jN from the argument list. *)
let rec parse_jobs jobs acc = function
  | [] -> (jobs, List.rev acc)
  | "-j" :: n :: rest -> (
      match int_of_string_opt n with
      | Some n when n >= 1 -> parse_jobs (Some n) acc rest
      | _ ->
          Printf.eprintf "bench: -j expects a positive integer, got %s\n" n;
          exit 2)
  | a :: rest when String.length a > 2 && String.sub a 0 2 = "-j" -> (
      match int_of_string_opt (String.sub a 2 (String.length a - 2)) with
      | Some n when n >= 1 -> parse_jobs (Some n) acc rest
      | _ ->
          Printf.eprintf "bench: bad jobs count %s\n" a;
          exit 2)
  | "-j" :: [] ->
      Printf.eprintf "bench: -j expects a positive integer\n";
      exit 2
  | a :: rest -> parse_jobs jobs (a :: acc) rest

let () =
  let jobs, args = parse_jobs None [] (List.tl (Array.to_list Sys.argv)) in
  let quick = List.mem "quick" args in
  let c = Harness.Experiments.create_ctx ~quick ?jobs () in
  Printf.eprintf "[bench] %d worker domain(s)\n%!"
    (Harness.Experiments.jobs c);
  let selected = List.filter (fun a -> List.mem_assoc a experiments) args in
  let to_run =
    if selected = [] then experiments
    else List.filter (fun (n, _) -> List.mem n selected) experiments
  in
  let timings =
    List.map
      (fun (name, f) ->
        Printf.eprintf "[bench] %s\n%!" name;
        let t0 = Unix.gettimeofday () in
        print_string (f c);
        (name, Unix.gettimeofday () -. t0))
      to_run
  in
  (* Perf-trajectory file: every simulated run that completed, labelled
     and sorted, plus per-experiment wall clock and pool statistics. *)
  let rev = Harness.Metrics.rev () in
  let out =
    match Sys.getenv_opt "RMTGPU_BENCH_OUT" with
    | Some p when String.trim p <> "" -> p
    | _ -> Printf.sprintf "BENCH_%s.json" rev
  in
  let doc =
    Harness.Metrics.bench_json ~rev
      ~jobs:(Harness.Experiments.jobs c)
      ~experiments:timings
      ~runs:(Harness.Experiments.cached_summaries c)
      ~pool:(Harness.Experiments.pool_stats c)
  in
  Harness.Metrics.write_file out doc;
  Printf.eprintf "[bench] wrote %s\n%!" out;
  if Harness.Experiments.jobs c > 1 then
    Printf.eprintf "[bench] pool: %s\n%!"
      (Harness.Experiments.pool_stats_line c);
  Harness.Experiments.shutdown c
