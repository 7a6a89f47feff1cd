(** Benchmark harness.

    Regenerates every table and figure of the paper's evaluation
    (Tables 1–3, Figures 2–9, plus the fault-coverage campaigns), and
    runs one Bechamel micro-benchmark per experiment measuring the
    wall-clock cost of that experiment's representative unit of work.

    Usage:
      dune exec bench/main.exe                  # everything
      dune exec bench/main.exe -- fig2 fig6     # selected experiments
      dune exec bench/main.exe -- quick         # reduced fault campaigns
      dune exec bench/main.exe -- micro         # Bechamel section only
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

module T = Rmt_core.Transform

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks: one Test.make per table/figure            *)
(* ------------------------------------------------------------------ *)

let micro_tests () =
  let open Bechamel in
  let stage_run bench_id variant =
    let bench = Kernels.Registry.find bench_id in
    Staged.stage (fun () -> ignore (Harness.Run.run bench variant))
  in
  [
    (* Table 1: the SEC-DED codec behind the overhead estimates *)
    Test.make ~name:"table1/secded-encode-decode"
      (Staged.stage (fun () ->
           let code = Ecc.Sec_ded.encode32 0xDEADBEE in
           match Ecc.Sec_ded.decode32 code with
           | Ok _ -> ()
           | Error _ -> assert false));
    (* Tables 2/3: SoR table rendering (static analysis path) *)
    Test.make ~name:"table2/sor-render"
      (Staged.stage (fun () ->
           ignore
             (Rmt_core.Sor.render_table
                [ Rmt_core.Sor.Intra_plus_lds; Rmt_core.Sor.Intra_minus_lds ])));
    Test.make ~name:"table3/sor-render"
      (Staged.stage (fun () ->
           ignore (Rmt_core.Sor.render_table [ Rmt_core.Sor.Inter_group ])));
    (* Figure 2: an Intra-Group transformed kernel run *)
    Test.make ~name:"fig2/sf-intra-plus-lds" (stage_run "SF" T.intra_plus_lds);
    (* Figure 3: counter collection on an original kernel *)
    Test.make ~name:"fig3/sf-original" (stage_run "SF" T.Original);
    (* Figure 4: the transform itself (compile-time cost) *)
    Test.make ~name:"fig4/transform-intra"
      (Staged.stage
         (let k = (Kernels.Registry.find "MM").make_kernel () in
          fun () -> ignore (T.apply T.intra_plus_lds ~local_items:64 k)));
    (* Figure 5: power-model evaluation of a counter window *)
    Test.make ~name:"fig5/power-window"
      (Staged.stage
         (let c = Gpu_sim.Counters.create () in
          c.Gpu_sim.Counters.cycles <- 5000;
          c.Gpu_sim.Counters.valu_lane_ops <- 100000;
          fun () ->
            ignore
              (Gpu_power.Power_model.window_power ~cfg:Gpu_sim.Config.default c)));
    (* Figure 6: an Inter-Group transformed kernel run *)
    Test.make ~name:"fig6/qrs-inter-group" (stage_run "QRS" T.inter_group);
    (* Figure 7: the Inter-Group transform (compile-time cost) *)
    Test.make ~name:"fig7/transform-inter"
      (Staged.stage
         (let k = (Kernels.Registry.find "MM").make_kernel () in
          fun () -> ignore (T.apply T.inter_group ~local_items:64 k)));
    (* Figure 8: swizzle execution in the wavefront interpreter *)
    Test.make ~name:"fig8/swizzle-wave"
      (Staged.stage
         (let w =
            Gpu_sim.Wave.create ~wid:0 ~nregs:4 ~nlanes:64 ~flat_base:0
              ~body:[] ~simd:0
          in
          let swizzle =
            (Gpu_sim.Wave.decode
               ~scalar:(fun _ -> false)
               ~lds_offset:(fun _ -> None)
               [| Gpu_ir.Types.Swizzle (Gpu_ir.Types.Dup_odd, 1, Gpu_ir.Types.Reg 0) |]).(0)
          in
          let mem =
            {
              Gpu_sim.Wave.mload = (fun _ _ -> 0);
              mstore = (fun _ _ _ -> ());
              matomic = (fun _ _ _ _ -> 0);
              mcas = (fun _ _ _ _ -> 0);
              arg = (fun _ -> 0);
              lds_base = (fun _ -> 0);
              msan = None;
              view =
                {
                  Gpu_sim.Geom.nd = Gpu_sim.Geom.make_ndrange 64 64;
                  gcoord = [| 0; 0; 0 |];
                };
            }
          in
          fun () ->
            ignore
              (Gpu_sim.Wave.exec w swizzle ~mem ~line_bytes:64)));
    (* Figure 9: FAST communication variant run *)
    Test.make ~name:"fig9/dwt-fast" (stage_run "DWT" T.intra_plus_lds_fast);
    (* Coverage: one injected run *)
    Test.make ~name:"coverage/injected-run"
      (Staged.stage
         (let bench = Kernels.Registry.find "R" in
          fun () ->
            ignore
              (Harness.Run.run bench T.intra_plus_lds
                 ~inject:
                   {
                     Gpu_sim.Device.at_cycle = 1000;
                     target = Gpu_sim.Device.T_vgpr;
                     iseed = 7;
                   })));
  ]

let run_micro () =
  let open Bechamel in
  print_string "\n== Bechamel micro-benchmarks (one per table/figure) ==\n";
  let cfg =
    Benchmark.cfg ~limit:200 ~quota:(Time.second 0.8) ~kde:None
      ~stabilize:false ()
  in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  List.iter
    (fun test ->
      List.iter
        (fun elt ->
          let raw = Benchmark.run cfg instances elt in
          let ols =
            Analyze.OLS.ols ~bootstrap:0 ~r_square:true
              ~responder:(Measure.label Toolkit.Instance.monotonic_clock)
              ~predictors:[| "run" |] raw.Benchmark.lr
          in
          let est =
            match Analyze.OLS.estimates ols with
            | Some [ e ] -> e
            | _ -> Float.nan
          in
          Printf.printf "%-32s %14.1f ns/run (r2=%s)\n%!" (Test.Elt.name elt)
            est
            (match Analyze.OLS.r_square ols with
            | Some r -> Printf.sprintf "%.3f" r
            | None -> "n/a"))
        (Test.elements test))
    (micro_tests ())

(* ------------------------------------------------------------------ *)

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
  if args = [ "micro" ] then run_micro ()
  else begin
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
    Harness.Experiments.shutdown c;
    (* the full run ends with the micro section *)
    if selected = [] then run_micro ()
  end
