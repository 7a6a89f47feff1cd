(* rmtgpu — command-line front end for the GPU-RMT reproduction.

   Subcommands:
     list                        list benchmarks
     dump    <bench> [variant]   print the (transformed) kernel IR
     run     <bench> [variant]   simulate and report cycles/counters
     trace   <bench> [variant]   simulate with scheduler events recorded and
                                 write a Chrome-trace JSON + ASCII timeline
     profile <bench> [variant]   per-instruction profile: annotated IR
                                 listing, hot spots, optional JSON
     inject  <bench> <variant> <target> [n]  fault-injection campaign
                                 (with propagation provenance)
     perfdiff <old> <new>        diff the simulated counters of two
                                 BENCH_<rev>.json trajectories; exit 1
                                 when a counter regressed
     check   <bench|file.rgk> [target]  static SoR-invariant check + dynamic
                                 sanitizer run (.rgk files: static only);
                                 exit 1 on findings
     lint    <bench|file.rgk> [target]  translation validation (simulation
                                 relation under fault injection) + static
                                 protection-domain report + cost prediction;
                                 exit 1 on findings
     exp     <name>              regenerate one table/figure (table1..fig9,
                                 coverage, all)

   Exit codes are uniform: 0 success, 1 findings/regressions in otherwise
   valid invocations, 2 usage errors (unknown subcommand, argument or
   input file problems; usage is printed to stderr). *)

module T = Rmt_core.Transform

let variants =
  [
    ("original", T.Original);
    ("intra+lds", T.intra_plus_lds);
    ("intra-lds", T.intra_minus_lds);
    ("intra+lds-fast", T.intra_plus_lds_fast);
    ("intra-lds-fast", T.intra_minus_lds_fast);
    ("inter", T.inter_group);
  ]

let variant_conv =
  let parse s =
    match List.assoc_opt (String.lowercase_ascii s) variants with
    | Some v -> Ok v
    | None ->
        Error
          (`Msg
            (Printf.sprintf "unknown variant %s (one of: %s)" s
               (String.concat ", " (List.map fst variants))))
  in
  let print fmt v = Format.pp_print_string fmt (T.name v) in
  Cmdliner.Arg.conv (parse, print)

let bench_conv =
  let parse s =
    match
      List.find_opt
        (fun (b : Kernels.Bench.t) -> String.lowercase_ascii b.id = String.lowercase_ascii s)
        Kernels.Registry.all
    with
    | Some b -> Ok b
    | None ->
        Error
          (`Msg
            (Printf.sprintf "unknown benchmark %s (one of: %s)" s
               (String.concat ", "
                  (List.map (fun (b : Kernels.Bench.t) -> b.id) Kernels.Registry.all))))
  in
  let print fmt (b : Kernels.Bench.t) = Format.pp_print_string fmt b.id in
  Cmdliner.Arg.conv (parse, print)

(* ---------------- list ---------------- *)

let do_list () =
  List.iter
    (fun (b : Kernels.Bench.t) ->
      let k = b.make_kernel () in
      let stats = Gpu_ir.Stats.collect k in
      Printf.printf "%-8s %-22s %-16s %s\n" b.id b.name
        (Kernels.Bench.character_name b.character)
        (Gpu_ir.Stats.to_string stats))
    Kernels.Registry.all

(* ---------------- dump ---------------- *)

let do_dump (b : Kernels.Bench.t) variant ~alloc ~optimize =
  let dev = Gpu_sim.Device.create Gpu_sim.Config.default in
  let prep = b.prepare dev ~scale:1 in
  let nd = (List.hd prep.Kernels.Bench.steps).Kernels.Bench.nd in
  let k = Harness.Run.transformed_kernel ~optimize b variant ~nd in
  if alloc then print_string (Gpu_ir.Regalloc.annotate k)
  else print_string (Gpu_ir.Pp.kernel_to_string k);
  let u = Gpu_ir.Regpressure.analyze k in
  Printf.printf "\nresources: %s\n" (Gpu_ir.Regpressure.pp_usage u)

(* ---------------- run ---------------- *)

let do_run (b : Kernels.Bench.t) variant scale =
  let s = Harness.Run.run ~scale b variant in
  let cfg = Gpu_sim.Config.default in
  Printf.printf "%s under %s: %d cycles over %d launches (%s, verified=%b)\n"
    b.id (T.name variant) s.cycles s.steps
    (Harness.Run.outcome_name s.outcome)
    s.verified;
  Printf.printf "occupancy: %s\n" (Gpu_sim.Occupancy.to_string s.occupancy);
  Printf.printf "resources: %s\n" (Gpu_ir.Regpressure.pp_usage s.usage);
  let c = s.counters in
  Printf.printf
    "counters: VALUBusy=%.1f%% MemUnitBusy=%.1f%% WriteUnitStalled=%.1f%% \
     LDSBusy=%.1f%%\n"
    (Gpu_sim.Counters.valu_busy_pct ~n_cus:cfg.n_cus
       ~simds_per_cu:cfg.simds_per_cu c)
    (Gpu_sim.Counters.mem_unit_busy_pct ~n_cus:cfg.n_cus c)
    (Gpu_sim.Counters.write_unit_stalled_pct ~n_cus:cfg.n_cus c)
    (Gpu_sim.Counters.lds_busy_pct ~n_cus:cfg.n_cus c);
  Printf.printf
    "          valu=%d salu=%d vmem=%d lds=%d atomics=%d barriers=%d\n"
    c.valu_insts c.salu_insts c.vmem_insts c.lds_insts c.atomics
    c.barriers_executed;
  let rep =
    Gpu_power.Power_model.report ~cfg ~windows:s.windows ~fallback:s.counters ()
  in
  Printf.printf "power: avg %.1f W, peak %.1f W\n" rep.average_w rep.peak_w

(* ---------------- trace ---------------- *)

let sanitize_id s =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' -> c
      | _ -> '-')
    s

let do_trace (b : Kernels.Bench.t) variant scale out width =
  let s = Harness.Run.run ~scale ~trace:true b variant in
  let records = s.events in
  let cfg = Gpu_sim.Config.default in
  let out =
    match out with
    | Some p -> p
    | None ->
        Printf.sprintf "trace_%s_%s.json" (sanitize_id b.id)
          (sanitize_id (T.name variant))
  in
  let label = Printf.sprintf "%s under %s" b.id (T.name variant) in
  let json = Gpu_trace.Chrome.to_string ~label records in
  Out_channel.with_open_text out (fun oc ->
      output_string oc json;
      output_char oc '\n');
  Printf.printf "%s under %s: %d cycles over %d launches (%s, verified=%b)\n"
    b.id (T.name variant) s.cycles s.steps
    (Harness.Run.outcome_name s.outcome)
    s.verified;
  Printf.printf "%d scheduler events -> %s (load in chrome://tracing or \
                 ui.perfetto.dev)\n\n" (List.length records) out;
  print_string
    (Gpu_trace.Timeline.render ~n_cus:cfg.n_cus ~simds_per_cu:cfg.simds_per_cu
       ~cycles:s.cycles ~width records);
  let c = s.counters in
  Printf.printf "\nstalls: write_stalled=%d cycles, spin_iterations=%d polls\n"
    c.Gpu_sim.Counters.write_stalled c.Gpu_sim.Counters.spin_iterations

(* ---------------- profile ---------------- *)

let do_profile (b : Kernels.Bench.t) variant scale optimize json_out top =
  let s = Harness.Run.run ~scale ~optimize b variant in
  let kernel = s.kernel and prof = s.profile in
  Printf.printf "%s under %s: %d cycles over %d launches (%s, verified=%b)\n\n"
    b.id (T.name variant) s.cycles s.steps
    (Harness.Run.outcome_name s.outcome)
    s.verified;
  print_string (Gpu_prof.Report.annotated_listing kernel prof);
  print_newline ();
  print_string (Gpu_prof.Report.hotspots ~n:top kernel prof);
  match json_out with
  | Some path ->
      Out_channel.with_open_text path (fun oc ->
          output_string oc
            (Gpu_trace.Json.to_string (Gpu_prof.Report.to_json kernel prof));
          output_char oc '\n');
      Printf.printf "\nprofile JSON -> %s\n" path
  | None -> ()

(* ---------------- perfdiff ---------------- *)

let do_perfdiff old_path new_path counter_rel =
  match Harness.Perfdiff.report ~counter_rel ~old_path ~new_path () with
  | text, failed ->
      print_string text;
      if failed then exit 1
  | exception Harness.Perfdiff.Bad_file msg ->
      Printf.eprintf "perfdiff: %s\n" msg;
      exit 2

(* ---------------- check ---------------- *)

let check_target_conv =
  let parse s =
    match Harness.Check.target_of_string s with
    | Some t -> Ok (String.lowercase_ascii s, t)
    | None ->
        Error
          (`Msg
            (Printf.sprintf "unknown check target %s (one of: %s)" s
               (String.concat ", "
                  (List.map fst Harness.Check.standard_targets))))
  in
  let print fmt (label, _) = Format.pp_print_string fmt label in
  Cmdliner.Arg.conv (parse, print)

(* The check subject is a registry benchmark id or a path to an .rgk
   kernel file; files get the static contract check only (no argument
   harness to run them under the sanitizer). [--scale] sizes only a
   benchmark and [--local] only a file, so passing either to the other
   kind of subject is a usage error rather than silently ignored. *)
let do_check subject target scale local json_out =
  let targets =
    match target with
    | Some t -> [ t ]
    | None -> Harness.Check.standard_targets
  in
  let misapplied opt what =
    Printf.eprintf "rmtgpu check: option '%s' does not apply to %s\n" opt what;
    exit 2
  in
  let report =
    if Filename.check_suffix subject ".rgk" || Sys.file_exists subject then (
      if scale <> None then
        misapplied "--scale" "an .rgk file (it has no problem size)";
      let src =
        try In_channel.with_open_text subject In_channel.input_all
        with Sys_error msg ->
          Printf.eprintf "%s\n" msg;
          exit 2
      in
      let k0 =
        try Gpu_ir.Parse.kernel_of_string_checked src with
        | Gpu_ir.Parse.Parse_error (line, msg) ->
            Printf.eprintf "%s:%d: %s\n" subject line msg;
            exit 2
        | Gpu_ir.Verify.Invalid msg ->
            Printf.eprintf "%s: verification failed: %s\n" subject msg;
            exit 2
      in
      Harness.Check.check_kernel
        ~local_items:(Option.value local ~default:64)
        ~targets ~name:(Filename.basename subject) k0)
    else
      match
        List.find_opt
          (fun (b : Kernels.Bench.t) ->
            String.lowercase_ascii b.id = String.lowercase_ascii subject)
          Kernels.Registry.all
      with
      | Some _ when local <> None ->
          misapplied "--local"
            "a registry benchmark (its work-group size is fixed)"
      | Some b ->
          Harness.Check.check_bench ~scale:(Option.value scale ~default:1)
            ~targets b
      | None ->
          Printf.eprintf
            "unknown check subject %s (a benchmark id among: %s — or a path \
             to an .rgk kernel file)\n"
            subject
            (String.concat ", "
               (List.map (fun (b : Kernels.Bench.t) -> b.id) Kernels.Registry.all));
          exit 2
  in
  print_string (Harness.Check.to_string report);
  (match json_out with
  | Some path ->
      Out_channel.with_open_text path (fun oc ->
          output_string oc
            (Gpu_trace.Json.to_string (Harness.Check.to_json report));
          output_char oc '\n');
      Printf.printf "check JSON -> %s\n" path
  | None -> ());
  if not (Harness.Check.clean report) then exit 1

(* ---------------- lint ---------------- *)

let lint_target_conv =
  let parse s =
    match Harness.Lint.target_of_string s with
    | Some t -> Ok (String.lowercase_ascii s, t)
    | None ->
        Error
          (`Msg
            (Printf.sprintf "unknown lint target %s (one of: %s)" s
               (String.concat ", "
                  (List.map fst Harness.Lint.standard_targets))))
  in
  let print fmt (label, _) = Format.pp_print_string fmt label in
  Cmdliner.Arg.conv (parse, print)

(* Like check, the lint subject is a registry benchmark id or a path to
   an .rgk kernel file; both get the full translation validation (the
   validator brings its own synthetic launch, so no host harness is
   needed). *)
let do_lint subject target local max_exp full json_out =
  let targets =
    match target with Some t -> [ t ] | None -> Harness.Lint.standard_targets
  in
  let max_experiments = if full then max_int else max_exp in
  let report =
    if Filename.check_suffix subject ".rgk" || Sys.file_exists subject then (
      let src =
        try In_channel.with_open_text subject In_channel.input_all
        with Sys_error msg ->
          Printf.eprintf "%s\n" msg;
          exit 2
      in
      let k0 =
        try Gpu_ir.Parse.kernel_of_string_checked src with
        | Gpu_ir.Parse.Parse_error (line, msg) ->
            Printf.eprintf "%s:%d: %s\n" subject line msg;
            exit 2
        | Gpu_ir.Verify.Invalid msg ->
            Printf.eprintf "%s: verification failed: %s\n" subject msg;
            exit 2
      in
      Harness.Lint.lint_kernel ~local_items:local ~max_experiments ~targets
        ~name:(Filename.basename subject) k0)
    else
      match
        List.find_opt
          (fun (b : Kernels.Bench.t) ->
            String.lowercase_ascii b.id = String.lowercase_ascii subject)
          Kernels.Registry.all
      with
      | Some b ->
          Harness.Lint.lint_bench ~local_items:local ~max_experiments ~targets b
      | None ->
          Printf.eprintf
            "unknown lint subject %s (a benchmark id among: %s — or a path \
             to an .rgk kernel file)\n"
            subject
            (String.concat ", "
               (List.map (fun (b : Kernels.Bench.t) -> b.id) Kernels.Registry.all));
          exit 2
  in
  print_string (Harness.Lint.to_string report);
  (match json_out with
  | Some path ->
      Out_channel.with_open_text path (fun oc ->
          output_string oc
            (Gpu_trace.Json.to_string (Harness.Lint.to_json report));
          output_char oc '\n');
      Printf.printf "lint JSON -> %s\n" path
  | None -> ());
  if not (Harness.Lint.clean report) then exit 1

(* ---------------- inject ---------------- *)

let targets =
  [
    ("vgpr", Gpu_sim.Device.T_vgpr);
    ("sgpr", Gpu_sim.Device.T_sgpr);
    ("lds", Gpu_sim.Device.T_lds);
    ("l1", Gpu_sim.Device.T_l1);
  ]

let target_conv =
  let parse s =
    match List.assoc_opt (String.lowercase_ascii s) targets with
    | Some t -> Ok t
    | None -> Error (`Msg "target must be one of: vgpr, sgpr, lds, l1")
  in
  let print fmt t =
    Format.pp_print_string fmt
      (match t with
      | Gpu_sim.Device.T_vgpr -> "vgpr"
      | Gpu_sim.Device.T_sgpr -> "sgpr"
      | Gpu_sim.Device.T_lds -> "lds"
      | Gpu_sim.Device.T_l1 -> "l1")
  in
  Cmdliner.Arg.conv (parse, print)

let do_inject (b : Kernels.Bench.t) variant target n jobs show_prov sanitize =
  let ctx = Harness.Experiments.create_ctx ?jobs () in
  let e = Harness.Experiments.coverage_experiment ~sanitize ctx b variant in
  let obs =
    Fault.Campaign.run_observations ~n
      ~map:(Harness.Experiments.campaign_map ctx) ~target ~seed:97 e
  in
  Harness.Experiments.shutdown ctx;
  let t = Fault.Campaign.tally_of_observations obs in
  Printf.printf "%s under %s: %s%s\n" b.id (T.name variant)
    (Fault.Campaign.tally_to_string t)
    (if Fault.Campaign.covered t then "  [covered]" else "");
  if sanitize then begin
    let dirty =
      List.length
        (List.filter
           (fun o -> o.Fault.Campaign.san_clean = Some false)
           obs)
    in
    Printf.printf "  sanitizer: %d/%d injected runs with shadow findings\n"
      dirty (List.length obs)
  end;
  let psum = Fault.Campaign.provenance_summary obs in
  if psum <> "" then print_string psum;
  if show_prov then
    List.iteri
      (fun i o ->
        match o.Fault.Campaign.prov with
        | Some p when Gpu_prof.Provenance.applied p ->
            Printf.printf "  #%02d %s\n" i (Gpu_prof.Provenance.to_string p)
        | _ -> ())
      obs

(* ---------------- runfile ---------------- *)

(* Run a kernel written in the IR's text format. Arguments are declared
   positionally with --arg, matching the kernel's parameter order:
     --arg buf:WORDS[:zero|index|findex|i32=V|f32=X]   a global buffer
     --arg i32:V / --arg f32:X                         a scalar
   --show IDX:LO:HI[:f32] prints a buffer slice afterwards. *)

type runfile_arg =
  | RA_buf of int * [ `Zero | `Index | `Findex | `I32 of int | `F32 of float ]
  | RA_i32 of int
  | RA_f32 of float

let parse_runfile_arg sp =
  let parts = String.split_on_char ':' sp in
  match parts with
  | [ "i32"; v ] -> Ok (RA_i32 (int_of_string v))
  | [ "f32"; x ] -> Ok (RA_f32 (float_of_string x))
  | "buf" :: words :: rest -> (
      let words = int_of_string words in
      match rest with
      | [] | [ "zero" ] -> Ok (RA_buf (words, `Zero))
      | [ "index" ] -> Ok (RA_buf (words, `Index))
      | [ "findex" ] -> Ok (RA_buf (words, `Findex))
      | [ init ] -> (
          match String.split_on_char '=' init with
          | [ "i32"; v ] -> Ok (RA_buf (words, `I32 (int_of_string v)))
          | [ "f32"; x ] -> Ok (RA_buf (words, `F32 (float_of_string x)))
          | _ -> Error (`Msg ("bad buffer initializer " ^ init)))
      | _ -> Error (`Msg ("bad --arg " ^ sp)))
  | _ -> Error (`Msg ("bad --arg " ^ sp))

let runfile_arg_conv =
  Cmdliner.Arg.conv
    ( (fun sp -> try parse_runfile_arg sp with _ -> Error (`Msg ("bad --arg " ^ sp))),
      fun fmt _ -> Format.pp_print_string fmt "<arg>" )

let parse_show sp =
  match String.split_on_char ':' sp with
  | [ i; lo; hi ] -> Ok (int_of_string i, int_of_string lo, int_of_string hi, false)
  | [ i; lo; hi; "f32" ] ->
      Ok (int_of_string i, int_of_string lo, int_of_string hi, true)
  | _ -> Error (`Msg ("bad --show " ^ sp))

let show_conv =
  Cmdliner.Arg.conv
    ( (fun sp -> try parse_show sp with _ -> Error (`Msg ("bad --show " ^ sp))),
      fun fmt _ -> Format.pp_print_string fmt "<show>" )

let do_runfile path variant global local arg_specs shows =
  let src = In_channel.with_open_text path In_channel.input_all in
  let k0 =
    try Gpu_ir.Parse.kernel_of_string_checked src with
    | Gpu_ir.Parse.Parse_error (line, msg) ->
        Printf.eprintf "%s:%d: %s\n" path line msg;
        exit 2
    | Gpu_ir.Verify.Invalid msg ->
        Printf.eprintf "%s: verification failed: %s\n" path msg;
        exit 2
  in
  let k =
    try T.apply variant ~local_items:local k0
    with Rmt_core.Intra_group.Unsupported msg ->
      Printf.eprintf "cannot apply %s: %s\n" (T.name variant) msg;
      exit 2
  in
  let dev = Gpu_sim.Device.create Gpu_sim.Config.default in
  let nd0 = Gpu_sim.Geom.make_ndrange global local in
  let nd = T.map_ndrange variant nd0 in
  let buffers = Hashtbl.create 8 in
  let args =
    List.mapi
      (fun i spec ->
        match spec with
        | RA_buf (words, init) ->
            let b = Gpu_sim.Device.alloc dev (words * 4) in
            for j = 0 to words - 1 do
              match init with
              | `Zero -> Gpu_sim.Device.write_i32 dev b j 0
              | `Index -> Gpu_sim.Device.write_i32 dev b j j
              | `Findex -> Gpu_sim.Device.write_f32 dev b j (float_of_int j)
              | `I32 v -> Gpu_sim.Device.write_i32 dev b j v
              | `F32 x -> Gpu_sim.Device.write_f32 dev b j x
            done;
            Hashtbl.replace buffers i (b, words);
            Gpu_sim.Device.A_buf b
        | RA_i32 v -> Gpu_sim.Device.A_i32 v
        | RA_f32 x -> Gpu_sim.Device.A_f32 x)
      arg_specs
  in
  let args = args @ T.extra_args variant dev ~nd:nd0 in
  let r = Gpu_sim.Device.launch dev k ~nd ~args in
  Printf.printf "%s under %s: %d cycles (%s)\n" k0.Gpu_ir.Types.kname
    (T.name variant) r.Gpu_sim.Device.cycles
    (Harness.Run.outcome_name r.Gpu_sim.Device.outcome);
  List.iter
    (fun (idx, lo, hi, as_f32) ->
      match Hashtbl.find_opt buffers idx with
      | None -> Printf.eprintf "no buffer at parameter %d\n" idx
      | Some (b, words) ->
          let hi = min hi words in
          Printf.printf "param %d [%d..%d):" idx lo hi;
          for i = lo to hi - 1 do
            if as_f32 then Printf.printf " %g" (Gpu_sim.Device.read_f32 dev b i)
            else Printf.printf " %d" (Gpu_sim.Device.read_i32 dev b i)
          done;
          print_newline ())
    shows

(* ---------------- exp ---------------- *)

let do_exp name quick jobs =
  let ctx = Harness.Experiments.create_ctx ~quick ?jobs () in
  let table =
    [
      ("table1", fun () -> Harness.Experiments.table1 ());
      ("table2", fun () -> Harness.Experiments.table2 ());
      ("table3", fun () -> Harness.Experiments.table3 ());
      ("fig2", fun () -> Harness.Experiments.fig2 ctx);
      ("fig3", fun () -> Harness.Experiments.fig3 ctx);
      ("fig4", fun () -> Harness.Experiments.fig4 ctx);
      ("fig5", fun () -> Harness.Experiments.fig5 ctx);
      ("fig6", fun () -> Harness.Experiments.fig6 ctx);
      ("fig7", fun () -> Harness.Experiments.fig7 ctx);
      ("fig8", fun () -> Harness.Experiments.fig8 ());
      ("fig9", fun () -> Harness.Experiments.fig9 ctx);
      ("coverage", fun () -> Harness.Experiments.coverage ctx);
      ("opt", fun () -> Harness.Experiments.opt_ablation ctx);
      ("tmr", fun () -> Harness.Experiments.tmr ctx);
      ("wavesize", fun () -> Harness.Experiments.wavesize ctx);
      ("naive", fun () -> Harness.Experiments.naive ctx);
      ("schedpolicy", fun () -> Harness.Experiments.schedpolicy ctx);
      ("occupancy", fun () -> Harness.Experiments.occupancy ctx);
      ("pool", fun () -> Harness.Experiments.pool ctx);
      ("devscale", fun () -> Harness.Experiments.devscale ctx);
      ("table2static", fun () -> Harness.Experiments.table2static ());
      ("coststatic", fun () -> Harness.Experiments.coststatic ctx);
      ("explain", fun () -> Harness.Experiments.explain ctx);
      ("compare", fun () -> Harness.Experiments.paper_compare ctx);
      ("export", fun () -> Harness.Experiments.export ctx);
      ("all", fun () -> Harness.Experiments.all ctx);
    ]
  in
  match List.assoc_opt name table with
  | Some f ->
      let text = f () in
      (* Pool observability goes to stderr: report text on stdout must stay
         byte-identical at any -j. *)
      if Harness.Experiments.jobs ctx > 1 then
        Printf.eprintf "pool: %s\n%!" (Harness.Experiments.pool_stats_line ctx);
      Harness.Experiments.shutdown ctx;
      print_string text;
      `Ok ()
  | None ->
      `Error
        ( true,
          "unknown experiment (table1-3, fig2-9, coverage, occupancy, \
           explain, opt, tmr, wavesize, naive, schedpolicy, pool, devscale, \
           table2static, coststatic, compare, export, all)" )

(* ---------------- cmdliner wiring ---------------- *)

open Cmdliner

(* -v enables the simulator's scheduler-event log (gpu.device source) *)
let setup_logs verbose =
  Logs.set_reporter (Logs.format_reporter ());
  Logs.set_level (Some (if verbose then Logs.Debug else Logs.Warning))

let verbose_flag =
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Trace scheduler events")

let bench_arg = Arg.(required & pos 0 (some bench_conv) None & info [] ~docv:"BENCH")

let variant_arg ~pos:p =
  Arg.(value & pos p variant_conv T.Original & info [] ~docv:"VARIANT")

let list_cmd =
  Cmd.v (Cmd.info "list" ~doc:"List the benchmark kernels")
    Term.(const do_list $ const ())

let dump_cmd =
  let alloc =
    Arg.(value & flag & info [ "alloc" ] ~doc:"Annotate with physical registers")
  in
  let optimize =
    Arg.(value & flag & info [ "O" ] ~doc:"Run the optimizer pipeline first")
  in
  let dump b v alloc optimize = do_dump b v ~alloc ~optimize in
  Cmd.v (Cmd.info "dump" ~doc:"Print a (transformed) kernel's IR")
    Term.(const dump $ bench_arg $ variant_arg ~pos:1 $ alloc $ optimize)

(* Every size and count option (--scale, -n, -j, --local, --global, --top,
   --width, --max-exp): below 1 is a usage error, which cmdliner reports
   naming the option. A size-0 problem or work-group has no work items,
   and a count of 0 would print nothing or mean "all". *)
let at_least_1 =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= 1 -> Ok n
    | _ -> Error (`Msg (Printf.sprintf "expected at least 1, got %S" s))
  in
  Arg.conv (parse, Format.pp_print_int)

let jobs_opt =
  Arg.(
    value
    & opt (some at_least_1) None
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Worker domains for independent simulations (at least 1; default: \
           $(b,RMTGPU_JOBS), else the machine's recommended domain count; \
           1 = sequential). Output is byte-identical at any $(docv).")

(* Problem-size multiplier of the simulating subcommands. *)
let scale =
  Arg.(
    value & opt at_least_1 1
    & info [ "scale" ] ~docv:"N" ~doc:"Problem-size multiplier (at least 1)")

let run_cmd =
  let run verbose b v s =
    setup_logs verbose;
    do_run b v s
  in
  Cmd.v (Cmd.info "run" ~doc:"Simulate a benchmark under an RMT variant")
    Term.(const run $ verbose_flag $ bench_arg $ variant_arg ~pos:1 $ scale)

let trace_cmd =
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:
            "Chrome-trace JSON output path (default: \
             $(b,trace_<bench>_<variant>.json))")
  in
  let width =
    Arg.(
      value & opt at_least_1 64
      & info [ "width" ] ~docv:"COLS"
          ~doc:"Columns of the ASCII per-CU utilization timeline (at least 1)")
  in
  let trace verbose b v s o w =
    setup_logs verbose;
    do_trace b v s o w
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Simulate with scheduler events recorded; write a Chrome-trace \
          (Perfetto) JSON and print an ASCII per-CU timeline")
    Term.(
      const trace $ verbose_flag $ bench_arg $ variant_arg ~pos:1 $ scale $ out
      $ width)

let inject_cmd =
  let variant =
    Arg.(required & pos 1 (some variant_conv) None & info [] ~docv:"VARIANT")
  in
  let target =
    Arg.(required & pos 2 (some target_conv) None & info [] ~docv:"TARGET")
  in
  let n =
    Arg.(
      value & opt at_least_1 24
      & info [ "n" ] ~docv:"N" ~doc:"Number of injections (at least 1)")
  in
  let show_prov =
    Arg.(
      value & flag
      & info [ "prov" ]
          ~doc:"Print each injection's propagation provenance (flip site, \
                first consuming instruction, flip-to-detect distance)")
  in
  let sanitize =
    Arg.(
      value & flag
      & info [ "sanitize" ]
          ~doc:"Attach the dynamic sanitizer to every injected run and \
                report how many came back with shadow findings (a corrupted \
                address can surface as an out-of-bounds access)")
  in
  Cmd.v
    (Cmd.info "inject"
       ~doc:"Run a fault-injection campaign with propagation provenance")
    Term.(
      const do_inject $ bench_arg $ variant $ target $ n $ jobs_opt $ show_prov
      $ sanitize)

let profile_cmd =
  let optimize =
    Arg.(value & flag & info [ "O" ] ~doc:"Run the optimizer pipeline first")
  in
  let json_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE" ~doc:"Also write the profile as JSON")
  in
  let top =
    Arg.(
      value & opt at_least_1 8
      & info [ "top" ] ~docv:"N" ~doc:"Rows in the hot-spot table (at least 1)")
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Per-instruction profile of a benchmark: annotated IR listing with \
          per-line cycle share, stall breakdown and cache behaviour, plus a \
          hot-spot table")
    Term.(
      const do_profile $ bench_arg $ variant_arg ~pos:1 $ scale $ optimize
      $ json_out $ top)

let check_cmd =
  let subject =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"BENCH|FILE.rgk"
          ~doc:"Registry benchmark id, or path to an .rgk kernel file")
  in
  let target =
    Arg.(
      value
      & pos 1 (some check_target_conv) None
      & info [] ~docv:"TARGET"
          ~doc:
            "Check a single target (baseline, intra+lds, intra-lds, inter, \
             tmr); default: all five")
  in
  let scale =
    Arg.(
      value
      & opt (some at_least_1) None
      & info [ "scale" ] ~docv:"N"
          ~doc:"Problem-size multiplier of a registry benchmark (at least 1; \
                default 1)")
  in
  let local =
    Arg.(
      value
      & opt (some at_least_1) None
      & info [ "local" ] ~docv:"N"
          ~doc:"Work-group size assumed when checking an .rgk file (at least \
                1; default 64)")
  in
  let json_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE" ~doc:"Also write the report as JSON")
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Verify the RMT sphere-of-replication contract statically and run \
          the benchmark under the dynamic sanitizer (races, uninitialized \
          reads, out-of-bounds); exit 1 on findings. A path to an .rgk \
          kernel file gets the static contract check per target")
    Term.(const do_check $ subject $ target $ scale $ local $ json_out)

let lint_cmd =
  let subject =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"BENCH|FILE.rgk"
          ~doc:"Registry benchmark id, or path to an .rgk kernel file")
  in
  let target =
    Arg.(
      value
      & pos 1 (some lint_target_conv) None
      & info [] ~docv:"TARGET"
          ~doc:
            "Lint a single target (intra+lds, intra-lds, intra+fast, inter, \
             tmr); default: all five")
  in
  let local =
    Arg.(
      value & opt at_least_1 Gpu_tv.Simrel.default_local_items
      & info [ "local" ] ~docv:"N"
          ~doc:
            "Flat work-group size of the validator's synthetic launch (small \
             by design: every fault experiment re-executes the whole kernel)")
  in
  let max_exp =
    Arg.(
      value & opt at_least_1 Harness.Lint.default_max_experiments
      & info [ "max-exp" ] ~docv:"N"
          ~doc:
            "Fault-injection experiments sampled per target (at least 1; \
             $(b,--full) runs them all)")
  in
  let full =
    Arg.(
      value & flag
      & info [ "full" ]
          ~doc:"Run every enumerable fault-injection experiment (no sampling)")
  in
  let json_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE" ~doc:"Also write the report as JSON")
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Translation-validate the RMT transforms: check the simulation \
          relation between original and transformed kernel under fault \
          injection, derive the static protection-domain matrix and the \
          cost prediction; exit 1 on findings")
    Term.(
      const do_lint $ subject $ target $ local $ max_exp $ full $ json_out)

let perfdiff_cmd =
  let old_path =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"OLD.json")
  in
  let new_path =
    Arg.(required & pos 1 (some file) None & info [] ~docv:"NEW.json")
  in
  let counter_tol =
    Arg.(
      value
      & opt float Harness.Perfdiff.default_counter_rel
      & info [ "counter-tol" ] ~docv:"FRAC"
          ~doc:
            "Flag a simulated cost counter when it grew by more than this \
             fraction (counters are deterministic; keep this tight)")
  in
  Cmd.v
    (Cmd.info "perfdiff"
       ~doc:
         "Diff the simulated cost counters of two BENCH_<rev>.json perf \
          trajectories and gate on regressions (exit 1 when a counter \
          grew beyond the tolerance)")
    Term.(const do_perfdiff $ old_path $ new_path $ counter_tol)

let exp_cmd =
  let exp_name =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"EXP")
  in
  let quick =
    Arg.(value & flag & info [ "quick" ] ~doc:"Reduced fault campaigns")
  in
  Cmd.v
    (Cmd.info "exp" ~doc:"Regenerate a table or figure of the paper")
    Term.(ret (const do_exp $ exp_name $ quick $ jobs_opt))

let runfile_cmd =
  let path = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  let variant =
    Arg.(value & opt variant_conv T.Original & info [ "variant" ] ~docv:"VARIANT")
  in
  let global =
    Arg.(required & opt (some at_least_1) None & info [ "global" ] ~docv:"N")
  in
  let local =
    Arg.(required & opt (some at_least_1) None & info [ "local" ] ~docv:"N")
  in
  let args =
    Arg.(
      value
      & opt_all runfile_arg_conv []
      & info [ "arg" ] ~docv:"SPEC"
          ~doc:
            "Declare the next kernel parameter, in parameter order. \
             $(b,buf:WORDS[:INIT]) allocates a global buffer of WORDS 32-bit \
             words, initialised by INIT: $(b,zero) (the default), \
             $(b,index) (word i holds i), $(b,findex) (word i holds the f32 \
             value i), $(b,i32=V) or $(b,f32=X) (every word holds V or X). \
             $(b,i32:V) and $(b,f32:X) pass a scalar. Repeatable.")
  in
  let shows =
    Arg.(
      value
      & opt_all show_conv []
      & info [ "show" ] ~docv:"IDX:LO:HI[:f32]"
          ~doc:
            "After the run, print words LO..HI-1 of the buffer passed as \
             parameter IDX, as integers or, with $(b,:f32), as floats. \
             Repeatable.")
  in
  Cmd.v
    (Cmd.info "runfile" ~doc:"Run a kernel written in the IR text format")
    Term.(const do_runfile $ path $ variant $ global $ local $ args $ shows)

let () =
  let info =
    Cmd.info "rmtgpu" ~version:"1.0.0"
      ~doc:"Compiler-managed GPU redundant multithreading (ISCA 2014) reproduction"
  in
  let code =
    Cmd.eval
      (Cmd.group info
         [ list_cmd; dump_cmd; run_cmd; trace_cmd; profile_cmd; inject_cmd;
           check_cmd; lint_cmd; perfdiff_cmd; exp_cmd; runfile_cmd ])
  in
  (* Uniform usage-error code: cmdliner reports unknown subcommands and bad
     arguments (with usage) as 124/125; fold both onto the conventional 2
     so scripts see one code for every malformed invocation. *)
  exit
    (if code = Cmd.Exit.cli_error || code = Cmd.Exit.internal_error then 2
     else code)
