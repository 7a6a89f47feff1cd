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
     exp     <name>...           regenerate tables, figures and studies
                                 (table1..fig9, coverage, the extensions,
                                 export, all); --metrics writes the
                                 BENCH_<rev>.json trajectory

   Exit codes are uniform: 0 success, 1 findings/regressions in otherwise
   valid invocations, 2 usage errors (unknown subcommand, argument or
   input file problems; usage is printed to stderr). *)

module T = Rmt_core.Transform
module Campaign = Harness.Campaign

(* The kernel versions of the simulating subcommands (run, dump, trace,
   profile, inject, runfile), by their command-line spelling. *)
let variants =
  [
    ("original", T.Original);
    ("intra+lds", T.intra_plus_lds);
    ("intra-lds", T.intra_minus_lds);
    ("intra+lds-fast", T.intra_plus_lds_fast);
    ("intra-lds-fast", T.intra_minus_lds_fast);
    ("inter", T.inter_group);
  ]

(* One converter for every kernel-version argument: [table] maps each
   accepted spelling (matched case-insensitively) to its variant. The
   value is the (spelling, variant) pair, since check and lint print the
   spelling as the report label. *)
let variant_conv ~what table =
  let parse s =
    let label = String.lowercase_ascii s in
    match List.assoc_opt label table with
    | Some v -> Ok (label, v)
    | None ->
        Error
          (`Msg
            (Printf.sprintf "unknown %s %s (one of: %s)" what s
               (String.concat ", " (List.map fst table))))
  in
  let print fmt (label, _) = Format.pp_print_string fmt label in
  Cmdliner.Arg.conv (parse, print)

let find_bench s =
  List.find_opt
    (fun (b : Kernels.Bench.t) ->
      String.lowercase_ascii b.id = String.lowercase_ascii s)
    Kernels.Registry.all

let bench_ids () =
  String.concat ", "
    (List.map (fun (b : Kernels.Bench.t) -> b.id) Kernels.Registry.all)

let bench_conv =
  let parse s =
    match find_bench s with
    | Some b -> Ok b
    | None ->
        Error
          (`Msg (Printf.sprintf "unknown benchmark %s (one of: %s)" s (bench_ids ())))
  in
  let print fmt (b : Kernels.Bench.t) = Format.pp_print_string fmt b.id in
  Cmdliner.Arg.conv (parse, print)

(* Read, parse and verify an .rgk kernel file; any failure is a usage
   error naming the file. *)
let load_rgk path =
  let src =
    try In_channel.with_open_text path In_channel.input_all
    with Sys_error msg ->
      Printf.eprintf "%s\n" msg;
      exit 2
  in
  try Gpu_ir.Parse.kernel_of_string_checked src with
  | Gpu_ir.Parse.Parse_error (line, msg) ->
      Printf.eprintf "%s:%d: %s\n" path line msg;
      exit 2
  | Gpu_ir.Verify.Invalid msg ->
      Printf.eprintf "%s: verification failed: %s\n" path msg;
      exit 2

(* The subject of check and lint: a path to an .rgk kernel file
   (anything ending in .rgk or naming an existing file) or a registry
   benchmark id. An unknown name is a usage error. *)
let resolve_subject ~cmd subject =
  if Filename.check_suffix subject ".rgk" || Sys.file_exists subject then
    `File (Filename.basename subject, load_rgk subject)
  else
    match find_bench subject with
    | Some b -> `Bench b
    | None ->
        Printf.eprintf
          "unknown %s subject %s (a benchmark id among: %s — or a path to an \
           .rgk kernel file)\n"
          cmd subject (bench_ids ());
        exit 2

(* Print a findings report, write its JSON when asked, and exit 1 unless
   the report is clean. *)
let emit_report ~cmd ~text ~json ~clean json_out =
  print_string text;
  (match json_out with
  | Some path ->
      Out_channel.with_open_text path (fun oc ->
          output_string oc (Gpu_trace.Json.to_string (json ()));
          output_char oc '\n');
      Printf.printf "%s JSON -> %s\n" cmd path
  | None -> ());
  if not clean then exit 1

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

(* [--scale] sizes only a benchmark and [--local] only a file, so passing
   either to the other kind of subject is a usage error rather than
   silently ignored. Files get the static contract check only (no
   argument harness to run them under the sanitizer). *)
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
    match resolve_subject ~cmd:"check" subject with
    | `File (name, k0) ->
        if scale <> None then
          misapplied "--scale" "an .rgk file (it has no problem size)";
        Harness.Check.check_kernel
          ~local_items:(Option.value local ~default:64)
          ~targets ~name k0
    | `Bench _ when local <> None ->
        misapplied "--local" "a registry benchmark (its work-group size is fixed)"
    | `Bench b ->
        Harness.Check.check_bench ~scale:(Option.value scale ~default:1)
          ~targets b
  in
  emit_report ~cmd:"check"
    ~text:(Harness.Check.to_string report)
    ~json:(fun () -> Harness.Check.to_json report)
    ~clean:(Harness.Check.clean report) json_out

(* ---------------- lint ---------------- *)

(* Both kinds of subject get the full translation validation: the
   validator brings its own synthetic launch, so no host harness is
   needed. *)
let do_lint subject target local max_exp full json_out =
  let targets =
    match target with Some t -> [ t ] | None -> Harness.Lint.standard_targets
  in
  let max_experiments = if full then max_int else max_exp in
  let report =
    match resolve_subject ~cmd:"lint" subject with
    | `File (name, k0) ->
        Harness.Lint.lint_kernel ~local_items:local ~max_experiments ~targets
          ~name k0
    | `Bench b ->
        Harness.Lint.lint_bench ~local_items:local ~max_experiments ~targets b
  in
  emit_report ~cmd:"lint"
    ~text:(Harness.Lint.to_string report)
    ~json:(fun () -> Harness.Lint.to_json report)
    ~clean:(Harness.Lint.clean report) json_out

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
  let runs =
    Harness.Experiments.campaign ~sanitize ctx ~n ~target ~seed:97 b variant
  in
  let t = Campaign.tally runs in
  Printf.printf "%s under %s: %s%s\n" b.id (T.name variant)
    (Campaign.tally_to_string t)
    (if Campaign.covered t then "  [covered]" else "");
  if sanitize then
    Printf.printf "  sanitizer: %d/%d injected runs with shadow findings\n"
      (Campaign.sanitizer_dirty runs) (List.length runs);
  let psum = Campaign.provenance_summary runs in
  if psum <> "" then print_string psum;
  if show_prov then
    List.iteri
      (fun i (s : Harness.Run.summary) ->
        match s.provenance with
        | Some p when Gpu_prof.Provenance.applied p ->
            Printf.printf "  #%02d %s\n" i (Gpu_prof.Provenance.to_string p)
        | _ -> ())
      runs

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
  | "buf" :: words :: _ when int_of_string words < 1 ->
      Error (`Msg ("buf:" ^ words ^ ": WORDS must be at least 1"))
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

(* Bad input is a usage error naming the option, checked before
   anything is simulated; a launch that does not finish exits 1. *)
let do_runfile path variant global local arg_specs shows =
  let usage fmt =
    Printf.ksprintf
      (fun msg ->
        Printf.eprintf "rmtgpu runfile: %s\n" msg;
        exit 2)
      fmt
  in
  if global mod local <> 0 then
    usage "option '--global': %d is not a multiple of --local %d" global local;
  let cfg = Gpu_sim.Config.default in
  let nd0 = Gpu_sim.Geom.make_ndrange global local in
  let nd = T.map_ndrange variant nd0 in
  let items = Gpu_sim.Geom.group_items nd in
  if items > cfg.max_workgroup_size then
    usage "option '--local': %d work-items per group under %s exceed the \
           device maximum of %d" items (T.name variant) cfg.max_workgroup_size;
  let k0 = load_rgk path in
  let nparams = Gpu_ir.Types.param_count k0 in
  if List.length arg_specs <> nparams then
    usage "option '--arg': kernel %s takes %d parameters, got %d"
      k0.Gpu_ir.Types.kname nparams (List.length arg_specs);
  List.iter
    (fun (idx, lo, hi, _) ->
      if lo < 0 || lo > hi then
        usage "option '--show': range %d..%d needs 0 <= LO <= HI" lo hi;
      match List.nth_opt arg_specs idx with
      | Some (RA_buf (words, _)) ->
          if lo >= words then
            usage "option '--show': LO %d is not below the %d words of \
                   parameter %d" lo words idx
      | _ -> usage "option '--show': no buffer at parameter %d" idx)
    shows;
  List.iteri
    (fun i (param, spec) ->
      match (param, spec) with
      | Gpu_ir.Types.Param_buffer _, RA_buf _
      | Gpu_ir.Types.Param_scalar _, (RA_i32 _ | RA_f32 _) -> ()
      | Gpu_ir.Types.Param_buffer name, _ ->
          usage "option '--arg': parameter %d (%s) is a buffer (buf:WORDS)" i
            name
      | Gpu_ir.Types.Param_scalar name, _ ->
          usage "option '--arg': parameter %d (%s) is a scalar (i32:V or f32:X)"
            i name)
    (List.combine k0.Gpu_ir.Types.params arg_specs);
  let k =
    try T.apply variant ~local_items:local k0
    with T.Unsupported msg ->
      Printf.eprintf "cannot apply %s: %s\n" (T.name variant) msg;
      exit 2
  in
  let dev = Gpu_sim.Device.create cfg in
  (* the bump allocator fails only when device memory is exhausted *)
  let alloc_or_usage problem f =
    try f ()
    with Failure _ ->
      usage "option '--arg': %s (device memory is %d bytes)" problem
        cfg.memory_bytes
  in
  let buffers = Hashtbl.create 8 in
  let args =
    List.mapi
      (fun i spec ->
        match spec with
        | RA_buf (words, init) ->
            let b =
              alloc_or_usage
                (Printf.sprintf "buffer parameter %d (%d words) does not fit"
                   i words)
                (fun () -> Gpu_sim.Device.alloc dev (words * 4))
            in
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
  let extras =
    alloc_or_usage
      (Printf.sprintf "the buffers leave no room for the extra buffers of %s"
         (T.name variant))
      (fun () -> T.make_extras variant dev ~nd:nd0)
  in
  let args = args @ extras.ex_args in
  let r = Gpu_sim.Device.launch dev k ~nd ~args in
  Printf.printf "%s under %s: %d cycles (%s)\n" k0.Gpu_ir.Types.kname
    (T.name variant) r.Gpu_sim.Device.cycles
    (Harness.Run.outcome_name r.Gpu_sim.Device.outcome);
  List.iter
    (fun (idx, lo, hi, as_f32) ->
      let b, words = Hashtbl.find buffers idx in
      let hi = min hi words in
      Printf.printf "param %d [%d..%d):" idx lo hi;
      for i = lo to hi - 1 do
        if as_f32 then Printf.printf " %g" (Gpu_sim.Device.read_f32 dev b i)
        else Printf.printf " %d" (Gpu_sim.Device.read_i32 dev b i)
      done;
      print_newline ())
    shows;
  if r.Gpu_sim.Device.outcome <> Gpu_sim.Device.Finished then exit 1

(* ---------------- exp ---------------- *)

module E = Harness.Experiments

let do_exp names quick jobs metrics =
  let table = E.registry @ [ ("all", E.all) ] in
  match List.find_opt (fun n -> not (List.mem_assoc n table)) names with
  | Some n ->
      `Error
        ( true,
          Printf.sprintf "unknown experiment %s (one of: %s)" n
            (String.concat ", " (List.map fst table)) )
  | None ->
      let ctx = E.create_ctx ~quick ?jobs () in
      List.iter
        (fun n ->
          print_string (List.assoc n table ctx);
          flush stdout)
        names;
      Option.iter
        (fun path ->
          Harness.Metrics.write_file path
            (Harness.Metrics.bench_json ~rev:(Harness.Metrics.rev ())
               ~jobs:(E.jobs ctx) ~runs:(E.cached_summaries ctx)
               ~pool:(E.pool_stats ctx));
          Printf.eprintf "metrics -> %s\n%!" path)
        metrics;
      (* Pool observability goes to stderr: report text on stdout must stay
         byte-identical at any -j. *)
      if E.jobs ctx > 1 then
        Printf.eprintf "pool: %s\n%!" (E.pool_stats_line ctx);
      `Ok ()

(* ---------------- cmdliner wiring ---------------- *)

open Cmdliner

let bench_arg = Arg.(required & pos 0 (some bench_conv) None & info [] ~docv:"BENCH")

(* The kernel-version argument of the simulating subcommands; they need
   only the variant, not its spelling. *)
let variant_of_cli = variant_conv ~what:"variant" variants

let variant_arg ~pos:p =
  Term.(
    const snd
    $ Arg.(
        value & pos p variant_of_cli ("original", T.Original)
        & info [] ~docv:"VARIANT"))

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

(* Every output-file option (trace -o, profile/check/lint --json, exp
   --metrics): a FILE that is a directory or whose directory does not
   exist is a usage error naming the option, found before anything is
   simulated rather than when the report is written. *)
let out_file =
  let parse s =
    let d = Filename.dirname s in
    if not (Sys.file_exists d && Sys.is_directory d) then
      Error (`Msg (Printf.sprintf "no directory %s" d))
    else if Sys.file_exists s && Sys.is_directory s then
      Error (`Msg (Printf.sprintf "%s is a directory" s))
    else Ok s
  in
  Arg.conv (parse, Format.pp_print_string)

(* RMTGPU_JOBS goes through the same converter as -j, so a bad value is a
   usage error naming the variable. *)
let jobs_opt =
  Arg.(
    value
    & opt (some at_least_1) None
    & info [ "j"; "jobs" ] ~docv:"N"
        ~env:(Cmd.Env.info "RMTGPU_JOBS")
        ~doc:
          "Workers for independent simulations: the calling domain plus \
           $(docv)-1 helper domains (at least 1; default: the machine's \
           recommended domain count; 1 = sequential). Output is \
           byte-identical at any $(docv).")

(* Problem-size multiplier of the simulating subcommands. *)
let scale =
  Arg.(
    value & opt at_least_1 1
    & info [ "scale" ] ~docv:"N" ~doc:"Problem-size multiplier (at least 1)")

let run_cmd =
  Cmd.v (Cmd.info "run" ~doc:"Simulate a benchmark under an RMT variant")
    Term.(const do_run $ bench_arg $ variant_arg ~pos:1 $ scale)

let trace_cmd =
  let out =
    Arg.(
      value
      & opt (some out_file) None
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
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Simulate with scheduler events recorded; write a Chrome-trace \
          (Perfetto) JSON and print an ASCII per-CU timeline")
    Term.(
      const do_trace $ bench_arg $ variant_arg ~pos:1 $ scale $ out $ width)

let inject_cmd =
  let variant =
    Term.(
      const snd
      $ Arg.(required & pos 1 (some variant_of_cli) None & info [] ~docv:"VARIANT"))
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
      & opt (some out_file) None
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
      & pos 1
          (some
             (variant_conv ~what:"check target" Harness.Check.standard_targets))
          None
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
      & opt (some out_file) None
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
      & pos 1
          (some (variant_conv ~what:"lint target" Harness.Lint.standard_targets))
          None
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
      & opt (some out_file) None
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
  let names =
    Arg.(non_empty & pos_all string [] & info [] ~docv:"EXP")
  in
  let quick =
    Arg.(value & flag & info [ "quick" ] ~doc:"Reduced fault campaigns")
  in
  let metrics =
    Arg.(
      value
      & opt (some out_file) None
      & info [ "metrics" ] ~docv:"FILE"
          ~doc:
            "Also write the BENCH perf-trajectory JSON (every completed \
             run's counters and the pool statistics) for $(b,perfdiff)")
  in
  Cmd.v
    (Cmd.info "exp"
       ~doc:
         "Regenerate tables, figures and extension studies, in the order \
          given; $(b,all) runs every one but $(b,export)")
    Term.(ret (const do_exp $ names $ quick $ jobs_opt $ metrics))

let runfile_cmd =
  let path = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  let variant =
    Term.(
      const snd
      $ Arg.(
          value
          & opt variant_of_cli ("original", T.Original)
          & info [ "variant" ] ~docv:"VARIANT"))
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
