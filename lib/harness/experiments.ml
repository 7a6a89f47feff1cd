(** The paper's evaluation, experiment by experiment: one function per
    table and figure, each returning the regenerated content as text.

    Results are cached per complete run fingerprint — (benchmark,
    variant, scale, usage override, device config, optimizer) — within
    a context, so that figures and studies sharing runs (2/3/4, 6/7, the
    wave=64 and Greedy columns) do not re-simulate.
    Runs execute on the context's {!Pool} of worker domains: each figure
    first {e plans} its whole grid (submitting every run it will need),
    then renders its report by awaiting the cached futures in a fixed
    order, so the report text is byte-for-byte identical at any [-j].
    Progress goes to stderr (and may interleave under [-j]); the report
    text is the return value. *)

module T = Rmt_core.Transform
module Counters = Gpu_sim.Counters

(* The cache key is a complete fingerprint of every run-affecting
   parameter [get] can pass to [Run.run]. Display tags are deliberately
   excluded: two runs that differ only in tag are the same run, and two
   runs that differ in any simulated parameter can never collide, no
   matter what tags callers pass (a fig5 run, whose config has a shorter
   power window, never shadows a fig2 run of the same bench/variant). *)
type run_key = {
  k_bench : string;
  k_variant : string;  (* T.name is injective over variants *)
  k_scale : int;
  k_usage : (int * int * int) option;  (* vgprs, sgprs, lds override *)
  k_cfg : string;  (* digest of the run's device configuration *)
  k_optimize : bool;
}

let cfg_fingerprint (cfg : Gpu_sim.Config.t) =
  Digest.to_hex (Digest.string (Marshal.to_string cfg []))

type ctx = {
  cfg : Gpu_sim.Config.t;
  cfg_fp : string;
  cache : (run_key, Run.summary Pool.future) Hashtbl.t;
  cache_lock : Mutex.t;
  nds : (string, Gpu_sim.Geom.ndrange) Hashtbl.t;
      (** each benchmark's first NDRange, by id; under [cache_lock] *)
  pool : Pool.t;
  quick : bool;  (** fewer fault injections, for CI *)
}

let create_ctx ?(cfg = Gpu_sim.Config.default) ?(quick = false) ?jobs () =
  {
    cfg;
    cfg_fp = cfg_fingerprint cfg;
    cache = Hashtbl.create 64;
    cache_lock = Mutex.create ();
    nds = Hashtbl.create 16;
    pool = Pool.create ?jobs ();
    quick;
  }

let jobs ctx = Pool.jobs ctx.pool

let progress fmt = Printf.eprintf (fmt ^^ "\n%!")

let run_key ~cfg ~scale ~usage_override ~optimize
    (bench : Kernels.Bench.t) variant =
  {
    k_bench = bench.id;
    k_variant = T.name variant;
    k_scale = scale;
    k_usage =
      Option.map
        (fun (u : Gpu_ir.Regpressure.usage) -> (u.vgprs, u.sgprs, u.lds))
        usage_override;
    k_cfg = cfg_fingerprint cfg;
    k_optimize = optimize;
  }

(* Look up the future for a run, submitting it to the pool on a miss.
   The cache is mutex-guarded; the submitted task touches neither the
   cache nor its lock (workers never submit work), so this cannot
   deadlock even when [jobs = 1] runs the task inline. *)
let find_or_submit ctx ?(tag = "") ?(cfg = ctx.cfg) ?(scale = 1)
    ?usage_override ?(optimize = false) (bench : Kernels.Bench.t) variant :
    Run.summary Pool.future =
  let key = run_key ~cfg ~scale ~usage_override ~optimize bench variant in
  Mutex.lock ctx.cache_lock;
  match Hashtbl.find_opt ctx.cache key with
  | Some fut ->
      Mutex.unlock ctx.cache_lock;
      fut
  | None ->
      let tag = if tag = "" then "" else " [" ^ tag ^ "]" in
      progress "  running %-8s %s%s" bench.id (T.name variant) tag;
      let fut =
        Pool.submit ctx.pool (fun () ->
            let s = Run.run ~cfg ~scale ~optimize ?usage_override bench variant in
            (if not s.verified then
               progress "  WARNING: %s %s%s failed verification (%s)" bench.id
                 (T.name variant) tag
                 (Run.outcome_name s.outcome));
            s)
      in
      Hashtbl.add ctx.cache key fut;
      Mutex.unlock ctx.cache_lock;
      fut

let get ctx ?tag ?cfg ?scale ?usage_override ?optimize
    (bench : Kernels.Bench.t) variant : Run.summary =
  Pool.await
    (find_or_submit ctx ?tag ?cfg ?scale ?usage_override ?optimize bench
       variant)

let prefetch ctx ?tag ?cfg ?scale ?usage_override ?optimize
    (bench : Kernels.Bench.t) variant : unit =
  ignore
    (find_or_submit ctx ?tag ?cfg ?scale ?usage_override ?optimize bench
       variant)

(* ---- observability hooks for the metrics-export layer ---- *)

let pool_stats ctx = Pool.stats ctx.pool
let pool_stats_line ctx = Pool.stats_line ctx.pool

(* Runs on the context's own config without the optimizer keep the
   labels of the committed perfdiff baseline; every other run names its
   config digest and the optimizer, so labels stay distinct. *)
let key_label ctx (k : run_key) =
  String.concat "/"
    ([ k.k_bench; k.k_variant ]
    @ (if k.k_scale <> 1 then [ Printf.sprintf "x%d" k.k_scale ] else [])
    @ (match k.k_usage with Some _ -> [ "inflated" ] | None -> [])
    @ (if k.k_cfg <> ctx.cfg_fp then [ "cfg-" ^ String.sub k.k_cfg 0 8 ]
       else [])
    @ if k.k_optimize then [ "opt" ] else [])

(* Completed runs currently in the cache, labelled and sorted so the
   export is deterministic. Pending or failed futures are skipped — a
   metrics drain must never block the pool or re-raise a run's error. *)
let cached_summaries ctx : (string * Run.summary) list =
  Mutex.lock ctx.cache_lock;
  let entries =
    Hashtbl.fold (fun k fut acc -> (key_label ctx k, fut) :: acc) ctx.cache []
  in
  Mutex.unlock ctx.cache_lock;
  List.filter_map
    (fun (label, fut) ->
      match Pool.peek fut with Some s -> Some (label, s) | None -> None)
    entries
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let all_benches = Kernels.Registry.all

(* ------------------------------------------------------------------ *)
(* Tables                                                              *)
(* ------------------------------------------------------------------ *)

let table1 () =
  let buf = Buffer.create 512 in
  Report.heading buf "Table 1: estimated SEC-DED ECC overheads per GCN CU";
  Buffer.add_string buf (Ecc.Overhead.render ());
  Buffer.contents buf

let table2 () =
  let buf = Buffer.create 512 in
  Report.heading buf "Table 2: CU structures protected by Intra-Group RMT";
  Buffer.add_string buf
    (Rmt_core.Sor.render_table [ Rmt_core.Sor.Intra_plus_lds; Rmt_core.Sor.Intra_minus_lds ]);
  Buffer.contents buf

let table3 () =
  let buf = Buffer.create 512 in
  Report.heading buf "Table 3: CU structures protected by Inter-Group RMT";
  Buffer.add_string buf (Rmt_core.Sor.render_table [ Rmt_core.Sor.Inter_group ]);
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Figure 2: Intra-Group slowdowns                                     *)
(* ------------------------------------------------------------------ *)

(* Submit a figure's whole (bench x variant) grid up front, so the pool
   works on every run while the report loop awaits them in order. *)
let plan ctx ?(benches = Kernels.Registry.all) variants =
  List.iter
    (fun (b : Kernels.Bench.t) ->
      List.iter (fun v -> prefetch ctx b v) variants)
    benches

let fig2 ctx =
  plan ctx [ T.Original; T.intra_plus_lds; T.intra_minus_lds ];
  let buf = Buffer.create 1024 in
  Report.heading buf
    "Figure 2: Intra-Group RMT slowdown (normalized to original kernel)";
  Report.row buf "%-8s %8s %8s  %s" "kernel" "+LDS" "-LDS" "slowdown (+LDS)";
  List.iter
    (fun (b : Kernels.Bench.t) ->
      let base = get ctx b T.Original in
      let plus = get ctx b T.intra_plus_lds in
      let minus = get ctx b T.intra_minus_lds in
      let sp = Run.slowdown ~base plus and sm = Run.slowdown ~base minus in
      Report.row buf "%-8s %7.2fx %7.2fx  %s" b.id sp sm (Report.bar sp))
    all_benches;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Figure 3: time breakdown counters                                   *)
(* ------------------------------------------------------------------ *)

let fig3 ctx =
  plan ctx [ T.Original; T.intra_plus_lds; T.intra_minus_lds ];
  let buf = Buffer.create 2048 in
  Report.heading buf
    "Figure 3: VALUBusy / MemUnitBusy / WriteUnitStalled (percent of kernel time)";
  Report.row buf "%-8s %-10s %9s %12s %16s %8s" "kernel" "version" "VALUBusy"
    "MemUnitBusy" "WriteUnitStalled" "LDSBusy";
  let n_cus = ctx.cfg.Gpu_sim.Config.n_cus in
  let simds = ctx.cfg.Gpu_sim.Config.simds_per_cu in
  List.iter
    (fun (b : Kernels.Bench.t) ->
      List.iter
        (fun (v, name) ->
          let s = get ctx b v in
          let c = s.Run.counters in
          Report.row buf "%-8s %-10s %8.1f%% %11.1f%% %15.1f%% %7.1f%%" b.id name
            (Counters.valu_busy_pct ~n_cus ~simds_per_cu:simds c)
            (Counters.mem_unit_busy_pct ~n_cus c)
            (Counters.write_unit_stalled_pct ~n_cus c)
            (Counters.lds_busy_pct ~n_cus c))
        [ (T.Original, "Original"); (T.intra_plus_lds, "LDS+"); (T.intra_minus_lds, "LDS-") ])
    all_benches;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Figures 4 and 7: component analysis                                 *)
(* ------------------------------------------------------------------ *)

(* Shared helper: run the (inflated, no-comm, full) ladder and return the
   three incremental overhead fractions relative to [base]. *)
let components ctx (b : Kernels.Bench.t) ~base ~(inflation : Gpu_ir.Regpressure.usage option)
    ~nocomm_variant ~full_variant =
  let basec = float_of_int base.Run.cycles in
  let inflated =
    match inflation with
    | Some u ->
        Some (get ctx ~tag:"inflate" ~usage_override:u b T.Original)
    | None -> None
  in
  let nocomm = get ctx b nocomm_variant in
  let full = get ctx b full_variant in
  let c0 =
    match inflated with
    | Some i -> (float_of_int i.Run.cycles -. basec) /. basec
    | None -> 0.0
  in
  let lvl1 =
    match inflated with Some i -> float_of_int i.Run.cycles | None -> basec
  in
  let c1 = (float_of_int nocomm.Run.cycles -. lvl1) /. basec in
  let c2 = (float_of_int full.Run.cycles -. float_of_int nocomm.Run.cycles) /. basec in
  (c0, c1, c2, inflated <> None)

let intra_variants include_lds =
  ( T.Intra { include_lds; comm = Rmt_core.Intra_group.Comm_none },
    T.Intra { include_lds; comm = Rmt_core.Intra_group.Comm_lds } )

(* The original work-group geometry of a benchmark's first launch. Reading
   it runs the benchmark's whole [prepare] (inputs and CPU reference), so
   it is computed at most once per context. *)
let bench_nd ctx (b : Kernels.Bench.t) =
  Mutex.protect ctx.cache_lock (fun () ->
      match Hashtbl.find_opt ctx.nds b.id with
      | Some nd -> nd
      | None ->
          let dev = Gpu_sim.Device.create ctx.cfg in
          let nd =
            (List.hd (b.prepare dev ~scale:1).Kernels.Bench.steps)
              .Kernels.Bench.nd
          in
          Hashtbl.add ctx.nds b.id nd;
          nd)

(* Resource inflations for the "2x work-groups" component: compile-time
   analyses of the original and the transformed kernels. The original's
   usage is what its run measures, since [Launch.create] analyses the
   kernel it is given, so no run needs to land first. *)
let orig_usage (b : Kernels.Bench.t) = Gpu_ir.Regpressure.analyze (b.make_kernel ())

let intra_inflation_of ctx (b : Kernels.Bench.t) ~include_lds =
  let nd = bench_nd ctx b in
  let orig_items = Gpu_sim.Geom.group_items nd in
  let _, full_v = intra_variants include_lds in
  let rmt_usage = Gpu_ir.Regpressure.analyze (Run.transformed_kernel b full_v ~nd) in
  Rmt_core.Ablation.intra_inflation ctx.cfg ~orig:(orig_usage b)
    ~orig_group_items:orig_items ~rmt_usage ~rmt_group_items:(orig_items * 2)

let inter_inflation_of ctx (b : Kernels.Bench.t) =
  let nd = bench_nd ctx b in
  let rmt_usage =
    Gpu_ir.Regpressure.analyze (Run.transformed_kernel b T.inter_group ~nd)
  in
  Rmt_core.Ablation.inter_inflation ctx.cfg ~orig:(orig_usage b)
    ~group_items:(Gpu_sim.Geom.group_items nd) ~rmt_usage

let prefetch_inflated ctx b = function
  | Some u -> prefetch ctx ~tag:"inflate" ~usage_override:u b T.Original
  | None -> ()

let fig4 ctx =
  (* plan: the component ladder and the inflated run of every bench *)
  List.iter
    (fun (b : Kernels.Bench.t) ->
      prefetch ctx b T.Original;
      List.iter
        (fun include_lds ->
          let nocomm_v, full_v = intra_variants include_lds in
          prefetch ctx b nocomm_v;
          prefetch ctx b full_v;
          prefetch_inflated ctx b (intra_inflation_of ctx b ~include_lds))
        [ true; false ])
    all_benches;
  let buf = Buffer.create 2048 in
  Report.heading buf
    "Figure 4: Intra-Group overhead components (added slowdown over original)";
  Report.row buf "%-8s %-6s %14s %14s %14s %8s" "kernel" "flavor"
    "2x work-groups" "+redundant" "+communication" "total";
  List.iter
    (fun (b : Kernels.Bench.t) ->
      let base = get ctx b T.Original in
      List.iter
        (fun include_lds ->
          let nocomm_v, full_v = intra_variants include_lds in
          let inflation = intra_inflation_of ctx b ~include_lds in
          let c0, c1, c2, _ =
            components ctx b ~base ~inflation ~nocomm_variant:nocomm_v
              ~full_variant:full_v
          in
          Report.row buf "%-8s %-6s %14s %14s %14s %7.2fx" b.id
            (if include_lds then "LDS+" else "LDS-")
            (Report.pct (100. *. c0))
            (Report.pct (100. *. c1))
            (Report.pct (100. *. c2))
            (1.0 +. c0 +. c1 +. c2))
        [ true; false ])
    all_benches;
  Buffer.contents buf

let fig7 ctx =
  (* plan: the component ladder and the inflated run of every bench *)
  List.iter
    (fun (b : Kernels.Bench.t) ->
      List.iter (prefetch ctx b)
        [ T.Original; T.Inter Rmt_core.Inter_group.No_comm; T.inter_group ];
      prefetch_inflated ctx b (inter_inflation_of ctx b))
    all_benches;
  let buf = Buffer.create 2048 in
  Report.heading buf
    "Figure 7: Inter-Group overhead components (added slowdown over original)";
  Report.row buf "%-9s %14s %14s %14s %8s" "kernel" "2x work-groups"
    "+redundant" "+communication" "total";
  List.iter
    (fun (b : Kernels.Bench.t) ->
      let base = get ctx b T.Original in
      let inflation = inter_inflation_of ctx b in
      let c0, c1, c2, starred =
        components ctx b ~base ~inflation
          ~nocomm_variant:(T.Inter Rmt_core.Inter_group.No_comm)
          ~full_variant:T.inter_group
      in
      (* as in the paper, the work-group-doubling experiment is only
         possible for a subset (starred kernels) *)
      Report.row buf "%-9s %14s %14s %14s %7.2fx"
        ((if starred then "*" else " ") ^ b.id)
        (if starred then Report.pct (100. *. c0) else "   n/a")
        (Report.pct (100. *. c1))
        (Report.pct (100. *. c2))
        (1.0 +. c0 +. c1 +. c2))
    all_benches;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Figure 5: power                                                     *)
(* ------------------------------------------------------------------ *)

(* The paper samples a 1 ms on-chip power monitor and can only use
   long-running kernels (BO, BlkSch, FW). Our inputs are scaled down, so
   the sampling window is scaled down with them; BlkSch additionally runs
   at a larger input scale to span several windows. *)
let fig5_window = 2_000
let fig5_kernels = [ ("BO", 1); ("BlkSch", 8); ("FW", 1) ]

let fig5 ctx =
  let cfg = { ctx.cfg with window_cycles = fig5_window } in
  List.iter
    (fun (id, scale) ->
      let b = Kernels.Registry.find id in
      List.iter
        (fun v -> prefetch ctx ~tag:"pw" ~cfg ~scale b v)
        [ T.Original; T.intra_plus_lds; T.intra_minus_lds ])
    fig5_kernels;
  let buf = Buffer.create 1024 in
  Report.heading buf
    "Figure 5: average (and peak) estimated power, long-running kernels";
  Report.row buf "%-8s %-10s %12s %10s" "kernel" "version" "avg power" "peak";
  List.iter
    (fun (id, scale) ->
      let b = Kernels.Registry.find id in
      List.iter
        (fun (v, name) ->
          let s = get ctx ~tag:"pw" ~cfg ~scale b v in
          let rep =
            Gpu_power.Power_model.report ~cfg:ctx.cfg ~windows:s.Run.windows
              ~fallback:s.Run.counters ()
          in
          Report.row buf "%-8s %-10s %10.1f W %8.1f W" b.id name rep.average_w
            rep.peak_w)
        [ (T.Original, "Original"); (T.intra_plus_lds, "LDS+"); (T.intra_minus_lds, "LDS-") ])
    fig5_kernels;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Figure 6: Inter-Group slowdowns                                     *)
(* ------------------------------------------------------------------ *)

let fig6 ctx =
  plan ctx [ T.Original; T.inter_group ];
  let buf = Buffer.create 1024 in
  Report.heading buf
    "Figure 6: Inter-Group RMT slowdown (normalized to original kernel)";
  Report.row buf "%-8s %8s  %s" "kernel" "Inter" "slowdown";
  List.iter
    (fun (b : Kernels.Bench.t) ->
      let base = get ctx b T.Original in
      let inter = get ctx b T.inter_group in
      let s = Run.slowdown ~base inter in
      Report.row buf "%-8s %7.2fx  %s" b.id s (Report.bar ~full:6.0 s))
    all_benches;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Figure 8: swizzle semantics                                         *)
(* ------------------------------------------------------------------ *)

let fig8 () =
  let buf = Buffer.create 512 in
  Report.heading buf
    "Figure 8: swizzle cross-lane communication (dup_odd over 8 lanes)";
  (* run a 1-wave kernel that swizzles lane ids and read the result *)
  let open Gpu_ir in
  let bld = Builder.create "swizzle_demo" in
  let out = Builder.buffer_param bld "out" in
  let lid = Builder.local_id bld 0 in
  let v = Builder.mul bld lid (Builder.imm 10) in
  let sw = Builder.swizzle bld Types.Dup_odd v in
  Builder.gstore_elem bld out lid sw;
  let k = Builder.finish bld in
  let dev = Gpu_sim.Device.create Gpu_sim.Config.small in
  let buf_out = Gpu_sim.Device.alloc dev (64 * 4) in
  let _r =
    Gpu_sim.Device.launch dev k
      ~nd:(Gpu_sim.Geom.make_ndrange 64 64)
      ~args:[ Gpu_sim.Device.A_buf buf_out ]
  in
  Report.row buf "lane values v = 10*lane; after swizzle.dup_odd:";
  Report.row buf "%s"
    (String.concat " "
       (List.init 8 (fun i ->
            Printf.sprintf "t%d=%d" i (Gpu_sim.Device.read_i32 dev buf_out i))));
  Report.row buf
    "(odd lanes' values are visible to their even partners, enabling";
  Report.row buf
    " producer/consumer exchange through the VRF without LDS)";
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Figure 9: FAST register-level communication                         *)
(* ------------------------------------------------------------------ *)

let fig9 ctx =
  plan ctx
    [
      T.Original; T.intra_plus_lds; T.intra_plus_lds_fast; T.intra_minus_lds;
      T.intra_minus_lds_fast;
    ];
  let buf = Buffer.create 1024 in
  Report.heading buf
    "Figure 9: Intra-Group RMT with FAST (VRF swizzle) communication";
  Report.row buf "%-8s %8s %8s %8s %8s" "kernel" "+LDS" "+LDS FAST" "-LDS"
    "-LDS FAST";
  List.iter
    (fun (b : Kernels.Bench.t) ->
      let base = get ctx b T.Original in
      let s v = Run.slowdown ~base (get ctx b v) in
      Report.row buf "%-8s %7.2fx %7.2fx %7.2fx %7.2fx" b.id
        (s T.intra_plus_lds) (s T.intra_plus_lds_fast) (s T.intra_minus_lds)
        (s T.intra_minus_lds_fast))
    all_benches;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Coverage campaigns (extension: empirical Tables 2/3)                *)
(* ------------------------------------------------------------------ *)

let coverage_benches = [ "R"; "BlkSch" ]
let coverage_seed = 1234

(* A fault campaign: [n] injected runs of [bench] under [variant], placed
   by [Campaign.plans] over the cached golden run. [Run.run_plans]
   simulates the fault-free run once more, forking one child per plan at
   its cycle; the children skip the cache (each is distinct) and run on
   the context's pool, and a child whose flip dies unread returns the
   golden summary. Each returns its own provenance record and, when
   sanitized, its own findings, so nothing is shared between runs on
   parallel domains. *)
let campaign ?(sanitize = false) ctx ~n ~target ~seed (bench : Kernels.Bench.t)
    variant : Run.summary list =
  let golden = get ctx bench variant in
  (* a corrupted spin flag or loop bound can hang an injected run; bound
     it to a small multiple of the fault-free runtime instead of the
     global watchdog *)
  let cfg = { ctx.cfg with max_cycles = (golden.Run.cycles * 10) + 50_000 } in
  Campaign.plans ~n ~target ~seed ~golden_cycles:golden.Run.cycles
  |> Run.run_plans ~cfg ~sanitize ~pool:ctx.pool ~golden bench variant

let coverage_variants =
  [
    (T.Original, "Original");
    (T.intra_plus_lds, "Intra+LDS");
    (T.intra_minus_lds, "Intra-LDS");
    (T.inter_group, "Inter");
  ]

let coverage ctx =
  plan ctx
    ~benches:(List.map Kernels.Registry.find coverage_benches)
    (List.map fst coverage_variants);
  let buf = Buffer.create 2048 in
  Report.heading buf
    "Fault-injection coverage campaigns (empirical check of Tables 2/3)";
  let n = if ctx.quick then 6 else 24 in
  Report.row buf
    "%d random single-bit flips per (kernel, version, structure); a structure"
    n;
  Report.row buf
    "is covered when no injection ends in silent data corruption (SDC).";
  Report.row buf "%-8s %-12s %-6s %s" "kernel" "version" "target" "outcomes";
  List.iter
    (fun id ->
      let b = Kernels.Registry.find id in
      List.iter
        (fun (v, name) ->
          List.iter
            (fun (target, tname) ->
              progress "  injecting %-8s %-16s %s" b.id name tname;
              let runs = campaign ctx ~n ~target ~seed:coverage_seed b v in
              let t = Campaign.tally runs in
              Report.row buf "%-8s %-12s %-6s %s%s" b.id name tname
                (Campaign.tally_to_string t)
                (if Campaign.covered t then "  [covered]" else "");
              let psum = Campaign.provenance_summary runs in
              if psum <> "" then
                String.split_on_char '\n' psum
                |> List.iter (fun l ->
                       if String.trim l <> "" then Report.row buf "    %s" l))
            [
              (Gpu_sim.Device.T_vgpr, "VGPR");
              (Gpu_sim.Device.T_sgpr, "SGPR");
              (Gpu_sim.Device.T_lds, "LDS");
              (Gpu_sim.Device.T_l1, "L1");
            ])
        coverage_variants)
    coverage_benches;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Extension: optimizer ablation (paper Sec. 6.6 suggests better        *)
(* compiler register allocation would reduce RMT's scheduling costs)    *)
(* ------------------------------------------------------------------ *)

let opt_ablation ctx =
  plan ctx [ T.Original; T.intra_plus_lds ];
  List.iter
    (fun b -> prefetch ctx ~tag:"optimized" ~optimize:true b T.intra_plus_lds)
    all_benches;
  let buf = Buffer.create 1024 in
  Report.heading buf
    "Extension: optimizer ablation — Intra-Group+LDS slowdown and VGPR \
     demand with and without the cleanup pipeline";
  Report.row buf "%-8s %10s %10s %12s %12s" "kernel" "unopt" "optimized"
    "VGPRs unopt" "VGPRs opt";
  List.iter
    (fun (b : Kernels.Bench.t) ->
      let base = get ctx b T.Original in
      let rmt = get ctx b T.intra_plus_lds in
      let opt = get ctx ~optimize:true b T.intra_plus_lds in
      Report.row buf "%-8s %9.2fx %9.2fx %12d %12d" b.id
        (Run.slowdown ~base rmt) (Run.slowdown ~base opt)
        rmt.Run.usage.Gpu_ir.Regpressure.vgprs
        opt.Run.usage.Gpu_ir.Regpressure.vgprs)
    all_benches;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Extension: TMR (detection vs correction)                             *)
(* ------------------------------------------------------------------ *)

(* A dedicated stencil workload with 16-item logical work-groups (TMR
   triples must stay wavefront-resident; see Rmt_core.Tmr). *)
let tmr_wg = 16
let tmr_n = 1024

let tmr_kernel () =
  let open Gpu_ir in
  let b = Builder.create "tmr_stencil" in
  let input = Builder.buffer_param b "input" in
  let output = Builder.buffer_param b "output" in
  let n = Builder.scalar_param b "n" in
  let gid = Builder.global_id b 0 in
  let at i =
    let clamped =
      Builder.max_s b (Builder.imm 0) (Builder.min_s b i (Builder.sub b n (Builder.imm 1)))
    in
    Builder.gload_elem b input clamped
  in
  let l = at (Builder.sub b gid (Builder.imm 1)) in
  let c = at gid in
  let r = at (Builder.add b gid (Builder.imm 1)) in
  let v = Builder.add b (Builder.add b l (Builder.mul b c (Builder.imm 2))) r in
  Builder.gstore_elem b output gid v;
  Builder.finish b

(* The stencil as a benchmark of its own, so every version of the study
   runs through [Run.run]; [scale] is ignored (one fixed size). *)
let tmr_bench : Kernels.Bench.t =
  {
    id = "tmr_stencil";
    name = "3-point stencil";
    character = Kernels.Bench.Memory_bound;
    make_kernel = tmr_kernel;
    prepare =
      (fun dev ~scale:_ ->
        let input = Gpu_sim.Device.alloc dev (tmr_n * 4) in
        let output = Gpu_sim.Device.alloc dev (tmr_n * 4) in
        let data = Array.init tmr_n (fun i -> (i * 37) land 0xFFFF) in
        Gpu_sim.Device.write_i32_array dev input data;
        let expected =
          let at j = data.(max 0 (min j (tmr_n - 1))) in
          Array.init tmr_n (fun i -> at (i - 1) + (2 * at i) + at (i + 1))
        in
        {
          steps =
            [
              {
                args = [ A_buf input; A_buf output; A_i32 tmr_n ];
                nd = Gpu_sim.Geom.make_ndrange tmr_n tmr_wg;
              };
            ];
          verify =
            (fun dev -> Kernels.Bench.verify_i32_buffer dev output expected);
        });
  }

(* Fault response: the same VGPR campaign as [coverage], placed over each
   protected version's own run. *)
let tmr_campaigns ctx =
  let n = if ctx.quick then 10 else 30 in
  List.map
    (fun (name, v) ->
      progress "  injecting tmr-study %s" name;
      ( name,
        campaign ctx ~n ~target:Gpu_sim.Device.T_vgpr ~seed:coverage_seed
          tmr_bench v ))
    [ ("DMR", T.intra_plus_lds); ("TMR", T.Tmr) ]

let tmr ctx =
  plan ctx ~benches:[ tmr_bench ] [ T.Original; T.intra_plus_lds; T.Tmr ];
  let buf = Buffer.create 1024 in
  Report.heading buf
    "Extension: DMR (detect) vs TMR (correct) on a 3-point stencil";
  let base = get ctx tmr_bench T.Original in
  let dmr = get ctx tmr_bench T.intra_plus_lds in
  let tmr_ = get ctx tmr_bench T.Tmr in
  Report.row buf "%-10s %8s %10s" "version" "cycles" "slowdown";
  Report.row buf "%-10s %8d %9.2fx" "original" base.Run.cycles 1.0;
  Report.row buf "%-10s %8d %9.2fx" "DMR" dmr.Run.cycles
    (Run.slowdown ~base dmr);
  Report.row buf "%-10s %8d %9.2fx" "TMR" tmr_.Run.cycles
    (Run.slowdown ~base tmr_);
  let tallies =
    List.map
      (fun (name, runs) -> (name, Campaign.tally runs))
      (tmr_campaigns ctx)
  in
  (* flips that found no live target are not dispositions *)
  let landed = List.map (fun (_, t) -> Campaign.tally_total t) tallies in
  Report.row buf "";
  (match List.sort_uniq compare landed with
  | [ n ] -> Report.row buf "%d VGPR bit flips each:" n
  | _ ->
      Report.row buf "VGPR bit flips (DMR, TMR): %s"
        (String.concat ", " (List.map string_of_int landed)));
  List.iter
    (fun (name, (t : Campaign.tally)) ->
      Report.row buf
        "%-10s aborted-for-recovery=%d completed-correct=%d SDC=%d other=%d"
        name t.detected t.masked t.sdc (t.crash + t.hang))
    tallies;
  Report.row buf
    "(TMR outvotes a faulty copy and completes; DMR must abort and re-execute)";
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Extension: wavefront-size sensitivity (paper Sec. 6.6 suggests       *)
(* adjustable wavefront size as an RMT-friendly hardware knob)          *)
(* ------------------------------------------------------------------ *)

(* The studies that vary the device: each column is a cell (tag, config,
   variant) whose value is the variant's slowdown over [Original] run
   under the same config and scale. Every run goes through the cache, so
   a column on the context's own config reuses the figures' runs. *)
let plan_cells ctx ?scale benches cells =
  List.iter
    (fun b ->
      List.iter
        (fun (tag, cfg, v) ->
          prefetch ctx ~tag ~cfg ?scale b T.Original;
          prefetch ctx ~tag ~cfg ?scale b v)
        cells)
    benches

let cell_slowdown ctx ?scale b (tag, cfg, v) =
  Run.slowdown
    ~base:(get ctx ~tag ~cfg ?scale b T.Original)
    (get ctx ~tag ~cfg ?scale b v)

(* Plan every cell, then one row per kernel: the id, then each cell's
   slowdown right-aligned in a [width]-wide column. *)
let slowdown_rows ctx buf ?scale ~width ids cells =
  let benches = List.map Kernels.Registry.find ids in
  plan_cells ctx ?scale benches cells;
  List.iter
    (fun (b : Kernels.Bench.t) ->
      Report.row buf "%-8s%s" b.id
        (String.concat ""
           (List.map
              (fun c ->
                Printf.sprintf " %*.2fx" (width - 1)
                  (cell_slowdown ctx ?scale b c))
              cells)))
    benches

let wavesize ctx =
  let buf = Buffer.create 1024 in
  Report.heading buf
    "Extension: Intra-Group+LDS slowdown vs wavefront size";
  Report.row buf "%-8s %8s %8s %8s" "kernel" "wave=64" "wave=32" "wave=16";
  slowdown_rows ctx buf ~width:8
    [ "BinS"; "BlkSch"; "DWT"; "R"; "SF"; "URNG" ]
    (List.map
       (fun ws ->
         ( Printf.sprintf "wave=%d" ws,
           { ctx.cfg with Gpu_sim.Config.wave_size = ws },
           T.intra_plus_lds ))
       [ 64; 32; 16 ]);
  Report.row buf
    "(on this device model smaller wavefronts mostly RAISE Intra-Group";
  Report.row buf
    " costs: the checking code's issue slots are paid per wavefront and";
  Report.row buf
    " short waves buy less latency hiding per slot -- supporting the";
  Report.row buf
    " paper's call to let the compiler pick the size per application)";
  Buffer.contents buf

(* ------------------------------------------------------------------ *)



(* ------------------------------------------------------------------ *)
(* Per-kernel diagnosis, reproducing the paper's Section 6.4 analysis   *)
(* methodology from counters and occupancy                              *)
(* ------------------------------------------------------------------ *)

let explain ctx =
  plan ctx [ T.Original; T.intra_plus_lds ];
  let buf = Buffer.create 4096 in
  Report.heading buf
    "Per-kernel diagnosis (the paper's Section 6.4 methodology, applied \
     automatically)";
  let n_cus = ctx.cfg.Gpu_sim.Config.n_cus in
  let simds = ctx.cfg.Gpu_sim.Config.simds_per_cu in
  List.iter
    (fun (b : Kernels.Bench.t) ->
      let base = get ctx b T.Original in
      let plus = get ctx b T.intra_plus_lds in
      let c = base.Run.counters in
      let valu = Counters.valu_busy_pct ~n_cus ~simds_per_cu:simds c in
      let mem = Counters.mem_unit_busy_pct ~n_cus c in
      let lds = Counters.lds_busy_pct ~n_cus c in
      let avg_lanes =
        if c.Counters.valu_insts = 0 then 0.0
        else float_of_int c.Counters.valu_lane_ops /. float_of_int c.Counters.valu_insts
      in
      let s = Run.slowdown ~base plus in
      let occ_drop =
        base.Run.occupancy.Gpu_sim.Occupancy.waves_per_cu
        - plus.Run.occupancy.Gpu_sim.Occupancy.waves_per_cu
          * base.Run.occupancy.Gpu_sim.Occupancy.waves_per_group
          / max 1 plus.Run.occupancy.Gpu_sim.Occupancy.waves_per_group
      in
      let dominant =
        if mem > 2.0 *. valu && mem > lds then "memory-bound"
        else if lds > valu && lds > mem then "LDS-bound"
        else if valu > 2.0 *. mem then "compute-bound"
        else "mixed memory/compute"
      in
      let verdict =
        if s < 1.15 then
          "redundant work hides behind the dominant bottleneck"
        else if s < 1.6 then "partial hiding; some issue slots were idle"
        else
          "the kernel already saturates its units, so RMT pays close to \
           full price"
      in
      Report.row buf "%-8s %-22s  VALU %5.1f%%  Mem %5.1f%%  LDS %5.1f%%" b.id
        ("(" ^ Kernels.Bench.character_name b.character ^ ")")
        valu mem lds;
      Report.row buf
        "         avg active lanes %4.1f/64; Intra+LDS %4.2fx -> %s" avg_lanes
        s verdict;
      if occ_drop > 0 then
        Report.row buf
          "         occupancy drops under RMT (%s -> %s): scheduling cost"
          (Gpu_sim.Occupancy.to_string base.Run.occupancy)
          (Gpu_sim.Occupancy.to_string plus.Run.occupancy);
      Report.row buf "         classified as %s by counters" dominant)
    all_benches;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Extension: naive full duplication baseline (paper Sec. 3.4)          *)
(* ------------------------------------------------------------------ *)

let naive ctx =
  plan ctx [ T.Original; T.intra_plus_lds; T.inter_group ];
  let buf = Buffer.create 1024 in
  Report.heading buf
    "Extension: naive full duplication (two launches + host compare) vs \
     on-GPU RMT";
  Report.row buf "%-8s %8s %10s %8s  %s" "kernel" "naive" "Intra+LDS" "Inter"
    "";
  List.iter
    (fun (b : Kernels.Bench.t) ->
      let base = get ctx b T.Original in
      let nv = Run.naive_duplication base in
      let intra = get ctx b T.intra_plus_lds in
      let inter = get ctx b T.inter_group in
      Report.row buf "%-8s %7.2fx %9.2fx %7.2fx" b.id
        (Run.slowdown ~base nv)
        (Run.slowdown ~base intra)
        (Run.slowdown ~base inter))
    all_benches;
  Report.row buf "";
  Report.row buf
    "naive duplication pays ~2x everywhere and checks only after kernel";
  Report.row buf
    "completion on the host (paper Sec. 3.4), while Intra-Group exploits";
  Report.row buf
    "under-utilization to undercut 2x on memory-bound kernels and detects";
  Report.row buf "on the GPU before corrupt stores leave the SoR.";
  Buffer.contents buf



(* ------------------------------------------------------------------ *)
(* Extension: wavefront scheduling policy                               *)
(* ------------------------------------------------------------------ *)

let schedpolicy ctx =
  let under tag p =
    (tag, { ctx.cfg with Gpu_sim.Config.sched_policy = p }, T.intra_plus_lds)
  in
  let greedy = under "greedy" Gpu_sim.Config.Greedy
  and rr = under "rr" Gpu_sim.Config.Round_robin in
  let benches = List.map Kernels.Registry.find [ "BO"; "MM"; "R"; "SC"; "SF" ] in
  plan_cells ctx benches [ greedy; rr ];
  let buf = Buffer.create 1024 in
  Report.heading buf
    "Extension: greedy vs round-robin wavefront scheduling under \
     Intra-Group+LDS";
  Report.row buf "%-8s %12s %12s %14s %14s" "kernel" "greedy base"
    "greedy RMT" "round-robin" "rr RMT";
  List.iter
    (fun (b : Kernels.Bench.t) ->
      let cycles (tag, cfg, _) = (get ctx ~tag ~cfg b T.Original).Run.cycles in
      Report.row buf "%-8s %11dc %11.2fx %13dc %13.2fx" b.id (cycles greedy)
        (cell_slowdown ctx b greedy) (cycles rr) (cell_slowdown ctx b rr))
    benches;
  Report.row buf
    "(the paper attributes some accidental RMT speedups to the greedy";
  Report.row buf
    " scheduler's blindness to contention; rotating fairness shifts the";
  Report.row buf " baseline and the RMT delta)";
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Extension: quantitative shape comparison against the paper           *)
(* ------------------------------------------------------------------ *)

(* Approximate values read off the paper's Figure 2 (+LDS series) and
   Figure 6 bars, HD 7790. *)
let paper_fig2_plus_lds =
  [
    ("BinS", 1.05); ("BO", 2.15); ("BitS", 1.05); ("BlkSch", 2.10);
    ("DCT", 2.20); ("DWT", 2.40); ("FWT", 1.10); ("FW", 2.20); ("MM", 2.30);
    ("NB", 2.20); ("PS", 1.60); ("QRS", 2.10); ("R", 2.20); ("SC", 0.95);
    ("SF", 1.10); ("URNG", 2.20);
  ]

let paper_fig6_inter =
  [
    ("BinS", 1.30); ("BO", 2.10); ("BitS", 9.48); ("BlkSch", 2.20);
    ("DCT", 2.40); ("DWT", 7.35); ("FWT", 9.37); ("FW", 2.20); ("MM", 2.20);
    ("NB", 1.16); ("PS", 1.59); ("QRS", 2.20); ("R", 1.90); ("SC", 1.10);
    ("SF", 1.60); ("URNG", 2.20);
  ]

(* Spearman rank correlation between two paired samples. *)
let spearman xs ys =
  let rank v =
    let sorted = List.sort compare v in
    List.map
      (fun x ->
        let below = List.length (List.filter (fun y -> y < x) sorted) in
        let equal = List.length (List.filter (fun y -> y = x) sorted) in
        float_of_int below +. (float_of_int (equal - 1) /. 2.0))
      v
  in
  let rx = rank xs and ry = rank ys in
  let n = float_of_int (List.length xs) in
  let mean l = List.fold_left ( +. ) 0.0 l /. n in
  let mx = mean rx and my = mean ry in
  let cov =
    List.fold_left2 (fun a x y -> a +. ((x -. mx) *. (y -. my))) 0.0 rx ry
  in
  let sd l m =
    sqrt (List.fold_left (fun a x -> a +. ((x -. m) ** 2.0)) 0.0 l)
  in
  cov /. (sd rx mx *. sd ry my)

let paper_compare ctx =
  plan ctx [ T.Original; T.intra_plus_lds; T.inter_group ];
  let buf = Buffer.create 2048 in
  Report.heading buf
    "Shape check: measured slowdowns vs values read off the paper's figures";
  let section title paper measured_of =
    Report.row buf "%s" title;
    Report.row buf "%-8s %8s %10s %8s" "kernel" "paper" "measured" "ratio";
    let ps = ref [] and ms = ref [] in
    List.iter
      (fun (id, p) ->
        let m = measured_of id in
        ps := p :: !ps;
        ms := m :: !ms;
        Report.row buf "%-8s %7.2fx %9.2fx %8.2f" id p m (m /. p))
      paper;
    let rho = spearman !ps !ms in
    Report.row buf "Spearman rank correlation (who-beats-whom): %.2f" rho;
    Report.row buf ""
  in
  section "Figure 2 (Intra-Group+LDS):" paper_fig2_plus_lds (fun id ->
      let b = Kernels.Registry.find id in
      let base = get ctx b T.Original in
      Run.slowdown ~base (get ctx b T.intra_plus_lds));
  section "Figure 6 (Inter-Group):" paper_fig6_inter (fun id ->
      let b = Kernels.Registry.find id in
      let base = get ctx b T.Original in
      Run.slowdown ~base (get ctx b T.inter_group));
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* CSV export                                                          *)
(* ------------------------------------------------------------------ *)

let write_csv dir name header rows =
  let path = Filename.concat dir name in
  let oc = open_out path in
  output_string oc (String.concat "," header ^ "\n");
  List.iter (fun r -> output_string oc (String.concat "," r ^ "\n")) rows;
  close_out oc;
  path

let make_export_dir ?(dir = "results") () =
  match Unix.mkdir dir 0o755 with
  | () -> ()
  | exception Unix.Unix_error (Unix.EEXIST, _, _) when Sys.is_directory dir -> ()
  | exception Unix.Unix_error (e, _, _) ->
      failwith
        (Printf.sprintf "cannot write CSV files into %s: %s" dir
           (if e = Unix.EEXIST then "not a directory" else Unix.error_message e))

(** Export the headline figure series as CSV files into [dir] for
    external plotting ([benches] restricts the kernel set). Returns a
    report of what was written. *)
let export ?(dir = "results") ?(benches = all_benches) ctx =
  make_export_dir ~dir ();
  let all_benches = benches in
  plan ctx ~benches
    [
      T.Original; T.intra_plus_lds; T.intra_minus_lds; T.intra_plus_lds_fast;
      T.intra_minus_lds_fast; T.inter_group;
    ];
  let buf = Buffer.create 512 in
  Report.heading buf ("CSV export to " ^ dir ^ "/");
  let slow v b = Run.slowdown ~base:(get ctx b T.Original) (get ctx b v) in
  let p1 =
    write_csv dir "fig2_intra_slowdowns.csv"
      [ "kernel"; "intra_plus_lds"; "intra_minus_lds" ]
      (List.map
         (fun (b : Kernels.Bench.t) ->
           [
             b.id;
             Printf.sprintf "%.4f" (slow T.intra_plus_lds b);
             Printf.sprintf "%.4f" (slow T.intra_minus_lds b);
           ])
         all_benches)
  in
  let p2 =
    write_csv dir "fig6_inter_slowdowns.csv"
      [ "kernel"; "inter_group" ]
      (List.map
         (fun (b : Kernels.Bench.t) ->
           [ b.id; Printf.sprintf "%.4f" (slow T.inter_group b) ])
         all_benches)
  in
  let p3 =
    let n_cus = ctx.cfg.Gpu_sim.Config.n_cus in
    let simds = ctx.cfg.Gpu_sim.Config.simds_per_cu in
    write_csv dir "fig3_counters.csv"
      [ "kernel"; "version"; "valu_busy_pct"; "mem_unit_busy_pct";
        "write_unit_stalled_pct"; "lds_busy_pct" ]
      (List.concat_map
         (fun (b : Kernels.Bench.t) ->
           List.map
             (fun (v, name) ->
               let c = (get ctx b v).Run.counters in
               [
                 b.id; name;
                 Printf.sprintf "%.2f"
                   (Counters.valu_busy_pct ~n_cus ~simds_per_cu:simds c);
                 Printf.sprintf "%.2f" (Counters.mem_unit_busy_pct ~n_cus c);
                 Printf.sprintf "%.2f" (Counters.write_unit_stalled_pct ~n_cus c);
                 Printf.sprintf "%.2f" (Counters.lds_busy_pct ~n_cus c);
               ])
             [ (T.Original, "original"); (T.intra_plus_lds, "intra_plus");
               (T.intra_minus_lds, "intra_minus") ])
         all_benches)
  in
  let p4 =
    write_csv dir "fig9_fast_comm.csv"
      [ "kernel"; "plus_lds"; "plus_lds_fast"; "minus_lds"; "minus_lds_fast" ]
      (List.map
         (fun (b : Kernels.Bench.t) ->
           [
             b.id;
             Printf.sprintf "%.4f" (slow T.intra_plus_lds b);
             Printf.sprintf "%.4f" (slow T.intra_plus_lds_fast b);
             Printf.sprintf "%.4f" (slow T.intra_minus_lds b);
             Printf.sprintf "%.4f" (slow T.intra_minus_lds_fast b);
           ])
         all_benches)
  in
  List.iter (fun p -> Report.row buf "wrote %s" p) [ p1; p2; p3; p4 ];
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Occupancy report (the scheduling substrate behind Figures 4 and 7)  *)
(* ------------------------------------------------------------------ *)

let occupancy ctx =
  plan ctx
    [ T.Original; T.intra_plus_lds; T.intra_minus_lds; T.inter_group ];
  let buf = Buffer.create 2048 in
  Report.heading buf
    "Occupancy: work-groups per CU and the binding resource, per version";
  Report.row buf "%-8s %-16s %10s %9s %7s %7s %-12s" "kernel" "version"
    "groups/CU" "waves/CU" "VGPRs" "LDS B" "limited by";
  List.iter
    (fun (b : Kernels.Bench.t) ->
      List.iter
        (fun (v, name) ->
          let s = get ctx b v in
          let o = s.Run.occupancy in
          Report.row buf "%-8s %-16s %10d %9d %7d %7d %-12s" b.id name
            o.Gpu_sim.Occupancy.groups_per_cu o.Gpu_sim.Occupancy.waves_per_cu
            s.Run.usage.Gpu_ir.Regpressure.vgprs
            s.Run.usage.Gpu_ir.Regpressure.lds
            (Gpu_sim.Occupancy.limiter_name o.Gpu_sim.Occupancy.limiter))
        [
          (T.Original, "Original");
          (T.intra_plus_lds, "Intra+LDS");
          (T.intra_minus_lds, "Intra-LDS");
          (T.inter_group, "Inter");
        ])
    all_benches;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Extension: pooled two-tier buffers (the paper's actual Inter-Group   *)
(* communication scheme) vs the per-item substitution                   *)
(* ------------------------------------------------------------------ *)

let pool_n = 8192
let pool_wg = 64

let pool_kernel () =
  let open Gpu_ir in
  let b = Builder.create "pool_saxpy" in
  let x = Builder.buffer_param b "x" in
  let y = Builder.buffer_param b "y" in
  let gid = Builder.global_id b 0 in
  let v =
    Builder.fma b (Builder.immf 2.0) (Builder.gload_elem b x gid)
      (Builder.gload_elem b y gid)
  in
  Builder.gstore_elem b y gid v;
  Builder.finish b

(* SAXPY as a benchmark of its own, so every scheme of the study runs
   through the run cache; [scale] is ignored (one fixed size). The check
   is exact: 2i + 1 is a binary32 integer for every i below [pool_n]. *)
let pool_bench =
  Kernels.Bench.of_kernel ~id:"pool_saxpy" ~name:"SAXPY" ~global:pool_n
    ~local:pool_wg
    ~args:[ Buf (pool_n, Findex); Buf (pool_n, Fill_f32 1.0) ]
    ~verify:(fun dev -> function
      | [ _; A_buf y ] ->
          Kernels.Bench.verify_f32_buffer dev y
            (Array.init pool_n (fun i -> (2.0 *. float_of_int i) +. 1.0))
            ~tol:0.0 ()
      | _ -> false)
    pool_kernel

let pool_schemes =
  Rmt_core.Inter_group.
    [
      ("per-item slots", Per_item);
      ("pool of 4096", Pooled 4096);
      ("pool of 1024", Pooled 1024);
      ("pool of 256", Pooled 256);
      ("pool of 64", Pooled 64);
    ]

let pool ctx =
  plan ctx ~benches:[ pool_bench ]
    (T.Original :: List.map (fun (_, sch) -> T.Inter sch) pool_schemes);
  let buf = Buffer.create 1024 in
  Report.heading buf
    "Extension: Inter-Group communication-buffer schemes (SAXPY, one \
     store/item)";
  let base = get ctx pool_bench T.Original in
  Report.row buf "%-22s %9s %9s %8s" "scheme" "cycles" "slowdown" "correct";
  List.iter
    (fun (label, (s : Run.summary)) ->
      Report.row buf "%-22s %9d %8.2fx %8s" label s.cycles
        (Run.slowdown ~base s)
        (if s.verified then "yes" else "NO"))
    (("original", base)
    :: List.map
         (fun (label, sch) -> (label, get ctx pool_bench (T.Inter sch)))
         pool_schemes);
  Report.row buf
    "(the paper's pooled two-tier scheme adds contention as the pool";
  Report.row buf
    " shrinks; the per-item substitution is the contention-free limit,";
  Report.row buf
    " and undersized pools can deadlock outright -- see DESIGN.md)";
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Extension: device scaling (the paper's exascale motivation)          *)
(* ------------------------------------------------------------------ *)

(* A Hawaii-class device: more CUs against the same DRAM bandwidth. *)
let big_cfg (cfg : Gpu_sim.Config.t) =
  { cfg with Gpu_sim.Config.n_cus = 32; dram_bytes_per_cycle = 160.0 }

let devscale ctx =
  let buf = Buffer.create 1024 in
  Report.heading buf
    "Extension: RMT cost vs device size (12 CUs / 96 B-per-cycle DRAM      against 32 CUs / 160 B-per-cycle)";
  Report.row buf "%-8s %12s %12s %12s %12s" "kernel" "small intra"
    "big intra" "small inter" "big inter";
  slowdown_rows ctx buf ~scale:2 ~width:12
    [ "BinS"; "BlkSch"; "FWT"; "R"; "SF" ]
    (List.concat_map
       (fun v ->
         List.map
           (fun (cfg : Gpu_sim.Config.t) ->
             (Printf.sprintf "%d CUs" cfg.n_cus, cfg, v))
           [ ctx.cfg; big_cfg ctx.cfg ])
       [ T.intra_plus_lds; T.inter_group ]);
  Report.row buf
    "(more CUs per byte of DRAM bandwidth squeeze the memory-bound";
  Report.row buf
    " kernels' slack, shifting how much redundant work hides -- the";
  Report.row buf
    " exascale direction the paper's introduction motivates)";
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Extension: the static analyzer's reports, reconciled                 *)
(* ------------------------------------------------------------------ *)

(* Representative LDS-bearing kernel: the LDS row of the matrix is read
   off real allocations rather than falling back to the flavor policy. *)
let table2static_bench = "MM"

let table2static () =
  let b = Kernels.Registry.find table2static_bench in
  let k0 = b.Kernels.Bench.make_kernel () in
  let buf = Buffer.create 1024 in
  Report.heading buf
    (Printf.sprintf
       "Static Table 2/3: protection domains derived by gpu_tv (kernel: %s)"
       table2static_bench);
  let reports =
    List.map
      (fun (_, v) -> (v, Gpu_tv.Domains.of_kernel v k0))
      Lint.standard_targets
  in
  String.split_on_char '\n' (Gpu_tv.Domains.table (List.map snd reports))
  |> List.iter (fun l -> if l <> "" then Report.row buf "%s" l);
  let mismatches =
    List.concat_map
      (fun (v, (r : Gpu_tv.Domains.report)) ->
        match Gpu_tv.Domains.sor_flavor v with
        | None -> []
        | Some f ->
            List.map
              (fun s ->
                Printf.sprintf "%s disagrees with Sor.protects on %s"
                  r.Gpu_tv.Domains.dr_label
                  (Rmt_core.Sor.structure_name s))
              (Gpu_tv.Domains.crosscheck_sor r f))
      reports
  in
  (match mismatches with
  | [] ->
      Report.row buf
        "(derivation reproduces the declared Sor matrix on every flavor)"
  | ms -> List.iter (fun m -> Report.row buf "MISMATCH: %s" m) ms);
  Buffer.contents buf

let coststatic_variants =
  [
    ("intra+lds", T.intra_plus_lds);
    ("intra-lds", T.intra_minus_lds);
    ("inter", T.inter_group);
  ]

let measured_of (s : Run.summary) : Gpu_tv.Costmodel.measured =
  {
    Gpu_tv.Costmodel.m_usage = s.Run.usage;
    m_occupancy = s.Run.occupancy;
    m_global_store_insts = s.Run.counters.Counters.global_store_insts;
    m_valu_insts = s.Run.counters.Counters.valu_insts;
    m_lds_insts = s.Run.counters.Counters.lds_insts;
  }

let coststatic ctx =
  plan ctx (T.Original :: List.map snd coststatic_variants);
  let buf = Buffer.create 2048 in
  Report.heading buf
    "Extension: static cost model vs measured launches (gpu_tv      reconciliation; stores column is measured/baseline vs the predicted      bound)";
  Report.row buf "%-8s %-10s %17s %9s %11s  %s" "kernel" "version"
    "predicted v/s/lds" "occupancy" "stores" "verdict";
  let disagreements = ref 0 in
  List.iter
    (fun (b : Kernels.Bench.t) ->
      let local = Gpu_sim.Geom.group_items (bench_nd ctx b) in
      let k0 = b.Kernels.Bench.make_kernel () in
      let base = get ctx b T.Original in
      List.iter
        (fun (name, v) ->
          let s = get ctx b v in
          let p =
            Gpu_tv.Costmodel.predict ~cfg:ctx.cfg ~local_items:local v k0
          in
          let problems =
            Gpu_tv.Costmodel.reconcile p ~base:(measured_of base)
              ~rmt:(measured_of s)
          in
          disagreements := !disagreements + List.length problems;
          let dv, ds, dl = Gpu_tv.Costmodel.deltas p in
          Report.row buf "%-8s %-10s %+6d/%+4d/%+5d %4d->%-4d %9.2fx %s  %s"
            b.id name dv ds dl
            p.Gpu_tv.Costmodel.c_occ_base.Gpu_sim.Occupancy.groups_per_cu
            p.Gpu_tv.Costmodel.c_occ_rmt.Gpu_sim.Occupancy.groups_per_cu
            (float_of_int s.Run.counters.Counters.global_store_insts
            /. float_of_int (max 1 base.Run.counters.Counters.global_store_insts))
            (Gpu_tv.Costmodel.store_bound_string p)
            (if problems = [] then "ok" else "DISAGREES");
          List.iter (fun m -> Report.row buf "    %s" m) problems)
        coststatic_variants)
    all_benches;
  Report.row buf
    "(%d kernels x %d flavors, %d discrepancies; usage and occupancy are"
    (List.length all_benches)
    (List.length coststatic_variants)
    !disagreements;
  Report.row buf
    " exact claims, stores an interval, VALU/LDS counts a per-issue floor)";
  Buffer.contents buf

(* ------------------------------------------------------------------ *)

(** Every experiment by its [rmtgpu exp] name, in report order; the CSV
    export, which writes files, comes last. *)
let registry : (string * (ctx -> string)) list =
  [
    ("table1", fun _ -> table1 ());
    ("table2", fun _ -> table2 ());
    ("table3", fun _ -> table3 ());
    ("fig2", fig2);
    ("fig3", fig3);
    ("fig4", fig4);
    ("fig5", fig5);
    ("fig6", fig6);
    ("fig7", fig7);
    ("fig8", fun _ -> fig8 ());
    ("fig9", fig9);
    ("coverage", coverage);
    (* extensions beyond the paper *)
    ("occupancy", occupancy);
    ("explain", explain);
    ("compare", paper_compare);
    ("opt", opt_ablation);
    ("tmr", tmr);
    ("wavesize", wavesize);
    ("naive", naive);
    ("schedpolicy", schedpolicy);
    ("pool", pool);
    ("devscale", devscale);
    ("table2static", fun _ -> table2static ());
    ("coststatic", coststatic);
    ("export", fun ctx -> export ctx);
  ]

(** Everything in {!registry} but the CSV export. *)
let all ctx =
  String.concat ""
    (List.filter_map
       (fun (name, f) -> if name = "export" then None else Some (f ctx))
       registry)
