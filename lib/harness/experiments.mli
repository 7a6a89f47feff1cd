(** The paper's evaluation, experiment by experiment — one function per
    table and figure plus the extension studies, each returning its
    regenerated content as text.

    Runs are cached per complete fingerprint (benchmark, variant, scale,
    usage override, power window, device config, optimizer) and
    executed on the
    context's {!Pool} of worker domains: each figure plans its whole run
    grid up front, then renders by awaiting the cached results in a
    fixed order. Report text is therefore byte-identical at any worker
    count; only stderr progress lines may interleave. *)

type ctx

val create_ctx :
  ?cfg:Gpu_sim.Config.t -> ?quick:bool -> ?jobs:int -> unit -> ctx
(** [quick] shrinks the fault campaigns (CI use). [jobs] sizes the
    context's {!Pool} (default {!Domain.recommended_domain_count}; [1] =
    sequential, in-process). The pool holds no domain between drains, so
    a context needs no shutdown. *)

val jobs : ctx -> int
(** Worker count of the context's pool. *)

val pool_stats : ctx -> Pool.stats
(** Per-worker task counts and queue waits of the context's pool. *)

val pool_stats_line : ctx -> string
(** One-line {!Pool.stats_line} summary for [-j] status output. *)

val cached_summaries : ctx -> (string * Run.summary) list
(** Completed runs currently in the cache, labelled
    ["bench/variant[/xS][/wW][/inflated][/cfg-HHHHHHHH][/opt]"] and sorted
    by label. The config segment (the first 8 hex digits of the config
    digest) appears only for runs on a config other than the context's,
    and [opt] only for optimized runs. Pending and failed runs are
    skipped (never blocks). *)

val get :
  ctx ->
  ?tag:string ->
  ?cfg:Gpu_sim.Config.t ->
  ?scale:int ->
  ?usage_override:Gpu_ir.Regpressure.usage ->
  ?window_cycles:int ->
  ?optimize:bool ->
  Kernels.Bench.t ->
  Rmt_core.Transform.variant ->
  Run.summary
(** Cached {!Run.run}: submits the run to the pool on a cache miss and
    awaits it. [cfg] defaults to the context's config, [optimize] to
    [false]. The cache key fingerprints every run-affecting parameter,
    the config by its digest ([tag] is display-only and deliberately
    excluded). *)

val prefetch :
  ctx ->
  ?tag:string ->
  ?cfg:Gpu_sim.Config.t ->
  ?scale:int ->
  ?usage_override:Gpu_ir.Regpressure.usage ->
  ?window_cycles:int ->
  ?optimize:bool ->
  Kernels.Bench.t ->
  Rmt_core.Transform.variant ->
  unit
(** Plan step: like {!get} but without awaiting — submits the run (if
    not already cached) so it executes while the caller plans or renders
    other work. *)

(** {1 The paper's tables and figures} *)

val table1 : unit -> string
(** SEC-DED ECC overheads per GCN CU. *)

val table2 : unit -> string
val table3 : unit -> string

val fig2 : ctx -> string
(** Intra-Group ±LDS slowdowns, 16 kernels. *)

val fig3 : ctx -> string
(** VALUBusy / MemUnitBusy / WriteUnitStalled / LDSBusy. *)

val fig4 : ctx -> string
(** Intra-Group overhead components (doubling / redundant compute /
    communication). *)

val fig5 : ctx -> string
(** Average and peak power for the long-running kernels. *)

val fig6 : ctx -> string
(** Inter-Group slowdowns. *)

val fig7 : ctx -> string
(** Inter-Group overhead components (starred doubling subset). *)

val fig8 : unit -> string
(** Swizzle lane diagram, executed on the simulated wavefront. *)

val fig9 : ctx -> string
(** FAST (VRF swizzle) communication vs the LDS buffer. *)

val coverage : ctx -> string
(** Fault-injection campaigns validating Tables 2/3 empirically. *)

val campaign :
  ?sanitize:bool ->
  ctx ->
  n:int ->
  target:Gpu_sim.Device.inject_target ->
  seed:int ->
  Kernels.Bench.t ->
  Rmt_core.Transform.variant ->
  Run.summary list
(** A fault campaign: the golden run comes from the cache, then [n]
    injected {!Run.run}s (plans from {!Campaign.plans}, each bounded by a
    watchdog of ten golden runtimes plus 50,000 cycles) run on the
    context's pool and return in plan order, so {!Campaign.tally} and
    {!Campaign.provenance_summary} read the same at any [-j]. [sanitize]
    gives every injected run its own sanitizer; the summaries keep only
    the findings. *)

(** {1 Extension studies (beyond the paper)} *)

val occupancy : ctx -> string
(** Groups/CU, waves/CU and the binding resource per kernel version. *)

val opt_ablation : ctx -> string
(** RMT cost with and without the {!Gpu_ir.Opt} cleanup pipeline. *)

val tmr : ctx -> string
(** DMR (detect) vs TMR (correct) on a stencil, with fault dispositions. *)

val tmr_campaigns : ctx -> (string * Run.summary list) list
(** The injected runs behind {!tmr}'s dispositions: a VGPR {!campaign}
    of 30 flips (10 when [quick]) into the stencil under DMR
    (Intra-Group+LDS) and under TMR, labelled ["DMR"] and ["TMR"]. *)

val wavesize : ctx -> string
(** Intra-Group cost at wavefront sizes 64/32/16. *)

val naive : ctx -> string
(** The Section 3.4 full-duplication baseline vs on-GPU RMT. *)

val schedpolicy : ctx -> string
(** Greedy vs round-robin wavefront scheduling. *)

val paper_compare : ctx -> string
(** Measured slowdowns against values read off the paper's bars, with
    Spearman rank correlations. *)

val spearman : float list -> float list -> float
(** Rank correlation of two paired samples. *)

val pool : ctx -> string
(** Per-item vs pooled two-tier Inter-Group communication buffers. *)

val explain : ctx -> string
(** Per-kernel diagnosis from counters and occupancy (Sec. 6.4 style). *)

val devscale : ctx -> string
(** RMT cost on a 12-CU vs a 32-CU device (the exascale direction). *)

val table2static : unit -> string
(** The protection-domain matrix re-derived statically by {!Gpu_tv.Domains}
    from a representative LDS-bearing kernel, cross-checked against the
    declared {!Rmt_core.Sor} table. *)

val coststatic : ctx -> string
(** {!Gpu_tv.Costmodel} predictions for every registry kernel,
    reconciled against the simulator's measured launches. *)

val export : ?dir:string -> ?benches:Kernels.Bench.t list -> ctx -> string
(** Write the headline figure series as CSV files; returns a report of
    the paths written. *)

val registry : (string * (ctx -> string)) list
(** Every experiment above by its [rmtgpu exp] name, in report order:
    the paper's tables and figures, the coverage campaigns, the
    extension studies, then [export] last. *)

val all : ctx -> string
(** Every {!registry} entry but [export], concatenated in order. *)
