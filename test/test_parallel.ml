(* Tests for the parallel harness: the domain pool (ordering, inline
   sequential mode, exception propagation), the run-cache fingerprint
   (window/usage-override/config/optimizer runs must never collide), campaign map
   equivalence, and j-independence of report text. *)

module T = Rmt_core.Transform

let check = Alcotest.check
let tc = Alcotest.test_case

(* ------------------------------------------------------------------ *)
(* Pool                                                                *)
(* ------------------------------------------------------------------ *)

let test_pool_ordering () =
  let pool = Harness.Pool.create ~jobs:4 () in
  let xs = List.init 64 Fun.id in
  let ys = Harness.Pool.map pool (fun i -> (i * i) - i) xs in
  check
    Alcotest.(list int)
    "submission-ordered results"
    (List.map (fun i -> (i * i) - i) xs)
    ys

let test_pool_sequential_inline () =
  (* jobs=1 spawns no domain: tasks run inline, at submission *)
  let pool = Harness.Pool.create ~jobs:1 () in
  check Alcotest.int "jobs clamped" 1 (Harness.Pool.jobs pool);
  let trace = ref [] in
  let futures =
    List.map
      (fun i ->
        Harness.Pool.submit pool (fun () ->
            trace := i :: !trace;
            i * 10))
      [ 1; 2; 3 ]
  in
  check Alcotest.(list int) "ran inline in submission order" [ 3; 2; 1 ] !trace;
  check
    Alcotest.(list int)
    "futures hold the results" [ 10; 20; 30 ]
    (List.map Harness.Pool.await futures)

exception Boom of int

let test_pool_exception_propagation () =
  let pool = Harness.Pool.create ~jobs:3 () in
  let observed =
    try
      ignore
        (Harness.Pool.map pool
           (fun i -> if i = 2 then raise (Boom i) else i)
           [ 0; 1; 2; 3 ]);
      None
    with Boom i -> Some i
  in
  check
    Alcotest.(option int)
    "worker exception re-raised at await" (Some 2) observed

let test_pool_more_tasks_than_workers () =
  let pool = Harness.Pool.create ~jobs:2 () in
  let ys = Harness.Pool.map pool (fun i -> i + 1) (List.init 200 Fun.id) in
  check Alcotest.int "all 200 tasks completed" 200 (List.length ys);
  check Alcotest.int "last result" 200 (List.nth ys 199)

(* OCaml 5.1 runs at most 128 domains at once. A pool holds none between
   drains, so 130 pools that are never shut down, each drained by a map
   and by a submit-then-await, leave room for a further domain. A drain
   of one task spawns no helper: the awaiting domain runs it. *)
let test_pool_no_domain_outlives_drain () =
  for i = 1 to 130 do
    let pool = Harness.Pool.create ~jobs:2 () in
    check Alcotest.(list int) "map drained" [ i + 1; i + 2 ]
      (Harness.Pool.map pool (fun d -> i + d) [ 1; 2 ]);
    check Alcotest.int "await drained" i
      (Harness.Pool.await (Harness.Pool.submit pool (fun () -> i)))
  done;
  check Alcotest.int "a further domain spawns and joins" 7
    (Domain.join (Domain.spawn (fun () -> 7)));
  let pool = Harness.Pool.create ~jobs:4 () in
  ignore (Harness.Pool.await (Harness.Pool.submit pool (fun () -> ())));
  check
    Alcotest.(array int)
    "the awaiting domain ran the lone task" [| 1; 0; 0; 0 |]
    (Harness.Pool.stats pool).Harness.Pool.tasks_per_worker

let pool_suite =
  [
    tc "pool: submission-ordered map" `Quick test_pool_ordering;
    tc "pool: jobs=1 runs inline" `Quick test_pool_sequential_inline;
    tc "pool: exception propagation" `Quick test_pool_exception_propagation;
    tc "pool: queue longer than pool" `Quick test_pool_more_tasks_than_workers;
    tc "pool: no domain outlives a drain" `Quick
      test_pool_no_domain_outlives_drain;
  ]

(* ------------------------------------------------------------------ *)
(* Run-cache fingerprint                                               *)
(* ------------------------------------------------------------------ *)

(* Regression: the old cache key was (bench, variant, tag, scale), so a
   windowed fig5-style run could collide with a fig2 run of the same
   bench/variant whenever callers forgot a distinguishing tag. The key
   must fingerprint window_cycles and usage_override themselves. *)
let test_cache_key_window () =
  let ctx = Harness.Experiments.create_ctx ~jobs:1 () in
  let b = Kernels.Registry.find "PS" in
  let s1 = Harness.Experiments.get ctx b T.Original in
  let s2 = Harness.Experiments.get ctx ~window_cycles:500 b T.Original in
  let s3 = Harness.Experiments.get ctx b T.Original in
  let s4 = Harness.Experiments.get ctx ~window_cycles:500 b T.Original in
  check Alcotest.bool "windowed run is a distinct summary" true (s1 != s2);
  check Alcotest.bool "un-windowed key still cached" true (s1 == s3);
  check Alcotest.bool "windowed key cached too" true (s2 == s4);
  check Alcotest.int "same simulated cycles either way" s1.Harness.Run.cycles
    s2.Harness.Run.cycles;
  check Alcotest.bool "windowed run sampled power windows" true
    (Array.length s2.Harness.Run.windows > Array.length s1.Harness.Run.windows)

let test_cache_key_usage_override () =
  let ctx = Harness.Experiments.create_ctx ~jobs:1 () in
  let b = Kernels.Registry.find "PS" in
  let s1 = Harness.Experiments.get ctx b T.Original in
  let u = { s1.Harness.Run.usage with Gpu_ir.Regpressure.vgprs = 200 } in
  let s2 = Harness.Experiments.get ctx ~usage_override:u b T.Original in
  let s3 = Harness.Experiments.get ctx ~usage_override:u b T.Original in
  check Alcotest.bool "inflated run is a distinct summary" true (s1 != s2);
  check Alcotest.bool "inflated key cached" true (s2 == s3);
  check Alcotest.bool "inflation lowered occupancy" true
    (s2.Harness.Run.occupancy.Gpu_sim.Occupancy.waves_per_cu
    <= s1.Harness.Run.occupancy.Gpu_sim.Occupancy.waves_per_cu)

(* Tags are display-only: two gets differing only in tag are one run. *)
let test_cache_key_ignores_tag () =
  let ctx = Harness.Experiments.create_ctx ~jobs:1 () in
  let b = Kernels.Registry.find "PS" in
  let s1 = Harness.Experiments.get ctx ~tag:"a" b T.Original in
  let s2 = Harness.Experiments.get ctx ~tag:"b" b T.Original in
  check Alcotest.bool "tag does not shadow the fingerprint" true (s1 == s2)

(* The device config and the optimizer are fingerprinted per run, so
   studies that vary them (wavesize, schedpolicy, devscale, opt) share
   the cache: the same non-default config twice is one run, any other
   config or [~optimize:true] is another, and the metrics labels of all
   of them stay pairwise distinct. *)
let test_cache_key_cfg_and_optimize () =
  let ctx = Harness.Experiments.create_ctx ~jobs:1 () in
  let b = Kernels.Registry.find "PS" in
  let wave32 = { Gpu_sim.Config.default with Gpu_sim.Config.wave_size = 32 } in
  let rr =
    { Gpu_sim.Config.default with sched_policy = Gpu_sim.Config.Round_robin }
  in
  let get = Harness.Experiments.get ctx in
  let base = get b T.Original in
  let default = get ~cfg:Gpu_sim.Config.default b T.Original in
  let w1 = get ~cfg:wave32 b T.Original in
  let w2 = get ~tag:"again" ~cfg:{ wave32 with wave_size = 32 } b T.Original in
  let r = get ~cfg:rr b T.Original in
  let o = get ~optimize:true b T.Original in
  let wo = get ~cfg:wave32 ~optimize:true b T.Original in
  let labels = List.map fst (Harness.Experiments.cached_summaries ctx) in
  check Alcotest.bool "the context's config passed explicitly is one run" true
    (base == default);
  check Alcotest.bool "same non-default config twice is one run" true (w1 == w2);
  check Alcotest.bool "a non-default config is a distinct run" true (w1 != base);
  check Alcotest.bool "another config is another run" true (r != w1 && r != base);
  check Alcotest.bool "the optimizer is a distinct run" true
    (o != base && wo != w1 && wo != o);
  check Alcotest.int "five runs cached" 5 (List.length labels);
  check Alcotest.int "labels pairwise distinct" 5
    (List.length (List.sort_uniq compare labels));
  check Alcotest.bool "the context's run keeps its plain label" true
    (List.mem "PS/Original" labels)

let cache_suite =
  [
    tc "cache key: cfg and optimize fingerprinted" `Quick
      test_cache_key_cfg_and_optimize;
    tc "cache key: window_cycles fingerprinted" `Quick test_cache_key_window;
    tc "cache key: usage_override fingerprinted" `Quick
      test_cache_key_usage_override;
    tc "cache key: tag is display-only" `Quick test_cache_key_ignores_tag;
  ]

(* ------------------------------------------------------------------ *)
(* Campaign map hook                                                   *)
(* ------------------------------------------------------------------ *)

let test_campaign_map_equivalence () =
  (* a synthetic experiment whose observations depend only on the plan,
     so sequential and pooled campaigns must tally identically *)
  let experiment =
    {
      Fault.Campaign.run =
        (fun ~inject ->
          let plan = Option.get inject in
          let sdc = plan.Gpu_sim.Device.iseed mod 3 = 0 in
          {
            Fault.Campaign.oc = Gpu_sim.Device.Finished;
            output_ok = not sdc;
            applied = plan.Gpu_sim.Device.at_cycle mod 5 <> 0;
            latency = None;
            prov = None;
            san_clean = None;
          });
      golden_cycles = 10_000;
    }
  in
  let target = Gpu_sim.Device.T_vgpr in
  let seq = Fault.Campaign.run ~n:16 ~target ~seed:42 experiment in
  let pool = Harness.Pool.create ~jobs:4 () in
  let par =
    Fault.Campaign.run ~n:16 ~map:(Harness.Pool.map pool) ~target ~seed:42
      experiment
  in
  check Alcotest.string "identical tallies"
    (Fault.Campaign.tally_to_string seq)
    (Fault.Campaign.tally_to_string par);
  check Alcotest.int "identical not_applied" seq.Fault.Campaign.not_applied
    par.Fault.Campaign.not_applied

let campaign_suite =
  [ tc "campaign: map hook is order-safe" `Quick test_campaign_map_equivalence ]

(* ------------------------------------------------------------------ *)
(* Determinism: report text is byte-identical at any -j                *)
(* ------------------------------------------------------------------ *)

let test_fig2_j_independence () =
  let fig2_at jobs = Harness.Experiments.fig2 (Harness.Experiments.create_ctx ~jobs ()) in
  let t1 = fig2_at 1 in
  let t4 = fig2_at 4 in
  check Alcotest.bool "fig2 text is non-trivial" true
    (String.length t1 > 200);
  check Alcotest.string "fig2 -j1 == fig2 -j4" t1 t4

let determinism_suite =
  [ tc "determinism: fig2 at -j1 vs -j4" `Slow test_fig2_j_independence ]

let suite = pool_suite @ cache_suite @ campaign_suite @ determinism_suite
