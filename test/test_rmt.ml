(* Tests for the rmt_core compiler passes: static shape of the transformed
   kernels, end-to-end correctness of every flavor on synthetic kernels,
   SoR model consistency, and the ablation helpers. *)

open Gpu_ir
module Sim = Gpu_sim
module T = Rmt_core.Transform

let check = Alcotest.check
let tc = Alcotest.test_case

let all_variants =
  [
    T.intra_plus_lds;
    T.intra_minus_lds;
    T.intra_plus_lds_fast;
    T.intra_minus_lds_fast;
    T.Intra { include_lds = true; comm = Rmt_core.Intra_group.Comm_none };
    T.inter_group;
    T.Inter Rmt_core.Inter_group.No_comm;
  ]

(* A synthetic kernel exercising ids, LDS, barriers, control flow and
   both store kinds. Computes out[gid] = gid + group-reversed(lid). *)
let synthetic () =
  let b = Builder.create "synthetic" in
  let out = Builder.buffer_param b "out" in
  let lds = Builder.lds_alloc b "x" (64 * 4) in
  let gid = Builder.global_id b 0 in
  let lid = Builder.local_id b 0 in
  let slot i = Builder.add b lds (Builder.shl b i (Builder.imm 2)) in
  Builder.lstore b (slot lid) lid;
  Builder.barrier b;
  let rev = Builder.sub b (Builder.imm 63) lid in
  let v = Builder.lload b (slot rev) in
  Builder.when_ b
    (Builder.eq b (Builder.and_ b gid (Builder.imm 1)) (Builder.imm 0))
    (fun () -> Builder.gstore_elem b out gid (Builder.add b gid v));
  Builder.finish b

let expected_synthetic n =
  Array.init n (fun i -> if i land 1 = 0 then i + (63 - (i mod 64)) else 0)

(* Every end-to-end run here also executes under the dynamic sanitizer:
   a transform that smuggles in a race or an uninitialized read fails
   the correctness tests even when the output happens to match. *)
let assert_clean what san =
  if not (Gpu_san.Shadow.clean san) then
    Alcotest.fail
      (Printf.sprintf "%s not sanitizer-clean:\n%s" what
         (Gpu_san.Report.to_string (Gpu_san.Shadow.findings san)))

let run_synthetic variant =
  let k0 = synthetic () in
  let k = T.apply variant ~local_items:64 k0 in
  Verify.check k;
  let san = Gpu_san.Shadow.create () in
  let dev = Sim.Device.create ~san Sim.Config.small in
  let n = 256 in
  let buf = Sim.Device.alloc dev (n * 4) in
  let nd0 = Sim.Geom.make_ndrange n 64 in
  let nd = T.map_ndrange variant nd0 in
  let args = [ Sim.Device.A_buf buf ] @ (T.make_extras variant dev ~nd:nd0).ex_args in
  let r = Sim.Device.launch dev k ~nd ~args in
  assert_clean (T.name variant) san;
  (r, Sim.Device.read_i32_array dev buf n)

(* ------------------------------------------------------------------ *)
(* End-to-end correctness of every variant                             *)
(* ------------------------------------------------------------------ *)

let test_variant_correct variant () =
  let r, got = run_synthetic variant in
  check Alcotest.bool "finished" true (r.Sim.Device.outcome = Sim.Device.Finished);
  check Alcotest.bool "output matches original semantics" true
    (got = expected_synthetic 256)

(* ------------------------------------------------------------------ *)
(* Static shape                                                        *)
(* ------------------------------------------------------------------ *)

let test_intra_plus_shape () =
  let k0 = synthetic () in
  let k = T.apply T.intra_plus_lds ~local_items:64 k0 in
  (* LDS: original allocation doubled plus the communication buffer *)
  check Alcotest.int "lds doubled + comm" ((64 * 4 * 2) + (64 * 8))
    (Types.lds_bytes k);
  let s = Stats.collect k in
  let s0 = Stats.collect k0 in
  check Alcotest.bool "adds a trap per global store" true
    (s.Stats.traps = s0.Stats.global_stores);
  check Alcotest.int "same number of final global stores" s0.Stats.global_stores
    s.Stats.global_stores;
  check Alcotest.int "params unchanged" (Types.param_count k0)
    (Types.param_count k)

let test_intra_minus_shape () =
  let k0 = synthetic () in
  let k = T.apply T.intra_minus_lds ~local_items:64 k0 in
  (* LDS allocation NOT doubled; comm buffer added *)
  check Alcotest.int "lds kept + comm" ((64 * 4) + (64 * 8)) (Types.lds_bytes k);
  let s = Stats.collect k in
  let s0 = Stats.collect k0 in
  (* traps guard both global and local stores *)
  check Alcotest.int "trap per exiting store"
    (s0.Stats.global_stores + s0.Stats.local_stores)
    s.Stats.traps

let test_intra_fast_shape () =
  let k0 = synthetic () in
  let k = T.apply T.intra_plus_lds_fast ~local_items:64 k0 in
  let s = Stats.collect k in
  check Alcotest.bool "uses swizzles" true (s.Stats.swizzles >= 2);
  (* no communication buffer in FAST mode *)
  check Alcotest.int "lds only doubled" (64 * 4 * 2) (Types.lds_bytes k)

let test_inter_shape () =
  let k0 = synthetic () in
  let k = T.apply T.inter_group ~local_items:64 k0 in
  check Alcotest.int "two extra params" (Types.param_count k0 + 2)
    (Types.param_count k);
  let s = Stats.collect k in
  check Alcotest.bool "uses global atomics" true (s.Stats.atomics > 0);
  check Alcotest.bool "adds spin loops" true
    (s.Stats.loops > (Stats.collect k0).Stats.loops);
  (* the wgid broadcast allocation *)
  check Alcotest.int "wgid lds slot" ((64 * 4) + 4) (Types.lds_bytes k)

let test_transformed_verify_all_benchmarks () =
  List.iter
    (fun (bench : Kernels.Bench.t) ->
      let k0 = bench.make_kernel () in
      List.iter
        (fun variant ->
          let k = T.apply variant ~local_items:128 k0 in
          match Verify.check_result k with
          | Ok () -> ()
          | Error m ->
              Alcotest.fail
                (Printf.sprintf "%s under %s: %s" bench.id (T.name variant) m))
        all_variants)
    Kernels.Registry.all

let test_rejects_global_atomics () =
  let b = Builder.create "atomic_kernel" in
  let out = Builder.buffer_param b "out" in
  ignore (Builder.atomic_add b Types.Global out (Builder.imm 1));
  let k = Builder.finish b in
  check Alcotest.bool "intra rejects global atomics" true
    (match T.apply T.intra_plus_lds ~local_items:64 k with
    | exception Rmt_core.Intra_group.Unsupported _ -> true
    | _ -> false);
  check Alcotest.bool "inter rejects global atomics" true
    (match T.apply T.inter_group ~local_items:64 k with
    | exception Rmt_core.Intra_group.Unsupported _ -> true
    | _ -> false)

let test_rejects_local_atomics_minus_lds () =
  let b = Builder.create "latomic" in
  let out = Builder.buffer_param b "out" in
  let lds = Builder.lds_alloc b "c" 4 in
  ignore (Builder.atomic_add b Types.Local lds (Builder.imm 1));
  Builder.barrier b;
  Builder.gstore_elem b out (Builder.imm 0) (Builder.lload b lds);
  let k = Builder.finish b in
  (* +LDS duplicates the counter per twin: allowed *)
  ignore (T.apply T.intra_plus_lds ~local_items:64 k);
  (* -LDS cannot guard a read-modify-write store: rejected *)
  check Alcotest.bool "-lds rejects local atomics" true
    (match T.apply T.intra_minus_lds ~local_items:64 k with
    | exception Rmt_core.Intra_group.Unsupported _ -> true
    | _ -> false)

let test_rejects_double_transform () =
  let k0 = synthetic () in
  let k = T.apply T.intra_plus_lds ~local_items:64 k0 in
  check Alcotest.bool "transformed kernel (contains traps) rejected" true
    (match T.apply T.intra_plus_lds ~local_items:128 k with
    | exception Rmt_core.Intra_group.Unsupported _ -> true
    | _ -> false)

let test_ndrange_mapping () =
  let nd = Sim.Geom.make_ndrange 256 64 ~gy:8 ~ly:4 in
  let intra = T.map_ndrange T.intra_plus_lds nd in
  check Alcotest.int "intra doubles local x" 128 intra.Sim.Geom.local.(0);
  check Alcotest.int "intra doubles global x" 512 intra.Sim.Geom.global.(0);
  check Alcotest.int "intra keeps group count"
    (Sim.Geom.total_groups nd)
    (Sim.Geom.total_groups intra);
  let inter = T.map_ndrange T.inter_group nd in
  check Alcotest.int "inter keeps local x" 64 inter.Sim.Geom.local.(0);
  check Alcotest.int "inter doubles groups"
    (2 * Sim.Geom.total_groups nd)
    (Sim.Geom.total_groups inter)

(* ------------------------------------------------------------------ *)
(* Detection semantics                                                 *)
(* ------------------------------------------------------------------ *)

(* Force a twin divergence with a deterministic fault: flip a VGPR bit of
   every resident wave until one run detects. This checks that the
   generated compare/trap actually fires on real mismatches. *)
let test_detection_fires () =
  let k0 = synthetic () in
  let k = T.apply T.intra_plus_lds ~local_items:64 k0 in
  let detected = ref false in
  let seed = ref 1 in
  while (not !detected) && !seed < 60 do
    let dev = Sim.Device.create Sim.Config.small in
    let buf = Sim.Device.alloc dev (256 * 4) in
    let l =
      Sim.Device.Launch.create dev k
        ~nd:(T.map_ndrange T.intra_plus_lds (Sim.Geom.make_ndrange 256 64))
        ~args:[ Sim.Device.A_buf buf ]
    in
    Sim.Device.Launch.inject l
      {
        Sim.Device.at_cycle = 40 + (!seed * 13);
        target = Sim.Device.T_vgpr;
        iseed = !seed;
      }
      ~stop_when_dead:false;
    let r = Sim.Device.Launch.finish l in
    if r.Sim.Device.outcome = Sim.Device.Detected then detected := true;
    incr seed
  done;
  check Alcotest.bool "some VGPR flip is detected" true !detected

(* Fault-free RMT runs must never trap (twins are identical). *)
let test_no_false_positives () =
  List.iter
    (fun variant ->
      let r, _ = run_synthetic variant in
      check Alcotest.bool
        (T.name variant ^ " does not trap without faults")
        true
        (r.Sim.Device.outcome = Sim.Device.Finished))
    all_variants

(* ------------------------------------------------------------------ *)
(* SoR model                                                           *)
(* ------------------------------------------------------------------ *)

let test_sor_tables () =
  let open Rmt_core.Sor in
  check Alcotest.bool "intra+lds protects LDS" true (protects Intra_plus_lds LDS);
  check Alcotest.bool "intra-lds does not protect LDS" false
    (protects Intra_minus_lds LDS);
  check Alcotest.bool "intra does not protect SRF" false
    (protects Intra_plus_lds SRF);
  check Alcotest.bool "inter protects SRF" true (protects Inter_group SRF);
  check Alcotest.bool "nobody protects L1" false
    (List.exists
       (fun f -> protects f L1_cache)
       [ Intra_plus_lds; Intra_minus_lds; Inter_group ]);
  List.iter
    (fun s ->
      if s <> L1_cache then
        check Alcotest.bool (structure_name s ^ " in inter SoR") true
          (protects Inter_group s))
    all_structures

(* ------------------------------------------------------------------ *)
(* Ablation helpers                                                    *)
(* ------------------------------------------------------------------ *)

let test_inflation_targets () =
  let cfg = Sim.Config.default in
  let base : Regpressure.usage = { vgprs = 20; sgprs = 20; lds = 0 } in
  match
    Rmt_core.Ablation.usage_for_target_groups cfg ~base ~group_items:64
      ~target:8
  with
  | None -> Alcotest.fail "expected an inflation"
  | Some u ->
      let o = Sim.Occupancy.compute cfg ~usage:u ~group_items:64 in
      check Alcotest.int "inflated occupancy hits target" 8
        o.Sim.Occupancy.groups_per_cu

let test_inflation_impossible_below () =
  let cfg = Sim.Config.default in
  (* already below target: inflation cannot raise occupancy *)
  let base : Regpressure.usage = { vgprs = 200; sgprs = 20; lds = 0 } in
  check Alcotest.bool "cannot inflate upward" true
    (Rmt_core.Ablation.usage_for_target_groups cfg ~base ~group_items:256
       ~target:10
    = None)

let test_inter_inflation_even_rule () =
  let cfg = Sim.Config.default in
  let orig : Regpressure.usage = { vgprs = 20; sgprs = 20; lds = 0 } in
  (* RMT occupancy odd => excluded, as in the paper's starred subset *)
  let rmt_odd : Regpressure.usage = { vgprs = 20; sgprs = 20; lds = 5000 } in
  let o = Sim.Occupancy.compute cfg ~usage:rmt_odd ~group_items:64 in
  if o.Sim.Occupancy.groups_per_cu mod 2 = 1 then
    check Alcotest.bool "odd RMT occupancy excluded" true
      (Rmt_core.Ablation.inter_inflation cfg ~orig ~group_items:64
         ~rmt_usage:rmt_odd
      = None)

(* Every kernel version the evaluation can name, spelled out field by
   field: [Transform.name] must tell them apart, because the experiment
   cache keys runs by it. *)
let every_variant =
  [ T.Original ]
  @ List.concat_map
      (fun include_lds ->
        List.map
          (fun comm -> T.Intra { include_lds; comm })
          Rmt_core.Intra_group.[ Comm_lds; Comm_fast; Comm_none ])
      [ true; false ]
  @ List.map
      (fun scheme -> T.Inter scheme)
      Rmt_core.Inter_group.[ Per_item; No_comm; Pooled 64; Pooled 4096 ]
  @ [ T.Tmr ]

let test_variant_names_distinct () =
  let names = List.map T.name every_variant in
  check Alcotest.int "one name per variant" (List.length every_variant)
    (List.length (List.sort_uniq compare names))

let base_suite =
  List.map
    (fun v ->
      tc (Printf.sprintf "correct: %s" (T.name v)) `Quick (test_variant_correct v))
    all_variants
  @ [
      tc "shape: intra+lds" `Quick test_intra_plus_shape;
      tc "shape: intra-lds" `Quick test_intra_minus_shape;
      tc "shape: intra fast" `Quick test_intra_fast_shape;
      tc "shape: inter" `Quick test_inter_shape;
      tc "all 16 benchmarks transform + verify" `Quick
        test_transformed_verify_all_benchmarks;
      tc "rejects global atomics" `Quick test_rejects_global_atomics;
      tc "rejects local atomics (-LDS)" `Quick test_rejects_local_atomics_minus_lds;
      tc "rejects double transform" `Quick test_rejects_double_transform;
      tc "ndrange mapping" `Quick test_ndrange_mapping;
      tc "variant names are distinct" `Quick test_variant_names_distinct;
      tc "detection fires on VGPR flip" `Quick test_detection_fires;
      tc "no false positives" `Quick test_no_false_positives;
      tc "sor tables" `Quick test_sor_tables;
      tc "ablation: inflation target" `Quick test_inflation_targets;
      tc "ablation: impossible inflation" `Quick test_inflation_impossible_below;
      tc "ablation: inter even rule" `Quick test_inter_inflation_even_rule;
    ]

(* ------------------------------------------------------------------ *)
(* Pooled two-tier locking (the paper's actual Inter-Group scheme)     *)
(* ------------------------------------------------------------------ *)

(* Launch [k0] over [n] items in groups of 64 under pooled Inter-Group
   RMT with [pool_size] buffers: one output buffer, then the counter and
   pool that [Transform.make_extras] allocates. *)
let launch_pooled ?san ~max_cycles ~pool_size ~n k0 =
  let variant = T.Inter (Rmt_core.Inter_group.Pooled pool_size) in
  let k = T.apply variant ~local_items:64 k0 in
  Verify.check k;
  let dev = Sim.Device.create ?san { Sim.Config.small with max_cycles } in
  let buf = Sim.Device.alloc dev (n * 4) in
  let nd0 = Sim.Geom.make_ndrange n 64 in
  let extras = T.make_extras variant dev ~nd:nd0 in
  let r =
    Sim.Device.launch dev k ~nd:(T.map_ndrange variant nd0)
      ~args:(Sim.Device.A_buf buf :: extras.T.ex_args)
  in
  (r, Sim.Device.read_i32_array dev buf n)

let run_pooled pool_size =
  let san = Gpu_san.Shadow.create () in
  let res =
    launch_pooled ~san ~max_cycles:10_000_000 ~pool_size ~n:256 (synthetic ())
  in
  assert_clean (Printf.sprintf "pooled pool=%d" pool_size) san;
  res

let test_pooled_correct () =
  List.iter
    (fun pool ->
      let r, got = run_pooled pool in
      check Alcotest.bool
        (Printf.sprintf "pool=%d finished" pool)
        true
        (r.Sim.Device.outcome = Sim.Device.Finished);
      check Alcotest.bool
        (Printf.sprintf "pool=%d output correct" pool)
        true
        (got = expected_synthetic 256))
    [ 16; 64; 256 ]

(* With more work-groups than the device can hold resident, a single
   shared buffer can deadlock: a producer claims it for a consumer group
   that cannot be dispatched until resident groups finish — and they are
   all waiting on that same buffer. This is the starvation hazard the
   paper's Section 7.2 counter scheme addresses at group granularity;
   the watchdog surfaces it as a hang. *)
let test_pooled_tiny_pool_deadlocks () =
  let b = Builder.create "wide" in
  let out = Builder.buffer_param b "out" in
  let gid = Builder.global_id b 0 in
  Builder.gstore_elem b out gid gid;
  let r, _ =
    launch_pooled ~max_cycles:400_000 ~pool_size:1 ~n:4096 (Builder.finish b)
  in
  check Alcotest.bool "oversubscribed pool=1 deadlocks" true
    (r.Sim.Device.outcome = Sim.Device.Hung)

let test_pooled_contention_costs () =
  let r_small, _ = run_pooled 16 in
  let r_big, _ = run_pooled 256 in
  check Alcotest.bool
    (Printf.sprintf "tiny pool serializes (%d > %d)" r_small.Sim.Device.cycles
       r_big.Sim.Device.cycles)
    true
    (r_small.Sim.Device.cycles > r_big.Sim.Device.cycles)

let pooled_suite =
  [
    tc "pooled: correct at several pool sizes" `Quick test_pooled_correct;
    tc "pooled: tiny pool deadlocks" `Slow test_pooled_tiny_pool_deadlocks;
    tc "pooled: contention" `Quick test_pooled_contention_costs;
  ]



let test_rejects_user_swizzles () =
  let b = Builder.create "swz" in
  let out = Builder.buffer_param b "out" in
  let lid = Builder.local_id b 0 in
  let v = Builder.swizzle b Types.Dup_odd lid in
  Builder.gstore_elem b out lid v;
  let k = Builder.finish b in
  List.iter
    (fun variant ->
      check Alcotest.bool
        (T.name variant ^ " rejects user swizzles")
        true
        (match T.apply variant ~local_items:64 k with
        | exception Rmt_core.Intra_group.Unsupported _ -> true
        | _ -> false))
    [ T.intra_plus_lds; T.inter_group ]

let suite =
  base_suite @ pooled_suite
  @ [ tc "rejects user swizzles" `Quick test_rejects_user_swizzles ]
