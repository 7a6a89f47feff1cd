(* Tests for the optimizer: unit behaviour of each pass, pipeline
   convergence, register-pressure reduction on RMT output, and
   differential fuzzing (optimized and RMT-transformed random kernels
   must compute exactly what the unoptimized originals compute). *)

open Gpu_ir
module T = Rmt_core.Transform

let check = Alcotest.check
let tc = Alcotest.test_case

let count_insts k =
  let n = ref 0 in
  Types.iter_inst (fun _ -> incr n) k.Types.body;
  !n

(* ------------------------------------------------------------------ *)
(* Constant folding                                                    *)
(* ------------------------------------------------------------------ *)

let test_const_fold_arith () =
  let b = Builder.create "cf" in
  let out = Builder.buffer_param b "out" in
  let v = Builder.add b (Builder.imm 2) (Builder.imm 3) in
  let w = Builder.mul b v (Builder.imm 0) in
  let x = Builder.add b w (Builder.global_id b 0) in
  Builder.gstore_elem b out (Builder.imm 0) x;
  let k = Opt.optimize (Builder.finish b) in
  (* after folding 2+3, *0 and +0, only id query, address math and the
     store chain survive *)
  let s = Stats.collect k in
  check Alcotest.bool "folded below 6 insts"
    true (s.Stats.total <= 6);
  check Alcotest.int "store survives" 1 s.Stats.global_stores

let test_const_fold_float () =
  let folded = Opt.fold_inst (Types.Farith (Types.Fadd, 0, Types.Imm_f32 1.5, Types.Imm_f32 0.25)) in
  match folded with
  | Types.Mov (0, Types.Imm bits) ->
      check (Alcotest.float 0.0) "1.75" 1.75
        (F32.to_float (Int32.to_int bits))
  | _ -> Alcotest.fail "float add not folded"

let test_fold_select () =
  (match Opt.fold_inst (Types.Select (0, Types.Imm 1l, Types.Reg 1, Types.Reg 2)) with
  | Types.Mov (0, Types.Reg 1) -> ()
  | _ -> Alcotest.fail "select true not folded");
  match Opt.fold_inst (Types.Select (0, Types.Imm 0l, Types.Reg 1, Types.Reg 2)) with
  | Types.Mov (0, Types.Reg 2) -> ()
  | _ -> Alcotest.fail "select false not folded"

let test_fold_division_by_zero () =
  match Opt.fold_inst (Types.Iarith (Types.Div_s, 0, Types.Imm 5l, Types.Imm 0l)) with
  | Types.Mov (0, Types.Imm 0l) -> ()
  | _ -> Alcotest.fail "div by zero must fold to the defined 0"

(* ------------------------------------------------------------------ *)
(* Dead code                                                           *)
(* ------------------------------------------------------------------ *)

let test_dead_code_removes_unused () =
  let b = Builder.create "dce" in
  let out = Builder.buffer_param b "out" in
  let gid = Builder.global_id b 0 in
  let _unused = Builder.mul b gid (Builder.imm 42) in
  let _unused2 = Builder.fsqrt b (Builder.immf 2.0) in
  Builder.gstore_elem b out gid gid;
  let k0 = Builder.finish b in
  let k = Opt.dead_code k0 in
  check Alcotest.bool "fewer instructions" true (count_insts k < count_insts k0)

let test_dead_code_keeps_effects () =
  let b = Builder.create "dce2" in
  let out = Builder.buffer_param b "out" in
  let gid = Builder.global_id b 0 in
  let _dead_load = Builder.gload_elem b out gid in
  ignore (Builder.atomic_add b Types.Global out (Builder.imm 1));
  Builder.trap b (Builder.imm 0);
  Builder.barrier b;
  let k = Opt.optimize (Builder.finish b) in
  let s = Stats.collect k in
  check Alcotest.int "load kept (may fault)" 1 s.Stats.global_loads;
  check Alcotest.int "atomic kept" 1 s.Stats.atomics;
  check Alcotest.int "trap kept" 1 s.Stats.traps;
  check Alcotest.int "barrier kept" 1 s.Stats.barriers

(* ------------------------------------------------------------------ *)
(* CSE / copy propagation                                              *)
(* ------------------------------------------------------------------ *)

let test_cse_id_queries () =
  let b = Builder.create "cse" in
  let out = Builder.buffer_param b "out" in
  (* the same ID query twice, as RMT store-site rewrites produce *)
  let g1 = Builder.global_id b 0 in
  let g2 = Builder.global_id b 0 in
  Builder.gstore_elem b out g1 (Builder.add b g1 g2);
  let k = Opt.optimize (Builder.finish b) in
  let queries = ref 0 in
  Types.iter_inst
    (function Types.Special (Types.Global_id 0, _) -> incr queries | _ -> ())
    k.Types.body;
  check Alcotest.int "one id query remains" 1 !queries

let test_copy_prop_through_mov () =
  let b = Builder.create "cp" in
  let out = Builder.buffer_param b "out" in
  let gid = Builder.global_id b 0 in
  let m1 = Builder.mov b gid in
  let m2 = Builder.mov b m1 in
  Builder.gstore_elem b out m2 m2;
  let k = Opt.optimize (Builder.finish b) in
  let movs = ref 0 in
  Types.iter_inst (function Types.Mov _ -> incr movs | _ -> ()) k.Types.body;
  check Alcotest.int "mov chain collapsed" 0 !movs

let test_copy_prop_respects_loops () =
  (* binding to a register redefined in a loop must not propagate into or
     across the loop *)
  let b = Builder.create "cploop" in
  let out = Builder.buffer_param b "out" in
  let x = Builder.cell b (Builder.imm 1) in
  let y = Builder.mov b (Builder.get x) in
  Builder.for_ b ~lo:(Builder.imm 0) ~hi:(Builder.imm 3) ~step:(Builder.imm 1)
    (fun _ -> Builder.set b x (Builder.add b (Builder.get x) (Builder.imm 1)));
  Builder.gstore_elem b out (Builder.imm 0) y;
  Builder.gstore_elem b out (Builder.imm 1) (Builder.get x);
  let k0 = Builder.finish b in
  let k = Opt.optimize k0 in
  (* semantics check by execution *)
  let run kernel =
    let dev = Gpu_sim.Device.create Gpu_sim.Config.small in
    let buf = Gpu_sim.Device.alloc dev 64 in
    ignore
      (Gpu_sim.Device.launch dev kernel ~nd:(Gpu_sim.Geom.make_ndrange 1 1)
         ~args:[ Gpu_sim.Device.A_buf buf ]);
    (Gpu_sim.Device.read_i32 dev buf 0, Gpu_sim.Device.read_i32 dev buf 1)
  in
  check
    (Alcotest.pair Alcotest.int Alcotest.int)
    "optimized = original" (run k0) (run k);
  check (Alcotest.pair Alcotest.int Alcotest.int) "expected values" (1, 4) (run k)

(* ------------------------------------------------------------------ *)
(* Effect on RMT output                                                *)
(* ------------------------------------------------------------------ *)

let test_optimizer_shrinks_rmt_kernels () =
  List.iter
    (fun id ->
      let k0 = (Kernels.Registry.find id).make_kernel () in
      let rmt = T.apply T.intra_plus_lds ~local_items:128 k0 in
      let opt = Opt.optimize rmt in
      Verify.check opt;
      let u_rmt = Regpressure.analyze rmt in
      let u_opt = Regpressure.analyze opt in
      check Alcotest.bool
        (Printf.sprintf "%s: optimizer does not raise pressure (%d -> %d)" id
           u_rmt.Regpressure.vgprs u_opt.Regpressure.vgprs)
        true
        (u_opt.Regpressure.vgprs <= u_rmt.Regpressure.vgprs);
      check Alcotest.bool
        (Printf.sprintf "%s: not more instructions" id)
        true
        (count_insts opt <= count_insts rmt))
    [ "R"; "SF"; "BlkSch"; "FWT" ]

let test_optimize_idempotent () =
  let k = (Kernels.Registry.find "MM").make_kernel () in
  let o1 = Opt.optimize k in
  let o2 = Opt.optimize o1 in
  check Alcotest.bool "fixed point" true (o1.Types.body = o2.Types.body)

(* Property over the fuzz corpus, seeded defects included: a kernel with
   a planted race or out-of-bounds store is still well-formed IR, and
   the optimizer must (a) keep it {!Verify.check}-clean and (b) reach a
   fixed point in one application. *)
let test_fuzz_optimize_idempotent_verified () =
  for seed = 1 to 10 do
    List.iter
      (fun (what, k) ->
        Verify.check k;
        let o1 = Opt.optimize k in
        (match Verify.check_result o1 with
        | Ok () -> ()
        | Error e ->
            Alcotest.fail
              (Printf.sprintf "optimized %s (seed %d) fails Verify: %s" what
                 seed e));
        let o2 = Opt.optimize o1 in
        if o1.Types.body <> o2.Types.body then
          Alcotest.fail
            (Printf.sprintf "optimize not idempotent on %s (seed %d)" what
               seed))
      (("clean", Gen_kernel.generate seed)
      :: List.map
           (fun d ->
             (Gen_kernel.defect_name d, Gen_kernel.generate ~defect:d seed))
           Gen_kernel.all_defects)
  done

(* ------------------------------------------------------------------ *)
(* Differential fuzzing                                                *)
(* ------------------------------------------------------------------ *)

(* Every fuzzed run also executes under the dynamic sanitizer: a pass or
   a transform that introduces a race, an uninitialized read or an
   out-of-bounds access fails the property even when the output happens
   to match. *)
let run_clean ?transform ?optimize what seed =
  let san = Gpu_san.Shadow.create () in
  let out = Gen_kernel.run ?transform ?optimize ~san seed in
  if not (Gpu_san.Shadow.clean san) then
    Alcotest.fail
      (Printf.sprintf "%s (seed %d) not sanitizer-clean:\n%s" what seed
         (Gpu_san.Report.to_string (Gpu_san.Shadow.findings san)));
  out

let test_fuzz_optimizer () =
  for seed = 1 to 40 do
    let base = run_clean "base" seed in
    let opt = run_clean ~optimize:true "optimized" seed in
    if base <> opt then
      Alcotest.fail (Printf.sprintf "optimizer changed semantics (seed %d)" seed)
  done

let test_fuzz_rmt_variants () =
  List.iter
    (fun variant ->
      for seed = 1 to 15 do
        let base = Gen_kernel.run seed in
        let rmt = run_clean ~transform:variant (T.name variant) seed in
        if base <> rmt then
          Alcotest.fail
            (Printf.sprintf "%s changed semantics (seed %d)" (T.name variant)
               seed)
      done)
    [ T.intra_plus_lds; T.intra_minus_lds; T.intra_plus_lds_fast; T.inter_group ]

let test_fuzz_rmt_plus_optimizer () =
  for seed = 1 to 15 do
    let base = Gen_kernel.run seed in
    let both =
      run_clean ~transform:T.intra_plus_lds ~optimize:true "RMT+optimizer" seed
    in
    if base <> both then
      Alcotest.fail
        (Printf.sprintf "RMT+optimizer changed semantics (seed %d)" seed)
  done

let suite =
  [
    tc "constfold: arithmetic" `Quick test_const_fold_arith;
    tc "constfold: float" `Quick test_const_fold_float;
    tc "constfold: select" `Quick test_fold_select;
    tc "constfold: division by zero" `Quick test_fold_division_by_zero;
    tc "dce: removes unused" `Quick test_dead_code_removes_unused;
    tc "dce: keeps effects" `Quick test_dead_code_keeps_effects;
    tc "cse: id queries" `Quick test_cse_id_queries;
    tc "copyprop: mov chains" `Quick test_copy_prop_through_mov;
    tc "copyprop: loop safety" `Quick test_copy_prop_respects_loops;
    tc "optimizer shrinks RMT kernels" `Quick test_optimizer_shrinks_rmt_kernels;
    tc "optimize idempotent" `Quick test_optimize_idempotent;
    tc "fuzz: idempotent + Verify-clean" `Quick
      test_fuzz_optimize_idempotent_verified;
    tc "fuzz: optimizer differential" `Slow test_fuzz_optimizer;
    tc "fuzz: RMT differential" `Slow test_fuzz_rmt_variants;
    tc "fuzz: RMT + optimizer" `Slow test_fuzz_rmt_plus_optimizer;
  ]
