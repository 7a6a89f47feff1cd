(** BinomialOption (BO) — AMD SDK sample.

    Binomial-lattice option pricing: one work-group per option, one
    work-item per lattice leaf, and a backward induction loop that
    contracts the lattice one level per iteration with barrier-separated
    LDS reads and writes. BO is the paper's canonical LDS-bound kernel:
    "the runtime of BO is not bound by vector computation or global
    memory operations, but rather by a high number of local memory
    accesses" — so Intra-Group−LDS halves its LDS writes but pays an
    equally large price communicating each one (Figure 4). *)

open Gpu_ir

let wg = 128
let steps = wg - 1
let riskfree = 0.02
let volatility = 0.30
let years = 1.0
let strike = 100.0

(* host-side lattice constants, in f32 *)
let consts () =
  let r32 = Gpu_ir.F32.round in
  let dt = r32 (years /. float_of_int steps) in
  let u = r32 (exp (volatility *. sqrt dt)) in
  let d = r32 (1.0 /. u) in
  let disc = r32 (exp (-.riskfree *. dt)) in
  let pu = r32 ((r32 (exp (riskfree *. dt)) -. d) /. (u -. d)) in
  let pd = r32 (1.0 -. pu) in
  (u, d, disc, pu, pd)

let make_kernel () =
  let u, d, disc, pu, pd = consts () in
  let b = Builder.create "binomial_option" in
  let price = Builder.buffer_param b "price" in
  let out = Builder.buffer_param b "out" in
  let lds = Builder.lds_alloc b "lattice" (wg * 4) in
  let lid = Builder.local_id b 0 in
  let grp = Builder.group_id b 0 in
  let open Builder in
  let slot i = add b lds (shl b i (imm 2)) in
  let s = gload_elem b price grp in
  (* leaf value: max(0, S * u^lid * d^(steps-lid) - K)
     computed as S * exp(lid*ln u + (steps-lid)*ln d) *)
  let flid = s32_to_f32 b lid in
  let frem = s32_to_f32 b (sub b (imm steps) lid) in
  let expo =
    fadd b
      (fmul b flid (immf (log u)))
      (fmul b frem (immf (log d)))
  in
  let leaf_price = fmul b s (fexp b expo) in
  let payoff = fmax b (immf 0.0) (fsub b leaf_price (immf strike)) in
  lstore b (slot lid) payoff;
  barrier b;
  let j = cell b (imm (steps - 1)) in
  while_ b
    (fun () -> ge_s b (get j) (imm 0))
    (fun () ->
      let x = cell b (immf 0.0) in
      let active = le_s b lid (get j) in
      when_ b active (fun () ->
          let a = lload b (slot lid) in
          let c = lload b (slot (add b lid (imm 1))) in
          set b x
            (fmul b (immf disc)
               (fadd b (fmul b (immf pu) c) (fmul b (immf pd) a))));
      barrier b;
      when_ b active (fun () -> lstore b (slot lid) (get x));
      barrier b;
      set b j (sub b (get j) (imm 1)));
  when_ b (eq b lid (imm 0)) (fun () ->
      gstore_elem b out grp (lload b (slot (imm 0))));
  Builder.finish b

let ref_binomial s =
  let u, d, disc, pu, pd = consts () in
  let r = Gpu_ir.F32.round in
  let lattice =
    Array.init wg (fun i ->
        let expo =
          r
            (r (float_of_int i *. r (log u))
            +. r (float_of_int (steps - i) *. r (log d)))
        in
        Float.max 0.0 (r ((s *. r (exp expo)) -. strike)))
  in
  for j = steps - 1 downto 0 do
    for i = 0 to j do
      lattice.(i) <-
        r (disc *. r (r (pu *. lattice.(i + 1)) +. r (pd *. lattice.(i))))
    done
  done;
  lattice.(0)

let prepare dev ~scale =
  let n_options = 256 * scale in
  let rng = Bench.Rng.create 79 in
  let prices = Array.init n_options (fun _ -> Bench.Rng.float rng 50.0 150.0) in
  let price = Bench.upload_f32 dev prices in
  let out = Bench.alloc_out dev n_options in
  let expected = Array.map ref_binomial prices in
  let nd = Gpu_sim.Geom.make_ndrange (n_options * wg) wg in
  {
    Bench.steps =
      [ { Bench.args = [ Gpu_sim.Device.A_buf price; A_buf out ]; nd } ];
    verify = (fun dev -> Bench.verify_f32_buffer dev out expected ~tol:1e-2 ());
  }

let bench : Bench.t =
  {
    id = "BO";
    name = "BinomialOption";
    character = Bench.Lds_bound;
    make_kernel;
    prepare;
  }
