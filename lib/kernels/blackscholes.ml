(** BlackScholes (BlkSch) — AMD SDK sample.

    European option pricing: each work-item reads one underlying price
    and writes the call and put values computed with the cumulative
    normal distribution polynomial approximation (Abramowitz & Stegun
    26.2.17, as in the SDK). Long dependent chains of transcendental VALU
    work and only two stores per item: compute-bound, the paper's
    expected ~2x RMT slowdown case. *)

open Gpu_ir

let strike = 100.0
let riskfree = 0.02
let volatility = 0.30
let years = 1.0

(* CND polynomial coefficients *)
let a1 = 0.319381530
let a2 = -0.356563782
let a3 = 1.781477937
let a4 = -1.821255978
let a5 = 1.330274429
let inv_sqrt_2pi = 0.3989422804014327

(* Emit the cumulative normal distribution of [d]. *)
let cnd b d =
  let open Builder in
  let absd = fabs b d in
  let k =
    frcp b (fadd b (immf 1.0) (fmul b (immf 0.2316419) absd))
  in
  let poly =
    (* k * (a1 + k*(a2 + k*(a3 + k*(a4 + k*a5)))) *)
    let t = fma b k (immf a5) (immf a4) in
    let t = fma b k t (immf a3) in
    let t = fma b k t (immf a2) in
    let t = fma b k t (immf a1) in
    fmul b k t
  in
  let pdf =
    fmul b (immf inv_sqrt_2pi)
      (fexp b (fmul b (immf (-0.5)) (fmul b absd absd)))
  in
  let w = fsub b (immf 1.0) (fmul b pdf poly) in
  (* d < 0 => 1 - w *)
  select b (flt b d (immf 0.0)) (fsub b (immf 1.0) w) w

let make_kernel () =
  let b = Builder.create "blackscholes" in
  let price = Builder.buffer_param b "price" in
  let call = Builder.buffer_param b "call" in
  let put = Builder.buffer_param b "put" in
  let gid = Builder.global_id b 0 in
  let s = Builder.gload_elem b price gid in
  let open Builder in
  let sqrt_t = immf (sqrt years) in
  let sig_sqrt_t = immf (volatility *. sqrt years) in
  let d1 =
    let num =
      fadd b
        (flog b (fdiv b s (immf strike)))
        (immf ((riskfree +. (0.5 *. volatility *. volatility)) *. years))
    in
    fdiv b num sig_sqrt_t
  in
  let d2 = fsub b d1 sig_sqrt_t in
  ignore sqrt_t;
  let nd1 = cnd b d1 in
  let nd2 = cnd b d2 in
  let kexp = immf (strike *. exp (-.riskfree *. years)) in
  let c = fsub b (fmul b s nd1) (fmul b kexp nd2) in
  (* put via parity: p = c - s + K*exp(-rT) *)
  let p = fadd b (fsub b c s) kexp in
  gstore_elem b call gid c;
  gstore_elem b put gid p;
  Builder.finish b

(* CPU reference with the same formulas in f32 steps. *)
let ref_price s =
  let open Bench.F in
  let r32 = Gpu_ir.F32.round in
  let sig_sqrt_t = r32 (volatility *. Stdlib.sqrt years) in
  let d1 =
    log (s / r32 strike)
    + r32 ((riskfree +. (0.5 *. volatility *. volatility)) *. years)
  in
  let d1 = d1 / sig_sqrt_t in
  let d2 = d1 - sig_sqrt_t in
  let cnd d =
    let absd = Float.abs d in
    let k = r32 (1.0) / (r32 1.0 + (r32 0.2316419 * absd)) in
    let t = (k * r32 a5) + r32 a4 in
    let t = (k * t) + r32 a3 in
    let t = (k * t) + r32 a2 in
    let t = (k * t) + r32 a1 in
    let poly = k * t in
    let pdf = r32 inv_sqrt_2pi * exp (r32 (-0.5) * (absd * absd)) in
    let w = r32 1.0 - (pdf * poly) in
    if d < 0.0 then r32 1.0 - w else w
  in
  let kexp = r32 (strike *. Stdlib.exp (-.riskfree *. years)) in
  let c = (s * cnd d1) - (kexp * cnd d2) in
  let p = c - s + kexp in
  (c, p)

let prepare dev ~scale =
  let n = 16384 * scale in
  let rng = Bench.Rng.create 7 in
  let prices = Array.init n (fun _ -> Bench.Rng.float rng 20.0 180.0) in
  let price = Bench.upload_f32 dev prices in
  let call = Bench.alloc_out dev n in
  let put = Bench.alloc_out dev n in
  let expect_c = Array.map (fun s -> fst (ref_price s)) prices in
  let expect_p = Array.map (fun s -> snd (ref_price s)) prices in
  let nd = Gpu_sim.Geom.make_ndrange n 128 in
  {
    Bench.steps =
      [ { Bench.args = [ Gpu_sim.Device.A_buf price; A_buf call; A_buf put ]; nd } ];
    verify =
      (fun dev ->
        Bench.verify_f32_buffer dev call expect_c ~tol:1e-3 ()
        && Bench.verify_f32_buffer dev put expect_p ~tol:1e-3 ());
  }

let bench : Bench.t =
  {
    id = "BlkSch";
    name = "BlackScholes";
    character = Bench.Compute_bound;
    make_kernel;
    prepare;
  }
