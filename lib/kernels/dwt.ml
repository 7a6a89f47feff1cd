(** DwtHaar1D (DWT) — AMD SDK sample.

    Per-work-group 1D Haar wavelet decomposition: a 2·WG-element signal
    segment is staged into LDS and halved level by level, each level
    storing its detail coefficients to global memory and keeping the
    approximations in LDS. Memory-bound but with global stores at every
    level and heavy LDS traffic — the paper singles DWT out as
    memory-bound yet expensive under RMT because communication and the
    doubled work-group dominate (Figure 4), and as a big FAST-swizzle
    winner (Figure 9). *)

open Gpu_ir

let wg = 128
let seg = 2 * wg
let inv_sqrt2 = 0.7071067811865475

let make_kernel () =
  let b = Builder.create "dwt_haar1d" in
  let input = Builder.buffer_param b "input" in
  let output = Builder.buffer_param b "output" in
  let lds = Builder.lds_alloc b "approx" (seg * 4) in
  let lid = Builder.local_id b 0 in
  let grp = Builder.group_id b 0 in
  let open Builder in
  let slot i = add b lds (shl b i (imm 2)) in
  let gbase = mul b grp (imm seg) in
  (* load two elements per item *)
  let e0 = shl b lid (imm 1) in
  let e1 = add b e0 (imm 1) in
  lstore b (slot e0) (gload_elem b input (add b gbase e0));
  lstore b (slot e1) (gload_elem b input (add b gbase e1));
  barrier b;
  let len = cell b (imm seg) in
  while_ b
    (fun () -> gt_s b (get len) (imm 1))
    (fun () ->
      let half = lshr b (get len) (imm 1) in
      let a = cell b (immf 0.0) in
      let d = cell b (immf 0.0) in
      let active = lt_s b lid half in
      when_ b active (fun () ->
          let x = lload b (slot (shl b lid (imm 1))) in
          let y = lload b (slot (add b (shl b lid (imm 1)) (imm 1))) in
          set b a (fmul b (fadd b x y) (immf inv_sqrt2));
          set b d (fmul b (fsub b x y) (immf inv_sqrt2)));
      barrier b;
      when_ b active (fun () ->
          lstore b (slot lid) (get a);
          (* details of this level land at output[gbase + half + lid] *)
          gstore_elem b output (add b gbase (add b half lid)) (get d));
      barrier b;
      set b len half);
  when_ b (eq b lid (imm 0)) (fun () ->
      gstore_elem b output gbase (lload b (slot (imm 0))));
  Builder.finish b

let ref_dwt data =
  let n = Array.length data in
  let out = Array.make n 0.0 in
  let r = Gpu_ir.F32.round in
  let n_groups = n / seg in
  for g = 0 to n_groups - 1 do
    let buf = Array.sub data (g * seg) seg in
    let len = ref seg in
    while !len > 1 do
      let half = !len / 2 in
      let approx = Array.make half 0.0 in
      for i = 0 to half - 1 do
        let x = buf.(2 * i) and y = buf.((2 * i) + 1) in
        approx.(i) <- r (r (x +. y) *. r inv_sqrt2);
        out.((g * seg) + half + i) <- r (r (x -. y) *. r inv_sqrt2)
      done;
      Array.blit approx 0 buf 0 half;
      len := half
    done;
    out.(g * seg) <- buf.(0)
  done;
  out

let prepare dev ~scale =
  let n = 32768 * scale in
  let rng = Bench.Rng.create 73 in
  let data = Array.init n (fun _ -> Bench.Rng.float rng (-1.0) 1.0) in
  let input = Bench.upload_f32 dev data in
  let output = Bench.alloc_out dev n in
  let expected = ref_dwt data in
  let nd = Gpu_sim.Geom.make_ndrange (n / 2) wg in
  {
    Bench.steps =
      [ { Bench.args = [ Gpu_sim.Device.A_buf input; A_buf output ]; nd } ];
    verify = (fun dev -> Bench.verify_f32_buffer dev output expected ~tol:1e-3 ());
  }

let bench : Bench.t =
  {
    id = "DWT";
    name = "DwtHaar1D";
    character = Bench.Memory_bound;
    make_kernel;
    prepare;
  }
