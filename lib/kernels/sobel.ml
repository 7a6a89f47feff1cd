(** SobelFilter (SF) — AMD SDK sample.

    3x3 Sobel edge detection on a single-channel image: eight global
    reads and one store per interior pixel, with the same heavy read
    overlap between neighbours as SimpleConvolution (the paper groups SC
    and SF as the "slipstreaming" beneficiaries). Memory-bound. *)

open Gpu_ir

let make_kernel () =
  let b = Builder.create "sobel_filter" in
  let input = Builder.buffer_param b "input" in
  let output = Builder.buffer_param b "output" in
  let width = Builder.scalar_param b "width" in
  let height = Builder.scalar_param b "height" in
  let gid = Builder.global_id b 0 in
  let x = Builder.rem_u b gid width in
  let y = Builder.div_u b gid width in
  let interior =
    Builder.and_ b
      (Builder.and_ b
         (Builder.gt_s b x (Builder.imm 0))
         (Builder.lt_s b x (Builder.sub b width (Builder.imm 1))))
      (Builder.and_ b
         (Builder.gt_s b y (Builder.imm 0))
         (Builder.lt_s b y (Builder.sub b height (Builder.imm 1))))
  in
  Builder.when_ b interior (fun () ->
      let at dx dy =
        let ix = Builder.add b x (Builder.imm dx) in
        let iy = Builder.add b y (Builder.imm dy) in
        Builder.gload_elem b input (Builder.mad b iy width ix)
      in
      let i00 = at (-1) (-1) and i10 = at 0 (-1) and i20 = at 1 (-1) in
      let i01 = at (-1) 0 and i21 = at 1 0 in
      let i02 = at (-1) 1 and i12 = at 0 1 and i22 = at 1 1 in
      let open Builder in
      (* gx = (i20 + 2*i21 + i22) - (i00 + 2*i01 + i02) *)
      let gx =
        fsub b
          (fadd b (fadd b i20 (fmul b (immf 2.0) i21)) i22)
          (fadd b (fadd b i00 (fmul b (immf 2.0) i01)) i02)
      in
      (* gy = (i02 + 2*i12 + i22) - (i00 + 2*i10 + i20) *)
      let gy =
        fsub b
          (fadd b (fadd b i02 (fmul b (immf 2.0) i12)) i22)
          (fadd b (fadd b i00 (fmul b (immf 2.0) i10)) i20)
      in
      let mag =
        fmul b (immf 0.5)
          (fsqrt b (fadd b (fmul b gx gx) (fmul b gy gy)))
      in
      gstore_elem b output gid mag);
  Builder.finish b

let ref_sobel img w h =
  let r = Gpu_ir.F32.round in
  Array.init (w * h) (fun p ->
      let x = p mod w and y = p / w in
      if x = 0 || y = 0 || x = w - 1 || y = h - 1 then 0.0
      else
        let at dx dy = img.(((y + dy) * w) + x + dx) in
        let gx =
          r (r (r (at 1 (-1) +. r (2.0 *. at 1 0)) +. at 1 1)
             -. r (r (at (-1) (-1) +. r (2.0 *. at (-1) 0)) +. at (-1) 1))
        in
        let gy =
          r (r (r (at (-1) 1 +. r (2.0 *. at 0 1)) +. at 1 1)
             -. r (r (at (-1) (-1) +. r (2.0 *. at 0 (-1))) +. at 1 (-1)))
        in
        r (0.5 *. r (sqrt (r (r (gx *. gx) +. r (gy *. gy))))))

let prepare dev ~scale =
  let w = 128 * scale and h = 128 in
  let rng = Bench.Rng.create 37 in
  let img = Array.init (w * h) (fun _ -> Bench.Rng.float rng 0.0 1.0) in
  let input = Bench.upload_f32 dev img in
  let output = Bench.alloc_out dev (w * h) in
  let expected = ref_sobel img w h in
  let nd = Gpu_sim.Geom.make_ndrange (w * h) 128 in
  {
    Bench.steps =
      [
        {
          Bench.args =
            [ Gpu_sim.Device.A_buf input; A_buf output; A_i32 w; A_i32 h ];
          nd;
        };
      ];
    verify = (fun dev -> Bench.verify_f32_buffer dev output expected ~tol:1e-3 ());
  }

let bench : Bench.t =
  {
    id = "SF";
    name = "SobelFilter";
    character = Bench.Memory_bound;
    make_kernel;
    prepare;
  }
