(** SimpleConvolution (SC) — AMD SDK sample.

    Dense 2D convolution over a single-channel image: every work-item
    gathers a full mask neighbourhood from global memory (no LDS) and
    writes one pixel. Heavily memory-bound with large read overlap
    between neighbouring work-items — the workload the paper reports
    speeding up under RMT (redundant twins warm the caches,
    "slipstreaming", and halved per-CU memory traffic relieves L1
    pressure). *)

open Gpu_ir

let mask_dim = 5

let make_kernel () =
  let b = Builder.create "simple_convolution" in
  let input = Builder.buffer_param b "input" in
  let mask = Builder.buffer_param b "mask" in
  let output = Builder.buffer_param b "output" in
  let width = Builder.scalar_param b "width" in
  let height = Builder.scalar_param b "height" in
  let gid = Builder.global_id b 0 in
  let x = Builder.rem_u b gid width in
  let y = Builder.div_u b gid width in
  let acc = Builder.cell b (Builder.immf 0.0) in
  let half = mask_dim / 2 in
  for my = 0 to mask_dim - 1 do
    for mx = 0 to mask_dim - 1 do
      let ix = Builder.add b x (Builder.imm (mx - half)) in
      let iy = Builder.add b y (Builder.imm (my - half)) in
      let inside =
        Builder.and_ b
          (Builder.and_ b
             (Builder.ge_s b ix (Builder.imm 0))
             (Builder.lt_s b ix width))
          (Builder.and_ b
             (Builder.ge_s b iy (Builder.imm 0))
             (Builder.lt_s b iy height))
      in
      Builder.when_ b inside (fun () ->
          let pix = Builder.gload_elem b input (Builder.mad b iy width ix) in
          let m =
            Builder.gload_elem b mask (Builder.imm ((my * mask_dim) + mx))
          in
          Builder.set b acc
            (Builder.fma b pix m (Builder.get acc)))
    done
  done;
  Builder.gstore_elem b output gid (Builder.get acc);
  Builder.finish b

let ref_convolve img mask w h =
  let half = mask_dim / 2 in
  Array.init (w * h) (fun p ->
      let x = p mod w and y = p / w in
      let acc = ref 0.0 in
      for my = 0 to mask_dim - 1 do
        for mx = 0 to mask_dim - 1 do
          let ix = x + mx - half and iy = y + my - half in
          if ix >= 0 && ix < w && iy >= 0 && iy < h then
            acc :=
              Gpu_ir.F32.round
                (Float.fma img.((iy * w) + ix) mask.((my * mask_dim) + mx) !acc)
        done
      done;
      !acc)

let prepare dev ~scale =
  let w = 128 * scale and h = 128 in
  let rng = Bench.Rng.create 31 in
  let img = Array.init (w * h) (fun _ -> Bench.Rng.float rng 0.0 1.0) in
  let mask =
    Array.init (mask_dim * mask_dim) (fun _ -> 1.0 /. float_of_int (mask_dim * mask_dim))
  in
  let input = Bench.upload_f32 dev img in
  let maskb = Bench.upload_f32 dev mask in
  let output = Bench.alloc_out dev (w * h) in
  let expected = ref_convolve img mask w h in
  let nd = Gpu_sim.Geom.make_ndrange (w * h) 128 in
  {
    Bench.steps =
      [
        {
          Bench.args =
            [ Gpu_sim.Device.A_buf input; A_buf maskb; A_buf output; A_i32 w; A_i32 h ];
          nd;
        };
      ];
    verify = (fun dev -> Bench.verify_f32_buffer dev output expected ~tol:1e-4 ());
  }

let bench : Bench.t =
  {
    id = "SC";
    name = "SimpleConvolution";
    character = Bench.Memory_bound;
    make_kernel;
    prepare;
  }
