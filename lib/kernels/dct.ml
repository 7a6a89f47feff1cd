(** DCT (DCT) — AMD SDK sample.

    8x8 block discrete cosine transform of an image: each 8x8 work-group
    stages its block in the LDS and applies two small matrix products
    (C·X, then ·Cᵀ) against a DCT coefficient matrix read from global
    memory. Mixed compute/LDS/memory behaviour: the paper notes DCT is
    both memory-busy and VALU-busy, so RMT cannot hide its redundant
    work. *)

open Gpu_ir

let blk = 8

let make_kernel () =
  let b = Builder.create "dct8x8" in
  let input = Builder.buffer_param b "input" in
  let dctm = Builder.buffer_param b "dct_matrix" in
  let output = Builder.buffer_param b "output" in
  let width = Builder.scalar_param b "width" in
  let block = Builder.lds_alloc b "block" (blk * blk * 4) in
  let interm = Builder.lds_alloc b "interm" (blk * blk * 4) in
  let lx = Builder.local_id b 0 in
  let ly = Builder.local_id b 1 in
  let gx = Builder.global_id b 0 in
  let gy = Builder.global_id b 1 in
  let slot base row col =
    Builder.add b base
      (Builder.shl b (Builder.mad b row (Builder.imm blk) col) (Builder.imm 2))
  in
  Builder.lstore b (slot block ly lx)
    (Builder.gload_elem b input (Builder.mad b gy width gx));
  Builder.barrier b;
  (* interm = C * block *)
  let acc = Builder.cell b (Builder.immf 0.0) in
  for k = 0 to blk - 1 do
    let c = Builder.gload_elem b dctm (Builder.mad b ly (Builder.imm blk) (Builder.imm k)) in
    let v = Builder.lload b (slot block (Builder.imm k) lx) in
    Builder.set b acc (Builder.fma b c v (Builder.get acc))
  done;
  Builder.lstore b (slot interm ly lx) (Builder.get acc);
  Builder.barrier b;
  (* out = interm * C^T *)
  let acc2 = Builder.cell b (Builder.immf 0.0) in
  for k = 0 to blk - 1 do
    let v = Builder.lload b (slot interm ly (Builder.imm k)) in
    let c = Builder.gload_elem b dctm (Builder.mad b lx (Builder.imm blk) (Builder.imm k)) in
    Builder.set b acc2 (Builder.fma b v c (Builder.get acc2))
  done;
  Builder.gstore_elem b output (Builder.mad b gy width gx) (Builder.get acc2);
  Builder.finish b

let dct_matrix () =
  Array.init (blk * blk) (fun p ->
      let i = p / blk and j = p mod blk in
      let n = float_of_int blk in
      if i = 0 then Gpu_ir.F32.round (1.0 /. sqrt n)
      else
        Gpu_ir.F32.round
          (sqrt (2.0 /. n)
          *. cos (Float.pi *. (2.0 *. float_of_int j +. 1.0) *. float_of_int i /. (2.0 *. n))))

let ref_dct img cmat w h =
  let r = Gpu_ir.F32.round in
  let out = Array.make (w * h) 0.0 in
  for by = 0 to (h / blk) - 1 do
    for bx = 0 to (w / blk) - 1 do
      let tmp = Array.make (blk * blk) 0.0 in
      for i = 0 to blk - 1 do
        for j = 0 to blk - 1 do
          let acc = ref 0.0 in
          for k = 0 to blk - 1 do
            acc :=
              r
                (Float.fma
                   cmat.((i * blk) + k)
                   img.((((by * blk) + k) * w) + (bx * blk) + j)
                   !acc)
          done;
          tmp.((i * blk) + j) <- !acc
        done
      done;
      for i = 0 to blk - 1 do
        for j = 0 to blk - 1 do
          let acc = ref 0.0 in
          for k = 0 to blk - 1 do
            acc := r (Float.fma tmp.((i * blk) + k) cmat.((j * blk) + k) !acc)
          done;
          out.((((by * blk) + i) * w) + (bx * blk) + j) <- !acc
        done
      done
    done
  done;
  out

let prepare dev ~scale =
  let w = 128 * scale and h = 128 in
  let rng = Bench.Rng.create 59 in
  let img = Array.init (w * h) (fun _ -> Bench.Rng.float rng 0.0 255.0) in
  let cmat = dct_matrix () in
  let input = Bench.upload_f32 dev img in
  let dctb = Bench.upload_f32 dev cmat in
  let output = Bench.alloc_out dev (w * h) in
  let expected = ref_dct img cmat w h in
  let nd = Gpu_sim.Geom.make_ndrange w blk ~gy:h ~ly:blk in
  {
    Bench.steps =
      [
        {
          Bench.args =
            [ Gpu_sim.Device.A_buf input; A_buf dctb; A_buf output; A_i32 w ];
          nd;
        };
      ];
    verify = (fun dev -> Bench.verify_f32_buffer dev output expected ~tol:1e-2 ());
  }

let bench : Bench.t =
  {
    id = "DCT";
    name = "DCT";
    character = Bench.Compute_bound;
    make_kernel;
    prepare;
  }
