(** MatrixMultiplication (MM) — AMD SDK sample.

    Classic LDS-tiled SGEMM: 8x8 work-groups stage 8x8 tiles of A and B
    through the LDS and accumulate with FMAs. Saturates both SIMD and LDS
    bandwidth, so the paper sees ~2x RMT cost, with LDS over-allocation
    responsible for more than half of the Intra-Group+LDS overhead (the
    doubled tiles halve group occupancy). *)

open Gpu_ir

let tile = 8

let make_kernel () =
  let b = Builder.create "matmul" in
  let a = Builder.buffer_param b "a" in
  let bm = Builder.buffer_param b "b" in
  let c = Builder.buffer_param b "c" in
  let n = Builder.scalar_param b "n" in
  let tile_a = Builder.lds_alloc b "tile_a" (tile * tile * 4) in
  let tile_b = Builder.lds_alloc b "tile_b" (tile * tile * 4) in
  let lx = Builder.local_id b 0 in
  let ly = Builder.local_id b 1 in
  let gx = Builder.global_id b 0 in
  let gy = Builder.global_id b 1 in
  let acc = Builder.cell b (Builder.immf 0.0) in
  let slot base row col =
    Builder.add b base
      (Builder.shl b (Builder.mad b row (Builder.imm tile) col) (Builder.imm 2))
  in
  let ntiles = Builder.div_s b n (Builder.imm tile) in
  Builder.for_ b ~lo:(Builder.imm 0) ~hi:ntiles ~step:(Builder.imm 1)
    (fun t ->
      let tcol = Builder.mad b t (Builder.imm tile) lx in
      let trow = Builder.mad b t (Builder.imm tile) ly in
      Builder.lstore b (slot tile_a ly lx)
        (Builder.gload_elem b a (Builder.mad b gy n tcol));
      Builder.lstore b (slot tile_b ly lx)
        (Builder.gload_elem b bm (Builder.mad b trow n gx));
      Builder.barrier b;
      for k = 0 to tile - 1 do
        let av = Builder.lload b (slot tile_a ly (Builder.imm k)) in
        let bv = Builder.lload b (slot tile_b (Builder.imm k) lx) in
        Builder.set b acc (Builder.fma b av bv (Builder.get acc))
      done;
      Builder.barrier b);
  Builder.gstore_elem b c (Builder.mad b gy n gx) (Builder.get acc);
  Builder.finish b

let ref_matmul a b n =
  Array.init (n * n) (fun p ->
      let i = p / n and j = p mod n in
      let acc = ref 0.0 in
      for k = 0 to n - 1 do
        acc := Gpu_ir.F32.round (Float.fma a.((i * n) + k) b.((k * n) + j) !acc)
      done;
      !acc)

let prepare dev ~scale =
  let n = 128 * scale in
  let rng = Bench.Rng.create 41 in
  let am = Array.init (n * n) (fun _ -> Bench.Rng.float rng (-1.0) 1.0) in
  let bmm = Array.init (n * n) (fun _ -> Bench.Rng.float rng (-1.0) 1.0) in
  let a = Bench.upload_f32 dev am in
  let bb = Bench.upload_f32 dev bmm in
  let c = Bench.alloc_out dev (n * n) in
  let expected = ref_matmul am bmm n in
  let nd = Gpu_sim.Geom.make_ndrange n tile ~gy:n ~ly:tile in
  {
    Bench.steps =
      [
        {
          Bench.args = [ Gpu_sim.Device.A_buf a; A_buf bb; A_buf c; A_i32 n ];
          nd;
        };
      ];
    verify = (fun dev -> Bench.verify_f32_buffer dev c expected ~tol:1e-3 ());
  }

let bench : Bench.t =
  {
    id = "MM";
    name = "MatrixMultiplication";
    character = Bench.Lds_bound;
    make_kernel;
    prepare;
  }
