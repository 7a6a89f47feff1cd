(** QuasiRandomSequence (QRS) — AMD SDK sample.

    Sobol-style quasi-random sequence generation: each work-item XORs
    together the direction numbers selected by the set bits of its index.
    A tight 32-iteration integer loop per item with one small table read
    per bit — predominantly VALU-bound, which is why QRS sits in the
    "expected ~2x" group for both RMT families and benefits noticeably
    from FAST register communication (Figure 9). *)

open Gpu_ir

let n_dims = 4
let bits = 32

let make_kernel () =
  let b = Builder.create "quasirandom" in
  let directions = Builder.buffer_param b "directions" in
  let output = Builder.buffer_param b "output" in
  let n_vec = Builder.scalar_param b "n_vectors" in
  let i = Builder.global_id b 0 in
  let dim = Builder.global_id b 1 in
  let open Builder in
  let acc = cell b (imm 0) in
  let dbase = mul b dim (imm bits) in
  for_ b ~lo:(imm 0) ~hi:(imm bits) ~step:(imm 1) (fun bit ->
      let set_bit = and_ b (lshr b i bit) (imm 1) in
      when_ b (ne b set_bit (imm 0)) (fun () ->
          let d = gload_elem b directions (add b dbase bit) in
          set b acc (xor b (get acc) d)));
  (* scale to [0,1): float(acc) * 2^-32 (unsigned) *)
  let f = u32_to_f32 b (get acc) in
  let scaled = fmul b f (immf (1.0 /. 4294967296.0)) in
  gstore_elem b output (mad b dim n_vec i) scaled;
  Builder.finish b

let ref_qrs dirs n_vec =
  let r = Gpu_ir.F32.round in
  Array.init (n_dims * n_vec) (fun p ->
      let dim = p / n_vec and i = p mod n_vec in
      let acc = ref 0 in
      for bit = 0 to bits - 1 do
        if (i lsr bit) land 1 = 1 then
          acc := !acc lxor dirs.((dim * bits) + bit)
      done;
      let u = !acc land 0xFFFFFFFF in
      r (r (float_of_int u) *. r (1.0 /. 4294967296.0)))

let prepare dev ~scale =
  let n_vec = 4096 * scale in
  let rng = Bench.Rng.create 83 in
  let dirs =
    Array.init (n_dims * bits) (fun _ ->
        Bench.Rng.int rng 0x3FFFFFFF lor (Bench.Rng.int rng 4 lsl 30))
  in
  let directions = Bench.upload_i32 dev dirs in
  let output = Bench.alloc_out dev (n_dims * n_vec) in
  let expected = ref_qrs dirs n_vec in
  let nd = Gpu_sim.Geom.make_ndrange n_vec 128 ~gy:n_dims in
  {
    Bench.steps =
      [
        {
          Bench.args =
            [ Gpu_sim.Device.A_buf directions; A_buf output; A_i32 n_vec ];
          nd;
        };
      ];
    verify = (fun dev -> Bench.verify_f32_buffer dev output expected ~tol:1e-6 ());
  }

let bench : Bench.t =
  {
    id = "QRS";
    name = "QuasiRandomSequence";
    character = Bench.Compute_bound;
    make_kernel;
    prepare;
  }
