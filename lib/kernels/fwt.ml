(** FastWalshTransform (FWT) — AMD SDK sample.

    In-place Walsh–Hadamard butterflies: the host launches log2(N)
    kernels with doubling step sizes; each work-item loads a pair,
    computes sum/difference, and stores both back. Like BitonicSort this
    is store-dominated (2 loads / 2 stores per item) and is one of the
    paper's pathological Inter-Group cases (9.37x). *)

open Gpu_ir

let make_kernel () =
  let b = Builder.create "fwt_pass" in
  let data = Builder.buffer_param b "data" in
  let step = Builder.scalar_param b "step" in
  let gid = Builder.global_id b 0 in
  let open Builder in
  let grp = div_u b gid step in
  let off = rem_u b gid step in
  let pos = mad b grp (shl b step (imm 1)) off in
  let partner = add b pos step in
  let a = gload_elem b data pos in
  let c = gload_elem b data partner in
  gstore_elem b data pos (fadd b a c);
  gstore_elem b data partner (fsub b a c);
  Builder.finish b

let ref_fwt data =
  let n = Array.length data in
  let buf = Array.copy data in
  let step = ref 1 in
  while !step < n do
    for i = 0 to (n / 2) - 1 do
      let grp = i / !step and off = i mod !step in
      let pos = (grp * 2 * !step) + off in
      let a = buf.(pos) and c = buf.(pos + !step) in
      buf.(pos) <- Gpu_ir.F32.round (a +. c);
      buf.(pos + !step) <- Gpu_ir.F32.round (a -. c)
    done;
    step := !step * 2
  done;
  buf

let prepare dev ~scale =
  let n = 8192 * scale in
  let rng = Bench.Rng.create 67 in
  let data = Array.init n (fun _ -> Bench.Rng.float rng (-1.0) 1.0) in
  let buf = Bench.upload_f32 dev data in
  let nd = Gpu_sim.Geom.make_ndrange (n / 2) 128 in
  let steps = ref [] in
  let s = ref 1 in
  while !s < n do
    steps :=
      { Bench.args = [ Gpu_sim.Device.A_buf buf; A_i32 !s ]; nd } :: !steps;
    s := !s * 2
  done;
  let expected = ref_fwt data in
  {
    Bench.steps = List.rev !steps;
    verify = (fun dev -> Bench.verify_f32_buffer dev buf expected ~tol:1e-3 ());
  }

let bench : Bench.t =
  {
    id = "FWT";
    name = "FastWalshTransform";
    character = Bench.Store_heavy;
    make_kernel;
    prepare;
  }
