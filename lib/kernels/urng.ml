(** URNG (UniformRandomNoise Generator) — AMD SDK sample.

    Adds uniform noise to an image: each work-group iterates a shared LDS
    state of per-item LCG seeds, mixing neighbouring lanes between
    barrier-separated rounds, then perturbs its pixel with the resulting
    noise. LDS-heavy with moderate compute; the paper observes URNG's
    Intra-Group−LDS version benefits from the much smaller LDS
    allocation. *)

open Gpu_ir

let wg = 128
let rounds = 8
let lcg_a = 1103515245
let lcg_c = 12345

let make_kernel () =
  let b = Builder.create "urng" in
  let image = Builder.buffer_param b "image" in
  let seeds = Builder.buffer_param b "seeds" in
  let output = Builder.buffer_param b "output" in
  let state = Builder.lds_alloc b "state" (wg * 4) in
  let gid = Builder.global_id b 0 in
  let lid = Builder.local_id b 0 in
  let open Builder in
  let slot i = add b state (shl b i (imm 2)) in
  lstore b (slot lid) (gload_elem b seeds gid);
  barrier b;
  let cur = cell b (imm 0) in
  for _round = 1 to rounds do
    let mine = lload b (slot lid) in
    let next_lane = rem_u b (add b lid (imm 1)) (imm wg) in
    let theirs = lload b (slot next_lane) in
    let mixed =
      add b (mad b mine (imm lcg_a) (imm lcg_c)) theirs
    in
    barrier b;
    lstore b (slot lid) mixed;
    barrier b;
    set b cur mixed
  done;
  (* noise in [-0.5, 0.5) from the low byte *)
  let byte = and_ b (get cur) (imm 255) in
  let noise =
    fsub b
      (fmul b (u32_to_f32 b byte) (immf (1.0 /. 256.0)))
      (immf 0.5)
  in
  let pix = gload_elem b image gid in
  gstore_elem b output gid (fadd b pix (fmul b noise (immf 0.1)));
  Builder.finish b

let ref_urng img seeds =
  let n = Array.length img in
  let r = Gpu_ir.F32.round in
  let norm = Gpu_ir.F32.norm in
  let out = Array.make n 0.0 in
  let n_groups = n / wg in
  for g = 0 to n_groups - 1 do
    let st = Array.init wg (fun i -> seeds.((g * wg) + i)) in
    let last = Array.make wg 0 in
    for _round = 1 to rounds do
      let prev = Array.copy st in
      for i = 0 to wg - 1 do
        let mixed =
          norm ((prev.(i) * lcg_a) + lcg_c + prev.((i + 1) mod wg))
        in
        st.(i) <- mixed;
        last.(i) <- mixed
      done
    done;
    for i = 0 to wg - 1 do
      let byte = last.(i) land 255 in
      let noise =
        r (r (r (float_of_int byte) *. r (1.0 /. 256.0)) -. 0.5)
      in
      out.((g * wg) + i) <- r (img.((g * wg) + i) +. r (noise *. 0.1))
    done
  done;
  out

let prepare dev ~scale =
  let n = 16384 * scale in
  let rng = Bench.Rng.create 89 in
  let img = Array.init n (fun _ -> Bench.Rng.float rng 0.0 1.0) in
  let seeds = Array.init n (fun _ -> Bench.Rng.int rng 0x3FFFFFFF) in
  let image = Bench.upload_f32 dev img in
  let seedb = Bench.upload_i32 dev seeds in
  let output = Bench.alloc_out dev n in
  let expected = ref_urng img seeds in
  let nd = Gpu_sim.Geom.make_ndrange n wg in
  {
    Bench.steps =
      [
        {
          Bench.args = [ Gpu_sim.Device.A_buf image; A_buf seedb; A_buf output ];
          nd;
        };
      ];
    verify = (fun dev -> Bench.verify_f32_buffer dev output expected ~tol:1e-4 ());
  }

let bench : Bench.t =
  {
    id = "URNG";
    name = "URNG";
    character = Bench.Lds_bound;
    make_kernel;
    prepare;
  }
