(** NBody (NB) — AMD SDK sample.

    One step of all-pairs gravitational simulation: bodies are staged
    through the LDS in wavefront-sized tiles and each work-item
    accumulates accelerations over every body, then integrates position
    and velocity. Extremely compute-bound (one rsqrt per interaction).
    The default size launches only 8 work-groups — deliberately, to
    reproduce the paper's observation that NB under-utilizes the 12-CU
    device and therefore tolerates Inter-Group RMT well (1.16x). *)

open Gpu_ir

let wg = 128
let dt = 0.005
let eps = 0.0001

let make_kernel () =
  let b = Builder.create "nbody" in
  let px = Builder.buffer_param b "px" in
  let py = Builder.buffer_param b "py" in
  let pz = Builder.buffer_param b "pz" in
  let m = Builder.buffer_param b "m" in
  let vx = Builder.buffer_param b "vx" in
  let vy = Builder.buffer_param b "vy" in
  let vz = Builder.buffer_param b "vz" in
  let opx = Builder.buffer_param b "opx" in
  let opy = Builder.buffer_param b "opy" in
  let opz = Builder.buffer_param b "opz" in
  let n = Builder.scalar_param b "n" in
  let tpx = Builder.lds_alloc b "tpx" (wg * 4) in
  let tpy = Builder.lds_alloc b "tpy" (wg * 4) in
  let tpz = Builder.lds_alloc b "tpz" (wg * 4) in
  let tm = Builder.lds_alloc b "tm" (wg * 4) in
  let gid = Builder.global_id b 0 in
  let lid = Builder.local_id b 0 in
  let xi = Builder.gload_elem b px gid in
  let yi = Builder.gload_elem b py gid in
  let zi = Builder.gload_elem b pz gid in
  let ax = Builder.cell b (Builder.immf 0.0) in
  let ay = Builder.cell b (Builder.immf 0.0) in
  let az = Builder.cell b (Builder.immf 0.0) in
  let ntiles = Builder.div_s b n (Builder.imm wg) in
  let lslot base i = Builder.add b base (Builder.shl b i (Builder.imm 2)) in
  Builder.for_ b ~lo:(Builder.imm 0) ~hi:ntiles ~step:(Builder.imm 1)
    (fun t ->
      let src = Builder.mad b t (Builder.imm wg) lid in
      Builder.lstore b (lslot tpx lid) (Builder.gload_elem b px src);
      Builder.lstore b (lslot tpy lid) (Builder.gload_elem b py src);
      Builder.lstore b (lslot tpz lid) (Builder.gload_elem b pz src);
      Builder.lstore b (lslot tm lid) (Builder.gload_elem b m src);
      Builder.barrier b;
      Builder.for_ b ~lo:(Builder.imm 0) ~hi:(Builder.imm wg)
        ~step:(Builder.imm 1) (fun j ->
          let dx = Builder.fsub b (Builder.lload b (lslot tpx j)) xi in
          let dy = Builder.fsub b (Builder.lload b (lslot tpy j)) yi in
          let dz = Builder.fsub b (Builder.lload b (lslot tpz j)) zi in
          let d2 =
            Builder.fma b dx dx
              (Builder.fma b dy dy
                 (Builder.fma b dz dz (Builder.immf eps)))
          in
          let inv = Builder.frsqrt b d2 in
          let inv3 = Builder.fmul b (Builder.fmul b inv inv) inv in
          let s = Builder.fmul b (Builder.lload b (lslot tm j)) inv3 in
          Builder.set b ax (Builder.fma b dx s (Builder.get ax));
          Builder.set b ay (Builder.fma b dy s (Builder.get ay));
          Builder.set b az (Builder.fma b dz s (Builder.get az)));
      Builder.barrier b);
  let step v a = Builder.fma b a (Builder.immf dt) v in
  let nvx = step (Builder.gload_elem b vx gid) (Builder.get ax) in
  let nvy = step (Builder.gload_elem b vy gid) (Builder.get ay) in
  let nvz = step (Builder.gload_elem b vz gid) (Builder.get az) in
  Builder.gstore_elem b opx gid (step xi nvx);
  Builder.gstore_elem b opy gid (step yi nvy);
  Builder.gstore_elem b opz gid (step zi nvz);
  Builder.finish b

let ref_step pos vel masses n =
  let r = Gpu_ir.F32.round in
  let fma a bb c = Float.fma a bb c |> r in
  Array.init n (fun i ->
      let xi, yi, zi = pos.(i) in
      let ax = ref 0.0 and ay = ref 0.0 and az = ref 0.0 in
      for j = 0 to n - 1 do
        let xj, yj, zj = pos.(j) in
        let dx = r (xj -. xi) and dy = r (yj -. yi) and dz = r (zj -. zi) in
        let d2 = fma dx dx (fma dy dy (fma dz dz (r eps))) in
        let inv = r (1.0 /. sqrt d2) in
        let inv3 = r (r (inv *. inv) *. inv) in
        let s = r (masses.(j) *. inv3) in
        ax := fma dx s !ax;
        ay := fma dy s !ay;
        az := fma dz s !az
      done;
      let vx, vy, vz = vel.(i) in
      let nvx = fma !ax (r dt) vx
      and nvy = fma !ay (r dt) vy
      and nvz = fma !az (r dt) vz in
      (fma nvx (r dt) xi, fma nvy (r dt) yi, fma nvz (r dt) zi))

let prepare dev ~scale =
  let n = 1024 * scale in
  let rng = Bench.Rng.create 47 in
  let pos =
    Array.init n (fun _ ->
        ( Bench.Rng.float rng (-1.0) 1.0,
          Bench.Rng.float rng (-1.0) 1.0,
          Bench.Rng.float rng (-1.0) 1.0 ))
  in
  let vel = Array.init n (fun _ -> (0.0, 0.0, 0.0)) in
  let masses = Array.init n (fun _ -> Bench.Rng.float rng 0.1 1.0) in
  let fst3 (a, _, _) = a and snd3 (_, a, _) = a and trd3 (_, _, a) = a in
  let px = Bench.upload_f32 dev (Array.map fst3 pos) in
  let py = Bench.upload_f32 dev (Array.map snd3 pos) in
  let pz = Bench.upload_f32 dev (Array.map trd3 pos) in
  let m = Bench.upload_f32 dev masses in
  let vx = Bench.upload_f32 dev (Array.map fst3 vel) in
  let vy = Bench.upload_f32 dev (Array.map snd3 vel) in
  let vz = Bench.upload_f32 dev (Array.map trd3 vel) in
  let opx = Bench.alloc_out dev n in
  let opy = Bench.alloc_out dev n in
  let opz = Bench.alloc_out dev n in
  let expected = ref_step pos vel masses n in
  let nd = Gpu_sim.Geom.make_ndrange n wg in
  {
    Bench.steps =
      [
        {
          Bench.args =
            [
              Gpu_sim.Device.A_buf px; A_buf py; A_buf pz; A_buf m; A_buf vx;
              A_buf vy; A_buf vz; A_buf opx; A_buf opy; A_buf opz; A_i32 n;
            ];
          nd;
        };
      ];
    verify =
      (fun dev ->
        Bench.verify_f32_buffer dev opx (Array.map (fun (a, _, _) -> a) expected)
          ~tol:1e-3 ()
        && Bench.verify_f32_buffer dev opy
             (Array.map (fun (_, a, _) -> a) expected)
             ~tol:1e-3 ()
        && Bench.verify_f32_buffer dev opz
             (Array.map (fun (_, _, a) -> a) expected)
             ~tol:1e-3 ());
  }

let bench : Bench.t =
  {
    id = "NB";
    name = "NBody";
    character = Bench.Underutilizing;
    make_kernel;
    prepare;
  }
