(** PrefixSum (PS) — AMD SDK sample.

    Single-work-group inclusive scan (Hillis–Steele) entirely in the LDS,
    with two barriers per step. Launches exactly one work-group, so it
    uses one of the twelve CUs — the paper's second deliberate
    under-utilization case (Inter-Group slowdown only 1.59x). The scan is
    pure LDS communication, which is why communication dominates its
    Intra-Group cost breakdown. *)

open Gpu_ir

let wg = 128

let make_kernel () =
  let b = Builder.create "prefixsum" in
  let input = Builder.buffer_param b "input" in
  let output = Builder.buffer_param b "output" in
  let lds = Builder.lds_alloc b "scan" (wg * 4) in
  let gid = Builder.global_id b 0 in
  let lid = Builder.local_id b 0 in
  let slot i = Builder.add b lds (Builder.shl b i (Builder.imm 2)) in
  Builder.lstore b (slot lid) (Builder.gload_elem b input gid);
  Builder.barrier b;
  let d = ref 1 in
  while !d < wg do
    let x = Builder.lload b (slot lid) in
    let y = Builder.cell b (Builder.immf 0.0) in
    Builder.when_ b (Builder.ge_s b lid (Builder.imm !d)) (fun () ->
        Builder.set b y
          (Builder.lload b (slot (Builder.sub b lid (Builder.imm !d)))));
    Builder.barrier b;
    Builder.lstore b (slot lid) (Builder.fadd b x (Builder.get y));
    Builder.barrier b;
    d := !d * 2
  done;
  Builder.gstore_elem b output gid (Builder.lload b (slot lid));
  Builder.finish b

let ref_scan data =
  let n = Array.length data in
  let buf = Array.copy data in
  let d = ref 1 in
  while !d < n do
    let prev = Array.copy buf in
    for i = 0 to n - 1 do
      let y = if i >= !d then prev.(i - !d) else 0.0 in
      buf.(i) <- Gpu_ir.F32.round (prev.(i) +. y)
    done;
    d := !d * 2
  done;
  buf

let prepare dev ~scale =
  ignore scale;
  (* a single work-group by construction, as in the SDK sample *)
  let n = wg in
  let rng = Bench.Rng.create 53 in
  let data = Array.init n (fun _ -> Bench.Rng.float rng 0.0 1.0) in
  let input = Bench.upload_f32 dev data in
  let output = Bench.alloc_out dev n in
  let expected = ref_scan data in
  let nd = Gpu_sim.Geom.make_ndrange n wg in
  {
    Bench.steps =
      [ { Bench.args = [ Gpu_sim.Device.A_buf input; A_buf output ]; nd } ];
    verify = (fun dev -> Bench.verify_f32_buffer dev output expected ~tol:1e-4 ());
  }

let bench : Bench.t =
  {
    id = "PS";
    name = "PrefixSum";
    character = Bench.Underutilizing;
    make_kernel;
    prepare;
  }
