(** Reduction (R) — AMD SDK sample.

    Per-work-group tree reduction: each item loads one element into LDS
    and a log-depth barrier-separated tree produces one partial sum per
    group, stored by work-item 0. Very few global stores relative to
    loads (the paper's "ghost group" effect under Inter-Group RMT) and a
    barrier-synchronized LDS tree that makes the −LDS flavor pay for
    output comparisons on every LDS store. Character: memory-bound. *)

open Gpu_ir

let wg = 128

let make_kernel () =
  let b = Builder.create "reduction" in
  let input = Builder.buffer_param b "input" in
  let partial = Builder.buffer_param b "partial" in
  let lds = Builder.lds_alloc b "sums" (wg * 4) in
  let gid = Builder.global_id b 0 in
  let lid = Builder.local_id b 0 in
  let slot = Builder.mad b lid (Builder.imm 4) lds in
  Builder.lstore b slot (Builder.gload_elem b input gid);
  Builder.barrier b;
  let stride = Builder.cell b (Builder.imm (wg / 2)) in
  Builder.while_ b
    (fun () -> Builder.gt_s b (Builder.get stride) (Builder.imm 0))
    (fun () ->
      Builder.when_ b (Builder.lt_s b lid (Builder.get stride)) (fun () ->
          let other =
            Builder.mad b
              (Builder.add b lid (Builder.get stride))
              (Builder.imm 4) lds
          in
          let sum = Builder.fadd b (Builder.lload b slot) (Builder.lload b other) in
          Builder.lstore b slot sum);
      Builder.barrier b;
      Builder.set b stride (Builder.lshr b (Builder.get stride) (Builder.imm 1)));
  Builder.when_ b (Builder.eq b lid (Builder.imm 0)) (fun () ->
      let grp = Builder.group_id b 0 in
      Builder.gstore_elem b partial grp (Builder.lload b lds));
  Builder.finish b

(* Reference partial sums mirroring the tree order in f32. *)
let ref_partials data n_groups =
  Array.init n_groups (fun g ->
      let seg = Array.sub data (g * wg) wg in
      let buf = Array.copy seg in
      let stride = ref (wg / 2) in
      while !stride > 0 do
        for i = 0 to !stride - 1 do
          buf.(i) <- Gpu_ir.F32.round (buf.(i) +. buf.(i + !stride))
        done;
        stride := !stride / 2
      done;
      buf.(0))

let prepare dev ~scale =
  let n = 65536 * scale in
  let n_groups = n / wg in
  let rng = Bench.Rng.create 23 in
  let data = Array.init n (fun _ -> Bench.Rng.float rng 0.0 1.0) in
  let input = Bench.upload_f32 dev data in
  let partial = Bench.alloc_out dev n_groups in
  let expected = ref_partials data n_groups in
  let nd = Gpu_sim.Geom.make_ndrange n wg in
  {
    Bench.steps =
      [ { Bench.args = [ Gpu_sim.Device.A_buf input; A_buf partial ]; nd } ];
    verify = (fun dev -> Bench.verify_f32_buffer dev partial expected ~tol:1e-4 ());
  }

let bench : Bench.t =
  {
    id = "R";
    name = "Reduction";
    character = Bench.Memory_bound;
    make_kernel;
    prepare;
  }
