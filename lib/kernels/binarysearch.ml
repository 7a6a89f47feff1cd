(** BinarySearch (BinS) — AMD SDK sample.

    A sorted integer array is split into one segment per work-item; an
    item scans its segment and records the key's index if found. As in
    the SDK sample, almost every work-item performs only loads: the
    single match produces the only global store, which is why the paper
    calls BinS's non-storing work-groups "ghost groups" — under
    Inter-Group RMT they never need to communicate at all. Character:
    memory-bound. *)

open Gpu_ir

let seg_len = 8

let make_kernel () =
  let b = Builder.create "binarysearch" in
  let input = Builder.buffer_param b "input" in
  let output = Builder.buffer_param b "output" in
  let key = Builder.scalar_param b "key" in
  let gid = Builder.global_id b 0 in
  let base = Builder.mul b gid (Builder.imm seg_len) in
  Builder.for_ b ~lo:(Builder.imm 0) ~hi:(Builder.imm seg_len)
    ~step:(Builder.imm 1) (fun j ->
      let idx = Builder.add b base j in
      let v = Builder.gload_elem b input idx in
      Builder.when_ b (Builder.eq b v key) (fun () ->
          Builder.gstore_elem b output (Builder.imm 0) idx));
  Builder.finish b

let prepare dev ~scale =
  let n = 65536 * scale in
  let items = n / seg_len in
  let data = Array.init n (fun i -> 2 * i) in
  let rng = Bench.Rng.create 17 in
  let key_index = Bench.Rng.int rng n in
  let key = data.(key_index) in
  let input = Bench.upload_i32 dev data in
  let output = Bench.alloc_out dev 1 in
  Gpu_sim.Device.write_i32 dev output 0 (-1);
  let nd = Gpu_sim.Geom.make_ndrange items 128 in
  {
    Bench.steps =
      [
        {
          Bench.args =
            [ Gpu_sim.Device.A_buf input; A_buf output; A_i32 key ];
          nd;
        };
      ];
    verify = (fun dev -> Gpu_sim.Device.read_i32 dev output 0 = key_index);
  }

let bench : Bench.t =
  {
    id = "BinS";
    name = "BinarySearch";
    character = Bench.Memory_bound;
    make_kernel;
    prepare;
  }
