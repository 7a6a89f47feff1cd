(** BitonicSort (BitS) — AMD SDK sample.

    Stage/pass bitonic sorting network: the host launches one kernel per
    (stage, pass), each work-item loading, comparing and storing one pair
    of elements. Two global loads and two global stores per item per
    pass make this the most store-intensive benchmark of the suite — the
    paper's worst Inter-Group case (9.48x), since every store needs a
    cross-group output comparison through an already saturated memory
    system. *)

open Gpu_ir

let make_kernel () =
  let b = Builder.create "bitonic_pass" in
  let data = Builder.buffer_param b "data" in
  let stage = Builder.scalar_param b "stage" in
  let pass = Builder.scalar_param b "pass" in
  let gid = Builder.global_id b 0 in
  let open Builder in
  let pair_distance = shl b (imm 1) (sub b stage pass) in
  let in_block = rem_u b gid pair_distance in
  let block = div_u b gid pair_distance in
  let left = mad b block (shl b pair_distance (imm 1)) in_block in
  let right = add b left pair_distance in
  let a = gload_elem b data left in
  let c = gload_elem b data right in
  (* ascending when the (stage+1)-sized block index is even *)
  let dirbit =
    and_ b (lshr b gid stage) (imm 1)
  in
  let asc = eq b dirbit (imm 0) in
  let lo = select b asc (min_u b a c) (iarith b Max_u a c) in
  let hi = select b asc (iarith b Max_u a c) (min_u b a c) in
  gstore_elem b data left lo;
  gstore_elem b data right hi;
  Builder.finish b

let ref_sort data = Array.sort compare data

let prepare dev ~scale =
  let n = 2048 * scale in
  let k = int_of_float (Float.round (Float.log2 (float_of_int n))) in
  let rng = Bench.Rng.create 61 in
  let data = Array.init n (fun _ -> Bench.Rng.int rng 1_000_000) in
  let buf = Bench.upload_i32 dev data in
  let nd = Gpu_sim.Geom.make_ndrange (n / 2) 128 in
  let steps =
    List.concat_map
      (fun stage ->
        List.map
          (fun pass ->
            {
              Bench.args =
                [ Gpu_sim.Device.A_buf buf; A_i32 stage; A_i32 pass ];
              nd;
            })
          (List.init (stage + 1) Fun.id))
      (List.init k Fun.id)
  in
  let expected =
    let c = Array.copy data in
    ref_sort c;
    c
  in
  {
    Bench.steps;
    verify = (fun dev -> Bench.verify_i32_buffer dev buf expected);
  }

let bench : Bench.t =
  {
    id = "BitS";
    name = "BitonicSort";
    character = Bench.Store_heavy;
    make_kernel;
    prepare;
  }
