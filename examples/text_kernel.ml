(* Kernels as text: write a kernel in the IR's listing syntax, parse it,
   RMT it, and run it — no OCaml builder code involved. The same format
   is what `rmtgpu dump` prints, so transformed kernels can be saved,
   edited and reloaded.

   Run with: dune exec examples/text_kernel.exe *)

module Device = Gpu_sim.Device
module T = Rmt_core.Transform

let source =
  {|
# Gray-code transform: out[i] = in[i] xor (in[i] >> 1),
# with a per-group LDS histogram of low bits as a side product.
kernel graycode
  param 0: global buffer input
  param 1: global buffer output
  param 2: global buffer histogram
  lds counts: 8 bytes
{
  r0 = arg(0)
  r1 = arg(1)
  r2 = arg(2)
  r3 = global_id(0)
  r4 = local_id(0)
  r5 = lds_base(counts)

  # zero the two LDS counters from lane 0
  r6 = icmp.eq r4, 0
  if r6 {
    store.local [r5], 0
    r7 = add r5, 4
    store.local [r7], 0
  }
  barrier

  # gray code
  r8 = mad r3, 4, r0
  r9 = load.global [r8]
  r10 = lshr r9, 1
  r11 = xor r9, r10
  r12 = mad r3, 4, r1
  store.global [r12], r11

  # histogram of the low bit
  r13 = and r11, 1
  r14 = mad r13, 4, r5
  r15 = atomic_add.local [r14], 1
  barrier

  # lane 0 publishes the group's counters
  if r6 {
    r16 = group_id(0)
    r17 = shl r16, 1
    r18 = mad r17, 4, r2
    r19 = load.local [r5]
    store.global [r18], r19
    r20 = add r18, 4
    r21 = add r5, 4
    r22 = load.local [r21]
    store.global [r20], r22
  }
}
|}

let n = 1024
let wg = 64

let () =
  let k = Gpu_ir.Parse.kernel_of_string_checked source in
  Printf.printf "parsed kernel %s: %s\n\n" k.Gpu_ir.Types.kname
    (Gpu_ir.Stats.to_string (Gpu_ir.Stats.collect k));
  let run kernel variant =
    let dev = Device.create Gpu_sim.Config.default in
    let input = Device.alloc dev (n * 4) in
    let output = Device.alloc dev (n * 4) in
    let hist = Device.alloc dev (n / wg * 2 * 4) in
    let data = Array.init n (fun i -> (i * 2654435761) land 0xFFFFFF) in
    Device.write_i32_array dev input data;
    let nd0 = Gpu_sim.Geom.make_ndrange n wg in
    let nd = T.map_ndrange variant nd0 in
    let args =
      [ Device.A_buf input; A_buf output; A_buf hist ]
      @ (T.make_extras variant dev ~nd:nd0).ex_args
    in
    let r = Device.launch dev kernel ~nd ~args in
    let ok = ref true in
    Array.iteri
      (fun i v ->
        if Device.read_i32 dev output i <> v lxor (v lsr 1) then ok := false)
      data;
    (* histogram counters must sum to the group size *)
    for g = 0 to (n / wg) - 1 do
      let zeros = Device.read_i32 dev hist (2 * g) in
      let ones = Device.read_i32 dev hist ((2 * g) + 1) in
      if zeros + ones <> wg then ok := false
    done;
    Printf.printf "%-18s %6d cycles, output %s\n" (T.name variant)
      r.Device.cycles
      (if !ok then "correct" else "CORRUPTED")
  in
  run k T.Original;
  run (T.apply T.intra_plus_lds ~local_items:wg k) T.intra_plus_lds;
  (* -LDS is rejected for this kernel: its local atomic is a
     read-modify-write store that a shared LDS cannot protect *)
  (match T.apply T.intra_minus_lds ~local_items:wg k with
  | exception Rmt_core.Intra_group.Unsupported msg ->
      Printf.printf "%-18s rejected: %s\n" (T.name T.intra_minus_lds) msg
  | _ -> prerr_endline "BUG: -LDS should reject local atomics")
