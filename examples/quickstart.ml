(* Quickstart: write an OpenCL-style kernel against the IR builder,
   transform it for Intra-Group RMT, run both versions on the simulated
   GPU, and watch an injected bit flip get caught by the generated
   output-comparison code.

   Run with: dune exec examples/quickstart.exe *)

open Gpu_ir
module Device = Gpu_sim.Device
module T = Rmt_core.Transform

(* A small SAXPY kernel: y[i] <- a * x[i] + y[i]. *)
let saxpy () =
  let b = Builder.create "saxpy" in
  let x = Builder.buffer_param b "x" in
  let y = Builder.buffer_param b "y" in
  let a = Builder.scalar_param b "a" in
  let n = Builder.scalar_param b "n" in
  let gid = Builder.global_id b 0 in
  Builder.when_ b (Builder.lt_s b gid n) (fun () ->
      let af = Builder.cvt b Types.Bitcast a in
      let xv = Builder.gload_elem b x gid in
      let yv = Builder.gload_elem b y gid in
      Builder.gstore_elem b y gid (Builder.fma b af xv yv));
  Builder.finish b

let n = 4096
let wg = 128

let run_once ~label kernel variant ?inject () =
  let dev = Device.create Gpu_sim.Config.default in
  let x = Device.alloc dev (n * 4) and y = Device.alloc dev (n * 4) in
  for i = 0 to n - 1 do
    Device.write_f32 dev x i (float_of_int i);
    Device.write_f32 dev y i 1.0
  done;
  let nd0 = Gpu_sim.Geom.make_ndrange n wg in
  let nd = T.map_ndrange variant nd0 in
  let args =
    [ Device.A_buf x; Device.A_buf y; Device.A_f32 2.0; Device.A_i32 n ]
    @ (T.make_extras variant dev ~nd:nd0).ex_args
  in
  let opts = { Device.default_opts with Device.inject } in
  let r = Device.launch ~opts dev kernel ~nd ~args in
  let correct = ref true in
  for i = 0 to n - 1 do
    if Device.read_f32 dev y i <> (2.0 *. float_of_int i) +. 1.0 then
      correct := false
  done;
  Printf.printf "%-26s %6d cycles, %-9s output %s\n" label r.Device.cycles
    (match r.Device.outcome with
    | Device.Finished -> "finished,"
    | Device.Detected -> "DETECTED,"
    | Device.Crashed m -> "crashed (" ^ m ^ "),"
    | Device.Hung -> "hung,")
    (match r.Device.outcome with
    | Device.Detected ->
        (* detection aborts the kernel before the bad store commits; a
           recovery scheme (checkpoint/restart) would now re-execute *)
        "partial (aborted for recovery)"
    | Device.Finished | Device.Crashed _ | Device.Hung ->
        if !correct then "correct" else "CORRUPTED")

let () =
  let k = saxpy () in
  print_endline "original kernel:";
  print_string (Pp.kernel_to_string k);
  let rmt = T.apply T.intra_plus_lds ~local_items:wg k in
  Printf.printf "RMT version: %d -> %d virtual registers, LDS %d -> %d bytes\n\n"
    k.Types.nregs rmt.Types.nregs (Types.lds_bytes k) (Types.lds_bytes rmt);
  run_once ~label:"original" k T.Original ();
  run_once ~label:"Intra-Group+LDS" rmt T.intra_plus_lds ();
  (* Flip one vector-register bit mid-flight: the RMT twin disagrees at the
     next output comparison and the kernel traps instead of silently
     corrupting memory. Not every flip lands in live state, so we try a
     few seeds and report the first one that was detected. *)
  print_endline "\ninjecting VGPR bit flips under RMT:";
  for seed = 1 to 8 do
    let inject =
      { Device.at_cycle = 400 + (seed * 97); target = Device.T_vgpr; iseed = seed }
    in
    run_once
      ~label:(Printf.sprintf "  RMT + flip (seed %d)" seed)
      rmt T.intra_plus_lds ~inject ()
  done
