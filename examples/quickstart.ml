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

(* SAXPY as a one-launch benchmark: x[i] = i, y[i] = 1, a = 2; the
   check is exact, since 2i + 1 is a binary32 integer for every i < n. *)
let bench =
  Kernels.Bench.of_kernel ~id:"saxpy" ~name:"SAXPY" ~global:n ~local:wg
    ~args:[ Buf (n, Findex); Buf (n, Fill_f32 1.0); F32 2.0; I32 n ]
    ~verify:(fun dev -> function
      | [ _; A_buf y; _; _ ] ->
          List.for_all
            (fun i -> Device.read_f32 dev y i = (2.0 *. float_of_int i) +. 1.0)
            (List.init n Fun.id)
      | _ -> false)
    saxpy

(* [Harness.Run.run] does the host's part of RMT: it transforms the
   kernel, launches it on the variant's NDRange with the variant's extra
   buffers, and checks the output with the benchmark's verifier. *)
let run_once ~label variant ?inject () =
  let s = Harness.Run.run ?inject bench variant in
  Printf.printf "%-26s %6d cycles, %-9s output %s\n" label s.cycles
    (match s.outcome with
    | Device.Finished -> "finished,"
    | Device.Detected -> "DETECTED,"
    | Device.Crashed m -> "crashed (" ^ m ^ "),"
    | Device.Hung -> "hung,")
    (match s.outcome with
    | Device.Detected ->
        (* detection aborts the kernel before the bad store commits; a
           recovery scheme (checkpoint/restart) would now re-execute *)
        "partial (aborted for recovery)"
    | Device.Finished | Device.Crashed _ | Device.Hung ->
        if s.verified then "correct" else "CORRUPTED")

let () =
  let k = saxpy () in
  print_endline "original kernel:";
  print_string (Pp.kernel_to_string k);
  let rmt = T.apply T.intra_plus_lds ~local_items:wg k in
  Printf.printf "RMT version: %d -> %d virtual registers, LDS %d -> %d bytes\n\n"
    k.Types.nregs rmt.Types.nregs (Types.lds_bytes k) (Types.lds_bytes rmt);
  run_once ~label:"original" T.Original ();
  run_once ~label:"Intra-Group+LDS" T.intra_plus_lds ();
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
      T.intra_plus_lds ~inject ()
  done
