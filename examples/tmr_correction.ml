(* TMR: correct faults instead of just detecting them (extension beyond
   the paper). A 3-point stencil runs under DMR (Intra-Group+LDS, the
   paper's detector) and TMR (triplicated work-items with majority-voted
   stores); a VGPR bit flip aborts the DMR run for recovery but is
   outvoted under TMR, which completes with correct output at ~3x work.

   Run with: dune exec examples/tmr_correction.exe *)

open Gpu_ir
module Device = Gpu_sim.Device
module T = Rmt_core.Transform

let wg = 16  (* TMR triples must stay wavefront-resident: 3*16 <= 64 *)
let n = 512

let stencil () =
  let b = Builder.create "stencil3" in
  let input = Builder.buffer_param b "in" in
  let output = Builder.buffer_param b "out" in
  let nn = Builder.scalar_param b "n" in
  let gid = Builder.global_id b 0 in
  let at i =
    let clamped =
      Builder.max_s b (Builder.imm 0)
        (Builder.min_s b i (Builder.sub b nn (Builder.imm 1)))
    in
    Builder.gload_elem b input clamped
  in
  let v =
    Builder.add b
      (Builder.add b
         (at (Builder.sub b gid (Builder.imm 1)))
         (Builder.mul b (at gid) (Builder.imm 2)))
      (at (Builder.add b gid (Builder.imm 1)))
  in
  Builder.gstore_elem b output gid v;
  Builder.finish b

let bench : Kernels.Bench.t =
  {
    id = "stencil3";
    name = "3-point stencil";
    character = Memory_bound;
    make_kernel = stencil;
    prepare =
      (fun dev ~scale:_ ->
        let data = Array.init n (fun i -> (i * 131) land 0xFFF) in
        let input = Kernels.Bench.upload_i32 dev data in
        let output = Device.alloc dev (n * 4) in
        let at j = data.(max 0 (min j (n - 1))) in
        {
          steps =
            [
              {
                args = [ A_buf input; A_buf output; A_i32 n ];
                nd = Gpu_sim.Geom.make_ndrange n wg;
              };
            ];
          verify =
            (fun dev ->
              Kernels.Bench.verify_i32_buffer dev output
                (Array.init n (fun i -> at (i - 1) + (2 * at i) + at (i + 1))));
        });
  }

let run ~label variant ?inject () =
  let s = Harness.Run.run ?inject bench variant in
  Printf.printf "%-28s %6d cycles  %-10s output %s\n" label s.cycles
    (match s.outcome with
    | Device.Finished -> "finished"
    | Device.Detected -> "DETECTED"
    | Device.Crashed m -> "crash:" ^ m
    | Device.Hung -> "hung")
    (if s.verified then "correct"
     else if s.outcome = Device.Detected then "partial (abort for recovery)"
     else "CORRUPTED")

let () =
  print_endline "fault-free:";
  run ~label:"  original" T.Original ();
  run ~label:"  DMR (Intra-Group+LDS)" T.intra_plus_lds ();
  run ~label:"  TMR (majority vote)" T.Tmr ();
  print_endline "\nwith a VGPR bit flip (same seeds for both):";
  List.iter
    (fun seed ->
      let inject =
        { Device.at_cycle = 80 + (seed * 23); target = Device.T_vgpr; iseed = seed }
      in
      run ~label:(Printf.sprintf "  DMR, flip #%d" seed) T.intra_plus_lds ~inject ();
      run ~label:(Printf.sprintf "  TMR, flip #%d" seed) T.Tmr ~inject ())
    [ 1; 2; 3; 4 ];
  print_endline
    "\nTMR completes with correct output where DMR must abort and re-execute;\n\
     the price is ~3x redundant work instead of ~2x (see `rmtgpu exp tmr`)."
