(* Closing the loop: detection plus re-execution recovery. The paper
   builds detection and leaves recovery to orthogonal techniques;
   Harness.Recovery supplies the simplest one — run, and on a detected
   fault run again from freshly prepared inputs. A transient flip
   therefore costs one wasted launch instead of corrupt output.

   The kernel mutates its buffer in place (out[i] *= 3), so a retry
   that saw the failed attempt's memory would triple-multiply — the
   example checks the recovered output is exactly right.

   Run with: dune exec examples/recovery.exe *)

open Gpu_ir
module Device = Gpu_sim.Device
module T = Rmt_core.Transform

let n = 1024
let wg = 64

(* out[i] <- 3 * in[i], computed the long way (i + i + i through an
   accumulator loop) so that injected flips have live state to land in *)
let inplace_triple () =
  let b = Builder.create "triple" in
  let data = Builder.buffer_param b "data" in
  let gid = Builder.global_id b 0 in
  let v = Builder.gload_elem b data gid in
  let acc = Builder.cell b (Builder.imm 0) in
  Builder.for_ b ~lo:(Builder.imm 0) ~hi:(Builder.imm 3) ~step:(Builder.imm 1)
    (fun _ -> Builder.set b acc (Builder.add b (Builder.get acc) v));
  Builder.gstore_elem b data gid (Builder.get acc);
  Builder.finish b

let bench : Kernels.Bench.t =
  {
    id = "triple";
    name = "in-place triple";
    character = Store_heavy;
    make_kernel = inplace_triple;
    prepare =
      (fun dev ~scale:_ ->
        let buf = Kernels.Bench.upload_i32 dev (Array.init n (fun i -> i + 1)) in
        {
          steps = [ { args = [ Device.A_buf buf ]; nd = Gpu_sim.Geom.make_ndrange n wg } ];
          verify =
            (fun dev ->
              Kernels.Bench.verify_i32_buffer dev buf
                (Array.init n (fun i -> 3 * (i + 1))));
        });
  }

let () =
  let recovered = ref 0 and clean = ref 0 and wrong = ref 0 in
  for seed = 1 to 30 do
    (* the transient fault strikes during the first attempt only *)
    let inject =
      { Device.at_cycle = 30 + (seed * 11); target = Device.T_vgpr; iseed = seed }
    in
    let attempts = Harness.Recovery.run ~inject bench T.intra_plus_lds in
    let last = List.nth attempts (List.length attempts - 1) in
    if not last.verified then begin
      incr wrong;
      Printf.printf "seed %2d: NOT recovered (final outcome: %s)\n" seed
        (match last.outcome with
        | Device.Finished ->
            "finished with wrong output - the flip landed in the window \
             between the output comparison and the store it guards"
        | Device.Crashed m -> "crash: " ^ m
        | Device.Hung -> "hang"
        | Device.Detected -> "detected but retries exhausted")
    end
    else if Harness.Recovery.recovered attempts then begin
      incr recovered;
      Printf.printf
        "seed %2d: fault detected -> rolled back -> retried: output correct \
         (%d launches, %d total cycles)\n"
        seed (List.length attempts)
        (Harness.Recovery.total_cycles attempts)
    end
    else incr clean
  done;
  Printf.printf
    "\n%d/30 injections were caught (trap, wild access, or hang) and\n\
     transparently recovered; "
    !recovered;
  if !wrong = 0 then
    Printf.printf
      "the other %d were masked by dead state.\n\
       Output was correct in every run -- never silent corruption.\n"
      !clean
  else begin
    Printf.printf "%d were masked by dead state and %d were NOT recovered.\n"
      !clean !wrong;
    exit 1
  end
