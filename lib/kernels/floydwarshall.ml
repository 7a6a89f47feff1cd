(** FloydWarshall (FW) — AMD SDK sample.

    All-pairs shortest paths: the host launches one kernel per
    intermediate node [k]; each work-item relaxes one (row, column) cell
    of the distance matrix with two extra loads from row/column [k] and
    an unconditional store. Long-running (N launches) with one store per
    item per pass — the paper uses FW in the power study (Figure 5), and
    FAST register communication slightly hurts it (Figure 9). *)

open Gpu_ir

let make_kernel () =
  let b = Builder.create "floyd_warshall_pass" in
  let dist = Builder.buffer_param b "dist" in
  let n = Builder.scalar_param b "n" in
  let k = Builder.scalar_param b "k" in
  let x = Builder.global_id b 0 in
  let y = Builder.global_id b 1 in
  let open Builder in
  let dij = gload_elem b dist (mad b y n x) in
  let dik = gload_elem b dist (mad b y n k) in
  let dkj = gload_elem b dist (mad b k n x) in
  let via = add b dik dkj in
  let best = min_s b dij via in
  gstore_elem b dist (mad b y n x) best;
  Builder.finish b

let ref_fw dist n =
  let d = Array.copy dist in
  for k = 0 to n - 1 do
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        let via = d.((i * n) + k) + d.((k * n) + j) in
        if via < d.((i * n) + j) then d.((i * n) + j) <- via
      done
    done
  done;
  d

let prepare dev ~scale =
  let n = 64 * scale in
  let rng = Bench.Rng.create 71 in
  (* bounded weights so k-pass sums stay far from overflow *)
  let dist =
    Array.init (n * n) (fun p ->
        let i = p / n and j = p mod n in
        if i = j then 0 else 1 + Bench.Rng.int rng 1000)
  in
  let buf = Bench.upload_i32 dev dist in
  let nd = Gpu_sim.Geom.make_ndrange n 64 ~gy:n ~ly:2 in
  let steps =
    List.init n (fun k ->
        { Bench.args = [ Gpu_sim.Device.A_buf buf; A_i32 n; A_i32 k ]; nd })
  in
  let expected = ref_fw dist n in
  {
    Bench.steps;
    verify = (fun dev -> Bench.verify_i32_buffer dev buf expected);
  }

let bench : Bench.t =
  {
    id = "FW";
    name = "FloydWarshall";
    character = Bench.Memory_bound;
    make_kernel;
    prepare;
  }
