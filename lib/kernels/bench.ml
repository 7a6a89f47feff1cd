(** Benchmark interface: one value per AMD OpenCL SDK sample kernel.

    A benchmark supplies a kernel (in {!Gpu_ir}), a [prepare] step that
    allocates and fills device buffers and returns the launch schedule
    (most kernels launch once; BitonicSort, FastWalshTransform and
    FloydWarshall launch a sequence of passes, as their SDK hosts do), and
    a verifier that checks device output against a CPU reference — the
    "built-in verification capability" the paper relies on. *)

type step = {
  args : Gpu_sim.Device.arg list;  (** original kernel arguments *)
  nd : Gpu_sim.Geom.ndrange;       (** original NDRange *)
}

type prepared = {
  steps : step list;
  verify : Gpu_sim.Device.t -> bool;
      (** compare the given device's output with the CPU reference: the
          device prepared, or a {!Gpu_sim.Device.fork} of it *)
}

(** Workload character classes, used in reports and in the EXPERIMENTS.md
    discussion (they drive which RMT flavor hurts, per the paper). *)
type character =
  | Memory_bound
  | Compute_bound
  | Lds_bound
  | Store_heavy
  | Underutilizing

let character_name = function
  | Memory_bound -> "memory-bound"
  | Compute_bound -> "compute-bound"
  | Lds_bound -> "LDS-bound"
  | Store_heavy -> "store-heavy"
  | Underutilizing -> "under-utilizing"

type t = {
  id : string;        (** the paper's abbreviation, e.g. "BinS" *)
  name : string;      (** SDK sample name *)
  character : character;
  make_kernel : unit -> Gpu_ir.Types.kernel;
  prepare : Gpu_sim.Device.t -> scale:int -> prepared;
      (** [scale] multiplies the default problem size (1 = default) *)
}

(* ------------------------------------------------------------------ *)
(* Host-side helpers shared by the benchmarks                          *)
(* ------------------------------------------------------------------ *)

(** Deterministic pseudo-random input generator (xorshift). *)
module Rng = struct
  type t = { mutable s : int }

  let create seed = { s = (seed lor 1) land 0x3FFFFFFF }

  let next r =
    let s = r.s in
    let s = s lxor (s lsl 13) land 0x3FFFFFFFFFFF in
    let s = s lxor (s lsr 7) in
    let s = s lxor (s lsl 17) land 0x3FFFFFFFFFFF in
    r.s <- s;
    s

  let int r m = if m <= 0 then 0 else next r mod m
  let float r lo hi = lo +. ((hi -. lo) *. float_of_int (next r land 0xFFFFFF) /. 16777216.0)
end

(** Relative/absolute float comparison for verification of float kernels
    (the CPU reference uses the same binary32 rounding, but operation
    order may differ slightly in reductions). *)
let f32_close ?(tol = 1e-4) a b =
  let d = Float.abs (a -. b) in
  d <= tol || d <= tol *. Float.max (Float.abs a) (Float.abs b)

let verify_f32_buffer dev buf expected ?(tol = 1e-4) () =
  let ok = ref true in
  Array.iteri
    (fun i want ->
      let got = Gpu_sim.Device.read_f32 dev buf i in
      if not (f32_close ~tol got want) then ok := false)
    expected;
  !ok

let verify_i32_buffer dev buf expected =
  let ok = ref true in
  Array.iteri
    (fun i want -> if Gpu_sim.Device.read_i32 dev buf i <> want then ok := false)
    expected;
  !ok

(** Upload a float array into a fresh buffer. *)
let upload_f32 dev arr =
  let buf = Gpu_sim.Device.alloc dev (Array.length arr * 4) in
  Gpu_sim.Device.write_f32_array dev buf arr;
  buf

let upload_i32 dev arr =
  let buf = Gpu_sim.Device.alloc dev (Array.length arr * 4) in
  Gpu_sim.Device.write_i32_array dev buf arr;
  buf

let alloc_out dev words =
  let buf = Gpu_sim.Device.alloc dev (words * 4) in
  Gpu_sim.Device.fill_i32 dev buf words 0;
  buf

(* ------------------------------------------------------------------ *)
(* Single-launch benchmarks from a kernel and argument specs            *)
(* ------------------------------------------------------------------ *)

type init = Zero | Index | Findex | Fill_i32 of int | Fill_f32 of float
type arg_spec = Buf of int * init | I32 of int | F32 of float

(** One launch of [make_kernel ()] over [global] items in groups of
    [local], with the arguments [args] describe: each buffer is
    allocated and filled in parameter order, each scalar passed as
    given. [scale] is ignored. *)
let of_kernel ~id ~name ~global ~local ~args ~verify make_kernel =
  let prepare dev ~scale:_ =
    let arg = function
      | Buf (words, init) ->
          let b = Gpu_sim.Device.alloc dev (words * 4) in
          for j = 0 to words - 1 do
            match init with
            | Zero -> Gpu_sim.Device.write_i32 dev b j 0
            | Index -> Gpu_sim.Device.write_i32 dev b j j
            | Findex -> Gpu_sim.Device.write_f32 dev b j (float_of_int j)
            | Fill_i32 v -> Gpu_sim.Device.write_i32 dev b j v
            | Fill_f32 x -> Gpu_sim.Device.write_f32 dev b j x
          done;
          Gpu_sim.Device.A_buf b
      | I32 v -> Gpu_sim.Device.A_i32 v
      | F32 x -> Gpu_sim.Device.A_f32 x
    in
    let args = List.map arg args in
    {
      steps = [ { args; nd = Gpu_sim.Geom.make_ndrange global local } ];
      verify = (fun dev -> verify dev args);
    }
  in
  { id; name; character = Memory_bound; make_kernel; prepare }

(* f32-exact CPU arithmetic, mirroring the device. *)
module F = struct
  let r = Gpu_ir.F32.round
  let ( + ) a b = r (a +. b)
  let ( - ) a b = r (a -. b)
  let ( * ) a b = r (a *. b)
  let ( / ) a b = r (a /. b)
  let sqrt x = r (Stdlib.sqrt x)
  let exp x = r (Stdlib.exp x)
  let log x = r (Stdlib.log x)
end
