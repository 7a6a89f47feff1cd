(** Benchmark interface: one value per AMD OpenCL SDK sample kernel,
    with host-side preparation (buffers, inputs, launch schedule) and a
    CPU-reference verifier. Anything [Harness.Run.run] runs is a [t]:
    {!of_kernel} makes one from any kernel and [rmtgpu runfile]'s
    [--arg] vocabulary. *)

type step = {
  args : Gpu_sim.Device.arg list;  (** original kernel arguments *)
  nd : Gpu_sim.Geom.ndrange;       (** original NDRange *)
}

type prepared = {
  steps : step list;  (** most kernels launch once; BitS/FWT/FW are passes *)
  verify : Gpu_sim.Device.t -> bool;
      (** compare the given device's output with the CPU reference: the
          device [prepare] filled, or a {!Gpu_sim.Device.fork} of it *)
}

type character =
  | Memory_bound
  | Compute_bound
  | Lds_bound
  | Store_heavy
  | Underutilizing

val character_name : character -> string

type t = {
  id : string;   (** the paper's abbreviation, e.g. "BinS" *)
  name : string;
  character : character;
  make_kernel : unit -> Gpu_ir.Types.kernel;
  prepare : Gpu_sim.Device.t -> scale:int -> prepared;
}

(** {1 Host-side helpers shared by the benchmark implementations} *)

module Rng : sig
  type t

  val create : int -> t
  val next : t -> int
  val int : t -> int -> int
  val float : t -> float -> float -> float
end

val f32_close : ?tol:float -> float -> float -> bool
val verify_f32_buffer :
  Gpu_sim.Device.t -> Gpu_sim.Device.buffer -> float array -> ?tol:float ->
  unit -> bool
val verify_i32_buffer :
  Gpu_sim.Device.t -> Gpu_sim.Device.buffer -> int array -> bool
val upload_f32 : Gpu_sim.Device.t -> float array -> Gpu_sim.Device.buffer
val upload_i32 : Gpu_sim.Device.t -> int array -> Gpu_sim.Device.buffer
val alloc_out : Gpu_sim.Device.t -> int -> Gpu_sim.Device.buffer

(** {1 Single-launch benchmarks from a kernel and argument specs} *)

(** How a buffer's words start out. *)
type init =
  | Zero
  | Index  (** word i holds i *)
  | Findex  (** word i holds the f32 value i *)
  | Fill_i32 of int  (** every word holds the integer *)
  | Fill_f32 of float  (** every word holds the f32 value *)

(** One kernel parameter's argument, in parameter order. *)
type arg_spec =
  | Buf of int * init  (** a global buffer of that many 32-bit words *)
  | I32 of int
  | F32 of float

val of_kernel :
  id:string ->
  name:string ->
  global:int ->
  local:int ->
  args:arg_spec list ->
  verify:(Gpu_sim.Device.t -> Gpu_sim.Device.arg list -> bool) ->
  (unit -> Gpu_ir.Types.kernel) ->
  t
(** [of_kernel ~id ~name ~global ~local ~args ~verify make_kernel] is a
    benchmark of one launch of [make_kernel ()] over a one-dimensional
    NDRange of [global] work-items in groups of [local]. Its [prepare]
    allocates and fills each buffer of [args] in parameter order and
    passes each scalar as given; it ignores [scale]. Its [verify] calls
    [verify] with the device and the launch's arguments, each buffer as
    its [A_buf]. Its [character] is [Memory_bound], which only the
    registry's reports read.
    @raise Gpu_sim.Device.Out_of_device_memory from [prepare] when the
    buffers do not fit. *)

(** f32-exact CPU arithmetic, mirroring the device. *)
module F : sig
  val r : float -> float
  val ( + ) : float -> float -> float
  val ( - ) : float -> float -> float
  val ( * ) : float -> float -> float
  val ( / ) : float -> float -> float
  val sqrt : float -> float
  val exp : float -> float
  val log : float -> float
end
