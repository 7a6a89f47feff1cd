(** Benchmark interface: one value per AMD OpenCL SDK sample kernel,
    with host-side preparation (buffers, inputs, launch schedule) and a
    CPU-reference verifier. *)

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
