(** Facade over the RMT transforms: one variant type covering every
    kernel version the evaluation runs, with uniform host-side launch
    adaptation. *)

type variant =
  | Original
  | Intra of { include_lds : bool; comm : Intra_group.comm }
  | Inter of Inter_group.comm_scheme
      (** [Per_item] is the headline flavor, [No_comm] the Figure 7
          ablation, [Pooled n] the paper's two-tier pooled buffers *)
  | Tmr
      (** triple modular redundancy, an extension beyond the paper:
          majority-voted stores (see {!Tmr}) *)

exception Unsupported of string
(** Raised by {!apply} when the kernel or the work-group size does not
    suit the variant; the same exception as {!Intra_group.Unsupported}. *)

(** The headline flavors of the paper. *)

val intra_plus_lds : variant
val intra_minus_lds : variant
val intra_plus_lds_fast : variant
val intra_minus_lds_fast : variant
val inter_group : variant

val name : variant -> string
(** A distinct name per variant, used as a report label and a cache key. *)

val apply : variant -> local_items:int -> Gpu_ir.Types.kernel -> Gpu_ir.Types.kernel
(** Transform a kernel. [local_items] is the original flat work-group
    size of the intended launch.
    @raise Unsupported when the variant cannot transform the kernel. *)

val map_ndrange : variant -> Gpu_sim.Geom.ndrange -> Gpu_sim.Geom.ndrange
(** Adapt the original NDRange for the transformed kernel. *)

type extras = {
  ex_args : Gpu_sim.Device.arg list;  (** arguments to append *)
  reset : Gpu_sim.Device.t -> unit;
      (** call on the launching device before every launch: the device
          the extras were made on, or a {!Gpu_sim.Device.fork} of it *)
}

val make_extras : variant -> Gpu_sim.Device.t -> nd:Gpu_sim.Geom.ndrange -> extras
(** Allocate (and zero) the extra buffers for launches of [variant] over
    the {e original} NDRange. *)
