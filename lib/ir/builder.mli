(** Imperative builder EDSL for constructing {!Types.kernel} values.

    A builder holds a stack of open statement buffers; control-flow
    combinators ({!if_}, {!when_}, {!while_}, {!for_}) push a buffer, run
    a closure that emits into it, and pop it into the enclosing
    statement. Every emitting helper returns the {!Types.value} holding
    its result, so kernels read like straight-line OpenCL — see
    [lib/kernels/] for sixteen complete examples. *)

open Types

type t

val create : string -> t
(** [create name] starts building a kernel called [name]. *)

val finish : t -> kernel
(** Close the builder and produce the kernel.
    @raise Invalid_argument if control-flow blocks are still open. *)

(** {1 Rewriting an existing kernel} *)

val extend : kernel -> t
(** [extend k] starts a builder for a pass that rewrites [k]: fresh
    registers start at [k.nregs], so [k]'s registers keep their numbers.
    It records no parameters or LDS allocations; collect statements with
    {!take} and size the result with {!nregs} instead of {!finish}. *)

val take : t -> stmt list
(** Return the statements of the open top-level block and clear it.
    @raise Invalid_argument if control-flow blocks are still open. *)

val nregs : t -> int
(** Registers allocated so far (the built kernel's [nregs]). *)

val fresh : t -> reg
(** Allocate a fresh virtual register. *)

val emit : t -> stmt -> unit
(** Append a raw statement to the open block (escape hatch). *)

val push_block : t -> unit
(** Open a nested statement buffer (used by combinators; exposed for
    custom control-flow helpers). *)

val pop_block : t -> stmt list
(** Close the innermost buffer and return its statements. *)

(** {1 Parameters and LDS} *)

val buffer_param : t -> string -> value
(** Declare a global buffer parameter; returns its base address. *)

val scalar_param : t -> string -> value
(** Declare a 32-bit scalar parameter; returns its value. *)

val arg : t -> int -> value
(** [arg b i] reads kernel argument [i] without declaring it, for a pass
    that appends parameters to the kernel it rewrites. *)

val lds_alloc : t -> string -> int -> value
(** [lds_alloc b name bytes] declares a named LDS allocation and returns
    its base byte offset.
    @raise Invalid_argument on duplicate names. *)

(** {1 Immediates} *)

val imm : int -> value
val imm32 : int32 -> value
val immf : float -> value

(** {1 Arithmetic} *)

val iarith : t -> ibin -> value -> value -> value
val farith : t -> fbin -> value -> value -> value
val funary : t -> funary -> value -> value
val icmp : t -> icmp -> value -> value -> value
val fcmp : t -> fcmp -> value -> value -> value
val select : t -> value -> value -> value -> value
val mov : t -> value -> value
val cvt : t -> cvt -> value -> value
val mad : t -> value -> value -> value -> value
val fma : t -> value -> value -> value -> value

val add : t -> value -> value -> value
val sub : t -> value -> value -> value
val mul : t -> value -> value -> value
val div_u : t -> value -> value -> value
val div_s : t -> value -> value -> value
val rem_u : t -> value -> value -> value
val and_ : t -> value -> value -> value
val or_ : t -> value -> value -> value
val xor : t -> value -> value -> value
val shl : t -> value -> value -> value
val lshr : t -> value -> value -> value
val ashr : t -> value -> value -> value
val min_s : t -> value -> value -> value
val max_s : t -> value -> value -> value
val min_u : t -> value -> value -> value

val fadd : t -> value -> value -> value
val fsub : t -> value -> value -> value
val fmul : t -> value -> value -> value
val fdiv : t -> value -> value -> value
val fmin : t -> value -> value -> value
val fmax : t -> value -> value -> value

val fneg : t -> value -> value
val fabs : t -> value -> value
val fsqrt : t -> value -> value
val frsqrt : t -> value -> value
val frcp : t -> value -> value
val fexp : t -> value -> value
val flog : t -> value -> value
val fsin : t -> value -> value
val fcos : t -> value -> value
val ffloor : t -> value -> value

val eq : t -> value -> value -> value
val ne : t -> value -> value -> value
val lt_s : t -> value -> value -> value
val le_s : t -> value -> value -> value
val gt_s : t -> value -> value -> value
val ge_s : t -> value -> value -> value
val lt_u : t -> value -> value -> value

val feq : t -> value -> value -> value
val flt : t -> value -> value -> value
val fle : t -> value -> value -> value
val fgt : t -> value -> value -> value

val s32_to_f32 : t -> value -> value
val u32_to_f32 : t -> value -> value
val f32_to_s32 : t -> value -> value
val f32_to_u32 : t -> value -> value

(** {1 Work-item geometry} *)

val special : t -> special -> value
val global_id : t -> int -> value
val local_id : t -> int -> value
val group_id : t -> int -> value
val global_size : t -> int -> value
val local_size : t -> int -> value
val num_groups : t -> int -> value

val flat_local_id2 : t -> value
(** Flattened local id for up-to-2D work-groups. *)

(** {1 Memory} *)

val load : t -> space -> value -> value
val store : t -> space -> value -> value -> unit
val gload : t -> value -> value
val gstore : t -> value -> value -> unit
val lload : t -> value -> value
val lstore : t -> value -> value -> unit

val elem : t -> value -> value -> value
(** Byte address of 32-bit element [i] of a buffer at [base]. *)

val gload_elem : t -> value -> value -> value
val gstore_elem : t -> value -> value -> value -> unit

val atomic : t -> atomic_op -> space -> value -> value -> value
val atomic_add : t -> space -> value -> value -> value
val cas : t -> space -> value -> value -> value -> value
val barrier : t -> unit
val fence : t -> space -> unit
val swizzle : t -> swizzle -> value -> value
val trap : t -> value -> unit

(** {1 Control flow} *)

val if_ : t -> value -> (unit -> unit) -> (unit -> unit) -> unit
(** [if_ b cond then_ else_] emits a two-armed conditional. *)

val when_ : t -> value -> (unit -> unit) -> unit
(** One-armed conditional. *)

val while_ : t -> (unit -> value) -> (unit -> unit) -> unit
(** [while_ b header body]: [header] runs each iteration and returns the
    continuation condition; [body] runs for lanes where it holds. *)

val for_ : t -> lo:value -> hi:value -> step:value -> (value -> unit) -> unit
(** Counted loop [for i = lo; i < hi; i += step]. *)

val cell : t -> value -> reg
(** Assignable register initialised to a value; update with {!set}. *)

val set : t -> reg -> value -> unit
val get : reg -> value
