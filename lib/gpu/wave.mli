(** Wavefront state and interpreter: executes the structured IR with an
    explicit continuation stack and a 64-bit execution mask, exactly as
    SIMT hardware does with its reconvergence stack. Control bookkeeping
    happens during {!peek} (near-free, as on GCN's scalar branch unit);
    real instructions are returned to the compute unit as a site id into
    the launch's {!decoded} table and executed functionally at issue time
    by {!exec}, one loop over the register array per instruction. *)

open Gpu_ir.Types
module Site = Gpu_ir.Site

type cont =
  | K_stmts of Site.astmt list
  | K_restore of int64
  | K_set_mask of int64 * Site.astmt list
  | K_loop of Site.astmt list * value * Site.astmt list * int64

type state = Running | At_barrier | Retired

type t = {
  wid : int;
  nlanes : int;
  flat_base : int;  (** flat local id of lane 0 *)
  regs : int array;  (** nregs x 64, lane-major within a register *)
  ready_at : int array;  (** per-register scoreboard *)
  lines : int array;
      (** unique cache lines of the last [Global] memory op, ascending *)
  mutable nlines : int;  (** valid prefix of [lines] *)
  mutable mem_lanes : int;  (** active lanes of the last memory op *)
  lanebuf : int array;  (** swizzle source snapshot *)
  mutable mask : int64;
  full_mask : int64;
  mutable stack : cont list;
  mutable pending : Site.id;  (** site at the head of the wave, or -1 *)
  mutable state : state;
  mutable simd : int;
  mutable last_issue : int;
  mutable retire_accounted : bool;
  mutable barrier_site : int;
      (** site id of the last barrier arrived at (-1 before the first) *)
}

val create :
  wid:int -> nregs:int -> nlanes:int -> flat_base:int ->
  body:Site.astmt list -> simd:int -> t
(** [body] is the kernel body annotated by {!Gpu_ir.Site.annotate}; the
    device annotates once per launch and shares the tree across waves. *)

val recycle :
  t -> wid:int -> nlanes:int -> flat_base:int -> body:Site.astmt list ->
  simd:int -> t
(** A fresh wave that takes over the register file and buffers of a
    retired wave of the same kernel, zero-filled: launches reuse the
    register files of completed groups instead of allocating new ones.
    The old wave must no longer be executed. *)

val copy : t -> t
(** The same wave state with its own register file and buffers; the
    continuation stack is immutable and shared. *)

val get_reg : t -> reg -> int -> int
val set_reg : t -> reg -> int -> int -> unit
val lane_active : int64 -> int -> bool
val popcount64 : int64 -> int
val active_lanes : t -> int

(** {1 Decoded site table} *)

type unit_kind = U_valu | U_salu | U_vmem | U_lds

type decoded = {
  site : Site.id;
  inst : inst;
  uses : int array;  (** registers read, in operand order *)
  def : int;  (** destination register, or -1 *)
  unit_ : unit_kind;  (** issue unit *)
  lds_off : int;
      (** byte offset of an [Lds_base] special's allocation; -1 when the
          instruction is something else or the name is unknown (then
          {!exec} asks [mem_ops.lds_base], which raises) *)
}

val decode :
  scalar:(inst -> bool) -> lds_offset:(string -> int option) -> inst array ->
  decoded array
(** Decode every site ({!Gpu_ir.Site.insts} order). Memory operations go
    to the vector memory ([Global]) or LDS ([Local]) unit, traps and
    swizzles to the VALU, and everything else to the SALU when [scalar]
    holds of it (see {!Gpu_ir.Uniformity.inst_scalarizable}). *)

val ready_cycle : t -> decoded -> int
(** First cycle at which every register [d] reads is available on the
    wave's scoreboard; 0 when it reads no register. *)

(** {1 Control flow} *)

type peek_result =
  | P_inst  (** [pending] holds the next instruction's site *)
  | P_stall
  | P_barrier_arrived
  | P_waiting
  | P_done

val peek :
  t -> now:int -> on_branch:(unit -> unit) ->
  on_cond:(t -> bool -> value -> unit) -> peek_result
(** Advance through control flow to the next instruction, stall, barrier
    or retirement. [on_cond w loop c] runs just before an [If] ([loop]
    false) or a loop test ([loop] true) reads its condition [c] on the
    lanes active in [w.mask]. At most 256 control transitions are handled per call,
    so a degenerate control-only loop yields to the watchdog. Allocates
    no closure. *)

val consume : t -> unit
val release_barrier : t -> unit

(** {1 Execution} *)

type mem_kind = MLoad | MStore | MAtomic

(** Memory/argument interface a wave executes against. *)
type mem_ops = {
  mload : space -> int -> int;
  mstore : space -> int -> int -> unit;
  matomic : atomic_op -> space -> int -> int -> int;
  mcas : space -> int -> int -> int -> int;
  arg : int -> int;
  lds_base : string -> int;
  view : Geom.group_view;
  msan : (mem_kind -> space -> int -> int -> int -> unit) option;
      (** sanitizer hook, called per lane as [f kind space addr lane v]
          before the access is performed; [v] is the stored value for
          [MStore], 1 for a writing atomic vs 0 for [A_poll], and 0 for
          loads; [None] when the sanitizer is off *)
}

type effect_ =
  | E_pure
  | E_trans  (** transcendental VALU op (quarter rate) *)
  | E_mem of mem_kind
      (** the active-lane count is in [mem_lanes]; a [Global] access's
          unique cache lines are [lines.(0 .. nlines - 1)], ascending
          (none for [Local]) *)
  | E_trapped  (** a trap fired on some active lane *)

val exec : t -> decoded -> mem:mem_ops -> line_bytes:int -> effect_
(** Execute functionally for all active lanes; returns the timing
    classification. Memory callbacks and the sanitizer hook run lane by
    lane in ascending lane order. Allocates nothing of its own.
    @raise Memsys.Fault on wild accesses. *)
