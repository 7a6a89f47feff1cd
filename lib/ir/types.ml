(** Core type definitions for the structured SIMT kernel IR.

    The IR models the subset of OpenCL-C (after LLVM structurization) that
    the RMT compiler passes of Wadden et al. (ISCA 2014) operate on:

    - an unbounded set of 32-bit virtual registers per work-item;
    - two addressable memory spaces, [Global] (off-chip, byte-addressed
      device memory) and [Local] (per-work-group LDS scratchpad);
    - work-item identification queries ({!special});
    - structured control flow ([If] / [While]) so that SIMT divergence can
      be simulated with an exec-mask stack and so that compiler passes can
      reason about reconvergence syntactically;
    - work-group [Barrier]s, global/local atomics, and the
      architecture-specific cross-lane [Swizzle] of Section 8 of the paper;
    - a [Trap] instruction used by the generated output-comparison code to
      signal a detected fault to the runtime.

    All register values are 32-bit patterns; floating-point instructions
    reinterpret them as IEEE-754 binary32. *)

(** A virtual register index. Registers are work-item private. The
    register-pressure analysis ({!module:Regpressure}) later decides how many
    physical VGPRs/SGPRs a kernel needs. *)
type reg = int

(** Memory spaces addressable by loads, stores and atomics. Private memory
    is register-only in this IR (spills are not modelled). *)
type space =
  | Global  (** off-chip device memory, shared by the whole NDRange *)
  | Local   (** on-chip LDS scratchpad, private to a work-group *)

(** An instruction operand: a register or a 32-bit immediate. [Imm_f32]
    immediates are rounded to binary32 when the kernel is loaded. *)
type value =
  | Reg of reg
  | Imm of int32
  | Imm_f32 of float

(** Integer binary operations. Division and remainder follow OpenCL
    semantics: division by zero yields an unspecified value (we define it as
    0 so that runs are deterministic). *)
type ibin =
  | Add | Sub | Mul
  | Div_s | Div_u | Rem_s | Rem_u
  | And | Or | Xor
  | Shl | Lshr | Ashr
  | Min_s | Max_s | Min_u | Max_u
  | Mulhi_u  (** high 32 bits of the unsigned 64-bit product *)

(** Single-precision floating-point binary operations. *)
type fbin = Fadd | Fsub | Fmul | Fdiv | Fmin | Fmax

(** Single-precision unary operations, including the transcendental
    built-ins the AMD SDK kernels need. *)
type funary =
  | Fneg | Fabs | Fsqrt | Frsqrt | Frcp
  | Fexp | Flog | Fsin | Fcos
  | Ffloor | Fround

(** Integer comparisons (result is 1 or 0). *)
type icmp = Ieq | Ine | Ilt_s | Ile_s | Igt_s | Ige_s | Ilt_u | Ige_u

(** Floating-point comparisons (result is 1 or 0; NaN compares false except
    under [Fne]). *)
type fcmp = Feq | Fne | Flt | Fle | Fgt | Fge

(** Conversions between the integer and float interpretations of a
    register. [Bitcast] is the identity on bits and exists to make intent
    explicit in generated code. *)
type cvt =
  | S32_to_f32 | U32_to_f32
  | F32_to_s32 | F32_to_u32
  | Bitcast

(** Work-item identification and geometry queries, per NDRange dimension
    (0..2), mirroring the OpenCL built-ins. [Lds_base] yields the byte
    offset of a named LDS allocation inside the work-group's LDS segment;
    the RMT passes retarget it when they duplicate LDS state. *)
type special =
  | Global_id of int
  | Local_id of int
  | Group_id of int
  | Global_size of int
  | Local_size of int
  | Num_groups of int
  | Lds_base of string

(** Atomic read-modify-write operations. [A_add]/[A_sub] with operand 0 is
    the paper's idiom for an L2-visible (cache-bypassing) load. [A_poll]
    is that same idiom tagged as a spin-loop poll: it reads the old value
    and writes nothing, but marks the access so the device can charge it
    to [Counters.spin_iterations] instead of useful memory work. *)
type atomic_op = A_add | A_sub | A_xchg | A_max_u | A_min_u | A_poll

(** Cross-lane data movement inside a wavefront, the architecture-specific
    escape hatch of Section 8. [Dup_even] makes every lane read the value
    held by the even lane of its (even, odd) pair; [Dup_odd] the converse;
    [Xor_mask m] reads lane [lane lxor m]; [Bcast l] broadcasts lane [l]. *)
type swizzle = Dup_even | Dup_odd | Xor_mask of int | Bcast of int

(** Instructions. Destination register first where present. *)
type inst =
  | Iarith of ibin * reg * value * value
  | Farith of fbin * reg * value * value
  | Funary of funary * reg * value
  | Icmp of icmp * reg * value * value
  | Fcmp of fcmp * reg * value * value
  | Select of reg * value * value * value  (** [dst, cond, if_true, if_false] *)
  | Mov of reg * value
  | Cvt of cvt * reg * value
  | Mad of reg * value * value * value  (** [dst = a * b + c], integer *)
  | Fma of reg * value * value * value  (** [dst = a *. b +. c], fused *)
  | Special of special * reg
  | Arg of reg * int       (** read kernel argument [i] (scalar or buffer base) *)
  | Load of space * reg * value         (** [dst <- mem[addr]], 32-bit *)
  | Store of space * value * value      (** [mem[addr] <- v], 32-bit *)
  | Atomic of atomic_op * space * reg * value * value
      (** [old <- rmw mem[addr] op operand] *)
  | Cas of space * reg * value * value * value
      (** [old <- compare-and-swap mem[addr] expected desired] *)
  | Barrier                 (** work-group execution + memory barrier *)
  | Fence of space          (** memory fence without synchronization *)
  | Swizzle of swizzle * reg * value
  | Trap of value           (** nonzero in any active lane => fault detected *)

(** Structured statements. [While (header, cond, body)] executes [header],
    tests [cond] per lane, and runs [body] for lanes where it is nonzero,
    repeating until no lane remains active; lanes leave the loop
    individually, as on SIMT hardware. *)
type stmt =
  | I of inst
  | If of value * stmt list * stmt list
  | While of stmt list * value * stmt list

(** Kernel parameter kinds. Buffers are passed as global byte addresses. *)
type param =
  | Param_buffer of string
  | Param_scalar of string

(** A kernel: parameters, named LDS allocations (name, bytes), body, and
    the number of virtual registers used (registers are [0 .. nregs-1]). *)
type kernel = {
  kname : string;
  params : param list;
  lds_allocs : (string * int) list;
  body : stmt list;
  nregs : int;
}

(** Total LDS bytes statically allocated by a kernel. *)
let lds_bytes (k : kernel) =
  List.fold_left (fun acc (_, sz) -> acc + sz) 0 k.lds_allocs

(** Number of parameters. *)
let param_count (k : kernel) = List.length k.params

(** [iter_inst f body] applies [f] to every instruction in program order,
    entering both branches of conditionals and loop headers before bodies. *)
let rec iter_inst f (body : stmt list) =
  List.iter
    (fun s ->
      match s with
      | I i -> f i
      | If (_, t, e) ->
          iter_inst f t;
          iter_inst f e
      | While (h, _, b) ->
          iter_inst f h;
          iter_inst f b)
    body

(** [exists_inst p body] is true when some instruction satisfies [p]. *)
let exists_inst p body =
  let found = ref false in
  iter_inst (fun i -> if p i then found := true) body;
  !found

(** [map_stmts f body] rebuilds the statement tree, replacing every
    statement [s] by [f s] bottom-up (children first). *)
let rec map_stmts f (body : stmt list) : stmt list =
  List.map
    (fun s ->
      match s with
      | I _ -> f s
      | If (c, t, e) -> f (If (c, map_stmts f t, map_stmts f e))
      | While (h, c, b) -> f (While (map_stmts f h, c, map_stmts f b)))
    body

(** [concat_map_stmts f body] replaces each statement by a list of
    statements, rebuilding children first. This is the main workhorse of
    the RMT rewriting passes: an instruction can be expanded into a
    sequence (for example a store into communicate/compare/store). *)
let rec concat_map_stmts f (body : stmt list) : stmt list =
  List.concat_map
    (fun s ->
      match s with
      | I _ -> f s
      | If (c, t, e) -> f (If (c, concat_map_stmts f t, concat_map_stmts f e))
      | While (h, c, b) ->
          f (While (concat_map_stmts f h, c, concat_map_stmts f b)))
    body

(** Registers read by an instruction. *)
let inst_uses (i : inst) : value list =
  match i with
  | Iarith (_, _, a, b)
  | Farith (_, _, a, b)
  | Icmp (_, _, a, b)
  | Fcmp (_, _, a, b) ->
      [ a; b ]
  | Funary (_, _, a) | Mov (_, a) | Cvt (_, _, a) -> [ a ]
  | Select (_, c, a, b) -> [ c; a; b ]
  | Mad (_, a, b, c) | Fma (_, a, b, c) -> [ a; b; c ]
  | Special _ | Arg _ -> []
  | Load (_, _, addr) -> [ addr ]
  | Store (_, addr, v) -> [ addr; v ]
  | Atomic (_, _, _, addr, v) -> [ addr; v ]
  | Cas (_, _, addr, e, d) -> [ addr; e; d ]
  | Barrier | Fence _ -> []
  | Swizzle (_, _, a) -> [ a ]
  | Trap v -> [ v ]

(** Destination register written by an instruction, if any. *)
let inst_def (i : inst) : reg option =
  match i with
  | Iarith (_, d, _, _)
  | Farith (_, d, _, _)
  | Funary (_, d, _)
  | Icmp (_, d, _, _)
  | Fcmp (_, d, _, _)
  | Select (d, _, _, _)
  | Mov (d, _)
  | Cvt (_, d, _)
  | Mad (d, _, _, _)
  | Fma (d, _, _, _)
  | Special (_, d)
  | Arg (d, _)
  | Load (_, d, _)
  | Atomic (_, _, d, _, _)
  | Cas (_, d, _, _, _)
  | Swizzle (_, d, _) ->
      Some d
  | Store _ | Barrier | Fence _ | Trap _ -> None
