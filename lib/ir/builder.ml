(** Imperative builder EDSL for constructing {!Types.kernel} values.

    A builder holds a stack of open statement buffers; control-flow
    combinators ({!if_}, {!while_}) push a buffer, run a closure that emits
    into it, and pop it into the enclosing statement. Every emitting helper
    returns the {!Types.value} holding its result so kernels read like
    straight-line OpenCL. *)

open Types

type t = {
  name : string;
  mutable params : param list;
  mutable lds : (string * int) list;
  mutable next_reg : int;
  mutable stack : stmt list ref list;  (** innermost buffer first, reversed *)
}

let create name = { name; params = []; lds = []; next_reg = 0; stack = [ ref [] ] }

(** A builder for a pass that rewrites [k]: fresh registers continue
    after [k]'s, and no parameters or LDS allocations are recorded. *)
let extend (k : kernel) =
  { name = k.kname; params = []; lds = []; next_reg = k.nregs; stack = [ ref [] ] }

let nregs b = b.next_reg

(** Allocate a fresh virtual register. *)
let fresh b =
  let r = b.next_reg in
  b.next_reg <- r + 1;
  r

let emit b (s : stmt) =
  match b.stack with
  | buf :: _ -> buf := s :: !buf
  | [] -> invalid_arg "Builder.emit: no open block"

let push_block b = b.stack <- ref [] :: b.stack

let pop_block b =
  match b.stack with
  | buf :: rest ->
      b.stack <- rest;
      List.rev !buf
  | [] -> invalid_arg "Builder.pop_block: empty stack"

(** Return and clear the open top-level block. *)
let take b =
  match b.stack with
  | [ buf ] ->
      let ss = List.rev !buf in
      buf := [];
      ss
  | _ -> invalid_arg "Builder.take: unclosed control-flow block"

let unary_emit b mk =
  let d = fresh b in
  emit b (I (mk d));
  Reg d

(** Read kernel argument [idx]. *)
let arg b idx = unary_emit b (fun d -> Arg (d, idx))

(* ------------------------------------------------------------------ *)
(* Parameters and LDS                                                  *)
(* ------------------------------------------------------------------ *)

(** Declare a global buffer parameter; returns its base address value. *)
let buffer_param b name =
  let idx = List.length b.params in
  b.params <- b.params @ [ Param_buffer name ];
  arg b idx

(** Declare a 32-bit scalar parameter; returns its value. *)
let scalar_param b name =
  let idx = List.length b.params in
  b.params <- b.params @ [ Param_scalar name ];
  arg b idx

(** Declare a named LDS allocation of [bytes]; returns its base offset. *)
let lds_alloc b name bytes =
  if List.mem_assoc name b.lds then
    invalid_arg ("Builder.lds_alloc: duplicate allocation " ^ name);
  b.lds <- b.lds @ [ (name, bytes) ];
  let r = fresh b in
  emit b (I (Special (Lds_base name, r)));
  Reg r

(* ------------------------------------------------------------------ *)
(* Immediates                                                          *)
(* ------------------------------------------------------------------ *)

let imm n = Imm (Int32.of_int n)
let imm32 n = Imm n
let immf x = Imm_f32 x

(* ------------------------------------------------------------------ *)
(* Arithmetic helpers                                                  *)
(* ------------------------------------------------------------------ *)

let iarith b op x y = unary_emit b (fun d -> Iarith (op, d, x, y))
let farith b op x y = unary_emit b (fun d -> Farith (op, d, x, y))
let funary b op x = unary_emit b (fun d -> Funary (op, d, x))
let icmp b op x y = unary_emit b (fun d -> Icmp (op, d, x, y))
let fcmp b op x y = unary_emit b (fun d -> Fcmp (op, d, x, y))
let select b c x y = unary_emit b (fun d -> Select (d, c, x, y))
let mov b x = unary_emit b (fun d -> Mov (d, x))
let cvt b op x = unary_emit b (fun d -> Cvt (op, d, x))
let mad b x y z = unary_emit b (fun d -> Mad (d, x, y, z))
let fma b x y z = unary_emit b (fun d -> Fma (d, x, y, z))

let add b x y = iarith b Add x y
let sub b x y = iarith b Sub x y
let mul b x y = iarith b Mul x y
let div_u b x y = iarith b Div_u x y
let div_s b x y = iarith b Div_s x y
let rem_u b x y = iarith b Rem_u x y
let and_ b x y = iarith b And x y
let or_ b x y = iarith b Or x y
let xor b x y = iarith b Xor x y
let shl b x y = iarith b Shl x y
let lshr b x y = iarith b Lshr x y
let ashr b x y = iarith b Ashr x y
let min_s b x y = iarith b Min_s x y
let max_s b x y = iarith b Max_s x y
let min_u b x y = iarith b Min_u x y

let fadd b x y = farith b Fadd x y
let fsub b x y = farith b Fsub x y
let fmul b x y = farith b Fmul x y
let fdiv b x y = farith b Fdiv x y
let fmin b x y = farith b Fmin x y
let fmax b x y = farith b Fmax x y

let fneg b x = funary b Fneg x
let fabs b x = funary b Fabs x
let fsqrt b x = funary b Fsqrt x
let frsqrt b x = funary b Frsqrt x
let frcp b x = funary b Frcp x
let fexp b x = funary b Fexp x
let flog b x = funary b Flog x
let fsin b x = funary b Fsin x
let fcos b x = funary b Fcos x
let ffloor b x = funary b Ffloor x

let eq b x y = icmp b Ieq x y
let ne b x y = icmp b Ine x y
let lt_s b x y = icmp b Ilt_s x y
let le_s b x y = icmp b Ile_s x y
let gt_s b x y = icmp b Igt_s x y
let ge_s b x y = icmp b Ige_s x y
let lt_u b x y = icmp b Ilt_u x y

let feq b x y = fcmp b Feq x y
let flt b x y = fcmp b Flt x y
let fle b x y = fcmp b Fle x y
let fgt b x y = fcmp b Fgt x y

let s32_to_f32 b x = cvt b S32_to_f32 x
let u32_to_f32 b x = cvt b U32_to_f32 x
let f32_to_s32 b x = cvt b F32_to_s32 x
let f32_to_u32 b x = cvt b F32_to_u32 x

(* ------------------------------------------------------------------ *)
(* Work-item geometry                                                  *)
(* ------------------------------------------------------------------ *)

let special b s = unary_emit b (fun d -> Special (s, d))
let global_id b dim = special b (Global_id dim)
let local_id b dim = special b (Local_id dim)
let group_id b dim = special b (Group_id dim)
let global_size b dim = special b (Global_size dim)
let local_size b dim = special b (Local_size dim)
let num_groups b dim = special b (Num_groups dim)

(** Flattened local id for up-to-2D work-groups:
    [lid1 * lsize0 + lid0]. *)
let flat_local_id2 b =
  let l0 = local_id b 0 and l1 = local_id b 1 in
  let s0 = local_size b 0 in
  mad b l1 s0 l0

(* ------------------------------------------------------------------ *)
(* Memory                                                              *)
(* ------------------------------------------------------------------ *)

let load b space addr = unary_emit b (fun d -> Load (space, d, addr))
let store b space addr v = emit b (I (Store (space, addr, v)))
let gload b addr = load b Global addr
let gstore b addr v = store b Global addr v
let lload b addr = load b Local addr
let lstore b addr v = store b Local addr v

(** Byte address of 32-bit element [i] of a buffer at [base]. *)
let elem b base i = mad b i (imm 4) base

(** Load 32-bit element [i] of a global buffer at [base]. *)
let gload_elem b base i = gload b (elem b base i)

(** Store 32-bit element [i] of a global buffer at [base]. *)
let gstore_elem b base i v = gstore b (elem b base i) v

let atomic b op space addr v =
  unary_emit b (fun d -> Atomic (op, space, d, addr, v))

let atomic_add b space addr v = atomic b A_add space addr v
let cas b space addr expected desired =
  unary_emit b (fun d -> Cas (space, d, addr, expected, desired))

let barrier b = emit b (I Barrier)
let fence b space = emit b (I (Fence space))
let swizzle b kind x = unary_emit b (fun d -> Swizzle (kind, d, x))
let trap b v = emit b (I (Trap v))

(* ------------------------------------------------------------------ *)
(* Control flow                                                        *)
(* ------------------------------------------------------------------ *)

(** [if_ b cond then_ else_] emits a two-armed conditional. *)
let if_ b cond then_fn else_fn =
  push_block b;
  then_fn ();
  let t = pop_block b in
  push_block b;
  else_fn ();
  let e = pop_block b in
  emit b (If (cond, t, e))

(** One-armed conditional. *)
let when_ b cond then_fn = if_ b cond then_fn (fun () -> ())

(** [while_ b header body] emits a loop. [header] runs each iteration and
    returns the continuation condition; [body] runs for lanes where the
    condition holds. *)
let while_ b header_fn body_fn =
  push_block b;
  let cond = header_fn () in
  let header = pop_block b in
  push_block b;
  body_fn ();
  let body = pop_block b in
  emit b (While (header, cond, body))

(** Counted loop [for i = lo; i < hi; i += step]. The loop variable is a
    mutable register rebound each iteration; [body_fn] receives its value. *)
let for_ b ~lo ~hi ~step body_fn =
  let i = fresh b in
  emit b (I (Mov (i, lo)));
  let header () = icmp b Ilt_s (Reg i) hi in
  let body () =
    body_fn (Reg i);
    emit b (I (Iarith (Add, i, Reg i, step)))
  in
  while_ b header body

(** Assignable cell: a register that can be overwritten with [set]. *)
let cell b init =
  let r = fresh b in
  emit b (I (Mov (r, init)));
  r

let set b r v = emit b (I (Mov (r, v)))
let get r = Reg r

(* ------------------------------------------------------------------ *)
(* Finishing                                                           *)
(* ------------------------------------------------------------------ *)

(** Close the builder and produce the kernel. Fails if control-flow blocks
    are still open. *)
let finish b : kernel =
  match b.stack with
  | [ buf ] ->
      {
        kname = b.name;
        params = b.params;
        lds_allocs = b.lds;
        body = List.rev !buf;
        nregs = b.next_reg;
      }
  | _ -> invalid_arg "Builder.finish: unclosed control-flow block"
