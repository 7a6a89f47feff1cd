(** Wavefront state and interpreter.

    A wavefront executes the structured IR with an explicit continuation
    stack and a 64-bit execution mask, exactly as SIMT hardware does with
    its reconvergence stack:

    - [If] splits the mask into taken/not-taken parts and pushes a restore
      continuation for the reconvergence point;
    - [While] keeps a [K_loop] test continuation on the stack; lanes leave
      the loop individually as their condition goes false, and the saved
      mask is restored when no lane remains;
    - [Barrier] parks the wavefront until its work-group releases it.

    Control bookkeeping is performed during {!peek} (it models the
    near-free SALU branch handling of GCN); only real instructions are
    returned to the compute unit for timed issue, as a site id into the
    launch's {!decoded} table. That table is built once per launch by
    {!decode}: each site's register uses, def, issue unit and resolved
    LDS offset, so the per-cycle scoreboard check and unit selection never
    re-examine the instruction. Functional execution happens at issue
    time in {!exec}, one plain loop over the register array per
    instruction (no per-lane closure, no boxed floats); memory operations
    leave their active-lane count and ascending unique cache lines in the
    wave's own buffers. *)

open Gpu_ir.Types
module Site = Gpu_ir.Site

type cont =
  | K_stmts of Site.astmt list
  | K_restore of int64
  | K_set_mask of int64 * Site.astmt list
  | K_loop of Site.astmt list * value * Site.astmt list * int64
      (** header, condition, body, saved mask; reached = "test now" *)

type state = Running | At_barrier | Retired

type t = {
  wid : int;  (** wave index within its group *)
  nlanes : int;
  flat_base : int;  (** flat local id of lane 0 *)
  regs : int array;  (** nregs x 64, lane-major within register *)
  ready_at : int array;  (** per-register scoreboard *)
  lines : int array;
      (** unique cache lines of the last global memory op, ascending *)
  mutable nlines : int;  (** valid prefix of [lines] *)
  mutable mem_lanes : int;  (** active lanes of the last memory op *)
  lanebuf : int array;  (** swizzle source snapshot *)
  mutable mask : int64;
  full_mask : int64;
  mutable stack : cont list;
  mutable pending : Site.id;  (** site at the head of the wave, or -1 *)
  mutable state : state;
  mutable simd : int;
  mutable last_issue : int;  (** cycle of last issue, for fairness *)
  mutable retire_accounted : bool;
      (** set once the scheduler has released this wave's resources, so
          release is idempotent *)
  mutable barrier_site : int;
      (** site id of the last barrier this wave arrived at (-1 before the
          first); lets the profiler attribute barrier-wait observations *)
}

let[@inline] lane_bit lane = Int64.shift_left 1L lane
let[@inline] lane_active mask lane = Int64.logand mask (lane_bit lane) <> 0L

(* SWAR bit count *)
let popcount64 (m : int64) =
  let open Int64 in
  let m = sub m (logand (shift_right_logical m 1) 0x5555555555555555L) in
  let m =
    add (logand m 0x3333333333333333L)
      (logand (shift_right_logical m 2) 0x3333333333333333L)
  in
  let m = logand (add m (shift_right_logical m 4)) 0x0F0F0F0F0F0F0F0FL in
  to_int (shift_right_logical (mul m 0x0101010101010101L) 56)

let full_mask_of nlanes =
  if nlanes >= 64 then -1L else Int64.sub (Int64.shift_left 1L nlanes) 1L

let make ~regs ~ready_at ~lines ~lanebuf ~wid ~nlanes ~flat_base ~body ~simd =
  let full_mask = full_mask_of nlanes in
  {
    wid;
    nlanes;
    flat_base;
    regs;
    ready_at;
    lines;
    nlines = 0;
    mem_lanes = 0;
    lanebuf;
    mask = full_mask;
    full_mask;
    stack = [ K_stmts body ];
    pending = -1;
    state = Running;
    simd;
    last_issue = 0;
    retire_accounted = false;
    barrier_site = -1;
  }

let create ~wid ~nregs ~nlanes ~flat_base ~body ~simd =
  make
    ~regs:(Array.make (max nregs 1 * 64) 0)
    ~ready_at:(Array.make (max nregs 1) 0)
    ~lines:(Array.make 64 0) ~lanebuf:(Array.make 64 0) ~wid ~nlanes
    ~flat_base ~body ~simd

let recycle old ~wid ~nlanes ~flat_base ~body ~simd =
  Array.fill old.regs 0 (Array.length old.regs) 0;
  Array.fill old.ready_at 0 (Array.length old.ready_at) 0;
  make ~regs:old.regs ~ready_at:old.ready_at ~lines:old.lines
    ~lanebuf:old.lanebuf ~wid ~nlanes ~flat_base ~body ~simd

let copy t =
  {
    t with
    regs = Array.copy t.regs;
    ready_at = Array.copy t.ready_at;
    lines = Array.copy t.lines;
    lanebuf = Array.copy t.lanebuf;
  }

(* ------------------------------------------------------------------ *)
(* Register access                                                     *)
(* ------------------------------------------------------------------ *)

let get_reg t r lane = t.regs.((r * 64) + lane)
let set_reg t r lane v = t.regs.((r * 64) + lane) <- v

(* Local copies of the F32 helpers: the whole-wave loops below must not
   call across modules per lane (no boxed float crosses a call). *)
let[@inline] norm (v : int) : int =
  let v = v land 0xFFFFFFFF in
  if v land 0x80000000 <> 0 then v - 0x1_0000_0000 else v

let[@inline] to_u (v : int) : int = v land 0xFFFFFFFF
let[@inline] to_float (v : int) : float = Int32.float_of_bits (Int32.of_int v)
let[@inline] of_float (x : float) : int = norm (Int32.to_int (Int32.bits_of_float x))

(* An operand is a register base index into [regs] (>= 0) or, when that
   is -1, the immediate [imm_of v]. *)
let base_of = function Reg r -> r * 64 | Imm _ | Imm_f32 _ -> -1

let imm_of = function
  | Reg _ -> 0
  | Imm n -> Int32.to_int n
  | Imm_f32 x -> of_float x

let[@inline] opnd regs b k l = if b >= 0 then regs.(b + l) else k

let value_ready t ~now = function
  | Reg r -> t.ready_at.(r) <= now
  | Imm _ | Imm_f32 _ -> true

(* ------------------------------------------------------------------ *)
(* Decoded site table                                                  *)
(* ------------------------------------------------------------------ *)

type unit_kind = U_valu | U_salu | U_vmem | U_lds

type decoded = {
  site : Site.id;
  inst : inst;
  uses : int array;  (** registers read, in operand order *)
  def : int;  (** destination register, or -1 *)
  unit_ : unit_kind;
  lds_off : int;
      (** byte offset of an [Lds_base] special's allocation; -1 when the
          instruction is something else or the name is unknown *)
}

let decode ~scalar ~lds_offset (insts : inst array) : decoded array =
  Array.mapi
    (fun site i ->
      let unit_ =
        match i with
        | Load (Global, _, _) | Store (Global, _, _)
        | Atomic (_, Global, _, _, _) | Cas (Global, _, _, _, _) ->
            U_vmem
        | Load (Local, _, _) | Store (Local, _, _)
        | Atomic (_, Local, _, _, _) | Cas (Local, _, _, _, _) ->
            U_lds
        | Trap _ | Swizzle _ -> U_valu
        | _ -> if scalar i then U_salu else U_valu
      in
      {
        site;
        inst = i;
        uses =
          Array.of_list
            (List.filter_map
               (function Reg r -> Some r | Imm _ | Imm_f32 _ -> None)
               (inst_uses i));
        def = Option.value (inst_def i) ~default:(-1);
        unit_;
        lds_off =
          (match i with
          | Special (Lds_base name, _) ->
              Option.value (lds_offset name) ~default:(-1)
          | _ -> -1);
      })
    insts

(* First cycle at which all of [d]'s register operands are available
   (the scoreboard); 0 when it reads none. *)
let rec latest ready_at uses k (acc : int) =
  if k = Array.length uses then acc
  else
    let r = ready_at.(uses.(k)) in
    latest ready_at uses (k + 1) (if r > acc then r else acc)

let ready_cycle t (d : decoded) = latest t.ready_at d.uses 0 0

(* ------------------------------------------------------------------ *)
(* Control-flow advancement                                            *)
(* ------------------------------------------------------------------ *)

type peek_result =
  | P_inst  (** [pending] holds the next instruction's site *)
  | P_stall         (** waiting on a register for control flow *)
  | P_barrier_arrived  (** wave just reached a barrier *)
  | P_waiting       (** parked at a barrier *)
  | P_done

(* Mask of active lanes whose value of [c] is nonzero. *)
let cond_mask t c =
  let b = base_of c and k = imm_of c in
  let m = ref 0L in
  for lane = 0 to t.nlanes - 1 do
    if lane_active t.mask lane && opnd t.regs b k lane <> 0 then
      m := Int64.logor !m (lane_bit lane)
  done;
  !m

(* [fuel] bounds the control transitions of one {!peek}. *)
let rec advance t ~now ~on_branch ~on_cond fuel =
  if fuel <= 0 then P_stall
  else
    match t.state with
    | Retired -> P_done
    | At_barrier -> P_waiting
    | Running -> (
        if t.pending >= 0 then P_inst
        else
          match t.stack with
          | [] ->
              t.state <- Retired;
              P_done
          | K_stmts [] :: rest ->
              t.stack <- rest;
              advance t ~now ~on_branch ~on_cond (fuel - 1)
          | K_restore m :: rest ->
              t.mask <- m;
              t.stack <- rest;
              advance t ~now ~on_branch ~on_cond (fuel - 1)
          | K_set_mask (m, ss) :: rest ->
              t.mask <- m;
              t.stack <- K_stmts ss :: rest;
              advance t ~now ~on_branch ~on_cond (fuel - 1)
          | K_loop (h, c, b, saved) :: rest ->
              if not (value_ready t ~now c) then P_stall
              else begin
                on_branch ();
                on_cond t true c;
                let live = cond_mask t c in
                if live = 0L then begin
                  t.mask <- saved;
                  t.stack <- rest
                end
                else begin
                  t.mask <- live;
                  t.stack <-
                    K_stmts b :: K_stmts h :: K_loop (h, c, b, saved) :: rest
                end;
                advance t ~now ~on_branch ~on_cond (fuel - 1)
              end
          | K_stmts (s :: ss) :: rest -> (
              match s with
              | Site.A_inst (sid, Barrier) ->
                  t.stack <- K_stmts ss :: rest;
                  t.state <- At_barrier;
                  t.barrier_site <- sid;
                  P_barrier_arrived
              | Site.A_inst (_, Fence _) ->
                  (* ordering is implicit in the issue-time memory model *)
                  t.stack <- K_stmts ss :: rest;
                  advance t ~now ~on_branch ~on_cond (fuel - 1)
              | Site.A_inst (sid, _) ->
                  t.stack <- K_stmts ss :: rest;
                  t.pending <- sid;
                  P_inst
              | Site.A_if (c, th, el) ->
                  if not (value_ready t ~now c) then P_stall
                  else begin
                    on_branch ();
                    on_cond t false c;
                    let saved = t.mask in
                    let tmask = cond_mask t c in
                    let emask = Int64.logand saved (Int64.lognot tmask) in
                    t.stack <- K_stmts ss :: rest;
                    (if tmask <> 0L && emask <> 0L then begin
                       t.mask <- tmask;
                       t.stack <-
                         K_stmts th
                         :: K_set_mask (emask, el)
                         :: K_restore saved :: t.stack
                     end
                     else if tmask <> 0L then begin
                       t.mask <- tmask;
                       t.stack <- K_stmts th :: K_restore saved :: t.stack
                     end
                     else if emask <> 0L then begin
                       t.mask <- emask;
                       t.stack <- K_stmts el :: K_restore saved :: t.stack
                     end);
                    advance t ~now ~on_branch ~on_cond (fuel - 1)
                  end
              | Site.A_while (h, c, b) ->
                  on_branch ();
                  t.stack <-
                    K_stmts h :: K_loop (h, c, b, t.mask) :: K_stmts ss :: rest;
                  advance t ~now ~on_branch ~on_cond (fuel - 1)))

(** Advance through control flow until an instruction, a stall, a barrier
    or the end of the kernel is reached. [on_branch] is called for every
    control-flow decision (used for counter accounting), and [on_cond]
    just before an [If] or loop test reads its condition. At most 256
    control transitions are handled in one call, so a degenerate
    control-only loop (e.g. an empty-body spin) yields to the scheduler
    and eventually trips the watchdog instead of livelocking the
    simulator. *)
let peek t ~now ~on_branch ~on_cond = advance t ~now ~on_branch ~on_cond 256

(** Consume the pending instruction after issue. *)
let consume t = t.pending <- -1

(** Release from a barrier. *)
let release_barrier t = if t.state = At_barrier then t.state <- Running

(* ------------------------------------------------------------------ *)
(* Functional execution                                                *)
(* ------------------------------------------------------------------ *)

type mem_kind = MLoad | MStore | MAtomic

(** Memory/argument interface a wave executes against; provided by the
    device per wave. *)
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
          {e before} the access is performed (so out-of-bounds addresses
          are recorded even when the access faults); [v] is the value
          being stored for [MStore], 1 for a writing atomic vs 0 for the
          read-only [A_poll], and 0 for loads; [None] when the sanitizer
          is off *)
}

type effect_ =
  | E_pure
  | E_trans  (** transcendental VALU op (quarter-rate) *)
  | E_mem of mem_kind
      (** the active-lane count is in [mem_lanes]; a [Global] access's
          unique lines are [lines.(0 .. nlines - 1)], ascending *)
  | E_trapped  (** a trap fired on some active lane *)

let[@inline] ibin_eval op a b =
  let ua = to_u a and ub = to_u b in
  match op with
  | Add -> norm (a + b)
  | Sub -> norm (a - b)
  | Mul -> norm (a * b)
  | Div_s -> if b = 0 then 0 else norm (a / b)
  | Div_u -> if ub = 0 then 0 else norm (ua / ub)
  | Rem_s -> if b = 0 then 0 else norm (a mod b)
  | Rem_u -> if ub = 0 then 0 else norm (ua mod ub)
  | And -> norm (a land b)
  | Or -> norm (a lor b)
  | Xor -> norm (a lxor b)
  | Shl -> norm (a lsl (ub land 31))
  | Lshr -> norm (ua lsr (ub land 31))
  | Ashr -> norm (a asr (ub land 31))
  | Min_s -> if a <= b then a else b
  | Max_s -> if a >= b then a else b
  | Min_u -> if ua < ub then a else b
  | Max_u -> if ua > ub then a else b
  | Mulhi_u -> norm ((ua * ub) lsr 32)

let[@inline] fbin_eval op a b =
  let fa = to_float a and fb = to_float b in
  match op with
  | Fadd -> of_float (fa +. fb)
  | Fsub -> of_float (fa -. fb)
  | Fmul -> of_float (fa *. fb)
  | Fdiv -> of_float (fa /. fb)
  | Fmin -> of_float (if fa < fb || Float.is_nan fb then fa else fb)
  | Fmax -> of_float (if fa > fb || Float.is_nan fb then fa else fb)

let[@inline] funary_eval op a =
  let x = to_float a in
  match op with
  | Fneg -> of_float (-.x)
  | Fabs -> of_float (Float.abs x)
  | Fsqrt -> of_float (sqrt x)
  | Frsqrt -> of_float (1.0 /. sqrt x)
  | Frcp -> of_float (1.0 /. x)
  | Fexp -> of_float (exp x)
  | Flog -> of_float (log x)
  | Fsin -> of_float (sin x)
  | Fcos -> of_float (cos x)
  | Ffloor -> of_float (Float.floor x)
  | Fround -> of_float (Float.round x)

let funary_is_trans = function
  | Fsqrt | Frsqrt | Frcp | Fexp | Flog | Fsin | Fcos -> true
  | Fneg | Fabs | Ffloor | Fround -> false

let[@inline] icmp_eval op a b =
  let ua = to_u a and ub = to_u b in
  let r =
    match op with
    | Ieq -> a = b
    | Ine -> a <> b
    | Ilt_s -> a < b
    | Ile_s -> a <= b
    | Igt_s -> a > b
    | Ige_s -> a >= b
    | Ilt_u -> ua < ub
    | Ige_u -> ua >= ub
  in
  if r then 1 else 0

let[@inline] fcmp_eval op a b =
  let fa = to_float a and fb = to_float b in
  let r =
    match op with
    | Feq -> fa = fb
    | Fne -> fa <> fb
    | Flt -> fa < fb
    | Fle -> fa <= fb
    | Fgt -> fa > fb
    | Fge -> fa >= fb
  in
  if r then 1 else 0

let[@inline] cvt_eval op a =
  match op with
  | S32_to_f32 -> of_float (float_of_int a)
  | U32_to_f32 -> of_float (float_of_int (to_u a))
  | F32_to_s32 -> norm (int_of_float (to_float a))
  | F32_to_u32 ->
      let x = to_float a in
      if Float.is_nan x || x <= -1.0 then 0 else norm (int_of_float x)
  | Bitcast -> a

let special_eval (view : Geom.group_view) ~flat ~lds_base s =
  match s with
  | Global_id d -> Geom.global_id_of_flat view ~flat d
  | Local_id d -> Geom.local_id_of_flat view ~flat d
  | Group_id d -> view.gcoord.(d)
  | Global_size d -> view.nd.global.(d)
  | Local_size d -> view.nd.local.(d)
  | Num_groups d -> Geom.num_groups view.nd d
  | Lds_base name -> lds_base name

(* Insert [line] into the ascending, duplicate-free prefix of [t.lines].
   Coalesced lanes arrive in ascending order, so the common case appends
   or finds the line at the end. *)
let add_line t line =
  let lines = t.lines and k = t.nlines in
  let i = ref k in
  while !i > 0 && lines.(!i - 1) > line do
    decr i
  done;
  if not (!i > 0 && lines.(!i - 1) = line) then begin
    Array.blit lines !i lines (!i + 1) (k - !i);
    lines.(!i) <- line;
    t.nlines <- k + 1
  end

let swizzle_src_lane kind lane =
  match kind with
  | Dup_even -> lane land lnot 1
  | Dup_odd -> lane lor 1
  | Xor_mask m -> lane lxor m
  | Bcast l -> l

(** Execute [d] functionally for all active lanes of [t]. Returns the
    effect classification used for timing. Raises {!Memsys.Fault} on wild
    memory accesses. Memory callbacks and the sanitizer hook are called
    lane by lane in ascending lane order. *)
let exec t (d : decoded) ~(mem : mem_ops) ~line_bytes : effect_ =
  let regs = t.regs and n = t.nlanes and mask = t.mask in
  match d.inst with
  | Iarith (op, dst, a, b) ->
      let o = dst * 64 and ba = base_of a and ka = imm_of a in
      let bb = base_of b and kb = imm_of b in
      for l = 0 to n - 1 do
        if lane_active mask l then
          regs.(o + l) <- ibin_eval op (opnd regs ba ka l) (opnd regs bb kb l)
      done;
      E_pure
  | Farith (op, dst, a, b) ->
      let o = dst * 64 and ba = base_of a and ka = imm_of a in
      let bb = base_of b and kb = imm_of b in
      for l = 0 to n - 1 do
        if lane_active mask l then
          regs.(o + l) <- fbin_eval op (opnd regs ba ka l) (opnd regs bb kb l)
      done;
      E_pure
  | Funary (op, dst, a) ->
      let o = dst * 64 and ba = base_of a and ka = imm_of a in
      for l = 0 to n - 1 do
        if lane_active mask l then
          regs.(o + l) <- funary_eval op (opnd regs ba ka l)
      done;
      if funary_is_trans op then E_trans else E_pure
  | Icmp (op, dst, a, b) ->
      let o = dst * 64 and ba = base_of a and ka = imm_of a in
      let bb = base_of b and kb = imm_of b in
      for l = 0 to n - 1 do
        if lane_active mask l then
          regs.(o + l) <- icmp_eval op (opnd regs ba ka l) (opnd regs bb kb l)
      done;
      E_pure
  | Fcmp (op, dst, a, b) ->
      let o = dst * 64 and ba = base_of a and ka = imm_of a in
      let bb = base_of b and kb = imm_of b in
      for l = 0 to n - 1 do
        if lane_active mask l then
          regs.(o + l) <- fcmp_eval op (opnd regs ba ka l) (opnd regs bb kb l)
      done;
      E_pure
  | Select (dst, c, x, y) ->
      let o = dst * 64 and bc = base_of c and kc = imm_of c in
      let bx = base_of x and kx = imm_of x and by = base_of y and ky = imm_of y in
      for l = 0 to n - 1 do
        if lane_active mask l then
          regs.(o + l) <-
            (if opnd regs bc kc l <> 0 then opnd regs bx kx l
             else opnd regs by ky l)
      done;
      E_pure
  | Mov (dst, a) ->
      let o = dst * 64 and ba = base_of a and ka = imm_of a in
      for l = 0 to n - 1 do
        if lane_active mask l then regs.(o + l) <- opnd regs ba ka l
      done;
      E_pure
  | Cvt (op, dst, a) ->
      let o = dst * 64 and ba = base_of a and ka = imm_of a in
      for l = 0 to n - 1 do
        if lane_active mask l then regs.(o + l) <- cvt_eval op (opnd regs ba ka l)
      done;
      E_pure
  | Mad (dst, a, b, c) ->
      let o = dst * 64 and ba = base_of a and ka = imm_of a in
      let bb = base_of b and kb = imm_of b and bc = base_of c and kc = imm_of c in
      for l = 0 to n - 1 do
        if lane_active mask l then
          regs.(o + l) <-
            norm ((opnd regs ba ka l * opnd regs bb kb l) + opnd regs bc kc l)
      done;
      E_pure
  | Fma (dst, a, b, c) ->
      let o = dst * 64 and ba = base_of a and ka = imm_of a in
      let bb = base_of b and kb = imm_of b and bc = base_of c and kc = imm_of c in
      for l = 0 to n - 1 do
        if lane_active mask l then
          regs.(o + l) <-
            of_float
              (Float.fma
                 (to_float (opnd regs ba ka l))
                 (to_float (opnd regs bb kb l))
                 (to_float (opnd regs bc kc l)))
      done;
      E_pure
  | Special (s, dst) ->
      let o = dst * 64 in
      if d.lds_off >= 0 then begin
        for l = 0 to n - 1 do
          if lane_active mask l then regs.(o + l) <- d.lds_off
        done
      end
      else
        for l = 0 to n - 1 do
          if lane_active mask l then
            regs.(o + l) <-
              special_eval mem.view ~flat:(t.flat_base + l)
                ~lds_base:mem.lds_base s
        done;
      E_pure
  | Arg (dst, idx) ->
      let o = dst * 64 and v = mem.arg idx in
      for l = 0 to n - 1 do
        if lane_active mask l then regs.(o + l) <- v
      done;
      E_pure
  | Load (sp, dst, addr) ->
      let o = dst * 64 and ba = base_of addr and ka = imm_of addr in
      let global = match sp with Global -> true | Local -> false in
      let lanes = ref 0 in
      t.nlines <- 0;
      for l = 0 to n - 1 do
        if lane_active mask l then begin
          let a = opnd regs ba ka l in
          incr lanes;
          (match mem.msan with Some f -> f MLoad sp a l 0 | None -> ());
          regs.(o + l) <- mem.mload sp a;
          if global then add_line t (a - (a mod line_bytes))
        end
      done;
      t.mem_lanes <- !lanes;
      E_mem MLoad
  | Store (sp, addr, v) ->
      let ba = base_of addr and ka = imm_of addr in
      let bv = base_of v and kv = imm_of v in
      let global = match sp with Global -> true | Local -> false in
      let lanes = ref 0 in
      t.nlines <- 0;
      for l = 0 to n - 1 do
        if lane_active mask l then begin
          let a = opnd regs ba ka l in
          incr lanes;
          let sv = opnd regs bv kv l in
          (match mem.msan with Some f -> f MStore sp a l sv | None -> ());
          mem.mstore sp a sv;
          if global then add_line t (a - (a mod line_bytes))
        end
      done;
      t.mem_lanes <- !lanes;
      E_mem MStore
  | Atomic (op, sp, dst, addr, v) ->
      let o = dst * 64 and ba = base_of addr and ka = imm_of addr in
      let bv = base_of v and kv = imm_of v in
      let global = match sp with Global -> true | Local -> false in
      let writes = match op with A_poll -> 0 | _ -> 1 in
      let lanes = ref 0 in
      t.nlines <- 0;
      for l = 0 to n - 1 do
        if lane_active mask l then begin
          let a = opnd regs ba ka l in
          incr lanes;
          (match mem.msan with Some f -> f MAtomic sp a l writes | None -> ());
          regs.(o + l) <- mem.matomic op sp a (opnd regs bv kv l);
          if global then add_line t (a - (a mod line_bytes))
        end
      done;
      t.mem_lanes <- !lanes;
      E_mem MAtomic
  | Cas (sp, dst, addr, e, nv) ->
      let o = dst * 64 and ba = base_of addr and ka = imm_of addr in
      let be = base_of e and ke = imm_of e and bn = base_of nv and kn = imm_of nv in
      let global = match sp with Global -> true | Local -> false in
      let lanes = ref 0 in
      t.nlines <- 0;
      for l = 0 to n - 1 do
        if lane_active mask l then begin
          let a = opnd regs ba ka l in
          incr lanes;
          (match mem.msan with Some f -> f MAtomic sp a l 1 | None -> ());
          regs.(o + l) <- mem.mcas sp a (opnd regs be ke l) (opnd regs bn kn l);
          if global then add_line t (a - (a mod line_bytes))
        end
      done;
      t.mem_lanes <- !lanes;
      E_mem MAtomic
  | Swizzle (kind, dst, a) ->
      (* snapshot sources first: swizzle reads inactive lanes too, and the
         destination may alias the source *)
      let o = dst * 64 and ba = base_of a and ka = imm_of a in
      let snap = t.lanebuf in
      for l = 0 to n - 1 do
        snap.(l) <- opnd regs ba ka l
      done;
      for l = 0 to n - 1 do
        if lane_active mask l then begin
          let s = swizzle_src_lane kind l in
          regs.(o + l) <- snap.(if s < n then s else l)
        end
      done;
      E_pure
  | Trap v ->
      let bv = base_of v and kv = imm_of v in
      let fired = ref false in
      for l = 0 to n - 1 do
        if lane_active mask l && opnd regs bv kv l <> 0 then fired := true
      done;
      if !fired then E_trapped else E_pure
  | Barrier | Fence _ ->
      (* handled during peek; never issued *)
      E_pure

(** Active lane count (for power/event accounting). *)
let active_lanes t = popcount64 t.mask
