(** Pretty-printer for the IR, producing a readable OpenCL-flavoured
    assembly listing. Used by the [rmtgpu dump] CLI command and by tests
    that check transform output structurally. *)

open Types

let string_of_ibin = function
  | Add -> "add" | Sub -> "sub" | Mul -> "mul"
  | Div_s -> "div_s" | Div_u -> "div_u" | Rem_s -> "rem_s" | Rem_u -> "rem_u"
  | And -> "and" | Or -> "or" | Xor -> "xor"
  | Shl -> "shl" | Lshr -> "lshr" | Ashr -> "ashr"
  | Min_s -> "min_s" | Max_s -> "max_s" | Min_u -> "min_u" | Max_u -> "max_u"
  | Mulhi_u -> "mulhi_u"

let string_of_fbin = function
  | Fadd -> "fadd" | Fsub -> "fsub" | Fmul -> "fmul" | Fdiv -> "fdiv"
  | Fmin -> "fmin" | Fmax -> "fmax"

let string_of_funary = function
  | Fneg -> "fneg" | Fabs -> "fabs" | Fsqrt -> "fsqrt" | Frsqrt -> "frsqrt"
  | Frcp -> "frcp" | Fexp -> "fexp" | Flog -> "flog" | Fsin -> "fsin"
  | Fcos -> "fcos" | Ffloor -> "ffloor" | Fround -> "fround"

let string_of_icmp = function
  | Ieq -> "eq" | Ine -> "ne" | Ilt_s -> "lt_s" | Ile_s -> "le_s"
  | Igt_s -> "gt_s" | Ige_s -> "ge_s" | Ilt_u -> "lt_u" | Ige_u -> "ge_u"

let string_of_fcmp = function
  | Feq -> "feq" | Fne -> "fne" | Flt -> "flt" | Fle -> "fle"
  | Fgt -> "fgt" | Fge -> "fge"

let string_of_cvt = function
  | S32_to_f32 -> "s32_to_f32" | U32_to_f32 -> "u32_to_f32"
  | F32_to_s32 -> "f32_to_s32" | F32_to_u32 -> "f32_to_u32"
  | Bitcast -> "bitcast"

let string_of_special = function
  | Global_id d -> Printf.sprintf "global_id(%d)" d
  | Local_id d -> Printf.sprintf "local_id(%d)" d
  | Group_id d -> Printf.sprintf "group_id(%d)" d
  | Global_size d -> Printf.sprintf "global_size(%d)" d
  | Local_size d -> Printf.sprintf "local_size(%d)" d
  | Num_groups d -> Printf.sprintf "num_groups(%d)" d
  | Lds_base n -> Printf.sprintf "lds_base(%s)" n

let string_of_space = function Global -> "global" | Local -> "local"

let string_of_atomic_op = function
  | A_add -> "add" | A_sub -> "sub" | A_xchg -> "xchg"
  | A_max_u -> "max_u" | A_min_u -> "min_u" | A_poll -> "poll"

let string_of_swizzle = function
  | Dup_even -> "dup_even"
  | Dup_odd -> "dup_odd"
  | Xor_mask m -> Printf.sprintf "xor_mask(%d)" m
  | Bcast l -> Printf.sprintf "bcast(%d)" l

let reg_name r = Printf.sprintf "r%d" r

let string_of_value ?(reg = reg_name) = function
  | Reg r -> reg r
  | Imm n -> Int32.to_string n
  | Imm_f32 x -> Printf.sprintf "%.6gf" x

let string_of_inst ?(reg = reg_name) (i : inst) =
  let v = string_of_value ~reg in
  match i with
  | Iarith (op, d, a, b) ->
      Printf.sprintf "%s = %s %s, %s" (reg d) (string_of_ibin op) (v a) (v b)
  | Farith (op, d, a, b) ->
      Printf.sprintf "%s = %s %s, %s" (reg d) (string_of_fbin op) (v a) (v b)
  | Funary (op, d, a) ->
      Printf.sprintf "%s = %s %s" (reg d) (string_of_funary op) (v a)
  | Icmp (op, d, a, b) ->
      Printf.sprintf "%s = icmp.%s %s, %s" (reg d) (string_of_icmp op) (v a) (v b)
  | Fcmp (op, d, a, b) ->
      Printf.sprintf "%s = fcmp.%s %s, %s" (reg d) (string_of_fcmp op) (v a) (v b)
  | Select (d, c, a, b) ->
      Printf.sprintf "%s = select %s ? %s : %s" (reg d) (v c) (v a) (v b)
  | Mov (d, a) -> Printf.sprintf "%s = mov %s" (reg d) (v a)
  | Cvt (op, d, a) -> Printf.sprintf "%s = %s %s" (reg d) (string_of_cvt op) (v a)
  | Mad (d, a, b, c) ->
      Printf.sprintf "%s = mad %s, %s, %s" (reg d) (v a) (v b) (v c)
  | Fma (d, a, b, c) ->
      Printf.sprintf "%s = fma %s, %s, %s" (reg d) (v a) (v b) (v c)
  | Special (s, d) -> Printf.sprintf "%s = %s" (reg d) (string_of_special s)
  | Arg (d, i) -> Printf.sprintf "%s = arg(%d)" (reg d) i
  | Load (sp, d, a) ->
      Printf.sprintf "%s = load.%s [%s]" (reg d) (string_of_space sp) (v a)
  | Store (sp, a, x) ->
      Printf.sprintf "store.%s [%s], %s" (string_of_space sp) (v a) (v x)
  | Atomic (op, sp, d, a, x) ->
      Printf.sprintf "%s = atomic_%s.%s [%s], %s" (reg d) (string_of_atomic_op op)
        (string_of_space sp) (v a) (v x)
  | Cas (sp, d, a, e, n) ->
      Printf.sprintf "%s = cas.%s [%s], %s, %s" (reg d) (string_of_space sp) (v a)
        (v e) (v n)
  | Barrier -> "barrier"
  | Fence sp -> Printf.sprintf "fence.%s" (string_of_space sp)
  | Swizzle (k, d, a) ->
      Printf.sprintf "%s = swizzle.%s %s" (reg d) (string_of_swizzle k) (v a)
  | Trap x -> Printf.sprintf "trap %s" (v x)

let rec pp_stmt ~reg buf indent (s : stmt) =
  let pad = String.make indent ' ' in
  match s with
  | I i -> Buffer.add_string buf (pad ^ string_of_inst ~reg i ^ "\n")
  | If (c, t, e) ->
      Buffer.add_string buf
        (Printf.sprintf "%sif %s {\n" pad (string_of_value ~reg c));
      List.iter (pp_stmt ~reg buf (indent + 2)) t;
      if e <> [] then begin
        Buffer.add_string buf (pad ^ "} else {\n");
        List.iter (pp_stmt ~reg buf (indent + 2)) e
      end;
      Buffer.add_string buf (pad ^ "}\n")
  | While (h, c, b) ->
      Buffer.add_string buf (pad ^ "loop {\n");
      List.iter (pp_stmt ~reg buf (indent + 2)) h;
      Buffer.add_string buf
        (Printf.sprintf "%s  break unless %s\n" pad (string_of_value ~reg c));
      List.iter (pp_stmt ~reg buf (indent + 2)) b;
      Buffer.add_string buf (pad ^ "}\n")

(** The statements of a kernel body, one per line, indented as in a
    kernel listing. *)
let body_to_string ?(reg = reg_name) body =
  let buf = Buffer.create 1024 in
  List.iter (pp_stmt ~reg buf 2) body;
  Buffer.contents buf

let string_of_param = function
  | Param_buffer n -> "global buffer " ^ n
  | Param_scalar n -> "scalar " ^ n

(** Render a kernel as a multi-line listing. *)
let kernel_to_string (k : kernel) =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "kernel %s\n" k.kname);
  List.iteri
    (fun i p ->
      Buffer.add_string buf (Printf.sprintf "  param %d: %s\n" i (string_of_param p)))
    k.params;
  List.iter
    (fun (n, sz) ->
      Buffer.add_string buf (Printf.sprintf "  lds %s: %d bytes\n" n sz))
    k.lds_allocs;
  Buffer.add_string buf "{\n";
  Buffer.add_string buf (body_to_string k.body);
  Buffer.add_string buf "}\n";
  Buffer.contents buf
