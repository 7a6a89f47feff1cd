(* The whole-wave executor against a per-lane reference evaluator.

   [reference] below is the straightforward interpreter: one closure call
   per active lane, operands matched per lane, memory addresses collected
   into a list and their cache lines deduplicated with [List.sort_uniq].
   A property runs both on random instructions of every constructor over
   random register files, lane counts and execution masks (empty,
   partial, full; destinations that alias sources; immediates), through
   recording memory interfaces, and requires the same registers, effect,
   lane count, cache lines and the same ordered log of memory and
   sanitizer-hook calls. *)

open Gpu_ir.Types
module F32 = Gpu_ir.F32
module Sim = Gpu_sim
module Wave = Gpu_sim.Wave

let nregs = 6
let line_bytes = 64

(* ------------------------------------------------------------------ *)
(* Reference evaluator                                                 *)
(* ------------------------------------------------------------------ *)

let ibin op a b =
  let open F32 in
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
  | Min_s -> min a b
  | Max_s -> max a b
  | Min_u -> if ua < ub then a else b
  | Max_u -> if ua > ub then a else b
  | Mulhi_u -> norm ((ua * ub) lsr 32)

let fbin op a b =
  let fa = F32.to_float a and fb = F32.to_float b in
  F32.of_float
    (match op with
    | Fadd -> fa +. fb
    | Fsub -> fa -. fb
    | Fmul -> fa *. fb
    | Fdiv -> fa /. fb
    | Fmin -> if fa < fb || Float.is_nan fb then fa else fb
    | Fmax -> if fa > fb || Float.is_nan fb then fa else fb)

let funary op a =
  let x = F32.to_float a in
  F32.of_float
    (match op with
    | Fneg -> -.x
    | Fabs -> Float.abs x
    | Fsqrt -> sqrt x
    | Frsqrt -> 1.0 /. sqrt x
    | Frcp -> 1.0 /. x
    | Fexp -> exp x
    | Flog -> log x
    | Fsin -> sin x
    | Fcos -> cos x
    | Ffloor -> Float.floor x
    | Fround -> Float.round x)

let icmp op a b =
  let ua = F32.to_u a and ub = F32.to_u b in
  Bool.to_int
    (match op with
    | Ieq -> a = b
    | Ine -> a <> b
    | Ilt_s -> a < b
    | Ile_s -> a <= b
    | Igt_s -> a > b
    | Ige_s -> a >= b
    | Ilt_u -> ua < ub
    | Ige_u -> ua >= ub)

let fcmp op a b =
  let fa = F32.to_float a and fb = F32.to_float b in
  Bool.to_int
    (match op with
    | Feq -> fa = fb
    | Fne -> fa <> fb
    | Flt -> fa < fb
    | Fle -> fa <= fb
    | Fgt -> fa > fb
    | Fge -> fa >= fb)

let cvt op a =
  match op with
  | S32_to_f32 -> F32.of_float (float_of_int a)
  | U32_to_f32 -> F32.of_float (float_of_int (F32.to_u a))
  | F32_to_s32 -> F32.norm (int_of_float (F32.to_float a))
  | F32_to_u32 ->
      let x = F32.to_float a in
      if Float.is_nan x || x <= -1.0 then 0 else F32.norm (int_of_float x)
  | Bitcast -> a

(* What an execution produced besides registers. *)
type outcome = {
  o_effect : string;
  o_lanes : int;  (** memory ops only *)
  o_lines : int list;  (** global memory ops only *)
}

let pure = { o_effect = "pure"; o_lanes = 0; o_lines = [] }

let reference ~nlanes ~flat_base ~mask regs (i : inst) (mem : Wave.mem_ops) =
  let read v l =
    match v with
    | Reg r -> regs.((r * 64) + l)
    | Imm n -> Int32.to_int n
    | Imm_f32 x -> F32.of_float x
  in
  let set d l v = regs.((d * 64) + l) <- v in
  let each f =
    for l = 0 to nlanes - 1 do
      if Wave.lane_active mask l then f l
    done
  in
  let memory kind sp addrs =
    {
      o_effect = kind;
      o_lanes = List.length addrs;
      o_lines =
        (if sp = Global then
           List.sort_uniq compare
             (List.map (fun a -> a - (a mod line_bytes)) addrs)
         else []);
    }
  in
  let hook kind sp a l v =
    match mem.msan with Some f -> f kind sp a l v | None -> ()
  in
  match i with
  | Iarith (op, d, a, b) -> each (fun l -> set d l (ibin op (read a l) (read b l))); pure
  | Farith (op, d, a, b) -> each (fun l -> set d l (fbin op (read a l) (read b l))); pure
  | Funary (op, d, a) ->
      each (fun l -> set d l (funary op (read a l)));
      (match op with
      | Fsqrt | Frsqrt | Frcp | Fexp | Flog | Fsin | Fcos ->
          { pure with o_effect = "trans" }
      | Fneg | Fabs | Ffloor | Fround -> pure)
  | Icmp (op, d, a, b) -> each (fun l -> set d l (icmp op (read a l) (read b l))); pure
  | Fcmp (op, d, a, b) -> each (fun l -> set d l (fcmp op (read a l) (read b l))); pure
  | Select (d, c, x, y) ->
      each (fun l -> set d l (if read c l <> 0 then read x l else read y l));
      pure
  | Mov (d, a) -> each (fun l -> set d l (read a l)); pure
  | Cvt (op, d, a) -> each (fun l -> set d l (cvt op (read a l))); pure
  | Mad (d, a, b, c) ->
      each (fun l -> set d l (F32.norm ((read a l * read b l) + read c l)));
      pure
  | Fma (d, a, b, c) ->
      each (fun l ->
          set d l
            (F32.of_float
               (Float.fma
                  (F32.to_float (read a l))
                  (F32.to_float (read b l))
                  (F32.to_float (read c l)))));
      pure
  | Special (s, d) ->
      let view = mem.view in
      each (fun l ->
          let flat = flat_base + l in
          set d l
            (match s with
            | Global_id k -> Sim.Geom.global_id_of_flat view ~flat k
            | Local_id k -> Sim.Geom.local_id_of_flat view ~flat k
            | Group_id k -> view.gcoord.(k)
            | Global_size k -> view.nd.global.(k)
            | Local_size k -> view.nd.local.(k)
            | Num_groups k -> Sim.Geom.num_groups view.nd k
            | Lds_base name -> mem.lds_base name));
      pure
  | Arg (d, idx) ->
      let v = mem.arg idx in
      each (fun l -> set d l v);
      pure
  | Load (sp, d, addr) ->
      let addrs = ref [] in
      each (fun l ->
          let a = read addr l in
          addrs := a :: !addrs;
          hook Wave.MLoad sp a l 0;
          set d l (mem.mload sp a));
      memory "load" sp !addrs
  | Store (sp, addr, v) ->
      let addrs = ref [] in
      each (fun l ->
          let a = read addr l in
          addrs := a :: !addrs;
          let sv = read v l in
          hook Wave.MStore sp a l sv;
          mem.mstore sp a sv);
      memory "store" sp !addrs
  | Atomic (op, sp, d, addr, v) ->
      let addrs = ref [] in
      each (fun l ->
          let a = read addr l in
          addrs := a :: !addrs;
          hook Wave.MAtomic sp a l (if op = A_poll then 0 else 1);
          set d l (mem.matomic op sp a (read v l)));
      memory "atomic" sp !addrs
  | Cas (sp, d, addr, e, n) ->
      let addrs = ref [] in
      each (fun l ->
          let a = read addr l in
          addrs := a :: !addrs;
          hook Wave.MAtomic sp a l 1;
          set d l (mem.mcas sp a (read e l) (read n l)));
      memory "atomic" sp !addrs
  | Swizzle (kind, d, a) ->
      let snapshot = Array.init nlanes (fun l -> read a l) in
      each (fun l ->
          let s =
            match kind with
            | Dup_even -> l land lnot 1
            | Dup_odd -> l lor 1
            | Xor_mask m -> l lxor m
            | Bcast b -> b
          in
          set d l snapshot.(if s < nlanes then s else l));
      pure
  | Trap v ->
      let fired = ref false in
      each (fun l -> if read v l <> 0 then fired := true);
      if !fired then { pure with o_effect = "trapped" } else pure
  | Barrier | Fence _ -> pure

(* ------------------------------------------------------------------ *)
(* Recording memory                                                    *)
(* ------------------------------------------------------------------ *)

let lds_table = [ ("a", 16); ("b", 256) ]

(* Every callback appends to [log]; loads and atomics answer a value
   derived from the address, so results depend on the call sequence. *)
let recording_mem log : Wave.mem_ops =
  let note fmt = Printf.ksprintf (fun s -> log := s :: !log) fmt in
  let sp_name = function Global -> "g" | Local -> "l" in
  let value sp a = F32.norm ((a * 2654435761) + if sp = Global then 7 else 3) in
  {
    mload =
      (fun sp a ->
        note "load %s %d" (sp_name sp) a;
        value sp a);
    mstore = (fun sp a v -> note "store %s %d %d" (sp_name sp) a v);
    matomic =
      (fun op sp a v ->
        note "atomic %s %s %d %d"
          (match op with
          | A_add -> "add"
          | A_sub -> "sub"
          | A_xchg -> "xchg"
          | A_max_u -> "max"
          | A_min_u -> "min"
          | A_poll -> "poll")
          (sp_name sp) a v;
        value sp (a + 1));
    mcas =
      (fun sp a e n ->
        note "cas %s %d %d %d" (sp_name sp) a e n;
        value sp (a + 2));
    arg =
      (fun idx ->
        note "arg %d" idx;
        (idx * 1000) + 1);
    lds_base =
      (fun name ->
        match List.assoc_opt name lds_table with
        | Some o -> o
        | None -> raise (Sim.Memsys.Fault ("unknown LDS allocation " ^ name)));
    view =
      {
        Sim.Geom.nd = Sim.Geom.make_ndrange ~gy:4 ~ly:2 256 64;
        gcoord = [| 1; 2; 0 |];
      };
    msan =
      Some
        (fun kind sp a lane v ->
          note "san %s %s %d %d %d"
            (match kind with
            | Wave.MLoad -> "r"
            | Wave.MStore -> "w"
            | Wave.MAtomic -> "a")
            (sp_name sp) a lane v);
  }

(* ------------------------------------------------------------------ *)
(* Random cases                                                        *)
(* ------------------------------------------------------------------ *)

type case = {
  nlanes : int;
  flat_base : int;
  mask : int64;
  regs : int array;
  inst : inst;
}

let gen_case : case QCheck.Gen.t =
  let open QCheck.Gen in
  let word =
    oneof
      [
        map F32.norm (int_bound 0x3FFFFFFF);
        map (fun x -> F32.norm (-x)) (int_bound 0x3FFFFFFF);
        int_range (-4) 70;
        map F32.of_float (float_range (-1e6) 1e6);
        oneofl
          (List.map F32.of_float
             [ Float.nan; Float.infinity; Float.neg_infinity; -0.0; 1e-40; 2.5 ]);
        (* signalling NaNs: float conversions quiet them *)
        oneofl [ F32.norm 0x7F800001; F32.norm 0xFFA00000 ];
      ]
  in
  let reg = int_bound (nregs - 1) in
  let value =
    frequency
      [
        (6, map (fun r -> Reg r) reg);
        (2, map (fun n -> Imm (Int32.of_int n)) word);
        (1, map (fun x -> Imm_f32 x) (float_range (-100.) 100.));
      ]
  in
  let space = oneofl [ Global; Local ] in
  let dim = int_bound 2 in
  let inst =
    oneof
      [
        map3 (fun (op, d) a b -> Iarith (op, d, a, b))
          (pair
             (oneofl
                [ Add; Sub; Mul; Div_s; Div_u; Rem_s; Rem_u; And; Or; Xor; Shl;
                  Lshr; Ashr; Min_s; Max_s; Min_u; Max_u; Mulhi_u ])
             reg)
          value value;
        map3 (fun (op, d) a b -> Farith (op, d, a, b))
          (pair (oneofl [ Fadd; Fsub; Fmul; Fdiv; Fmin; Fmax ]) reg)
          value value;
        map3 (fun op d a -> Funary (op, d, a))
          (oneofl
             [ Fneg; Fabs; Fsqrt; Frsqrt; Frcp; Fexp; Flog; Fsin; Fcos; Ffloor;
               Fround ])
          reg value;
        map3 (fun (op, d) a b -> Icmp (op, d, a, b))
          (pair (oneofl [ Ieq; Ine; Ilt_s; Ile_s; Igt_s; Ige_s; Ilt_u; Ige_u ]) reg)
          value value;
        map3 (fun (op, d) a b -> Fcmp (op, d, a, b))
          (pair (oneofl [ Feq; Fne; Flt; Fle; Fgt; Fge ]) reg)
          value value;
        map3 (fun (d, c) x y -> Select (d, c, x, y)) (pair reg value) value value;
        map2 (fun d a -> Mov (d, a)) reg value;
        map3 (fun op d a -> Cvt (op, d, a))
          (oneofl [ S32_to_f32; U32_to_f32; F32_to_s32; F32_to_u32; Bitcast ])
          reg value;
        map3 (fun (d, a) b c -> Mad (d, a, b, c)) (pair reg value) value value;
        map3 (fun (d, a) b c -> Fma (d, a, b, c)) (pair reg value) value value;
        map2 (fun s d -> Special (s, d))
          (oneof
             [
               map (fun k -> Global_id k) dim;
               map (fun k -> Local_id k) dim;
               map (fun k -> Group_id k) dim;
               map (fun k -> Global_size k) dim;
               map (fun k -> Local_size k) dim;
               map (fun k -> Num_groups k) dim;
               map (fun n -> Lds_base n) (oneofl [ "a"; "b"; "missing" ]);
             ])
          reg;
        map2 (fun d i -> Arg (d, i)) reg (int_bound 3);
        map3 (fun sp d a -> Load (sp, d, a)) space reg value;
        map3 (fun sp a v -> Store (sp, a, v)) space value value;
        map3
          (fun (op, sp) (d, a) v -> Atomic (op, sp, d, a, v))
          (pair (oneofl [ A_add; A_sub; A_xchg; A_max_u; A_min_u; A_poll ]) space)
          (pair reg value) value;
        map3 (fun (sp, d) (a, e) n -> Cas (sp, d, a, e, n)) (pair space reg)
          (pair value value) value;
        return Barrier;
        map (fun sp -> Fence sp) space;
        map3 (fun k d a -> Swizzle (k, d, a))
          (oneof
             [
               return Dup_even;
               return Dup_odd;
               map (fun m -> Xor_mask m) (int_bound 70);
               map (fun l -> Bcast l) (int_bound 70);
             ])
          reg value;
        map (fun v -> Trap v) value;
      ]
  in
  let nlanes = oneof [ oneofl [ 64; 32; 16 ]; map (fun k -> (2 * k) + 1) (int_bound 31) ] in
  nlanes >>= fun nlanes ->
  let full = if nlanes >= 64 then -1L else Int64.pred (Int64.shift_left 1L nlanes) in
  let mask =
    frequency
      [
        (1, return 0L);
        (2, return full);
        ( 5,
          map2
            (fun hi lo ->
              Int64.logand full
                (Int64.logor (Int64.shift_left (Int64.of_int hi) 32) (Int64.of_int lo)))
            (int_bound 0x3FFFFFFF) (int_bound 0x3FFFFFFF) );
      ]
  in
  map
    (fun (((mask, regs), inst), flat_base) ->
      { nlanes; flat_base; mask; regs = Array.of_list regs; inst })
    (pair (pair (pair mask (list_repeat (nregs * 64) word)) inst) (int_bound 3 >|= ( * ) 64))

let print_case c =
  Printf.sprintf "%s  nlanes=%d flat_base=%d mask=%Lx"
    (Gpu_ir.Pp.string_of_inst c.inst)
    c.nlanes c.flat_base c.mask

let run_case c =
  let decoded =
    (Wave.decode ~scalar:(fun _ -> false)
       ~lds_offset:(fun n -> List.assoc_opt n lds_table)
       [| c.inst |]).(0)
  in
  let w =
    Wave.create ~wid:0 ~nregs ~nlanes:c.nlanes ~flat_base:c.flat_base ~body:[]
      ~simd:0
  in
  Array.blit c.regs 0 w.Wave.regs 0 (Array.length c.regs);
  w.Wave.mask <- c.mask;
  let log = ref [] in
  let got =
    match Wave.exec w decoded ~mem:(recording_mem log) ~line_bytes with
    | Wave.E_pure -> Ok pure
    | Wave.E_trans -> Ok { pure with o_effect = "trans" }
    | Wave.E_trapped -> Ok { pure with o_effect = "trapped" }
    | Wave.E_mem kind ->
        Ok
          {
            o_effect =
              (match kind with
              | Wave.MLoad -> "load"
              | Wave.MStore -> "store"
              | Wave.MAtomic -> "atomic");
            o_lanes = w.Wave.mem_lanes;
            o_lines = Array.to_list (Array.sub w.Wave.lines 0 w.Wave.nlines);
          }
    | exception e -> Error (Printexc.to_string e)
  in
  let rregs = Array.copy c.regs in
  let rlog = ref [] in
  let want =
    match
      reference ~nlanes:c.nlanes ~flat_base:c.flat_base ~mask:c.mask rregs
        c.inst (recording_mem rlog)
    with
    | o -> Ok o
    | exception e -> Error (Printexc.to_string e)
  in
  got = want && w.Wave.regs = rregs && !log = !rlog

let prop_exec_matches_reference =
  QCheck.Test.make ~name:"whole-wave exec = per-lane reference" ~count:3000
    (QCheck.make ~print:print_case gen_case)
    run_case

(* Every constructor, with a full, a partial and an empty mask, on a
   fixed register file (the property samples; this enumerates). *)
let test_every_constructor () =
  let regs = Array.init (nregs * 64) (fun i -> F32.norm ((i * 40503) - 9000)) in
  let insts =
    [
      Iarith (Add, 0, Reg 0, Reg 1); Iarith (Shl, 2, Reg 2, Imm 3l);
      Farith (Fmul, 1, Reg 1, Imm_f32 0.5); Funary (Fsqrt, 3, Reg 4);
      Funary (Fabs, 3, Reg 3); Icmp (Ilt_u, 0, Reg 0, Reg 5);
      Fcmp (Fge, 4, Reg 4, Imm_f32 (-1.0)); Select (1, Reg 2, Reg 1, Imm 9l);
      Mov (5, Imm_f32 3.25); Cvt (F32_to_s32, 2, Reg 2); Mad (0, Reg 0, Reg 0, Reg 0);
      Fma (1, Reg 1, Reg 2, Reg 3); Special (Global_id 0, 4);
      Special (Lds_base "b", 4); Special (Lds_base "missing", 4); Arg (3, 2);
      Load (Global, 0, Reg 0); Load (Local, 1, Imm 256l);
      Store (Global, Reg 3, Reg 3); Store (Local, Reg 1, Imm 0l);
      Atomic (A_poll, Global, 2, Reg 2, Imm 0l); Atomic (A_add, Local, 2, Reg 4, Reg 2);
      Cas (Global, 5, Reg 5, Reg 4, Reg 3); Barrier; Fence Local;
      Swizzle (Dup_odd, 0, Reg 0); Swizzle (Xor_mask 33, 1, Reg 1); Swizzle (Bcast 5, 2, Reg 3);
      Trap (Reg 4); Trap (Imm 0l);
    ]
  in
  List.iter
    (fun inst ->
      List.iter
        (fun (nlanes, mask) ->
          let c = { nlanes; flat_base = 64; mask; regs; inst } in
          if not (run_case c) then Alcotest.failf "mismatch: %s" (print_case c))
        [ (64, -1L); (64, 0xF0F0_0000_FFFF_0001L); (16, 0x00A5L); (33, 0L); (7, 0x55L) ])
    insts

let suite =
  Alcotest.test_case "every constructor, full/partial/empty masks" `Quick
    test_every_constructor
  :: List.map QCheck_alcotest.to_alcotest [ prop_exec_matches_reference ]
