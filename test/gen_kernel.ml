(* Random well-formed kernel generator for differential testing.

   Generated kernels are deterministic and race-free by construction:
   - each work-item reads anywhere in the input buffer (indices reduced
     modulo the buffer size) but writes only its own output slot;
   - LDS traffic uses a private per-item slot, with barriers only at the
     top level (never under divergent control), plus an optional
     neighbour-exchange phase separated by barriers;
   - loops are counted with small constant trip counts; divergent
     conditionals come from parity/range tests of generated values.

   Two differential properties use this: (1) the optimizer must preserve
   semantics; (2) every RMT transform must preserve semantics. Together
   they fuzz the IR, the interpreter, the passes and the optimizer
   against each other. *)

open Gpu_ir

type rng = { mutable s : int }

let rng seed = { s = (seed * 2654435761) land 0x3FFFFFFF lor 1 }

let next r =
  r.s <- (r.s * 1103515245 + 12345) land 0x3FFFFFFF;
  r.s

let pick r n = next r mod n
let choose r l = List.nth l (pick r (List.length l))

let n_items = 128
let wg = 64

(* ------------------------------------------------------------------ *)
(* Seeded defects (sanitizer negative corpus)                          *)
(* ------------------------------------------------------------------ *)

(** A defect planted into an otherwise race-free generated kernel. The
    LDS defects force a 128-item work-group (two wavefronts): the
    sanitizer orders same-wave accesses by lockstep, so an intra-group
    race needs two waves to be a race at all. *)
type defect =
  | D_lds_ww  (** two waves store different values to one LDS slot *)
  | D_lds_rw_nobarrier  (** neighbour LDS read with the barrier omitted *)
  | D_oob_store  (** store to [output[n_items + gid]], past the buffer *)
  | D_uninit_load  (** load of an input word the host never wrote *)

let all_defects = [ D_lds_ww; D_lds_rw_nobarrier; D_oob_store; D_uninit_load ]

let defect_name = function
  | D_lds_ww -> "lds-ww"
  | D_lds_rw_nobarrier -> "lds-rw-nobarrier"
  | D_oob_store -> "oob-store"
  | D_uninit_load -> "uninit-load"

(** The finding class and memory space the sanitizer must report for a
    planted defect. *)
let expected_finding = function
  | D_lds_ww -> (Gpu_san.Shadow.Race_ww, Types.Local)
  | D_lds_rw_nobarrier -> (Gpu_san.Shadow.Race_rw, Types.Local)
  | D_oob_store -> (Gpu_san.Shadow.Oob, Types.Global)
  | D_uninit_load -> (Gpu_san.Shadow.Uninit_read, Types.Global)

let defect_wg = function
  | Some (D_lds_ww | D_lds_rw_nobarrier) -> 128
  | _ -> wg

(* Build a random kernel: (kernel, n_items). Parameters: input buffer,
   output buffer, one scalar. [defect] additionally plants exactly one
   seeded bug after the race-free body. *)
let generate ?defect seed : Types.kernel =
  let r = rng seed in
  let wg = defect_wg defect in
  let b = Builder.create (Printf.sprintf "fuzz_%d" seed) in
  let input = Builder.buffer_param b "input" in
  let output = Builder.buffer_param b "output" in
  let s = Builder.scalar_param b "s" in
  let use_lds = pick r 2 = 0 in
  let lds =
    if use_lds then Some (Builder.lds_alloc b "scratch" (wg * 4)) else None
  in
  let gid = Builder.global_id b 0 in
  let lid = Builder.local_id b 0 in
  (* pool of available values *)
  let pool = ref [ gid; lid; s; Builder.imm 3; Builder.imm (-7) ] in
  let any () = choose r !pool in
  let push v = pool := v :: !pool in
  let gen_pure () =
    let a = any () and c = any () in
    let v =
      match pick r 16 with
      | 0 -> Builder.add b a c
      | 1 -> Builder.sub b a c
      | 2 -> Builder.mul b a c
      | 3 -> Builder.xor b a c
      | 4 -> Builder.and_ b a c
      | 5 -> Builder.min_s b a c
      | 6 -> Builder.shl b a (Builder.imm (pick r 8))
      | 7 -> Builder.lshr b a (Builder.imm (pick r 8))
      | 8 -> Builder.select b (Builder.lt_s b a c) a c
      | 9 -> Builder.mad b a c (any ())
      | 10 ->
          (* float round-trip keeps values 32-bit clean *)
          let f = Builder.s32_to_f32 b (Builder.and_ b a (Builder.imm 0xFFFF)) in
          Builder.f32_to_s32 b (Builder.fadd b f (Builder.immf 1.5))
      | 11 -> Builder.ashr b a (Builder.imm (pick r 8))
      | 12 -> Builder.iarith b Types.Mulhi_u a c
      | 13 -> Builder.or_ b a c
      | 14 ->
          let f1 = Builder.s32_to_f32 b (Builder.and_ b a (Builder.imm 0xFF)) in
          let f2 = Builder.s32_to_f32 b (Builder.and_ b c (Builder.imm 0xFF)) in
          Builder.f32_to_s32 b (Builder.fma b f1 f2 (Builder.immf 0.5))
      | _ -> Builder.iarith b Types.Rem_u a (Builder.imm (1 + pick r 100))
    in
    push v
  in
  let gen_load () =
    let idx = Builder.iarith b Types.Rem_u (any ()) (Builder.imm n_items) in
    push (Builder.gload_elem b input idx)
  in
  let gen_if () =
    let cond = Builder.and_ b (any ()) (Builder.imm 1) in
    let x = Builder.cell b (any ()) in
    Builder.if_ b
      (Builder.eq b cond (Builder.imm 0))
      (fun () -> Builder.set b x (Builder.add b (Builder.get x) (any ())))
      (fun () -> Builder.set b x (Builder.xor b (Builder.get x) (any ())));
    push (Builder.get x)
  in
  let gen_loop () =
    let acc = Builder.cell b (any ()) in
    let trips = 1 + pick r 4 in
    let nested = pick r 3 = 0 in
    Builder.for_ b ~lo:(Builder.imm 0) ~hi:(Builder.imm trips)
      ~step:(Builder.imm 1) (fun i ->
        if nested then
          Builder.when_ b
            (Builder.eq b (Builder.and_ b i (Builder.imm 1)) (Builder.imm 0))
            (fun () ->
              Builder.set b acc (Builder.xor b (Builder.get acc) (any ())))
        else ();
        Builder.set b acc
          (Builder.add b (Builder.get acc) (Builder.add b i (any ()))));
    push (Builder.get acc)
  in
  let gen_lds_phase () =
    match lds with
    | None -> gen_pure ()
    | Some base ->
        let slot i = Builder.add b base (Builder.shl b i (Builder.imm 2)) in
        Builder.lstore b (slot lid) (any ());
        Builder.barrier b;
        (* neighbour exchange: read (lid+1) mod wg *)
        let nb =
          Builder.iarith b Types.Rem_u
            (Builder.add b lid (Builder.imm 1))
            (Builder.imm wg)
        in
        push (Builder.lload b (slot nb));
        Builder.barrier b
  in
  let n_ops = 6 + pick r 14 in
  for _ = 1 to n_ops do
    match pick r 10 with
    | 0 | 1 -> gen_load ()
    | 2 -> gen_if ()
    | 3 -> gen_loop ()
    | 4 -> gen_lds_phase ()
    | _ -> gen_pure ()
  done;
  (* fold the live pool into one result so nothing the generator built is
     trivially dead, then store to the item's own slot *)
  let result =
    List.fold_left (fun acc v -> Builder.xor b acc v) (Builder.imm 0)
      (match !pool with
      | a :: bl -> a :: List.filteri (fun i _ -> i < 8) bl
      | [] -> [ Builder.imm 0 ])
  in
  Builder.gstore_elem b output gid result;
  (* occasionally a second, divergent store *)
  if pick r 3 = 0 then
    Builder.when_ b
      (Builder.eq b (Builder.and_ b gid (Builder.imm 3)) (Builder.imm 0))
      (fun () -> Builder.gstore_elem b output gid (Builder.add b result gid));
  (* ---- seeded defect, after the race-free body ---- *)
  (match defect with
  | None -> ()
  | Some D_lds_ww ->
      (* both waves write slot (lid mod 64) with distinct nonzero values
         and no barrier in between: a WW race the value-suppression
         exemption cannot absorb *)
      let base = Builder.lds_alloc b "defect" (64 * 4) in
      let slot =
        Builder.add b base
          (Builder.shl b (Builder.and_ b lid (Builder.imm 63)) (Builder.imm 2))
      in
      Builder.lstore b slot (Builder.add b lid (Builder.imm 1))
  | Some D_lds_rw_nobarrier ->
      (* initialize every slot, barrier, overwrite the own slot, then
         read the neighbour's slot with the second barrier omitted: the
         cross-wave neighbour pairs (63 -> 64, 127 -> 0) race *)
      let base = Builder.lds_alloc b "defect" (wg * 4) in
      let slot i = Builder.add b base (Builder.shl b i (Builder.imm 2)) in
      Builder.lstore b (slot lid) (Builder.add b lid (Builder.imm 1));
      Builder.barrier b;
      Builder.lstore b (slot lid) (Builder.add b lid (Builder.imm 101));
      let nb =
        Builder.iarith b Types.Rem_u
          (Builder.add b lid (Builder.imm 1))
          (Builder.imm wg)
      in
      ignore (Builder.lload b (slot nb))
  | Some D_oob_store ->
      (* lands past the output allocation but inside device memory, so
         the unsanitized run still finishes *)
      Builder.when_ b
        (Builder.lt_s b gid (Builder.imm 4))
        (fun () ->
          Builder.gstore_elem b output
            (Builder.add b gid (Builder.imm n_items))
            (Builder.add b result (Builder.imm 1)))
  | Some D_uninit_load ->
      (* [run ~defect] leaves this input word unwritten on the host *)
      ignore (Builder.gload_elem b input (Builder.imm (n_items - 1))));
  Builder.finish b

(* Run a generated kernel (optionally transformed/optimized) and return
   the output buffer contents. [san] is the device's sanitizer shadow,
   given at creation, so it sees the host writes too; [defect]
   must match what [generate] planted (the uninitialized-read defect
   needs the host to skip a word). *)
let run ?(transform = Rmt_core.Transform.Original) ?(optimize = false) ?defect
    ?san seed : int array =
  let wg = defect_wg defect in
  let k0 = generate ?defect seed in
  let k = Rmt_core.Transform.apply transform ~local_items:wg k0 in
  let k = if optimize then Opt.optimize k else k in
  Verify.check k;
  let dev = Gpu_sim.Device.create ?san Gpu_sim.Config.small in
  let input = Gpu_sim.Device.alloc dev (n_items * 4) in
  let output = Gpu_sim.Device.alloc dev (n_items * 4) in
  let r = rng (seed + 77) in
  for i = 0 to n_items - 1 do
    if not (defect = Some D_uninit_load && i = n_items - 1) then
      Gpu_sim.Device.write_i32 dev input i (next r - 0x20000000);
    Gpu_sim.Device.write_i32 dev output i 0
  done;
  let nd0 = Gpu_sim.Geom.make_ndrange n_items wg in
  let nd = Rmt_core.Transform.map_ndrange transform nd0 in
  let args =
    [ Gpu_sim.Device.A_buf input; A_buf output; A_i32 12345 ]
    @ (Rmt_core.Transform.make_extras transform dev ~nd:nd0).ex_args
  in
  let res = Gpu_sim.Device.launch dev k ~nd ~args in
  (match res.Gpu_sim.Device.outcome with
  | Gpu_sim.Device.Finished -> ()
  | o ->
      failwith
        (Printf.sprintf "fuzz seed %d: unexpected outcome %s" seed
           (match o with
           | Gpu_sim.Device.Detected -> "detected"
           | Gpu_sim.Device.Crashed m -> "crash: " ^ m
           | Gpu_sim.Device.Hung -> "hung"
           | Gpu_sim.Device.Finished -> "finished")));
  Gpu_sim.Device.read_i32_array dev output n_items
