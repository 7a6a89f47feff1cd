(** Static RMT-invariant (sphere-of-replication) checker.

    The RMT transforms promise a contract per flavor: every store that
    {e exits} the sphere of replication is (1) confined to one replica by
    a producer/consumer branch, (2) preceded by an output comparison — a
    [Trap] whose condition compares the store's address and value against
    the twin's copies received over the communication channel — and
    (3) under Inter-Group, gated by the hand-off flag protocol on the
    global communication buffer. Global stores always exit the SoR;
    local stores additionally exit it under Intra-Group −LDS (the LDS is
    shared between twins there, so it is architectural state).

    This module re-derives that contract from the transformed kernel
    alone, with a conservative static analysis over {!Gpu_ir.Site}
    program order:

    - a {e channel-address} taint marks registers holding addresses into
      the communication medium (the [__rmt_comm]/[__tmr_vote] LDS base,
      or the Inter-Group counter/comm buffer parameters), propagated
      through address arithmetic only ([Mov]/[Mad]/integer ALU). Stores
      whose target address is channel-tainted are the protocol's own
      publishes and are exempt;
    - a {e channel-value} taint marks data read back from the channel
      (loads/atomics at channel addresses, and cross-lane [Swizzle]
      results for the FAST flavor), propagated through every
      instruction. A valid output comparison's trap condition must be
      channel-value tainted — a trap comparing private registers against
      themselves would not count;
    - per checked store, the checker requires an enclosing [If], a
      preceding channel-tainted [Trap] whose backward register closure
      intersects both the store address's and the store value's
      closures, and (Inter-Group) a preceding [A_poll] spin on a
      channel-tainted address.

    The no-comm ablation flavors ([Comm_none], [No_comm]) deliberately
    violate the contract (they store without comparing) and are the
    checker's negative fixture. *)

open Gpu_ir.Types
module Site = Gpu_ir.Site

type violation = {
  v_site : Site.id;  (** site of the offending store *)
  v_inst : string;  (** rendered instruction *)
  v_space : space;
  v_reason : string;
}

let describe v =
  Printf.sprintf "site %d (%s): %s" v.v_site v.v_inst v.v_reason

(* Registers appearing in a value / an instruction's uses. *)
let reg_of = Gpu_ir.Slice.reg_of
let use_regs = Gpu_ir.Slice.use_regs

(* Address arithmetic: instructions through which a channel *address*
   stays a channel address. Anything else (loads, compares, selects)
   launders the taint — deliberately, so e.g. the TMR majority-voted
   store address (a [Select] over voted copies) is not mistaken for a
   protocol-internal publish. *)
let is_addr_arith = function
  | Mov _ | Mad _ | Iarith _ -> true
  | _ -> false

(* Which stores exit the SoR: global stores under every redundant
   variant, local stores too under Intra-Group -LDS. *)
let checked_space (variant : Transform.variant) sp =
  match (variant, sp) with
  | Original, _ -> false
  | _, Global -> true
  | Intra { include_lds = false; _ }, Local -> true
  | _, Local -> false

(* The LDS allocation naming the channel, per variant. *)
let chan_lds_name : Transform.variant -> string option = function
  | Intra _ -> Some Intra_group.comm_lds_name
  | Tmr -> Some Tmr.comm_lds_name
  | Original | Inter _ -> None

(* Inter-Group's channel is its two appended buffer parameters, and its
   stores must also be gated by the hand-off flag protocol. *)
let is_inter : Transform.variant -> bool = function
  | Inter _ -> true
  | Original | Intra _ | Tmr -> false

(* Forward taint pass in program (= site) order: [addr_taint] marks
   registers holding channel addresses, [chan] registers holding data
   read back over the channel. *)
let channel_taints (variant : Transform.variant) (k : kernel)
    (insts : inst array) =
  let nsites = Array.length insts in
  let np = param_count k in
  let nregs = max k.nregs 1 in
  let addr_taint = Array.make nregs false in
  let chan = Array.make nregs false in
  let lds_chan = chan_lds_name variant in
  let inter = is_inter variant in
  for s = 0 to nsites - 1 do
    let i = insts.(s) in
    (match i with
    | Special (Lds_base name, d) when Some name = lds_chan ->
        addr_taint.(d) <- true
    | Arg (d, idx) when inter && idx >= np - 2 ->
        addr_taint.(d) <- true
    | _ -> ());
    match inst_def i with
    | Some d ->
        if is_addr_arith i && List.exists (fun r -> addr_taint.(r)) (use_regs i)
        then addr_taint.(d) <- true;
        let channel_read =
          match i with
          | Load (_, _, Reg a) | Atomic (_, _, _, Reg a, _)
          | Cas (_, _, Reg a, _, _) ->
              addr_taint.(a)
          | Swizzle _ -> true
          | _ -> false
        in
        if channel_read || List.exists (fun r -> chan.(r)) (use_regs i) then
          chan.(d) <- true
    | None -> ()
  done;
  (addr_taint, chan)

(** Registers holding channel addresses (the protocol's own slot/flag
    addressing). The translation validator cuts its injection slices at
    these: the checking code the transforms insert is not itself
    replicated, so faults in its addressing are the scheme's documented
    unprotected residue, not contract violations. *)
let channel_address_regs (variant : Transform.variant) (k : kernel) :
    bool array =
  let sl = Gpu_ir.Slice.of_kernel k in
  let addr_taint, _ = channel_taints variant k sl.Gpu_ir.Slice.insts in
  addr_taint

(** Sites of the protocol's own publishes into the communication
    channel: stores/atomics whose target address derives from the
    channel medium. They are exempt from the per-store contract, and
    the translation validator classifies any corruption they commit as
    protocol residue (a misdirected publish ends in a detectable
    protocol failure, not a silent output). *)
let channel_publish_sites (variant : Transform.variant) (k : kernel) :
    bool array =
  let sl = Gpu_ir.Slice.of_kernel k in
  let insts = sl.Gpu_ir.Slice.insts in
  let addr_taint, _ = channel_taints variant k insts in
  Array.map
    (function
      | Store (_, Reg r, _)
      | Atomic (_, _, _, Reg r, _)
      | Cas (_, _, Reg r, _, _) ->
          addr_taint.(r)
      | _ -> false)
    insts

(** [check variant k] verifies the SoR contract of [k] under [variant]
    and returns the violations ([] = contract holds). [k] must be the
    {e transformed} kernel. *)
let check (variant : Transform.variant) (k : kernel) : violation list =
  if variant = Transform.Original then []
  else begin
    let sl = Gpu_ir.Slice.of_kernel k in
    let insts = sl.Gpu_ir.Slice.insts in
    let in_if = sl.Gpu_ir.Slice.guarded in
    let nsites = Array.length insts in
    let addr_taint, chan = channel_taints variant k insts in
    (* ---- backward register closure from a site ---- *)
    let closure ~from seeds = Gpu_ir.Slice.closure sl ~from seeds in
    let intersects = Gpu_ir.Slice.intersects in
    (* ---- per-store contract ---- *)
    let traps = ref [] in
    (* (site, condition) of every Trap, ascending *)
    for s = nsites - 1 downto 0 do
      match insts.(s) with Trap c -> traps := (s, c) :: !traps | _ -> ()
    done;
    let polls = ref [] in
    for s = nsites - 1 downto 0 do
      match insts.(s) with
      | Atomic (A_poll, Global, _, Reg a, _) when addr_taint.(a) ->
          polls := s :: !polls
      | _ -> ()
    done;
    let violations = ref [] in
    let fail s sp reason =
      violations :=
        {
          v_site = s;
          v_inst = Gpu_ir.Pp.string_of_inst insts.(s);
          v_space = sp;
          v_reason = reason;
        }
        :: !violations
    in
    for s = 0 to nsites - 1 do
      match insts.(s) with
      | Store (sp, addr, v) when checked_space variant sp -> (
          let addr_is_chan =
            match addr with Reg r -> addr_taint.(r) | _ -> false
          in
          if not addr_is_chan then begin
            if not in_if.(s) then
              fail s sp
                "store exits the SoR outside any producer/consumer branch";
            let prior = List.filter (fun (t, _) -> t < s) !traps in
            if prior = [] then
              fail s sp "no output comparison (Trap) precedes the store"
            else begin
              let ca = closure ~from:s (Option.to_list (reg_of addr)) in
              let cv = closure ~from:s (Option.to_list (reg_of v)) in
              let witnesses =
                List.filter
                  (fun (t, c) ->
                    match reg_of c with
                    | Some r ->
                        chan.(r)
                        && (reg_of addr = None
                           || intersects (closure ~from:t [ r ]) ca)
                        && (reg_of v = None
                           || intersects (closure ~from:t [ r ]) cv)
                    | None -> false)
                  prior
              in
              if witnesses = [] then
                if
                  List.exists
                    (fun (_, c) ->
                      match reg_of c with Some r -> chan.(r) | None -> false)
                    prior
                then
                  fail s sp
                    "no preceding trap compares this store's address and \
                     value against channel data"
                else
                  fail s sp
                    "preceding traps do not read the twin's copy over the \
                     communication channel";
              if is_inter variant && not (List.exists (fun t -> t < s) !polls)
              then
                fail s sp
                  "store is not gated by a hand-off flag poll on the \
                   communication buffer"
            end
          end)
      | _ -> ()
    done;
    List.rev !violations
  end
