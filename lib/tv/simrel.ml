(** Simulation-relation checking of the RMT transforms.

    The relation discharged per subject kernel and flavor:

    1. {e refinement} — on a synthetic launch with deterministic
       inputs, the transformed kernel's exiting stores (per-location
       value sequences over every non-exempt address) equal the
       original kernel's, and no output comparison fires;
    2. {e single-fault coverage} — for every instruction in the
       {e data slice} of an exiting store's address or value, in every
       replica of the pairing map (even/odd lanes for Intra, group
       pairs for Inter, triples for TMR), flipping one bit of the
       destination register at its first dynamic execution never lets
       a {e corrupted} store commit: the run either masks the flip
       (TMR's majority vote, dead values), traps before the damaged
       store (the RMT output comparison), or degrades into the
       watchdog (Inter-Group hand-off starvation).

    The fault world is compared against the fault-free world by event
    streams, so "the stored value is compare-guarded over both twins'
    copies" is checked semantically: a guard that ignores one twin
    (dropped compare, swapped operand, one-twin store) leaves some
    replica whose corruption reaches memory unflagged, and the
    experiment for that replica produces an [Undetected] violation
    naming the offending store's site.

    Store {e suppression} (a control-adjacent fault starves a loop or
    a hand-off and some healthy stores never commit) is reported as
    [Degraded], not a violation: a store-granularity RMT scheme
    cannot compare a store that never executes — the paper covers
    that residue with the watchdog and end-to-end output
    verification, and the dynamic fault campaign measures it. *)

open Gpu_ir.Types
module Geom = Gpu_sim.Geom
module Transform = Rmt_core.Transform
module Slice = Gpu_ir.Slice

type pairing = P_none | P_lane_parity | P_group_parity | P_lane_mod3

(** How a variant's replicas are laid out: the pairing map the fault
    experiments inject into. *)
let pairing_of_variant : Transform.variant -> pairing = function
  | Original -> P_none
  | Intra _ -> P_lane_parity
  | Inter _ -> P_group_parity
  | Tmr -> P_lane_mod3

type subject = {
  s_label : string;
  s_original : kernel;
  s_transformed : kernel;
  s_pairing : pairing;
  s_plan_orig : Machine.plan;
  s_plan_rmt : Machine.plan;
  s_exempt_global : (int * int) list;  (** [lo, hi) comm buffer ranges *)
  s_exempt_local : (int * int) list;
  s_compare_local : bool;  (** −LDS: local stores also exit the SoR *)
  s_publish : bool array;
      (** per transformed site: a protocol publish into the channel
          (from {!Rmt_core.Sor_check.channel_publish_sites}); corruption
          it commits is protocol residue, not a contract violation *)
  s_chan_addr : bool array;
      (** per transformed register: holds a channel address — the
          unreplicated slot/flag addressing of the inserted checking
          code, cut out of the injection slice *)
}

(* Synthetic launch: buffer parameters get well-separated base
   addresses (memory is unbounded and pseudo-randomly initialized, so
   any footprint works); scalar parameters get a small value that keeps
   scalar-driven loops short. *)
let buffer_base i = 0x100000 * (i + 1)
let scalar_value = 8
let inter_counter_base = 0x70000000
let inter_comm_base = 0x71000000

let synth_args (k : kernel) =
  Array.of_list
    (List.mapi
       (fun i p ->
         match p with
         | Param_buffer _ -> buffer_base i
         | Param_scalar _ -> scalar_value)
       k.params)

let default_local_items = 16
let default_logical_groups = 2

(** The validation subject of [variant] on [k0]: both kernels with the
    synthetic launch plans of [logical_groups] groups of [local_items].
    @raise Transform.Unsupported when the transform rejects [k0]. *)
let subject ?(local_items = default_local_items)
    ?(logical_groups = default_logical_groups) ?(mutate = fun k -> k)
    (variant : Transform.variant) (k0 : kernel) : subject =
  let nd0 = Geom.make_ndrange (logical_groups * local_items) local_items in
  let transformed = Transform.apply variant ~local_items k0 in
  let nd_rmt = Transform.map_ndrange variant nd0 in
  (* [mutate] seeds a defect into the transformed kernel (the
     miscompile fixtures); the identity for genuine validation. *)
  let transformed = mutate transformed in
  let args0 = synth_args k0 in
  let args_rmt, init_rmt, exempt_global =
    match variant with
    | Inter scheme ->
        let comm_bytes = Rmt_core.Inter_group.comm_buffer_bytes ~scheme nd0 in
        (* The launcher zeroes the counter and the comm buffer (the
           hand-off flags must read 0 before the first deposit). *)
        ( Array.append args0 [| inter_counter_base; inter_comm_base |],
          (inter_counter_base, 0)
          :: List.init (comm_bytes / 4) (fun i ->
                 (inter_comm_base + (4 * i), 0)),
          [
            (inter_counter_base, inter_counter_base + 4);
            (inter_comm_base, inter_comm_base + comm_bytes);
          ] )
    | _ -> (args0, [], [])
  in
  let exempt_local =
    List.filter_map
      (fun (name, off, bytes) ->
        if
          name = Rmt_core.Intra_group.comm_lds_name
          || name = Rmt_core.Tmr.comm_lds_name
          || name = Rmt_core.Inter_group.wgid_lds_name
        then Some (off, off + bytes)
        else None)
      (Machine.lds_offsets transformed)
  in
  let compare_local =
    match variant with Intra { include_lds = false; _ } -> true | _ -> false
  in
  let publish = Rmt_core.Sor_check.channel_publish_sites variant transformed in
  let chan_addr =
    Rmt_core.Sor_check.channel_address_regs variant transformed
  in
  {
    s_label = Transform.name variant;
    s_original = k0;
    s_transformed = transformed;
    s_pairing = pairing_of_variant variant;
    s_publish = publish;
    s_chan_addr = chan_addr;
    s_plan_orig =
      { Machine.p_kernel = k0; p_nd = nd0; p_args = args0; p_init = [] };
    s_plan_rmt =
      {
        Machine.p_kernel = transformed;
        p_nd = nd_rmt;
        p_args = args_rmt;
        p_init = init_rmt;
      };
    s_exempt_global = exempt_global;
    s_exempt_local = exempt_local;
    s_compare_local = compare_local;
  }

(* ------------------------------------------------------------------ *)
(* Stream comparison                                                   *)
(* ------------------------------------------------------------------ *)

let in_ranges ranges addr =
  List.exists (fun (lo, hi) -> addr >= lo && addr < hi) ranges

(* Locations whose stores exit the SoR (everything the relation
   compares): global minus comm buffers; local too under −LDS, minus
   the comm allocation. *)
let relevant subj (key : Machine.stream_key) =
  match key.Machine.sk_space with
  | Global -> not (in_ranges subj.s_exempt_global key.Machine.sk_addr)
  | Local ->
      subj.s_compare_local && not (in_ranges subj.s_exempt_local key.Machine.sk_addr)

let relevant_keys subj (runs : Machine.result list) =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun (r : Machine.result) ->
      Hashtbl.iter
        (fun k _ -> if relevant subj k then Hashtbl.replace tbl k ())
        r.Machine.r_stores)
    runs;
  List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) tbl [])

let values evs = List.map (fun (e : Machine.event) -> e.Machine.ev_value) evs

(* Collapse consecutive duplicate values: a benignly duplicated store
   (both twins committed the same word) equals a single commit. *)
let rec dedup = function
  | a :: (b :: _ as rest) when (a : int) = b -> dedup rest
  | a :: rest -> a :: dedup rest
  | [] -> []

(* Is [sub] a subsequence of [sup]? Returns the first unmatched element
   of [sub] on failure. *)
let rec subseq sub sup =
  match (sub, sup) with
  | [], _ -> Ok ()
  | x :: _, [] -> Error x
  | x :: sub', y :: sup' -> if x = y then subseq sub' sup' else subseq sub sup'

type divergence = {
  d_key : Machine.stream_key;
  d_store_site : int;  (** site of the offending store in the subject run *)
  d_corrupt : bool;  (** a value/location not present in the reference *)
}

(* First event of [evs] whose value is [v]; the offending store site. *)
let site_of_value evs v =
  match
    List.find_opt (fun (e : Machine.event) -> e.Machine.ev_value = v) evs
  with
  | Some e -> e.Machine.ev_site
  | None -> -1

(** Compare run [a] (subject) against [b] (reference) over the
    relation's locations. [None] = streams equal. Otherwise the first
    divergence, flagged [d_corrupt] when [a] committed a value (or
    location) the reference never committed there — as opposed to only
    omitting/duplicating reference values (suppression). *)
let key_divergence subj ~(subject_run : Machine.result)
    ~(reference : Machine.result) key : divergence option =
  let sa = values (Machine.canonical_events subject_run key) in
  let sb = values (Machine.canonical_events reference key) in
  if sa = sb then None
  else
    let da = dedup sa and db = dedup sb in
    if da = db then None
    else
      let corrupt, witness =
        match subseq da db with
        | Ok () -> (false, -1)  (* suppression only *)
        | Error v ->
            (true, site_of_value (Machine.canonical_events subject_run key) v)
      in
      (* A misdirected protocol publish (corrupted channel address
         scribbling outside the exempt comm ranges) is residue the
         hand-off starvation/trap covers, not a silent output. *)
      let corrupt =
        corrupt
        && not
             (witness >= 0
             && witness < Array.length subj.s_publish
             && subj.s_publish.(witness))
      in
      Some { d_key = key; d_store_site = witness; d_corrupt = corrupt }

let diverges subj ~(subject_run : Machine.result) ~(reference : Machine.result)
    : divergence option =
  let keys = relevant_keys subj [ subject_run; reference ] in
  let rec first = function
    | [] -> None
    | k :: rest -> (
        match key_divergence subj ~subject_run ~reference k with
        | Some d when d.d_corrupt -> Some d
        | Some d -> (
            (* prefer a corrupting divergence over a suppression *)
            match first rest with Some d' -> Some d' | None -> Some d)
        | None -> first rest)
  in
  first keys

(** Assessment of a faulty run against the fault-free baseline,
    folding in the flavor's documented residue. Under −LDS the twins
    share the LDS: a control-adjacent fault that starves shared-LDS
    updates can leave both twins agreeing on {e stale} data, so a
    corrupted global commit accompanied by shared-local suppression is
    the paper's unprotected-LDS residue of that flavor (Table 2's
    motivation for +LDS, which replicates the LDS and turns the same
    fault into twin divergence caught by the compare). *)
let assess subj ~(subject_run : Machine.result)
    ~(reference : Machine.result) :
    [ `Equal | `Suppressed | `Corrupt of divergence ] =
  match diverges subj ~subject_run ~reference with
  | None -> `Equal
  | Some d when d.d_corrupt ->
      let local_suppression () =
        List.exists
          (fun key ->
            key.Machine.sk_space = Local
            &&
            match key_divergence subj ~subject_run ~reference key with
            | Some d' -> not d'.d_corrupt
            | None -> false)
          (relevant_keys subj [ subject_run; reference ])
      in
      if
        subj.s_compare_local
        && d.d_key.Machine.sk_space = Global
        && local_suppression ()
      then `Suppressed
      else `Corrupt d
  | Some _ -> `Suppressed

(* ------------------------------------------------------------------ *)
(* Experiments                                                         *)
(* ------------------------------------------------------------------ *)

type outcome =
  | Masked  (** streams equal to the fault-free run *)
  | Detected  (** a trap fired before any corrupted store committed *)
  | Timeout  (** the watchdog fired; committed prefix uncorrupted *)
  | Degraded  (** healthy stores suppressed/duplicated, none corrupted *)
  | Not_exercised  (** the replica never executed the site *)
  | Undetected  (** a corrupted store committed — a violation *)

let outcome_name = function
  | Masked -> "masked"
  | Detected -> "detected"
  | Timeout -> "timeout"
  | Degraded -> "degraded"
  | Not_exercised -> "not-exercised"
  | Undetected -> "UNDETECTED"

type experiment = {
  x_site : int;  (** injected site in the transformed kernel *)
  x_replica : int;
  x_bit : int;
  x_outcome : outcome;
  x_store_site : int;  (** offending store when [Undetected]; -1 else *)
}

type violation =
  | Spurious_trap of { site : int }
      (** the fault-free transformed run fired an output comparison *)
  | Not_refined of { store_site : int }
      (** transformed output differs from the original's *)
  | Run_failed of { what : string }
  | Escaped of { inj_site : int; replica : int; bit : int; store_site : int }
      (** an injected fault reached memory uncompared *)

let violation_store_site = function
  | Spurious_trap { site } -> site
  | Not_refined { store_site } -> store_site
  | Run_failed _ -> -1
  | Escaped { store_site; _ } -> store_site

let describe_violation insts v =
  let inst s =
    if s >= 0 && s < Array.length insts then
      Gpu_ir.Pp.string_of_inst insts.(s)
    else "?"
  in
  match v with
  | Spurious_trap { site } ->
      Printf.sprintf
        "output comparison at site %d (%s) fires on a fault-free run" site
        (inst site)
  | Not_refined { store_site } ->
      Printf.sprintf
        "store at site %d (%s) commits values differing from the original \
         kernel's"
        store_site (inst store_site)
  | Run_failed { what } -> what
  | Escaped { inj_site; replica; bit; store_site } ->
      Printf.sprintf
        "store at site %d (%s) commits a corrupted value: bit %d flipped at \
         site %d (%s) in replica %d reaches memory with no comparison firing"
        store_site (inst store_site) bit inj_site (inst inj_site) replica

type stats = {
  n_experiments : int;
  n_masked : int;
  n_detected : int;
  n_timeout : int;
  n_degraded : int;
  n_not_exercised : int;
  n_undetected : int;
}

type result = {
  res_subject : subject;
  res_experiments : experiment list;
  res_stats : stats;
  res_violations : violation list;
}

let selectors = function
  | P_none -> [ Machine.Any ]
  | P_lane_parity -> [ Machine.Lane_parity 0; Machine.Lane_parity 1 ]
  | P_group_parity -> [ Machine.Group_parity 0; Machine.Group_parity 1 ]
  | P_lane_mod3 ->
      [ Machine.Lane_mod3 0; Machine.Lane_mod3 1; Machine.Lane_mod3 2 ]

(** The injection targets: every instruction with a destination register
    in the data slice of some SoR-exiting store's address or value. *)
let injection_sites subj =
  let sl = Slice.of_kernel subj.s_transformed in
  let n = Array.length sl.Slice.insts in
  let is_publish s = s < Array.length subj.s_publish && subj.s_publish.(s) in
  let seeds = ref [] in
  let checked_stores = ref [] in
  Array.iteri
    (fun s i ->
      match i with
      | Store (sp, addr, v)
        when (not (is_publish s))
             && (sp = Global || subj.s_compare_local) ->
          seeds := List.filter_map Slice.reg_of [ addr; v ] @ !seeds;
          checked_stores := s :: !checked_stores
      | _ -> ())
    sl.Slice.insts;
  let marked =
    Slice.slice_sites ~control:false
      ~cut:(fun r ->
        r < Array.length subj.s_chan_addr && subj.s_chan_addr.(r))
      sl ~seeds:!seeds
  in
  (* Post-comparison window: sites between a checked store and its
     nearest preceding output comparison execute after the value has
     been discharged (TMR's majority-vote selects, the Inter hand-off
     reset) — the compare-to-commit residue every store-granularity RMT
     scheme carries. Excluded from the contract's injection targets. *)
  let traps = ref [] in
  Array.iteri
    (fun s i -> match i with Trap _ -> traps := s :: !traps | _ -> ())
    sl.Slice.insts;
  let window = Array.make n false in
  List.iter
    (fun s ->
      let t =
        List.fold_left (fun acc tr -> if tr < s then max acc tr else acc) (-1)
          !traps
      in
      if t >= 0 then
        for j = t + 1 to s - 1 do
          window.(j) <- true
        done)
    !checked_stores;
  let sites = ref [] in
  Array.iteri
    (fun s m ->
      if m && (not window.(s)) && inst_def sl.Slice.insts.(s) <> None then
        sites := s :: !sites)
    marked;
  (sl, List.rev !sites)

(* Backward data closure of the channel-address registers: everything
   the checking code's slot/flag addressing is computed from. A fault
   here *in the checker replica itself* redirects the voter's/consumer's
   channel reads — the unprotected single point of failure every
   store-granularity RMT scheme carries in its own checking code (the
   inserted instructions are not themselves replicated). Experiments on
   these sites still run against the producer replicas, where the
   compare does catch them. *)
let backward_data_closure (sl : Slice.t) (inr : bool array) : bool array =
  let n = Array.length sl.Slice.insts in
  let changed = ref true in
  while !changed do
    changed := false;
    for s = n - 1 downto 0 do
      match inst_def sl.Slice.insts.(s) with
      | Some d when inr.(d) ->
          List.iter
            (fun r ->
              if not inr.(r) then begin
                inr.(r) <- true;
                changed := true
              end)
            (Slice.use_regs sl.Slice.insts.(s))
      | _ -> ()
    done
  done;
  inr

let checker_cone subj (sl : Slice.t) : bool array =
  let inr = Array.make sl.Slice.nregs false in
  Array.iteri
    (fun r t -> if t && r < sl.Slice.nregs then inr.(r) <- true)
    subj.s_chan_addr;
  backward_data_closure sl inr

(* Everything feeding a branch or loop condition. A control-desyncing
   fault in the TMR {e voter} replica makes it reach a guard in an
   iteration its producers sat out and vote over never-written slots —
   the same unprotected-voter residue, through the mask instead of the
   slot address. (The lane-level compare is immune: a consumer reading
   a slot its producer never wrote sees its own copy mismatch and
   traps, so Intra keeps these experiments.) *)
let control_cone (sl : Slice.t) : bool array =
  let inr = Array.make sl.Slice.nregs false in
  Array.iter
    (List.iter (fun r -> if r < sl.Slice.nregs then inr.(r) <- true))
    sl.Slice.guards;
  backward_data_closure sl inr

(* The replica that executes the checking code (loads the twins'
   copies, compares/votes, commits). Inter-Group's consumer is chosen
   dynamically by the work-group id hand-out, so it has no static
   selector. *)
let checker_selector = function
  | P_lane_parity -> Some (Machine.Lane_parity 1)
  | P_lane_mod3 -> Some (Machine.Lane_mod3 2)
  | P_none | P_group_parity -> None

let tally exps =
  List.fold_left
    (fun st x ->
      let st = { st with n_experiments = st.n_experiments + 1 } in
      match x.x_outcome with
      | Masked -> { st with n_masked = st.n_masked + 1 }
      | Detected -> { st with n_detected = st.n_detected + 1 }
      | Timeout -> { st with n_timeout = st.n_timeout + 1 }
      | Degraded -> { st with n_degraded = st.n_degraded + 1 }
      | Not_exercised -> { st with n_not_exercised = st.n_not_exercised + 1 }
      | Undetected -> { st with n_undetected = st.n_undetected + 1 })
    {
      n_experiments = 0;
      n_masked = 0;
      n_detected = 0;
      n_timeout = 0;
      n_degraded = 0;
      n_not_exercised = 0;
      n_undetected = 0;
    }
    exps

(** Run the relation for [subj]. [max_experiments], when given, samples
    the injection experiments with a deterministic stride (the refinement
    check always runs in full). *)
let validate ?step_limit ?max_experiments (subj : subject) : result =
  let finish violations exps =
    {
      res_subject = subj;
      res_experiments = exps;
      res_stats = tally exps;
      res_violations = violations;
    }
  in
  let base = Machine.run ?step_limit subj.s_plan_rmt in
  match base.Machine.r_outcome with
  | Machine.Trapped site -> finish [ Spurious_trap { site } ] []
  | Machine.Hung ->
      finish [ Run_failed { what = "transformed kernel hit the watchdog on a fault-free run" } ] []
  | Machine.Finished -> (
      let orig = Machine.run ?step_limit subj.s_plan_orig in
      match orig.Machine.r_outcome with
      | Machine.Trapped _ | Machine.Hung ->
          finish
            [ Run_failed { what = "original kernel did not finish the synthetic launch" } ]
            []
      | Machine.Finished ->
          let refinement =
            match diverges subj ~subject_run:base ~reference:orig with
            | Some d -> [ Not_refined { store_site = d.d_store_site } ]
            | None -> []
          in
          let sl, sites = injection_sites subj in
          let cone = checker_cone subj sl in
          let ctl =
            if subj.s_pairing = P_lane_mod3 then control_cone sl
            else Array.make sl.Slice.nregs false
          in
          let checker = checker_selector subj.s_pairing in
          let sels = selectors subj.s_pairing in
          let in_cone site =
            match inst_def sl.Slice.insts.(site) with
            | Some d -> cone.(d) || ctl.(d)
            | None -> false
          in
          (* Replica-major order: [max_experiments] samples with a
             stride, and a site-major order would alias the stride with
             the replica count (e.g. stride 2 over (site, twin0),
             (site, twin1) pairs never exercises twin 1). *)
          let all =
            List.concat_map
              (fun (ri, sel) ->
                List.filter_map
                  (fun site ->
                    if Some sel = checker && in_cone site then None
                    else Some (site, ri, sel))
                  sites)
              (List.mapi (fun ri sel -> (ri, sel)) sels)
          in
          let chosen =
            match max_experiments with
            | Some m when m > 0 && List.length all > m ->
                let n = List.length all in
                let stride = (n + m - 1) / m in
                List.filteri (fun i _ -> i mod stride = 0) all
            | _ -> all
          in
          (* A faulty run that outlives the fault-free run by an order
             of magnitude is hung (hand-off starvation spins forever);
             no need to burn the full default watchdog on it. *)
          let exp_step_limit =
            match step_limit with
            | Some l -> l
            | None -> (base.Machine.r_steps * 10) + 10_000
          in
          let exps =
            List.map
              (fun (site, ri, sel) ->
                let bit = ((site * 13) + (ri * 7)) mod 32 in
                let inject =
                  { Machine.ij_site = site; ij_sel = sel; ij_bit = bit }
                in
                let fr =
                  Machine.run ~step_limit:exp_step_limit ~inject
                    subj.s_plan_rmt
                in
                let verdict () = assess subj ~subject_run:fr ~reference:base in
                let outcome, store_site =
                  if not fr.Machine.r_injected then (Not_exercised, -1)
                  else
                    match fr.Machine.r_outcome with
                    | Machine.Trapped _ -> (
                        match verdict () with
                        | `Corrupt d -> (Undetected, d.d_store_site)
                        | `Equal | `Suppressed -> (Detected, -1))
                    | Machine.Hung -> (
                        match verdict () with
                        | `Corrupt d -> (Undetected, d.d_store_site)
                        | `Equal | `Suppressed -> (Timeout, -1))
                    | Machine.Finished -> (
                        match verdict () with
                        | `Equal -> (Masked, -1)
                        | `Corrupt d -> (Undetected, d.d_store_site)
                        | `Suppressed -> (Degraded, -1))
                in
                { x_site = site; x_replica = ri; x_bit = bit;
                  x_outcome = outcome; x_store_site = store_site })
              chosen
          in
          let escapes =
            List.filter_map
              (fun x ->
                if x.x_outcome = Undetected then
                  Some
                    (Escaped
                       {
                         inj_site = x.x_site;
                         replica = x.x_replica;
                         bit = x.x_bit;
                         store_site = x.x_store_site;
                       })
                else None)
              exps
          in
          finish (refinement @ escapes) exps)

let ok r = r.res_violations = []
