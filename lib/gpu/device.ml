(** The device: buffer management, work-group dispatch, the per-cycle
    issue loop, performance counters, power-window sampling and fault
    injection.

    The scheduling model follows GCN: each compute unit owns four SIMD
    units; on cycle [c] the SIMD [c mod 4] gets an issue turn, during
    which its resident wavefronts (up to 10) may each issue at most one
    instruction — one vector ALU op (occupying the SIMD for 4 cycles, 16
    for transcendentals), plus at most one vector-memory, one LDS and one
    scalar op to the CU-shared units. Wavefronts are scoreboarded:
    an instruction issues only when its operands' producing loads have
    completed, which is what lets waves hide each other's memory latency —
    the effect the paper's memory-bound kernels exploit to get cheap RMT.

    The simulator is cycle-stepped but skips ahead over provably idle
    periods, so spin-heavy Inter-Group RMT kernels remain tractable.

    The issue loop works from a per-site table ({!Wave.decode}) built once
    per launch: the scoreboard check, the wake-time fold, the unit choice
    and the destination all read it instead of re-examining the
    instruction. Each wave gets its scheduler slot and memory interface
    once, at dispatch; the per-CU schedule keeps one ordered sub-array
    per SIMD, so a scan visits only the waves of the SIMD holding the
    turn, and register files of completed groups are zero-filled and
    reused.

    Accounting is per site: the issue loop charges busy cycles, issues,
    write-stall cycles and spin polls once, to the instruction site's
    slot in the launch's {!Gpu_prof.Collector}, and the matching
    {!Counters} fields are derived from the per-site sums.

    A launch in progress is one record ({!Launch.t}) rather than the
    locals of a function, so it can stop at a cycle, resume, and fork
    into an independent deep copy on a copy of the device: fault
    campaigns simulate the fault-free run once and fork each injected
    run from it. *)

open Gpu_ir.Types
module Regpressure = Gpu_ir.Regpressure
module Uniformity = Gpu_ir.Uniformity
module F32 = Gpu_ir.F32
module Site = Gpu_ir.Site
module Prov = Gpu_prof.Provenance

type buffer = { addr : int; size : int }
type arg = A_buf of buffer | A_i32 of int | A_f32 of float

type outcome =
  | Finished
  | Detected  (** an RMT output comparison fired a trap *)
  | Crashed of string
  | Hung

type inject_target = T_vgpr | T_sgpr | T_lds | T_l1
type inject_plan = { at_cycle : int; target : inject_target; iseed : int }

type result = {
  cycles : int;
  outcome : outcome;
  counters : Counters.t;
  windows : Counters.t array;  (** per-power-window event deltas *)
  occupancy : Occupancy.t;
  usage : Regpressure.usage;
  groups_completed : int;
  inject_applied : bool;
  injected_at : int option;  (** cycle the fault actually landed *)
  detected_at : int option;  (** cycle an output comparison trapped *)
  profile : Gpu_prof.Collector.t;
      (** per-site accounting; the issue-side [counters] are its sums *)
  events : Gpu_trace.Sink.record list;
      (** scheduler events in simulation order; [[]] unless traced *)
}

type t = {
  cfg : Config.t;
  image : Image.t;  (** sparse; shared with each launch's {!Memsys} *)
  mutable alloc_ptr : int;
  san : Gpu_san.Shadow.t option;
      (** dynamic sanitizer shadow, fixed at creation so it tracks every
          allocation range and host write. [None] (the default) keeps
          every hook dormant. *)
  mutable spare_waves : Wave.t list;
      (** waves of the last launch, whose register files the next launch
          of a kernel with as many registers reuses *)
}

let create ?san (cfg : Config.t) =
  {
    cfg;
    image = Image.create cfg.memory_bytes;
    alloc_ptr = 256;
    san;
    spare_waves = [];
  }

let sanitizer dev = dev.san

(* The copy shares nothing mutable with [dev]; recycled register files
   are zero-filled anyway, so the copy starts with no spare waves. *)
let fork dev =
  {
    dev with
    image = Image.copy dev.image;
    san = Option.map Gpu_san.Shadow.copy dev.san;
    spare_waves = [];
  }

let resident_pages dev = Image.resident_pages dev.image

(* ------------------------------------------------------------------ *)
(* Buffers                                                             *)
(* ------------------------------------------------------------------ *)

let align_up v a = (v + a - 1) / a * a

exception Out_of_device_memory of int

let alloc dev bytes =
  if bytes < 0 then
    invalid_arg (Printf.sprintf "Device.alloc: negative size %d" bytes);
  let addr = align_up dev.alloc_ptr 256 in
  if addr + bytes > Image.size dev.image then raise (Out_of_device_memory bytes);
  dev.alloc_ptr <- addr + bytes;
  (match dev.san with
  | Some s -> Gpu_san.Shadow.note_alloc s ~addr ~size:bytes
  | None -> ());
  { addr; size = bytes }

let check_idx buf i =
  if i < 0 || (i * 4) + 4 > buf.size then
    invalid_arg (Printf.sprintf "buffer index %d out of range" i)

let write_i32 dev buf i v =
  check_idx buf i;
  (match dev.san with
  | Some s -> Gpu_san.Shadow.host_write s (buf.addr + (i * 4))
  | None -> ());
  Image.write32 dev.image (buf.addr + (i * 4)) v

let read_i32 dev buf i =
  check_idx buf i;
  F32.norm (Image.read32 dev.image (buf.addr + (i * 4)))

let write_f32 dev buf i x = write_i32 dev buf i (F32.of_float x)
let read_f32 dev buf i = F32.to_float (read_i32 dev buf i)

let write_i32_array dev buf arr = Array.iteri (fun i v -> write_i32 dev buf i v) arr
let write_f32_array dev buf arr = Array.iteri (fun i x -> write_f32 dev buf i x) arr
let read_i32_array dev buf n = Array.init n (fun i -> read_i32 dev buf i)
let fill_i32 dev buf n v = for i = 0 to n - 1 do write_i32 dev buf i v done

(* ------------------------------------------------------------------ *)
(* Run-time structures                                                 *)
(* ------------------------------------------------------------------ *)

type grp = {
  g_index : int;
  view : Geom.group_view;
  lds_mem : Bytes.t;
  g_waves : Wave.t array;
  mutable g_slots : slot array;  (** one per wave, made at dispatch *)
  mutable barrier_arrived : int;
  mutable retired_waves : int;
  g_lds_account : int;  (** LDS bytes charged to the CU (incl. inflation) *)
}

(* A resident wave's scheduler entry, made once at dispatch together with
   its memory interface. A wave blocked on the scoreboard or a busy unit
   is parked until [park_until], the cycle its operands or the unit free
   up: until then every visit is the same sighting, charged to
   [park_obs.(park_site)]. That is exact because a wave's [pending] and
   [ready_at] change only when it issues, a unit's busy-until only when
   something issues on it (nothing can while it is busy), and a flip
   changes register values, not readiness. A forked launch gets fresh,
   unparked slots that re-derive the same park on their first visit. *)
and slot = {
  w : Wave.t;
  g : grp;
  mem : Wave.mem_ops;
  mutable live : bool;
  mutable park_until : int;
  mutable park_obs : int array;
  mutable park_site : int;
}

type cu_state = {
  cu_id : int;
  mutable groups : grp list;
  mutable lds_used : int;
  simd_waves : int array;
  simd_vgprs : int array;
  simd_sgprs : int array;
  simd_busy_until : int array;
  simd_running : int array;  (** waves in state [Running], per SIMD *)
  mutable salu_busy_until : int;
  mutable lds_busy_until : int;
  mutable sched : slot array;
      (** the waves not yet retired at the last dispatch or group
          retirement, in dispatch order; a round-robin scan starts at
          position [now mod length] *)
  simd_pos : int array array;
      (** per SIMD, the ascending positions in [sched] of its waves *)
  mutable sched_gen : int;  (** bumped whenever [sched] is rebuilt *)
  mutable dispatch_full : bool;
      (** the last dispatch attempt found no room; stays valid until a
          wave retires, since only retirement frees resources *)
  mutable wake : int;
  mutable wstall_counted_until : int;
      (** write-stall cycles are charged as blocked spans; this marks the
          end of the last span already credited, so overlapping scans of
          one episode never double-count *)
}

(* State of the scan in progress (one per launch: scans never nest). *)
type scan = {
  mutable s_wake : int;  (** earliest future cycle noted so far *)
  mutable valu_used : bool;
  mutable vmem_used : bool;
  mutable lds_issued : bool;
  mutable salu_used : bool;
  mutable events : bool;  (** a retirement or barrier release happened *)
}

exception Trap_detected

(* Which hardware structure currently holds the injected corrupted value.
   Tracked only while a provenance record is attached and only until the
   first consuming instruction is found; back to [Taint_none] once the
   value is overwritten unread or its wave or group retires. *)
type taint =
  | Taint_none
  | Taint_reg of { t_wave : Wave.t; t_reg : int; t_lanes : int64 }
  | Taint_lds of { t_grp : grp; t_addr : int }
      (** word-aligned byte address within the group's LDS *)
  | Taint_l1

(* ------------------------------------------------------------------ *)
(* Launch                                                              *)
(* ------------------------------------------------------------------ *)

type launch_opts = {
  usage_override : Regpressure.usage option;
      (** replace the estimated resource usage (the paper's "artificially
          inflate the resource usage" component-analysis experiment) *)
  trace : bool;
      (** record scheduler events into [result.events]; [false] (the
          default) keeps the issue loop free of event allocation *)
  provenance : Gpu_prof.Provenance.t option;
      (** fault-propagation record filled in during an injected run:
          where the flip landed, the first consuming instruction site,
          and the flip-to-detect distance *)
  scan_every_cycle : bool;
      (** debug: disable idle skip-ahead and scan every CU every cycle.
          Slower but timing-equivalent; used to cross-check the stall
          accounting the skip-ahead path must reproduce. *)
}

let default_opts =
  {
    usage_override = None;
    trace = false;
    provenance = None;
    scan_every_cycle = false;
  }

let atomic_eval op old v =
  let uo = F32.to_u old and uv = F32.to_u v in
  match op with
  | A_add -> F32.norm (old + v)
  | A_sub -> F32.norm (old - v)
  | A_xchg -> v
  | A_max_u -> if uo >= uv then old else v
  | A_min_u -> if uo <= uv then old else v
  | A_poll -> old  (* tagged spin-poll: an L2-visible read, no write *)


(* ------------------------------------------------------------------ *)
(* A launch in progress                                                *)
(* ------------------------------------------------------------------ *)

type device = t

module Launch = struct
  let fork_device = fork

  type t = {
    dev : device;
    cfg : Config.t;
    (* fixed at creation, shared by forks *)
    kernel : kernel;
    usage : Regpressure.usage;
    occupancy : Occupancy.t;
    div : bool array;
    abody : Site.astmt list;
    code : Wave.decoded array;
        (** per-site decoded table: what the issue loop needs of each
            static instruction *)
    lds_layout : (string * int) list;
    lds_total : int;
    lds_account : int;
    nd : Geom.ndrange;
    group_items : int;
    waves_per_group : int;
    total_groups : int;
    arg_values : int array;
    tracing : bool;
        (** events are only emitted behind this guard, so an untraced run
            allocates none *)
    prov_on : bool;
    san_on : bool;
        (** one test guards every sanitizer hook in the issue loop; the
            shadow only observes, so a sanitized run is timing- and
            output-identical *)
    scan_every_cycle : bool;
    (* mutable state, deep-copied by [fork] *)
    counters : Counters.t;
    ms : Memsys.t;
    cus : cu_state array;
    prof : Gpu_prof.Collector.t;
    mutable prov : Prov.t;
    sc : scan;
    mutable on_branch : unit -> unit;
    mutable on_cond : Wave.t -> bool -> value -> unit;
    mutable rev_events : Gpu_trace.Sink.record list;
    mutable next_group : int;
    mutable groups_completed : int;
    mutable dispatch_rr : int;
    mutable free_waves : Wave.t list;
        (** waves of completed groups (and of the device's previous
            launch), whose register files are reused *)
    mutable inject_pending : inject_plan option;
    mutable inject_applied : bool;
    mutable injected_at : int option;
    mutable detected_at : int option;
    mutable rng : int;
    mutable taint : taint;
    mutable prov_site : int;
        (** site at the head of the issuing wave, consulted by the memory
            closures when they observe a tainted read *)
    mutable prov_now : int;
    mutable stop_when_dead : bool;
    mutable windows : Counters.t list;  (** closed power windows, last first *)
    mutable last_window : Counters.t;
    mutable next_window : int;
    mutable cycle : int;  (** the cycle the next iteration simulates *)
    mutable outcome : outcome;
    mutable ended : bool;
  }

  let emit l at ev = l.rev_events <- { Gpu_trace.Sink.at; ev } :: l.rev_events

  let rand l m =
    l.rng <- ((l.rng * 1103515245) + 12345) land 0x3FFFFFFF;
    if m <= 0 then 0 else l.rng mod m

  (* Busy cycles, issues, write-stall cycles and spin polls are charged
     to their site only; [sum_sites] derives the matching [counters]
     fields, and runs wherever [counters] is read: at each power-window
     boundary and at launch end. *)
  let sum_sites l =
    let module C = Gpu_prof.Collector in
    let prof = l.prof and counters = l.counters in
    let valu = ref 0 and salu = ref 0 and vmem = ref 0 and lds = ref 0 in
    Array.iter
      (fun (d : Wave.decoded) ->
        let n = prof.issues.(d.site) in
        match d.unit_ with
        | Wave.U_valu -> valu := !valu + n
        | Wave.U_salu -> salu := !salu + n
        | Wave.U_vmem -> vmem := !vmem + n
        | Wave.U_lds -> lds := !lds + n)
      l.code;
    counters.valu_insts <- !valu;
    counters.salu_insts <- !salu;
    counters.vmem_insts <- !vmem;
    counters.lds_insts <- !lds;
    counters.valu_busy <- C.sum prof.valu_busy;
    counters.salu_busy <- C.sum prof.salu_busy;
    counters.mem_unit_busy <- C.sum prof.mem_unit_busy;
    counters.lds_busy <- C.sum prof.lds_busy;
    counters.write_stalled <- C.sum prof.write_stalled;
    counters.spin_iterations <- C.sum prof.spin_iterations

  (* -------------------- provenance -------------------- *)
  let issued_insts l = Gpu_prof.Collector.sum l.prof.issues

  let prov_record_use l =
    if l.prov.first_use = None && l.prov_site >= 0 then
      l.prov.first_use <-
        Some
          {
            Prov.u_site = l.prov_site;
            u_cycle = l.prov_now;
            u_inst_index = issued_insts l;
            u_inst = Gpu_ir.Pp.string_of_inst l.code.(l.prov_site).inst;
          }

  (* Register-taint bookkeeping at issue: a read of the tainted lanes is
     consumption; a full overwrite of the tainted lanes before any read
     kills the fault (dead-value masking). Swizzle reads across lanes,
     so it consumes regardless of the tainted lane's active bit. *)
  let prov_check_inst l (w : Wave.t) (d : Wave.decoded) =
    match l.taint with
    | Taint_reg { t_wave; t_reg; t_lanes }
      when t_wave == w && l.prov.first_use = None ->
        let is_swizzle = match d.inst with Swizzle _ -> true | _ -> false in
        let reads =
          Array.mem t_reg d.uses
          && (is_swizzle || Int64.logand w.Wave.mask t_lanes <> 0L)
        in
        if reads then prov_record_use l
        else if
          d.def = t_reg
          && Int64.logand (Int64.lognot w.Wave.mask) t_lanes = 0L
        then begin
          l.taint <- Taint_none;
          l.prov.overwritten <- true
        end
    | _ -> ()

  (* A branch reads its condition in [Wave.peek], outside the issue
     path: reading the tainted lanes there is consumption too, recorded
     with no site and the branch's listing text. *)
  let prov_check_cond l (w : Wave.t) loop (c : value) =
    match (l.taint, c) with
    | Taint_reg { t_wave; t_reg; t_lanes }, Reg r
      when t_wave == w && r = t_reg && l.prov.first_use = None
           && Int64.logand w.Wave.mask t_lanes <> 0L ->
        l.prov.first_use <-
          Some
            {
              Prov.u_site = -1;
              u_cycle = l.prov_now;
              u_inst_index = issued_insts l;
              u_inst =
                (if loop then "loop break unless " else "if ")
                ^ Gpu_ir.Pp.string_of_value c;
            }
    | _ -> ()

  (* The launch's hooks into {!Wave.peek}, which close over [l]. *)
  let hook l =
    let counters = l.counters in
    l.on_branch <- (fun () -> counters.branches <- counters.branches + 1);
    l.on_cond <- (if l.prov_on then prov_check_cond l else fun _ _ _ -> ())

  (* A fault is dead once nothing can read it any more, so every later
     cycle equals the fault-free run: its holder was overwritten before
     any read or went away (the wave or group retired, the L1 line was
     evicted, refilled or stored to, or the launch ended). *)
  let flip_dead l =
    l.prov_on && l.inject_applied
    && l.prov.first_use = None
    && ((l.ended && l.outcome = Finished)
       ||
       match l.taint with
       | Taint_none -> true
       | Taint_l1 -> (
           match l.ms.Memsys.poison with
           | Some p -> not p.Memsys.p_active
           | None -> true)
       | Taint_reg _ | Taint_lds _ -> false)

  (* -------------------- memory interface -------------------- *)
  let make_mem_ops l (g : grp) ~(w : Wave.t) ~cu_id : Wave.mem_ops =
    let ms = l.ms in
    let g_lds = g.lds_mem in
    let view = g.view in
    let prov_on = l.prov_on in
    let msan =
      match l.dev.san with
      | None -> None
      | Some sh ->
          let lds_bytes = Bytes.length g_lds in
          Some
            (fun kind sp addr lane value ->
              let group = g.g_index
              and wave = w.Wave.wid
              and item = w.Wave.flat_base + lane in
              let store = kind = Wave.MStore in
              let kind =
                match kind with
                | Wave.MLoad -> Gpu_san.Shadow.Read
                | Wave.MStore -> Gpu_san.Shadow.Write
                | Wave.MAtomic when value = 0 -> Gpu_san.Shadow.Atomic_read
                | Wave.MAtomic -> Gpu_san.Shadow.Atomic_rw
              in
              match sp with
              | Global ->
                  (* a store of the word's current contents is benign:
                     unobservable, hence race-free (read the old value
                     only for in-bounds addresses — OOB stores must
                     reach the shadow's range check, not fault here) *)
                  let unchanged =
                    store
                    && addr land 3 = 0
                    && Gpu_san.Shadow.in_some_range sh addr
                    && Memsys.read32 ms addr = value
                  in
                  Gpu_san.Shadow.global_access sh ~group ~wave ~item ~kind
                    ~unchanged ~addr
              | Local ->
                  let unchanged =
                    store
                    && addr >= 0
                    && addr land 3 = 0
                    && addr + 4 <= lds_bytes
                    && Int32.to_int (Bytes.get_int32_le g_lds addr) = value
                  in
                  Gpu_san.Shadow.lds_access sh ~group ~wave ~item ~kind
                    ~unchanged ~addr ~lds_bytes)
    in
    let lds_check addr what =
      if addr < 0 || addr + 4 > Bytes.length g_lds then
        raise
          (Memsys.Fault (Printf.sprintf "LDS %s out of bounds at %d" what addr));
      if addr land 3 <> 0 then
        raise (Memsys.Fault (Printf.sprintf "unaligned LDS %s at %d" what addr))
    in
    let lds_read addr =
      lds_check addr "load";
      if prov_on then
        (match l.taint with
        | Taint_lds { t_grp; t_addr }
          when t_grp == g && addr = t_addr && l.prov.first_use = None ->
            prov_record_use l
        | _ -> ());
      F32.norm (Int32.to_int (Bytes.get_int32_le g_lds addr))
    in
    let lds_write addr v =
      lds_check addr "store";
      if prov_on then
        (match l.taint with
        | Taint_lds { t_grp; t_addr } when t_grp == g && addr = t_addr ->
            (* overwrite refreshes the word; a never-read fault is dead *)
            l.taint <- Taint_none;
            if l.prov.first_use = None then l.prov.overwritten <- true
        | _ -> ());
      Bytes.set_int32_le g_lds addr (Int32.of_int v)
    in
    let global_load a =
      if prov_on then begin
        match l.taint with
        | Taint_l1 when l.prov.first_use = None ->
            (* poison is applied on the cached path only: a load whose
               value differs from the clean image consumed the fault *)
            let clean = Memsys.read32 ms a in
            let v = Memsys.load32 ms ~cu:cu_id a in
            if v <> clean then prov_record_use l;
            v
        | _ -> Memsys.load32 ms ~cu:cu_id a
      end
      else Memsys.load32 ms ~cu:cu_id a
    in
    let arg_values = l.arg_values and lds_layout = l.lds_layout in
    {
      mload =
        (fun sp a ->
          match sp with
          | Global -> global_load a
          | Local -> lds_read a);
      mstore =
        (fun sp a v ->
          match sp with
          | Global -> Memsys.store32 ms ~cu:cu_id a v
          | Local -> lds_write a v);
      matomic =
        (fun op sp a v ->
          match sp with
          | Global ->
              let old = Memsys.read32 ms a in
              (* a poll reads without writing back (no poison refresh) *)
              if op <> A_poll then
                Memsys.store32 ms ~cu:cu_id a (atomic_eval op old v);
              old
          | Local ->
              let old = lds_read a in
              if op <> A_poll then lds_write a (atomic_eval op old v);
              old);
      mcas =
        (fun sp a e n ->
          match sp with
          | Global ->
              let old = Memsys.read32 ms a in
              if old = e then Memsys.store32 ms ~cu:cu_id a n;
              old
          | Local ->
              let old = lds_read a in
              if old = e then lds_write a n;
              old);
      arg = (fun idx -> arg_values.(idx));
      lds_base =
        (fun name ->
          match List.assoc_opt name lds_layout with
          | Some o -> o
          | None -> raise (Memsys.Fault ("unknown LDS allocation " ^ name)));
      view;
      msan;
    }

  (* A group's scheduler slots, one per wave, each with its memory
     interface. *)
  let make_slots l (g : grp) ~cu_id live =
    g.g_slots <-
      Array.mapi
        (fun i w ->
          { w; g; mem = make_mem_ops l g ~w ~cu_id; live = live i;
            park_until = 0; park_obs = [||]; park_site = 0 })
        g.g_waves

  (* -------------------- group dispatch -------------------- *)

  (* Rebuilt only on dispatch and group retirement; the slots persist.
     The per-SIMD positions let a scan visit only the waves of the SIMD
     holding the turn. *)
  let rebuild_sched l cu =
    let waiting g =
      List.filter
        (fun s -> s.w.Wave.state <> Wave.Retired)
        (Array.to_list g.g_slots)
    in
    let sched = Array.of_list (List.concat_map waiting cu.groups) in
    let positions = List.init (Array.length sched) Fun.id in
    cu.sched <- sched;
    for simd = 0 to l.cfg.simds_per_cu - 1 do
      cu.simd_pos.(simd) <-
        Array.of_list
          (List.filter (fun i -> sched.(i).w.Wave.simd = simd) positions)
    done;
    cu.sched_gen <- cu.sched_gen + 1

  (* Greedy wave-to-SIMD placement; returns assignments or None. *)
  let place_waves l cu =
    let cfg = l.cfg and usage = l.usage in
    let w = Array.copy cu.simd_waves
    and v = Array.copy cu.simd_vgprs
    and s = Array.copy cu.simd_sgprs in
    let assign = Array.make l.waves_per_group (-1) in
    let ok = ref true in
    for i = 0 to l.waves_per_group - 1 do
      (* least-loaded SIMD that fits *)
      let best = ref (-1) in
      for simd = 0 to cfg.simds_per_cu - 1 do
        if
          w.(simd) < cfg.max_waves_per_simd
          && v.(simd) + usage.vgprs <= cfg.vgprs_per_simd
          && s.(simd) + usage.sgprs <= cfg.sgprs_per_simd
          && (!best < 0 || w.(simd) < w.(!best))
        then best := simd
      done;
      if !best < 0 then ok := false
      else begin
        assign.(i) <- !best;
        w.(!best) <- w.(!best) + 1;
        v.(!best) <- v.(!best) + usage.vgprs;
        s.(!best) <- s.(!best) + usage.sgprs
      end
    done;
    if !ok then Some assign else None

  let new_wave l ~wid ~nlanes ~flat_base ~simd =
    match l.free_waves with
    | old :: rest ->
        l.free_waves <- rest;
        Wave.recycle old ~wid ~nlanes ~flat_base ~body:l.abody ~simd
    | [] ->
        Wave.create ~wid ~nregs:l.kernel.nregs ~nlanes ~flat_base ~body:l.abody
          ~simd

  let try_dispatch_on l cu now =
    let cfg = l.cfg in
    if
      l.next_group < l.total_groups
      && (not cu.dispatch_full)
      && List.length cu.groups < cfg.max_groups_per_cu
      && cu.lds_used + l.lds_account <= cfg.lds_per_cu
    then
      match place_waves l cu with
      | None ->
          cu.dispatch_full <- true;
          false
      | Some assign ->
          let gi = l.next_group in
          l.next_group <- gi + 1;
          let view : Geom.group_view =
            { nd = l.nd; gcoord = Geom.group_coord l.nd gi }
          in
          let waves =
            Array.init l.waves_per_group (fun wi ->
                let flat_base = wi * cfg.wave_size in
                let nlanes = min cfg.wave_size (l.group_items - flat_base) in
                new_wave l ~wid:wi ~nlanes ~flat_base ~simd:assign.(wi))
          in
          let g =
            {
              g_index = gi;
              view;
              lds_mem = Bytes.make (max l.lds_total 4) '\000';
              g_waves = waves;
              g_slots = [||];
              barrier_arrived = 0;
              retired_waves = 0;
              g_lds_account = l.lds_account;
            }
          in
          make_slots l g ~cu_id:cu.cu_id (fun _ -> true);
          cu.groups <- cu.groups @ [ g ];
          cu.lds_used <- cu.lds_used + l.lds_account;
          Array.iter
            (fun simd ->
              cu.simd_waves.(simd) <- cu.simd_waves.(simd) + 1;
              cu.simd_running.(simd) <- cu.simd_running.(simd) + 1;
              cu.simd_vgprs.(simd) <- cu.simd_vgprs.(simd) + l.usage.vgprs;
              cu.simd_sgprs.(simd) <- cu.simd_sgprs.(simd) + l.usage.sgprs)
            assign;
          l.counters.groups_launched <- l.counters.groups_launched + 1;
          l.counters.waves_launched <-
            l.counters.waves_launched + l.waves_per_group;
          if l.tracing then
            emit l now
              (Gpu_trace.Sink.Group_dispatch
                 { cu = cu.cu_id; group = gi; waves = l.waves_per_group });
          rebuild_sched l cu;
          cu.wake <- now;
          true
    else begin
      if l.next_group < l.total_groups then cu.dispatch_full <- true;
      false
    end

  let try_dispatch l now =
    let progress = ref true in
    while !progress && l.next_group < l.total_groups do
      progress := false;
      let n = l.cfg.n_cus in
      let start = l.dispatch_rr in
      let placed = ref false in
      let i = ref 0 in
      while (not !placed) && !i < n do
        let cu = l.cus.((start + !i) mod n) in
        if try_dispatch_on l cu now then begin
          placed := true;
          l.dispatch_rr <- (start + !i + 1) mod n
        end;
        incr i
      done;
      if !placed then progress := true
    done

  (* -------------------- retire / barrier -------------------- *)
  (* [current] is false when a group retirement earlier in the same scan
     rebuilt [cu.sched]: the slot then also sits in the new schedule and
     stays live there until a scan next reaches it. A fault held by the
     retiring wave or group dies with it. *)
  let retire_wave l cu (s : slot) ~current now =
    if current then s.live <- false;
    if s.w.Wave.retire_accounted then ()
    else begin
      s.w.Wave.retire_accounted <- true;
      cu.dispatch_full <- false;
      let simd = s.w.Wave.simd in
      cu.simd_waves.(simd) <- cu.simd_waves.(simd) - 1;
      cu.simd_running.(simd) <- cu.simd_running.(simd) - 1;
      cu.simd_vgprs.(simd) <- cu.simd_vgprs.(simd) - l.usage.vgprs;
      cu.simd_sgprs.(simd) <- cu.simd_sgprs.(simd) - l.usage.sgprs;
      (match l.taint with
      | Taint_reg { t_wave; _ } when t_wave == s.w -> l.taint <- Taint_none
      | _ -> ());
      s.g.retired_waves <- s.g.retired_waves + 1;
      if s.g.retired_waves = Array.length s.g.g_waves then begin
        cu.groups <- List.filter (fun g -> g != s.g) cu.groups;
        cu.lds_used <- cu.lds_used - s.g.g_lds_account;
        l.groups_completed <- l.groups_completed + 1;
        (match l.taint with
        | Taint_lds { t_grp; _ } when t_grp == s.g -> l.taint <- Taint_none
        | _ -> ());
        if l.tracing then
          emit l now
            (Gpu_trace.Sink.Group_retire { cu = cu.cu_id; group = s.g.g_index });
        rebuild_sched l cu;
        l.free_waves <-
          Array.fold_left (fun acc w -> w :: acc) l.free_waves s.g.g_waves
      end
    end

  let arrive_barrier l cu (g : grp) ~wid now =
    g.barrier_arrived <- g.barrier_arrived + 1;
    if l.tracing then
      emit l now
        (Gpu_trace.Sink.Barrier_arrive
           { cu = cu.cu_id; group = g.g_index; wave = wid });
    if g.barrier_arrived = Array.length g.g_waves then begin
      g.barrier_arrived <- 0;
      Array.iter
        (fun (w : Wave.t) ->
          if w.state = Wave.At_barrier then begin
            Wave.release_barrier w;
            cu.simd_running.(w.simd) <- cu.simd_running.(w.simd) + 1
          end)
        g.g_waves;
      l.counters.barriers_executed <- l.counters.barriers_executed + 1;
      (match l.dev.san with
      | Some sh -> Gpu_san.Shadow.barrier_release sh ~group:g.g_index
      | None -> ());
      if l.tracing then
        emit l now
          (Gpu_trace.Sink.Barrier_release { cu = cu.cu_id; group = g.g_index });
      true
    end
    else false

  (* -------------------- issue -------------------- *)
  let note l now t = if t > now && t < l.sc.s_wake then l.sc.s_wake <- t

  let stall l cu (s : slot) now site cause =
    emit l now
      (Gpu_trace.Sink.Stall
         { cu = cu.cu_id; group = s.g.g_index; wave = s.w.Wave.wid; site; cause })

  let issued l cu (s : slot) now unit_ busy =
    emit l now
      (Gpu_trace.Sink.Wave_issue
         {
           cu = cu.cu_id;
           simd = s.w.Wave.simd;
           group = s.g.g_index;
           wave = s.w.Wave.wid;
           unit_;
           busy;
         })

  (* One sighting of [s] blocked until [until] on the scoreboard or a busy
     unit, charged to [obs.(site)]; parks the slot there (see [slot]). *)
  let blocked l cu s now obs site until =
    if l.tracing then
      stall l cu s now site
        (if obs == l.prof.stall_scoreboard then Gpu_trace.Sink.Scoreboard
         else Gpu_trace.Sink.Unit_busy);
    obs.(site) <- obs.(site) + 1;
    note l now until;
    s.park_until <- until;
    s.park_obs <- obs;
    s.park_site <- site

  let unit_busy l cu s now site until =
    blocked l cu s now l.prof.stall_unit_busy site until

  (* Try to issue the wave's ready instruction [d] on its unit; true when
     it issued. *)
  let issue l cu (s : slot) now (d : Wave.decoded) =
    let cfg = l.cfg and prof = l.prof and counters = l.counters and sc = l.sc in
    let ms = l.ms in
    let w = s.w and site = d.site and simd = s.w.Wave.simd in
    match d.unit_ with
    | Wave.U_valu ->
        if (not sc.valu_used) && cu.simd_busy_until.(simd) <= now then begin
          let eff = Wave.exec w d ~mem:s.mem ~line_bytes:cfg.line_bytes in
          let busy =
            match eff with
            | Wave.E_trans -> cfg.valu_trans_latency
            | _ -> cfg.valu_latency
          in
          cu.simd_busy_until.(simd) <- now + busy;
          counters.valu_lane_ops <-
            counters.valu_lane_ops + Wave.active_lanes w;
          (* charge before any trap can raise: a Detected run counts the
             trapping instruction *)
          prof.issues.(site) <- prof.issues.(site) + 1;
          prof.valu_busy.(site) <- prof.valu_busy.(site) + busy;
          if d.def >= 0 then w.Wave.ready_at.(d.def) <- now + busy;
          (match eff with
          | Wave.E_trapped ->
              l.detected_at <- Some now;
              if l.prov_on then begin
                prov_check_inst l w d;
                l.prov.detect_site <- site;
                l.prov.detect_cycle <- now;
                l.prov.detect_inst_index <- issued_insts l
              end;
              raise Trap_detected
          | _ -> ());
          if l.tracing then issued l cu s now Gpu_trace.Sink.Valu busy;
          sc.valu_used <- true;
          true
        end
        else begin
          unit_busy l cu s now site cu.simd_busy_until.(simd);
          false
        end
    | Wave.U_salu ->
        if (not sc.salu_used) && cu.salu_busy_until <= now then begin
          ignore (Wave.exec w d ~mem:s.mem ~line_bytes:cfg.line_bytes);
          cu.salu_busy_until <- now + 1;
          prof.issues.(site) <- prof.issues.(site) + 1;
          prof.salu_busy.(site) <- prof.salu_busy.(site) + 1;
          if d.def >= 0 then w.Wave.ready_at.(d.def) <- now + cfg.salu_latency;
          if l.tracing then issued l cu s now Gpu_trace.Sink.Salu 1;
          sc.salu_used <- true;
          true
        end
        else begin
          unit_busy l cu s now site cu.salu_busy_until;
          false
        end
    | Wave.U_lds ->
        if (not sc.lds_issued) && cu.lds_busy_until <= now then begin
          let eff = Wave.exec w d ~mem:s.mem ~line_bytes:cfg.line_bytes in
          cu.lds_busy_until <- now + cfg.lds_issue_cycles;
          prof.issues.(site) <- prof.issues.(site) + 1;
          prof.lds_busy.(site) <- prof.lds_busy.(site) + cfg.lds_issue_cycles;
          (match eff with
          | Wave.E_mem kind ->
              counters.lds_lane_ops <- counters.lds_lane_ops + w.Wave.mem_lanes;
              if kind = Wave.MAtomic then counters.atomics <- counters.atomics + 1
          | _ -> ());
          if d.def >= 0 then w.Wave.ready_at.(d.def) <- now + cfg.lds_latency;
          if l.tracing then
            issued l cu s now Gpu_trace.Sink.Lds cfg.lds_issue_cycles;
          sc.lds_issued <- true;
          true
        end
        else begin
          unit_busy l cu s now site cu.lds_busy_until;
          false
        end
    | Wave.U_vmem ->
        let is_store = match d.inst with Store _ -> true | _ -> false in
        if sc.vmem_used || Memsys.(ms.mem_busy_until.(cu.cu_id)) > now then begin
          unit_busy l cu s now site Memsys.(ms.mem_busy_until.(cu.cu_id));
          false
        end
        else if is_store && Memsys.store_would_stall ms ~cu:cu.cu_id ~now then begin
          (* Charge the whole blocked span at once: the backlog cannot
             change while the store is stalled, and idle skip-ahead may
             never rescan the intervening cycles. [wstall_counted_until]
             de-overlaps repeat scans of the same episode, so each blocked
             cycle is counted exactly once per CU. *)
          let until = Memsys.store_stall_until ms ~cu:cu.cu_id in
          let from =
            if cu.wstall_counted_until > now then cu.wstall_counted_until
            else now
          in
          if until > from then begin
            prof.write_stalled.(site) <-
              prof.write_stalled.(site) + (until - from);
            cu.wstall_counted_until <- until
          end;
          if l.tracing then stall l cu s now site Gpu_trace.Sink.Write_backlog;
          prof.stall_write_backlog.(site) <-
            prof.stall_write_backlog.(site) + 1;
          note l now until;
          false
        end
        else begin
          (match Wave.exec w d ~mem:s.mem ~line_bytes:cfg.line_bytes with
          | Wave.E_mem kind ->
              let lines = w.Wave.lines and nlines = w.Wave.nlines in
              let lanes = w.Wave.mem_lanes in
              (* atomics are processed at the L2: they occupy the CU's
                 vector memory unit only to issue, not per line *)
              let busy =
                if kind = Wave.MAtomic then 8
                else 4 * (if nlines > 1 then nlines else 1)
              in
              Memsys.(ms.mem_busy_until.(cu.cu_id) <- now + busy);
              prof.issues.(site) <- prof.issues.(site) + 1;
              prof.mem_unit_busy.(site) <- prof.mem_unit_busy.(site) + busy;
              (match d.inst with
              | Atomic (A_poll, _, _, _, _) ->
                  (* every active lane's flag poll is one spin iteration
                     (Per_item gives each lane its own slot) *)
                  prof.spin_iterations.(site) <-
                    prof.spin_iterations.(site) + lanes;
                  if l.tracing then stall l cu s now site Gpu_trace.Sink.Spin
              | _ -> ());
              if l.tracing then issued l cu s now Gpu_trace.Sink.Vmem busy;
              (match kind with
              | Wave.MLoad ->
                  counters.global_load_insts <- counters.global_load_insts + 1;
                  (* attribute the cache outcome of this load by delta over
                     the counters [load_timed] bumps internally *)
                  let h1 = counters.l1_hits
                  and s1 = counters.l1_misses
                  and h2 = counters.l2_hits
                  and s2 = counters.l2_misses in
                  let t = Memsys.load_timed ms ~cu:cu.cu_id ~now lines nlines in
                  prof.l1_hits.(site) <-
                    prof.l1_hits.(site) + (counters.l1_hits - h1);
                  prof.l1_misses.(site) <-
                    prof.l1_misses.(site) + (counters.l1_misses - s1);
                  prof.l2_hits.(site) <-
                    prof.l2_hits.(site) + (counters.l2_hits - h2);
                  prof.l2_misses.(site) <-
                    prof.l2_misses.(site) + (counters.l2_misses - s2);
                  if d.def >= 0 then w.Wave.ready_at.(d.def) <- t
              | Wave.MStore ->
                  counters.global_store_insts <- counters.global_store_insts + 1;
                  Memsys.store_timed ms ~cu:cu.cu_id ~now nlines
              | Wave.MAtomic ->
                  counters.atomics <- counters.atomics + 1;
                  let t = Memsys.atomic_timed ms ~cu:cu.cu_id ~now lines nlines in
                  if d.def >= 0 then w.Wave.ready_at.(d.def) <- t)
          | _ -> ());
          sc.vmem_used <- true;
          true
        end

  (* One wave of the SIMD holding the turn. [gen] is [cu.sched_gen] at
     the start of the scan. A parked slot repeats its sighting without
     peeking or re-checking the scoreboard and unit: neither outcome can
     change before [park_until] (see [slot]). Write-backlog stalls,
     barrier waits and control-flow stalls take the full path. *)
  let visit l cu now gen (s : slot) =
    if s.live then begin
      let w = s.w in
      if l.prov_on then l.prov_now <- now;
      if now < s.park_until then
        blocked l cu s now s.park_obs s.park_site s.park_until
      else
      match Wave.peek w ~now ~on_branch:l.on_branch ~on_cond:l.on_cond with
      | Wave.P_done ->
          retire_wave l cu s ~current:(cu.sched_gen = gen) now;
          l.sc.events <- true
      | Wave.P_barrier_arrived ->
          cu.simd_running.(w.Wave.simd) <- cu.simd_running.(w.Wave.simd) - 1;
          if arrive_barrier l cu s.g ~wid:w.Wave.wid now then
            l.sc.events <- true
      | Wave.P_waiting ->
          if l.tracing then
            stall l cu s now w.Wave.barrier_site Gpu_trace.Sink.Barrier_wait;
          if w.Wave.barrier_site >= 0 then
            l.prof.stall_barrier.(w.Wave.barrier_site) <-
              l.prof.stall_barrier.(w.Wave.barrier_site) + 1
      | Wave.P_stall ->
          (* control-flow operand not ready: conservative near wake *)
          note l now (now + 1)
      | Wave.P_inst ->
          let d = l.code.(w.Wave.pending) in
          let ready = Wave.ready_cycle w d in
          if ready > now then
            blocked l cu s now l.prof.stall_scoreboard d.site ready
          else begin
            if l.prov_on then l.prov_site <- d.site;
            if l.san_on then
              (match l.dev.san with
              | Some sh -> Gpu_san.Shadow.set_site sh d.site
              | None -> ());
            if issue l cu s now d then begin
              if l.prov_on then prov_check_inst l w d;
              Wave.consume w;
              w.Wave.last_issue <- now;
              note l now (now + 1)
            end
          end
    end

  (* index of the first position >= [start] in the ascending [pos] *)
  let rec first_at_or_after pos (start : int) j =
    if j < Array.length pos && pos.(j) < start then
      first_at_or_after pos start (j + 1)
    else j

  let rec other_simd_running l cu simd k =
    k < l.cfg.simds_per_cu
    && ((k <> simd && cu.simd_running.(k) > 0)
       || other_simd_running l cu simd (k + 1))

  let scan_cu l cu now =
    let sc = l.sc in
    let simd = now mod l.cfg.simds_per_cu in
    sc.s_wake <- max_int;
    sc.valu_used <- false;
    sc.vmem_used <- false;
    sc.lds_issued <- false;
    sc.salu_used <- false;
    sc.events <- false;
    (* iterate a stable snapshot: retirement may rebuild the schedule *)
    let gen = cu.sched_gen and sched = cu.sched and pos = cu.simd_pos.(simd) in
    let m = Array.length pos in
    (match l.cfg.sched_policy with
    | Config.Greedy ->
        for j = 0 to m - 1 do
          visit l cu now gen sched.(pos.(j))
        done
    | Config.Round_robin ->
        (* start at schedule position [now mod n] and wrap: a function of
           the cycle, not of how many scans ran, so idle skip-ahead cannot
           change the order *)
        let j0 = first_at_or_after pos (now mod max 1 (Array.length sched)) 0 in
        for j = j0 to m - 1 do
          visit l cu now gen sched.(pos.(j))
        done;
        for j = 0 to j0 - 1 do
          visit l cu now gen sched.(pos.(j))
        done);
    (* a running wave of another SIMD may have work within 3 cycles *)
    if sc.events || other_simd_running l cu simd 0 then note l now (now + 1);
    cu.wake <- sc.s_wake

  (* -------------------- fault injection -------------------- *)
  let resident_slots l =
    Array.to_list l.cus
    |> List.concat_map (fun cu ->
           Array.to_list cu.sched |> List.filter (fun s -> s.live))

  (* A register flip: pick a resident slot, then a register of the
     file ([scalar]: the uniform registers; otherwise the divergent ones,
     or every register when none is divergent), then for a vector
     register one lane, then the bit. A scalar register is one copy
     shared by the wavefront, so its flip is visible to every lane. *)
  let flip_reg l ~scalar =
    match resident_slots l with
    | [] -> false
    | slots -> (
        let s = List.nth slots (rand l (List.length slots)) in
        let all = List.init l.kernel.nregs Fun.id in
        let pool =
          match List.filter (fun r -> l.div.(r) <> scalar) all with
          | [] when not scalar -> all
          | regs -> regs
        in
        match pool with
        | [] -> false
        | _ ->
            let r = List.nth pool (rand l (List.length pool)) in
            let lane = if scalar then -1 else rand l s.w.Wave.nlanes in
            let bit = rand l 32 in
            for ln = 0 to s.w.Wave.nlanes - 1 do
              if scalar || ln = lane then
                Wave.set_reg s.w r ln
                  (F32.norm (Wave.get_reg s.w r ln lxor (1 lsl bit)))
            done;
            if l.prov_on then begin
              let prov = l.prov in
              l.taint <-
                Taint_reg
                  {
                    t_wave = s.w;
                    t_reg = r;
                    t_lanes =
                      (if scalar then s.w.Wave.full_mask
                       else Int64.shift_left 1L lane);
                  };
              prov.target <- Some (if scalar then Prov.S_sgpr else Prov.S_vgpr);
              prov.bit <- bit;
              prov.desc <-
                (if scalar then Printf.sprintf "s%d all lanes" r
                 else Printf.sprintf "v%d lane %d" r lane)
                ^ Printf.sprintf " (group %d, wave %d)" s.g.g_index s.w.Wave.wid
            end;
            true)

  let try_inject l target =
    let prov = l.prov in
    match target with
    | T_vgpr -> flip_reg l ~scalar:false
    | T_sgpr -> flip_reg l ~scalar:true
    | T_lds -> (
        let groups =
          Array.to_list l.cus
          |> List.concat_map (fun cu -> cu.groups)
          |> List.filter (fun g -> Bytes.length g.lds_mem >= 4)
        in
        match groups with
        | [] -> false
        | gs ->
            if l.lds_total < 4 then false
            else begin
              let g = List.nth gs (rand l (List.length gs)) in
              let byte = rand l l.lds_total in
              let bit = rand l 8 in
              let c = Char.code (Bytes.get g.lds_mem byte) in
              Bytes.set g.lds_mem byte (Char.chr (c lxor (1 lsl bit)));
              if l.prov_on then begin
                l.taint <- Taint_lds { t_grp = g; t_addr = byte land lnot 3 };
                prov.target <- Some Prov.S_lds;
                prov.bit <- ((byte land 3) * 8) + bit;
                prov.desc <-
                  Printf.sprintf "LDS byte %d (group %d)" byte g.g_index
              end;
              true
            end)
    | T_l1 ->
        let cu = rand l l.cfg.n_cus in
        let ok = Memsys.inject_l1_poison l.ms ~cu ~seed:(rand l 1_000_000_007) in
        if ok && l.prov_on then begin
          l.taint <- Taint_l1;
          match l.ms.Memsys.poison with
          | Some p ->
              prov.target <- Some Prov.S_l1;
              prov.bit <- p.Memsys.p_bit;
              prov.desc <-
                Printf.sprintf "L1 line %d word %d (CU %d)" p.Memsys.p_line
                  p.Memsys.p_word p.Memsys.p_cu
          | None -> ()
        end;
        ok

  (* -------------------- main loop -------------------- *)

  (* One iteration at cycle [l.cycle]: dispatch, a pending flip, the CU
     scans and the power window; then the next cycle to visit, which
     skips ahead when every CU is provably idle but never past [stop],
     the pending flip's cycle or the next window boundary. Stopping at a
     cycle the run would otherwise skip changes nothing: no CU is due,
     so nothing is scanned. *)
  let step l ~stop =
    let now = l.cycle in
    if now >= l.cfg.max_cycles then begin
      l.outcome <- Hung;
      l.ended <- true
    end
    else begin
      try_dispatch l now;
      (match l.inject_pending with
      | Some p when now >= p.at_cycle ->
          if try_inject l p.target then begin
            l.inject_applied <- true;
            l.injected_at <- Some now;
            if l.prov_on then begin
              l.prov.inject_cycle <- now;
              l.prov.inject_inst_index <- issued_insts l
            end;
            l.inject_pending <- None
          end
      | _ -> ());
      let cus = l.cus in
      for i = 0 to Array.length cus - 1 do
        let cu = cus.(i) in
        if l.scan_every_cycle || cu.wake <= now then scan_cu l cu now
      done;
      if now >= l.next_window then begin
        sum_sites l;
        let snap = Counters.copy l.counters in
        snap.Counters.cycles <- now;
        l.windows <- Counters.delta snap l.last_window :: l.windows;
        l.last_window <- snap;
        l.next_window <- l.next_window + l.cfg.window_cycles
      end;
      if l.groups_completed >= l.total_groups then l.ended <- true
      else begin
        (* advance: skip ahead when every CU is provably idle *)
        let nxt = ref (now + 1) in
        let min_wake = ref max_int in
        for i = 0 to Array.length cus - 1 do
          if cus.(i).wake < !min_wake then min_wake := cus.(i).wake
        done;
        if
          (not l.scan_every_cycle)
          && !min_wake > now + 1
          && !min_wake < max_int
        then nxt := !min_wake;
        if !min_wake = max_int && l.next_group >= l.total_groups then begin
          (* nothing can ever run again: deadlock (e.g. barrier with
             retired waves). Treat as hang. *)
          l.outcome <- Hung;
          l.ended <- true
        end;
        (match l.inject_pending with
        | Some p when p.at_cycle > now && p.at_cycle < !nxt ->
            nxt := p.at_cycle
        | _ -> ());
        if stop > now && stop < !nxt then nxt := stop;
        if l.next_window < !nxt then nxt := l.next_window;
        l.cycle <- !nxt
      end
    end

  let run_until l c =
    try
      while
        (not l.ended) && l.cycle < c
        && not (l.stop_when_dead && flip_dead l)
      do
        step l ~stop:c
      done
    with
    | Trap_detected ->
        l.outcome <- Detected;
        l.ended <- true
    | Memsys.Fault msg ->
        l.outcome <- Crashed msg;
        l.ended <- true

  let create ?(opts = default_opts) (dev : device) (kernel : kernel)
      ~(nd : Geom.ndrange) ~(args : arg list) =
    let cfg = dev.cfg in
    Geom.validate nd;
    Gpu_ir.Verify.check kernel;
    let group_items = Geom.group_items nd in
    if group_items > cfg.max_workgroup_size then
      invalid_arg
        (Printf.sprintf "work-group size %d exceeds device maximum %d"
           group_items cfg.max_workgroup_size);
    if List.length args <> param_count kernel then
      invalid_arg "argument count does not match kernel parameters";
    let usage =
      match opts.usage_override with
      | Some u -> u
      | None -> Regpressure.analyze kernel
    in
    let occupancy = Occupancy.compute cfg ~usage ~group_items in
    if occupancy.groups_per_cu = 0 then
      invalid_arg "kernel does not fit on a compute unit (occupancy 0)";
    let div = Uniformity.analyze kernel in
    let counters = Counters.create () in
    (* LDS layout: sequential allocation in declaration order. *)
    let lds_layout =
      let off = ref 0 in
      List.map
        (fun (name, sz) ->
          let o = !off in
          off := !off + sz;
          (name, o))
        kernel.lds_allocs
    in
    let lds_total = Gpu_ir.Types.lds_bytes kernel in
    (* The annotated body is built once per launch and shared by every
       wave; site ids are dense program-order indices, so the same kernel
       always charges into the same collector slots. *)
    let abody, nsites = Site.annotate kernel.body in
    let code =
      Wave.decode
        ~scalar:(Uniformity.inst_scalarizable div)
        ~lds_offset:(fun name -> List.assoc_opt name lds_layout)
        (Site.insts kernel)
    in
    (match dev.san with Some s -> Gpu_san.Shadow.begin_launch s | None -> ());
    let free_waves =
      List.filter
        (fun (w : Wave.t) -> Array.length w.ready_at = max kernel.nregs 1)
        dev.spare_waves
    in
    dev.spare_waves <- [];
    let l =
      {
        dev;
        cfg;
        kernel;
        usage;
        occupancy;
        div;
        abody;
        code;
        lds_layout;
        lds_total;
        lds_account = max lds_total usage.lds;
        nd;
        group_items;
        waves_per_group = Config.waves_per_group cfg group_items;
        total_groups = Geom.total_groups nd;
        arg_values =
          Array.of_list
            (List.map
               (function
                 | A_buf b -> b.addr
                 | A_i32 v -> F32.norm v
                 | A_f32 x -> F32.of_float x)
               args);
        tracing = opts.trace;
        prov_on = opts.provenance <> None;
        san_on = dev.san <> None;
        scan_every_cycle = opts.scan_every_cycle;
        counters;
        ms = Memsys.create cfg counters ~image:dev.image;
        cus =
          Array.init cfg.n_cus (fun cu_id ->
              {
                cu_id;
                groups = [];
                lds_used = 0;
                simd_waves = Array.make cfg.simds_per_cu 0;
                simd_vgprs = Array.make cfg.simds_per_cu 0;
                simd_sgprs = Array.make cfg.simds_per_cu 0;
                simd_busy_until = Array.make cfg.simds_per_cu 0;
                simd_running = Array.make cfg.simds_per_cu 0;
                salu_busy_until = 0;
                lds_busy_until = 0;
                sched = [||];
                simd_pos = Array.make cfg.simds_per_cu [||];
                sched_gen = 0;
                dispatch_full = false;
                wake = 0;
                wstall_counted_until = 0;
              });
        prof = Gpu_prof.Collector.create ~nsites;
        prov =
          (match opts.provenance with Some p -> p | None -> Prov.create ());
        sc =
          {
            s_wake = max_int;
            valu_used = false;
            vmem_used = false;
            lds_issued = false;
            salu_used = false;
            events = false;
          };
        on_branch = ignore;
        on_cond = (fun _ _ _ -> ());
        rev_events = [];
        next_group = 0;
        groups_completed = 0;
        dispatch_rr = 0;
        free_waves;
        inject_pending = None;
        inject_applied = false;
        injected_at = None;
        detected_at = None;
        rng = 1;
        taint = Taint_none;
        prov_site = -1;
        prov_now = 0;
        stop_when_dead = false;
        windows = [];
        last_window = Counters.create ();
        next_window = cfg.window_cycles;
        cycle = 0;
        outcome = Finished;
        ended = false;
      }
    in
    hook l;
    l

  let inject l (plan : inject_plan) ~stop_when_dead =
    if l.inject_applied || l.inject_pending <> None then
      invalid_arg "Launch.inject: a fault is already planned";
    l.inject_pending <- Some plan;
    l.rng <- plan.iseed;
    l.stop_when_dead <- stop_when_dead

  (* A deep copy on a forked device. Everything a later cycle mutates is
     copied: the CUs, groups with their LDS, waves, the memory system
     with its caches, counters, profile, provenance record and RNG. The
     kernel and the tables decoded from it are shared. Register files of
     completed groups are not carried over: the copy allocates fresh
     zero-filled ones, which is what reuse would give it. *)
  let fork l =
    if l.inject_applied then invalid_arg "Launch.fork: a fault has landed";
    let dev = fork_device l.dev in
    let counters = Counters.copy l.counters in
    let l' =
      {
        l with
        dev;
        counters;
        ms = Memsys.copy l.ms ~counters ~image:dev.image;
        cus =
          Array.map
            (fun cu ->
              {
                cu with
                simd_waves = Array.copy cu.simd_waves;
                simd_vgprs = Array.copy cu.simd_vgprs;
                simd_sgprs = Array.copy cu.simd_sgprs;
                simd_busy_until = Array.copy cu.simd_busy_until;
                simd_running = Array.copy cu.simd_running;
                simd_pos = Array.copy cu.simd_pos;
              })
            l.cus;
        prof = Gpu_prof.Collector.copy l.prof;
        prov = Prov.copy l.prov;
        sc = { l.sc with s_wake = l.sc.s_wake };
        free_waves = [];
      }
    in
    hook l';
    Array.iter
      (fun cu ->
        let pairs =
          List.map
            (fun g ->
              let g' =
                {
                  g with
                  lds_mem = Bytes.copy g.lds_mem;
                  g_waves = Array.map Wave.copy g.g_waves;
                }
              in
              make_slots l' g' ~cu_id:cu.cu_id (fun i -> g.g_slots.(i).live);
              (g, g'))
            cu.groups
        in
        cu.groups <- List.map snd pairs;
        cu.sched <-
          Array.map
            (fun s -> (List.assq s.g pairs).g_slots.(s.w.Wave.wid))
            cu.sched)
      l'.cus;
    l'

  let finish l =
    l.stop_when_dead <- false;
    run_until l max_int;
    sum_sites l;
    let counters = l.counters in
    counters.cycles <- l.cycle;
    l.dev.spare_waves <-
      Array.fold_left
        (fun acc cu ->
          List.fold_left
            (fun acc g -> Array.fold_right List.cons g.g_waves acc)
            acc cu.groups)
        l.free_waves l.cus;
    (* Flush the final partial power window on every exit path (Finished,
       Hung, Detected, Crashed): the in-loop sampler only fires on window
       boundaries, and without this up to [window_cycles - 1] trailing
       cycles of activity would vanish from Power_model.report. *)
    let tail = Counters.delta (Counters.copy counters) l.last_window in
    let windows =
      if tail.Counters.cycles > 0 then tail :: l.windows else l.windows
    in
    {
      cycles = l.cycle;
      outcome = l.outcome;
      counters;
      windows = Array.of_list (List.rev windows);
      occupancy = l.occupancy;
      usage = l.usage;
      groups_completed = l.groups_completed;
      inject_applied = l.inject_applied;
      injected_at = l.injected_at;
      detected_at = l.detected_at;
      profile = l.prof;
      events = List.rev l.rev_events;
    }

  let device l = l.dev
  let ended l = l.ended
  let outcome l = l.outcome
  let provenance l = if l.prov_on then Some l.prov else None
end

(** Run [kernel] over [nd] with [args]. *)
let launch ?opts dev kernel ~nd ~args =
  Launch.finish (Launch.create ?opts dev kernel ~nd ~args)
