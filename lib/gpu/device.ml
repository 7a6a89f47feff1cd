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
    {!Counters} fields are derived from the per-site sums. *)

open Gpu_ir.Types
module Regpressure = Gpu_ir.Regpressure
module Uniformity = Gpu_ir.Uniformity
module F32 = Gpu_ir.F32
module Site = Gpu_ir.Site
module Prov = Gpu_prof.Provenance

(* Scheduler-event log ("gpu.device" source): dispatches, retirements,
   barrier releases, fault injections and detections, at debug level.
   Enable with [Logs.Src.set_level log_src (Some Logs.Debug)] or the
   [rmtgpu -v] flag. *)
let log_src = Logs.Src.create "gpu.device" ~doc:"GPU device scheduler events"

module Log = (val Logs.src_log log_src : Logs.LOG)

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

let resident_pages dev = Image.resident_pages dev.image

(* ------------------------------------------------------------------ *)
(* Buffers                                                             *)
(* ------------------------------------------------------------------ *)

let align_up v a = (v + a - 1) / a * a

let alloc dev bytes =
  let addr = align_up dev.alloc_ptr 256 in
  if addr + bytes > Image.size dev.image then
    failwith "Device.alloc: out of device memory";
  dev.alloc_ptr <- addr + bytes;
  (match dev.san with
  | Some s -> Gpu_san.Shadow.note_alloc s ~addr ~size:bytes
  | None -> ());
  { addr; size = bytes }

(** Release all buffers (bump-allocator reset). *)
let free_all dev =
  dev.alloc_ptr <- 256;
  match dev.san with
  | Some s -> Gpu_san.Shadow.reset_allocs s
  | None -> ()

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
let read_f32_array dev buf n = Array.init n (fun i -> read_f32 dev buf i)
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
   its memory interface. *)
and slot = { w : Wave.t; g : grp; mem : Wave.mem_ops; mutable live : bool }

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
   first consuming instruction is found. *)
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
  max_cycles : int option;
  window_cycles : int option;
  inject : inject_plan option;
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
    max_cycles = None;
    window_cycles = None;
    inject = None;
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

(** Run [kernel] over [nd] with [args]. *)
let launch ?(opts = default_opts) dev (kernel : kernel) ~(nd : Geom.ndrange)
    ~(args : arg list) : result =
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
  let ms = Memsys.create cfg counters ~image:dev.image in
  let arg_values =
    Array.of_list
      (List.map
         (function
           | A_buf b -> b.addr
           | A_i32 v -> F32.norm v
           | A_f32 x -> F32.of_float x)
         args)
  in
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
  let lds_account = max lds_total usage.lds in
  let waves_per_group = Config.waves_per_group cfg group_items in
  let total_groups = Geom.total_groups nd in
  let max_cycles = Option.value opts.max_cycles ~default:cfg.max_cycles in
  let window_cycles =
    Option.value opts.window_cycles ~default:cfg.window_cycles
  in
  let cus =
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
        })
  in
  (* Tracing: [emit] is only reached behind [tracing], so an untraced
     run allocates no events. *)
  let tracing = opts.trace in
  let rev_events = ref [] in
  let emit at ev = rev_events := { Gpu_trace.Sink.at; ev } :: !rev_events in
  let next_group = ref 0 in
  let groups_completed = ref 0 in
  let detections = ref 0 in
  let inject_pending = ref opts.inject in
  let inject_applied = ref false in
  let injected_at = ref None in
  let detected_at = ref None in
  let rng = ref (match opts.inject with Some p -> p.iseed | None -> 1) in
  let rand m =
    rng := (!rng * 1103515245 + 12345) land 0x3FFFFFFF;
    if m <= 0 then 0 else !rng mod m
  in

  (* -------------------- accounting / provenance -------------------- *)
  (* The annotated body is built once per launch and shared by every
     wave; site ids are dense program-order indices, so the same kernel
     always charges into the same collector slots. *)
  let abody, nsites = Site.annotate kernel.body in
  (* Per-site decoded table: what the issue loop needs of each static
     instruction, computed once here instead of on every scan. *)
  let code =
    Wave.decode
      ~scalar:(Uniformity.inst_scalarizable div)
      ~lds_offset:(fun name -> List.assoc_opt name lds_layout)
      (Site.insts kernel)
  in
  (* Busy cycles, issues, write-stall cycles and spin polls are charged
     to their site only; [sum_sites] derives the matching [counters]
     fields, and runs wherever [counters] is read: at each power-window
     boundary and at launch end. *)
  let prof = Gpu_prof.Collector.create ~nsites in
  let sum_sites () =
    let module C = Gpu_prof.Collector in
    let valu = ref 0 and salu = ref 0 and vmem = ref 0 and lds = ref 0 in
    Array.iter
      (fun (d : Wave.decoded) ->
        let n = prof.issues.(d.site) in
        match d.unit_ with
        | Wave.U_valu -> valu := !valu + n
        | Wave.U_salu -> salu := !salu + n
        | Wave.U_vmem -> vmem := !vmem + n
        | Wave.U_lds -> lds := !lds + n)
      code;
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
  in
  let prov_on = opts.provenance <> None in
  let prov : Prov.t =
    match opts.provenance with Some p -> p | None -> Prov.create ()
  in
  (* Sanitizer: one [san_on] test guards every hook in the issue loop,
     mirroring [tracing]; the shadow only observes, so a
     sanitized run is timing- and output-identical. *)
  let san_on = dev.san <> None in
  (match dev.san with
  | Some s -> Gpu_san.Shadow.begin_launch s
  | None -> ());
  let san_set_site =
    match dev.san with
    | Some s -> fun site -> Gpu_san.Shadow.set_site s site
    | None -> fun _ -> ()
  in
  let san_barrier_release =
    match dev.san with
    | Some s -> fun group -> Gpu_san.Shadow.barrier_release s ~group
    | None -> fun _ -> ()
  in
  let taint = ref Taint_none in
  (* Site and instruction currently at the head of the issuing wave;
     consulted by the memory closures when they observe a tainted read. *)
  let prov_cur = ref None in
  let prov_now = ref 0 in
  let issued_insts () = Gpu_prof.Collector.sum prof.issues in
  let prov_record_use () =
    if prov.first_use = None then
      match !prov_cur with
      | Some (site, i) ->
          prov.first_use <-
            Some
              {
                Prov.u_site = site;
                u_cycle = !prov_now;
                u_inst_index = issued_insts ();
                u_inst = Gpu_ir.Pp.string_of_inst i;
              }
      | None -> ()
  in
  (* Register-taint bookkeeping at issue: a read of the tainted lanes is
     consumption; a full overwrite of the tainted lanes before any read
     kills the fault (dead-value masking). Swizzle reads across lanes,
     so it consumes regardless of the tainted lane's active bit. *)
  let prov_check_inst (w : Wave.t) (d : Wave.decoded) =
    match !taint with
    | Taint_reg { t_wave; t_reg; t_lanes }
      when t_wave == w && prov.first_use = None ->
        let is_swizzle = match d.inst with Swizzle _ -> true | _ -> false in
        let reads =
          Array.mem t_reg d.uses
          && (is_swizzle || Int64.logand w.Wave.mask t_lanes <> 0L)
        in
        if reads then prov_record_use ()
        else if
          d.def = t_reg
          && Int64.logand (Int64.lognot w.Wave.mask) t_lanes = 0L
        then begin
          taint := Taint_none;
          prov.overwritten <- true
        end
    | _ -> ()
  in

  (* -------------------- group dispatch -------------------- *)
  let make_mem_ops (g : grp) ~(w : Wave.t) ~cu_id : Wave.mem_ops =
    let g_lds = g.lds_mem in
    let view = g.view in
    let msan =
      match dev.san with
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
        (match !taint with
        | Taint_lds { t_grp; t_addr }
          when t_grp == g && addr = t_addr && prov.first_use = None ->
            prov_record_use ()
        | _ -> ());
      F32.norm (Int32.to_int (Bytes.get_int32_le g_lds addr))
    in
    let lds_write addr v =
      lds_check addr "store";
      if prov_on then
        (match !taint with
        | Taint_lds { t_grp; t_addr } when t_grp == g && addr = t_addr ->
            (* overwrite refreshes the word; a never-read fault is dead *)
            taint := Taint_none;
            if prov.first_use = None then prov.overwritten <- true
        | _ -> ());
      Bytes.set_int32_le g_lds addr (Int32.of_int v)
    in
    let global_load a =
      if prov_on then begin
        match !taint with
        | Taint_l1 when prov.first_use = None ->
            (* poison is applied on the cached path only: a load whose
               value differs from the clean image consumed the fault *)
            let clean = Memsys.read32 ms a in
            let v = Memsys.load32 ms ~cu:cu_id a in
            if v <> clean then prov_record_use ();
            v
        | _ -> Memsys.load32 ms ~cu:cu_id a
      end
      else Memsys.load32 ms ~cu:cu_id a
    in
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
  in

  (* Rebuilt only on dispatch and group retirement; the slots persist.
     The per-SIMD positions let a scan visit only the waves of the SIMD
     holding the turn. *)
  let rebuild_sched cu =
    let waiting g =
      List.filter
        (fun s -> s.w.Wave.state <> Wave.Retired)
        (Array.to_list g.g_slots)
    in
    let sched = Array.of_list (List.concat_map waiting cu.groups) in
    let positions = List.init (Array.length sched) Fun.id in
    cu.sched <- sched;
    for simd = 0 to cfg.simds_per_cu - 1 do
      cu.simd_pos.(simd) <-
        Array.of_list
          (List.filter (fun i -> sched.(i).w.Wave.simd = simd) positions)
    done;
    cu.sched_gen <- cu.sched_gen + 1
  in

  (* Greedy wave-to-SIMD placement; returns assignments or None. *)
  let place_waves cu =
    let w = Array.copy cu.simd_waves
    and v = Array.copy cu.simd_vgprs
    and s = Array.copy cu.simd_sgprs in
    let assign = Array.make waves_per_group (-1) in
    let ok = ref true in
    for i = 0 to waves_per_group - 1 do
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
  in

  (* Waves of completed groups (and of the device's previous launch):
     their register files are reused. *)
  let free_waves =
    ref
      (List.filter
         (fun (w : Wave.t) -> Array.length w.ready_at = max kernel.nregs 1)
         dev.spare_waves)
  in
  dev.spare_waves <- [];
  let new_wave ~wid ~nlanes ~flat_base ~simd =
    match !free_waves with
    | old :: rest ->
        free_waves := rest;
        Wave.recycle old ~wid ~nlanes ~flat_base ~body:abody ~simd
    | [] ->
        Wave.create ~wid ~nregs:kernel.nregs ~nlanes ~flat_base ~body:abody
          ~simd
  in

  let try_dispatch_on cu now =
    if
      !next_group < total_groups
      && (not cu.dispatch_full)
      && List.length cu.groups < cfg.max_groups_per_cu
      && cu.lds_used + lds_account <= cfg.lds_per_cu
    then
      match place_waves cu with
      | None ->
          cu.dispatch_full <- true;
          false
      | Some assign ->
          let gi = !next_group in
          incr next_group;
          let view : Geom.group_view = { nd; gcoord = Geom.group_coord nd gi } in
          let waves =
            Array.init waves_per_group (fun wi ->
                let flat_base = wi * cfg.wave_size in
                let nlanes = min cfg.wave_size (group_items - flat_base) in
                new_wave ~wid:wi ~nlanes ~flat_base ~simd:assign.(wi))
          in
          let g =
            {
              g_index = gi;
              view;
              lds_mem = Bytes.make (max lds_total 4) '\000';
              g_waves = waves;
              g_slots = [||];
              barrier_arrived = 0;
              retired_waves = 0;
              g_lds_account = lds_account;
            }
          in
          g.g_slots <-
            Array.map
              (fun w ->
                { w; g; mem = make_mem_ops g ~w ~cu_id:cu.cu_id; live = true })
              waves;
          cu.groups <- cu.groups @ [ g ];
          cu.lds_used <- cu.lds_used + lds_account;
          Array.iter
            (fun simd ->
              cu.simd_waves.(simd) <- cu.simd_waves.(simd) + 1;
              cu.simd_running.(simd) <- cu.simd_running.(simd) + 1;
              cu.simd_vgprs.(simd) <- cu.simd_vgprs.(simd) + usage.vgprs;
              cu.simd_sgprs.(simd) <- cu.simd_sgprs.(simd) + usage.sgprs)
            assign;
          counters.groups_launched <- counters.groups_launched + 1;
          counters.waves_launched <- counters.waves_launched + waves_per_group;
          if tracing then
            emit now
              (Gpu_trace.Sink.Group_dispatch
                 { cu = cu.cu_id; group = gi; waves = waves_per_group });
          Log.debug (fun m ->
              m "cycle %d: dispatch group %d (%d waves) to CU %d" now gi
                waves_per_group cu.cu_id);
          rebuild_sched cu;
          cu.wake <- now;
          true
    else begin
      if !next_group < total_groups then cu.dispatch_full <- true;
      false
    end
  in

  let dispatch_rr = ref 0 in
  let try_dispatch now =
    let progress = ref true in
    while !progress && !next_group < total_groups do
      progress := false;
      let n = cfg.n_cus in
      let start = !dispatch_rr in
      let placed = ref false in
      let i = ref 0 in
      while (not !placed) && !i < n do
        let cu = cus.((start + !i) mod n) in
        if try_dispatch_on cu now then begin
          placed := true;
          dispatch_rr := (start + !i + 1) mod n
        end;
        incr i
      done;
      if !placed then progress := true
    done
  in

  (* -------------------- retire / barrier -------------------- *)
  (* [current] is false when a group retirement earlier in the same scan
     rebuilt [cu.sched]: the slot then also sits in the new schedule and
     stays live there until a scan next reaches it. *)
  let retire_wave cu (s : slot) ~current now =
    if current then s.live <- false;
    if s.w.Wave.retire_accounted then ()
    else begin
    s.w.Wave.retire_accounted <- true;
    cu.dispatch_full <- false;
    let simd = s.w.Wave.simd in
    cu.simd_waves.(simd) <- cu.simd_waves.(simd) - 1;
    cu.simd_running.(simd) <- cu.simd_running.(simd) - 1;
    cu.simd_vgprs.(simd) <- cu.simd_vgprs.(simd) - usage.vgprs;
    cu.simd_sgprs.(simd) <- cu.simd_sgprs.(simd) - usage.sgprs;
    s.g.retired_waves <- s.g.retired_waves + 1;
    if s.g.retired_waves = Array.length s.g.g_waves then begin
      cu.groups <- List.filter (fun g -> g != s.g) cu.groups;
      cu.lds_used <- cu.lds_used - s.g.g_lds_account;
      incr groups_completed;
      if tracing then
        emit now
          (Gpu_trace.Sink.Group_retire { cu = cu.cu_id; group = s.g.g_index });
      Log.debug (fun m ->
          m "group %d completed on CU %d (%d/%d)" s.g.g_index cu.cu_id
            !groups_completed total_groups);
      rebuild_sched cu;
      free_waves := Array.fold_left (fun l w -> w :: l) !free_waves s.g.g_waves
    end
    end
  in

  let arrive_barrier cu (g : grp) ~wid now =
    g.barrier_arrived <- g.barrier_arrived + 1;
    if tracing then
      emit now
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
      counters.barriers_executed <- counters.barriers_executed + 1;
      if san_on then san_barrier_release g.g_index;
      if tracing then
        emit now
          (Gpu_trace.Sink.Barrier_release { cu = cu.cu_id; group = g.g_index });
      true
    end
    else false
  in

  (* -------------------- issue -------------------- *)
  let on_branch () = counters.branches <- counters.branches + 1 in
  let sc =
    {
      s_wake = max_int;
      valu_used = false;
      vmem_used = false;
      lds_issued = false;
      salu_used = false;
      events = false;
    }
  in
  let note now t = if t > now && t < sc.s_wake then sc.s_wake <- t in
  let stall cu (s : slot) now cause =
    emit now
      (Gpu_trace.Sink.Stall
         { cu = cu.cu_id; group = s.g.g_index; wave = s.w.Wave.wid; cause })
  in
  let issued cu (s : slot) now unit_ busy =
    emit now
      (Gpu_trace.Sink.Wave_issue
         {
           cu = cu.cu_id;
           simd = s.w.Wave.simd;
           group = s.g.g_index;
           wave = s.w.Wave.wid;
           unit_;
           busy;
         })
  in
  let unit_busy cu s now site until =
    if tracing then stall cu s now Gpu_trace.Sink.Unit_busy;
    prof.stall_unit_busy.(site) <- prof.stall_unit_busy.(site) + 1;
    note now until
  in

  (* Try to issue the wave's ready instruction [d] on its unit; true when
     it issued. *)
  let issue cu (s : slot) now (d : Wave.decoded) =
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
              incr detections;
              detected_at := Some now;
              if prov_on then begin
                prov_check_inst w d;
                prov.detect_site <- site;
                prov.detect_cycle <- now;
                prov.detect_inst_index <- issued_insts ()
              end;
              Log.info (fun m ->
                  m
                    "cycle %d: output comparison trapped (CU %d, group %d, \
                     wave %d)"
                    now cu.cu_id s.g.g_index w.Wave.wid);
              raise Trap_detected
          | _ -> ());
          if tracing then issued cu s now Gpu_trace.Sink.Valu busy;
          sc.valu_used <- true;
          true
        end
        else begin
          unit_busy cu s now site cu.simd_busy_until.(simd);
          false
        end
    | Wave.U_salu ->
        if (not sc.salu_used) && cu.salu_busy_until <= now then begin
          ignore (Wave.exec w d ~mem:s.mem ~line_bytes:cfg.line_bytes);
          cu.salu_busy_until <- now + 1;
          prof.issues.(site) <- prof.issues.(site) + 1;
          prof.salu_busy.(site) <- prof.salu_busy.(site) + 1;
          if d.def >= 0 then w.Wave.ready_at.(d.def) <- now + cfg.salu_latency;
          if tracing then issued cu s now Gpu_trace.Sink.Salu 1;
          sc.salu_used <- true;
          true
        end
        else begin
          unit_busy cu s now site cu.salu_busy_until;
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
          if tracing then issued cu s now Gpu_trace.Sink.Lds cfg.lds_issue_cycles;
          sc.lds_issued <- true;
          true
        end
        else begin
          unit_busy cu s now site cu.lds_busy_until;
          false
        end
    | Wave.U_vmem ->
        let is_store = match d.inst with Store _ -> true | _ -> false in
        if sc.vmem_used || Memsys.(ms.mem_busy_until.(cu.cu_id)) > now then begin
          unit_busy cu s now site Memsys.(ms.mem_busy_until.(cu.cu_id));
          false
        end
        else if is_store && Memsys.store_would_stall ms ~cu:cu.cu_id ~now then begin
          (* Charge the whole blocked span at once: the backlog cannot
             change while the store is stalled, and idle skip-ahead may
             never rescan the intervening cycles. [wstall_counted_until]
             de-overlaps repeat scans of the same episode, so each blocked
             cycle is counted exactly once per CU. *)
          let until = Memsys.store_stall_until ms ~cu:cu.cu_id in
          let from = max now cu.wstall_counted_until in
          if until > from then begin
            prof.write_stalled.(site) <-
              prof.write_stalled.(site) + (until - from);
            cu.wstall_counted_until <- until
          end;
          if tracing then stall cu s now Gpu_trace.Sink.Write_backlog;
          prof.stall_write_backlog.(site) <-
            prof.stall_write_backlog.(site) + 1;
          note now until;
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
                if kind = Wave.MAtomic then 8 else 4 + (4 * (max 1 nlines - 1))
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
                  if tracing then stall cu s now Gpu_trace.Sink.Spin
              | _ -> ());
              if tracing then issued cu s now Gpu_trace.Sink.Vmem busy;
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
  in

  (* One wave of the SIMD holding the turn. [gen] is [cu.sched_gen] at
     the start of the scan. *)
  let visit cu now gen (s : slot) =
    if s.live then begin
      let w = s.w in
      match Wave.peek w ~now ~on_branch with
      | Wave.P_done ->
          retire_wave cu s ~current:(cu.sched_gen = gen) now;
          sc.events <- true
      | Wave.P_barrier_arrived ->
          cu.simd_running.(w.Wave.simd) <- cu.simd_running.(w.Wave.simd) - 1;
          if arrive_barrier cu s.g ~wid:w.Wave.wid now then sc.events <- true
      | Wave.P_waiting ->
          if tracing then stall cu s now Gpu_trace.Sink.Barrier_wait;
          if w.Wave.barrier_site >= 0 then
            prof.stall_barrier.(w.Wave.barrier_site) <-
              prof.stall_barrier.(w.Wave.barrier_site) + 1
      | Wave.P_stall ->
          (* control-flow operand not ready: conservative near wake *)
          note now (now + 1)
      | Wave.P_inst ->
          let d = code.(w.Wave.pending) in
          let ready = Wave.ready_cycle w d in
          if ready > now then begin
            if tracing then stall cu s now Gpu_trace.Sink.Scoreboard;
            prof.stall_scoreboard.(d.site) <- prof.stall_scoreboard.(d.site) + 1;
            note now ready
          end
          else begin
            if prov_on then begin
              prov_cur := Some (d.site, d.inst);
              prov_now := now
            end;
            if san_on then san_set_site d.site;
            if issue cu s now d then begin
              if prov_on then prov_check_inst w d;
              Wave.consume w;
              w.Wave.last_issue <- now;
              note now (now + 1)
            end
          end
    end
  in

  (* index of the first position >= [start] in the ascending [pos] *)
  let rec first_at_or_after pos start j =
    if j < Array.length pos && pos.(j) < start then
      first_at_or_after pos start (j + 1)
    else j
  in
  let rec other_simd_running cu simd k =
    k < cfg.simds_per_cu
    && ((k <> simd && cu.simd_running.(k) > 0)
       || other_simd_running cu simd (k + 1))
  in

  let scan_cu cu now =
    let simd = now mod cfg.simds_per_cu in
    sc.s_wake <- max_int;
    sc.valu_used <- false;
    sc.vmem_used <- false;
    sc.lds_issued <- false;
    sc.salu_used <- false;
    sc.events <- false;
    (* iterate a stable snapshot: retirement may rebuild the schedule *)
    let gen = cu.sched_gen and sched = cu.sched and pos = cu.simd_pos.(simd) in
    let m = Array.length pos in
    (match cfg.sched_policy with
    | Config.Greedy ->
        for j = 0 to m - 1 do
          visit cu now gen sched.(pos.(j))
        done
    | Config.Round_robin ->
        (* start at schedule position [now mod n] and wrap: a function of
           the cycle, not of how many scans ran, so idle skip-ahead cannot
           change the order *)
        let j0 = first_at_or_after pos (now mod max 1 (Array.length sched)) 0 in
        for j = j0 to m - 1 do
          visit cu now gen sched.(pos.(j))
        done;
        for j = 0 to j0 - 1 do
          visit cu now gen sched.(pos.(j))
        done);
    (* a running wave of another SIMD may have work within 3 cycles *)
    if sc.events || other_simd_running cu simd 0 then note now (now + 1);
    cu.wake <- sc.s_wake
  in

  (* -------------------- fault injection -------------------- *)
  let resident_slots () =
    Array.to_list cus
    |> List.concat_map (fun cu ->
           Array.to_list cu.sched |> List.filter (fun s -> s.live))
  in
  let try_inject target =
    match target with
    | T_vgpr -> (
        match resident_slots () with
        | [] -> false
        | slots ->
            let s = List.nth slots (rand (List.length slots)) in
            let divergent_regs =
              List.filter (fun r -> div.(r)) (List.init kernel.nregs Fun.id)
            in
            let pool = if divergent_regs = [] then List.init kernel.nregs Fun.id else divergent_regs in
            let r = List.nth pool (rand (List.length pool)) in
            let lane = rand s.w.Wave.nlanes in
            let bit = rand 32 in
            let v = Wave.get_reg s.w r lane in
            Wave.set_reg s.w r lane (F32.norm (v lxor (1 lsl bit)));
            if prov_on then begin
              taint :=
                Taint_reg
                  {
                    t_wave = s.w;
                    t_reg = r;
                    t_lanes = Int64.shift_left 1L lane;
                  };
              prov.target <- Some Prov.S_vgpr;
              prov.bit <- bit;
              prov.desc <-
                Printf.sprintf "v%d lane %d (group %d, wave %d)" r lane
                  s.g.g_index s.w.Wave.wid
            end;
            true)
    | T_sgpr -> (
        match resident_slots () with
        | [] -> false
        | slots ->
            let s = List.nth slots (rand (List.length slots)) in
            let uniform_regs =
              List.filter (fun r -> not div.(r)) (List.init kernel.nregs Fun.id)
            in
            if uniform_regs = [] then false
            else begin
              let r = List.nth uniform_regs (rand (List.length uniform_regs)) in
              let bit = rand 32 in
              (* scalar registers are one copy shared by the wavefront:
                 the flip is visible to every lane *)
              for lane = 0 to s.w.Wave.nlanes - 1 do
                let v = Wave.get_reg s.w r lane in
                Wave.set_reg s.w r lane (F32.norm (v lxor (1 lsl bit)))
              done;
              if prov_on then begin
                taint :=
                  Taint_reg
                    { t_wave = s.w; t_reg = r; t_lanes = s.w.Wave.full_mask };
                prov.target <- Some Prov.S_sgpr;
                prov.bit <- bit;
                prov.desc <-
                  Printf.sprintf "s%d all lanes (group %d, wave %d)" r
                    s.g.g_index s.w.Wave.wid
              end;
              true
            end)
    | T_lds -> (
        let groups =
          Array.to_list cus
          |> List.concat_map (fun cu -> cu.groups)
          |> List.filter (fun g -> Bytes.length g.lds_mem >= 4)
        in
        match groups with
        | [] -> false
        | gs ->
            if lds_total < 4 then false
            else begin
              let g = List.nth gs (rand (List.length gs)) in
              let byte = rand lds_total in
              let bit = rand 8 in
              let c = Char.code (Bytes.get g.lds_mem byte) in
              Bytes.set g.lds_mem byte (Char.chr (c lxor (1 lsl bit)));
              if prov_on then begin
                taint := Taint_lds { t_grp = g; t_addr = byte land lnot 3 };
                prov.target <- Some Prov.S_lds;
                prov.bit <- ((byte land 3) * 8) + bit;
                prov.desc <-
                  Printf.sprintf "LDS byte %d (group %d)" byte g.g_index
              end;
              true
            end)
    | T_l1 ->
        let cu = rand cfg.n_cus in
        let ok = Memsys.inject_l1_poison ms ~cu ~seed:(rand 1_000_000_007) in
        if ok && prov_on then begin
          taint := Taint_l1;
          (match ms.Memsys.poison with
          | Some p ->
              prov.target <- Some Prov.S_l1;
              prov.bit <- p.Memsys.p_bit;
              prov.desc <-
                Printf.sprintf "L1 line %d word %d (CU %d)" p.Memsys.p_line
                  p.Memsys.p_word p.Memsys.p_cu
          | None -> ())
        end;
        ok
  in

  (* -------------------- main loop -------------------- *)
  let windows = ref [] in
  let last_window_snapshot = ref (Counters.create ()) in
  let next_window = ref window_cycles in
  let cycle = ref 0 in
  let outcome = ref Finished in
  (try
     let running = ref true in
     while !running do
       let now = !cycle in
       if now >= max_cycles then begin
         outcome := Hung;
         running := false
       end
       else begin
         try_dispatch now;
         (match !inject_pending with
         | Some p when now >= p.at_cycle ->
             if try_inject p.target then begin
               inject_applied := true;
               injected_at := Some now;
               if prov_on then begin
                 prov.inject_cycle <- now;
                 prov.inject_inst_index <- issued_insts ()
               end;
               Log.info (fun m -> m "cycle %d: fault injected" now);
               inject_pending := None
             end
         | _ -> ());
         for i = 0 to Array.length cus - 1 do
           let cu = cus.(i) in
           if opts.scan_every_cycle || cu.wake <= now then scan_cu cu now
         done;
         if now >= !next_window then begin
           sum_sites ();
           let snap = Counters.copy counters in
           snap.Counters.cycles <- now;
           windows := Counters.delta snap !last_window_snapshot :: !windows;
           last_window_snapshot := snap;
           next_window := !next_window + window_cycles
         end;
         if !groups_completed >= total_groups then running := false
         else begin
           (* advance: skip ahead when every CU is provably idle *)
           let nxt = ref (now + 1) in
           let min_wake = ref max_int in
           for i = 0 to Array.length cus - 1 do
             if cus.(i).wake < !min_wake then min_wake := cus.(i).wake
           done;
           if
             (not opts.scan_every_cycle)
             && !min_wake > now + 1
             && !min_wake < max_int
           then nxt := !min_wake;
           if !min_wake = max_int && !next_group >= total_groups then begin
             (* nothing can ever run again: deadlock (e.g. barrier with
                retired waves). Treat as hang. *)
             outcome := Hung;
             running := false
           end;
           (match !inject_pending with
           | Some p when p.at_cycle > now && p.at_cycle < !nxt ->
               nxt := p.at_cycle
           | _ -> ());
           if !next_window < !nxt then nxt := !next_window;
           cycle := !nxt
         end
       end
     done
   with
  | Trap_detected -> outcome := Detected
  | Memsys.Fault msg -> outcome := Crashed msg);
  sum_sites ();
  counters.cycles <- !cycle;
  dev.spare_waves <-
    Array.fold_left
      (fun acc cu ->
        List.fold_left
          (fun acc g -> Array.fold_right List.cons g.g_waves acc)
          acc cu.groups)
      !free_waves cus;
  (* Flush the final partial power window on every exit path (Finished,
     Hung, Detected, Crashed): the in-loop sampler only fires on window
     boundaries, and without this up to [window_cycles - 1] trailing
     cycles of activity would vanish from Power_model.report. *)
  let tail = Counters.delta (Counters.copy counters) !last_window_snapshot in
  if tail.Counters.cycles > 0 then windows := tail :: !windows;
  {
    cycles = !cycle;
    outcome = !outcome;
    counters;
    windows = Array.of_list (List.rev !windows);
    occupancy;
    usage;
    groups_completed = !groups_completed;
    inject_applied = !inject_applied;
    injected_at = !injected_at;
    detected_at = !detected_at;
    profile = prof;
    events = List.rev !rev_events;
  }
