(** Global memory system: one functional memory image plus a timing model
    of the per-CU write-through L1 caches, the shared L2, and DRAM
    bandwidth.

    The image is sparse and page-granular ({!Image}): a page is
    materialised on its first non-zero store and untouched words read as
    0, so a run pays only for the pages it writes. Its bounds are still
    the full configured size: any access outside [\[0, memory_bytes)] or
    not 4-byte aligned raises {!Fault}, whether or not its page is
    resident.

    Functional values are always served from the single memory image;
    caches are tag-only and decide latency. This makes execution
    deterministic and sequentially consistent at instruction-issue
    granularity. The one deliberate exception is fault injection: a
    poisoned L1 line models a corrupted cached copy, so loads that hit it
    on the owning CU observe flipped bits until the line is refilled,
    written, or invalidated — which is how the campaigns reproduce the
    paper's claim that the cache hierarchy lies outside both RMT spheres
    of replication. *)

(** Raised on wild reads/writes (out of bounds or unaligned); surfaces as
    a [Crash] outcome at launch level. *)
exception Fault of string

type poison = {
  p_cu : int;
  p_line : int;
  p_word : int;  (** word index within the line *)
  p_bit : int;   (** bit within the word *)
  mutable p_active : bool;
}

type t = {
  cfg : Config.t;
  image : Image.t;
  l1s : Cache.t array;
  l2 : Cache.t;
  mutable dram_next_free : float;
  write_busy_until : float array;  (** per CU, write-through backlog *)
  mutable mem_busy_until : int array;  (** per CU vector memory unit *)
  counters : Counters.t;
  mutable poison : poison option;
}

let create (cfg : Config.t) (counters : Counters.t) ~image =
  {
    cfg;
    image;
    l1s =
      Array.init cfg.n_cus (fun _ ->
          Cache.create ~bytes:cfg.l1_bytes ~line_bytes:cfg.line_bytes
            ~assoc:cfg.l1_assoc);
    l2 = Cache.create ~bytes:cfg.l2_bytes ~line_bytes:cfg.line_bytes
        ~assoc:cfg.l2_assoc;
    dram_next_free = 0.0;
    write_busy_until = Array.make cfg.n_cus 0.0;
    mem_busy_until = Array.make cfg.n_cus 0;
    counters = counters;
    poison = None;
  }

let copy t ~counters ~image =
  {
    t with
    image;
    l1s = Array.map Cache.copy t.l1s;
    l2 = Cache.copy t.l2;
    write_busy_until = Array.copy t.write_busy_until;
    mem_busy_until = Array.copy t.mem_busy_until;
    counters;
    poison = Option.map (fun p -> { p with p_active = p.p_active }) t.poison;
  }

let check t addr what =
  if addr < 0 || addr + 4 > Image.size t.image then
    raise (Fault (Printf.sprintf "%s out of bounds at address %d" what addr));
  if addr land 3 <> 0 then
    raise (Fault (Printf.sprintf "unaligned %s at address %d" what addr))

(* ------------------------------------------------------------------ *)
(* Functional access                                                   *)
(* ------------------------------------------------------------------ *)

(** Host/debug read, never poisoned. *)
let read32 t addr =
  check t addr "load";
  Gpu_ir.F32.norm (Image.read32 t.image addr)

let write32 t addr v =
  check t addr "store";
  Image.write32 t.image addr v

let apply_poison t ~cu addr v =
  match t.poison with
  | Some p
    when p.p_active && p.p_cu = cu
         && addr - (addr mod t.cfg.line_bytes) = p.p_line
         && addr mod t.cfg.line_bytes / 4 = p.p_word
         && Cache.probe t.l1s.(cu) p.p_line ->
      Gpu_ir.F32.norm (v lxor (1 lsl p.p_bit))
  | _ -> v

let clear_poison_on_line t ~cu line =
  match t.poison with
  | Some p when p.p_active && p.p_cu = cu && p.p_line = line ->
      p.p_active <- false
  | _ -> ()

(** Device-side load as issued by a wavefront on [cu]. *)
let load32 t ~cu addr =
  let v = read32 t addr in
  apply_poison t ~cu addr v

(** Device-side store; a write refreshes any poisoned copy of its line. *)
let store32 t ~cu addr v =
  clear_poison_on_line t ~cu (addr - (addr mod t.cfg.line_bytes));
  write32 t addr v

(* ------------------------------------------------------------------ *)
(* Timing                                                              *)
(* ------------------------------------------------------------------ *)

let fmax (a : float) b = if a > b then a else b
let imax (a : int) b = if a > b then a else b

(* One DRAM line transfer: serialized on device-wide bandwidth. Returns
   the cycle at which the line is available. *)
let dram_transfer t ~now =
  let c = t.cfg in
  let start = fmax (float_of_int now) t.dram_next_free in
  let dur = float_of_int c.line_bytes /. c.dram_bytes_per_cycle in
  t.dram_next_free <- start +. dur;
  int_of_float (start +. dur) + c.dram_latency

(** Timing for a coalesced vector load of [lines.(0 .. n - 1)] on [cu]
    at cycle [now]: returns the completion cycle. Updates cache state and
    counters. *)
let load_timed t ~cu ~now lines n =
  let c = t.cfg in
  let l1 = t.l1s.(cu) in
  let completion = ref (now + c.l1_latency) in
  for i = 0 to n - 1 do
    let line = lines.(i) in
    let hit1 =
      match t.poison with
      | None -> Cache.access l1 line
      | Some _ ->
          Cache.access ~on_evict:(fun old -> clear_poison_on_line t ~cu old) l1
            line
    in
    if hit1 then begin
      t.counters.l1_hits <- t.counters.l1_hits + 1;
      completion := imax !completion (now + c.l1_latency)
    end
    else begin
      t.counters.l1_misses <- t.counters.l1_misses + 1;
      (* an L1 refill replaces any poisoned copy of this line *)
      clear_poison_on_line t ~cu line;
      let hit2 = Cache.access t.l2 line in
      if hit2 then begin
        t.counters.l2_hits <- t.counters.l2_hits + 1;
        completion := imax !completion (now + c.l2_latency)
      end
      else begin
        t.counters.l2_misses <- t.counters.l2_misses + 1;
        t.counters.dram_read_bytes <-
          t.counters.dram_read_bytes + c.line_bytes;
        completion := imax !completion (dram_transfer t ~now)
      end
    end
  done;
  !completion

(** Would a store issued now on [cu] exceed the tolerated write backlog?
    Used to model [WriteUnitStalled]. *)
let store_would_stall t ~cu ~now =
  t.write_busy_until.(cu)
  > float_of_int (now + t.cfg.write_backlog_limit)

(** First cycle at which a store on [cu] would no longer stall. The
    backlog only grows when a store issues and no store can issue while
    one is stalled, so the bound is exact: between a stall and this cycle
    [write_busy_until] cannot change. *)
let store_stall_until t ~cu =
  int_of_float
    (Float.ceil (t.write_busy_until.(cu) -. float_of_int t.cfg.write_backlog_limit))

(** Timing for a write-through vector store of [n] lines: consumes per-CU
    write bandwidth and device DRAM bandwidth; stores do not block the
    issuing wave. L1 copies are updated in place (write-through,
    no-allocate). *)
let store_timed t ~cu ~now n =
  let c = t.cfg in
  let nbytes = n * c.line_bytes in
  let start = fmax (float_of_int now) t.write_busy_until.(cu) in
  t.write_busy_until.(cu) <-
    start +. (float_of_int nbytes /. c.l2_bytes_per_cycle_per_cu);
  t.counters.l2_write_bytes <- t.counters.l2_write_bytes + nbytes;
  (* write-through traffic eventually reaches DRAM; account for bandwidth *)
  t.counters.dram_write_bytes <- t.counters.dram_write_bytes + nbytes;
  let dur = float_of_int nbytes /. c.dram_bytes_per_cycle in
  t.dram_next_free <- fmax (float_of_int now) t.dram_next_free +. dur

(** Timing for an atomic (executes at the L2; invalidates L1 copies). *)
let atomic_timed t ~cu ~now lines n =
  let c = t.cfg in
  for i = 0 to n - 1 do
    let line = lines.(i) in
    Cache.invalidate t.l1s.(cu) line;
    clear_poison_on_line t ~cu line;
    ignore (Cache.access t.l2 line)
  done;
  t.counters.l2_write_bytes <- t.counters.l2_write_bytes + (n * 8);
  now + c.atomic_latency + (4 * (n - 1))

(* ------------------------------------------------------------------ *)
(* Fault injection                                                     *)
(* ------------------------------------------------------------------ *)

(** Poison a random resident L1 line on [cu]; returns false when the cache
    holds no lines yet. *)
let inject_l1_poison t ~cu ~seed =
  match Cache.random_resident_line t.l1s.(cu) ~seed with
  | None -> false
  | Some line ->
      let words = t.cfg.line_bytes / 4 in
      t.poison <-
        Some
          {
            p_cu = cu;
            p_line = line;
            p_word = abs (seed * 7919) mod words;
            p_bit = abs (seed * 104729) mod 32;
            p_active = true;
          };
      true
