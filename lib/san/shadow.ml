(* Dynamic kernel sanitizer shadow, struct-of-arrays.

   Per-word state lives in flat int arrays ("regions"): global memory in
   4 KiB pages materialised on first touch (the granularity of
   [Gpu_sim.Image]), LDS in one region per work-group sized to the
   group's allocation. Each word occupies [stride] consecutive cells:

     cell 0        launch stamp lsl 1, lor the initialized bit
     cells 1..5    last writer: site, actor, item, clock, epoch
     cells 6..10   last reader: the same five fields

   The vector clock released into a word by atomic writers sits in its
   region's [sync] array, allocated on the region's first atomic. The
   writer, reader and sync fields belong to the launch named by the
   stamp: a word with a stale stamp is refreshed on its next access, so
   [begin_launch] walks nothing. A global word keeps its initialized bit
   through the refresh (a multi-pass benchmark reads what the previous
   pass wrote); an LDS word starts each launch uninitialized.

   Actors are (group, wave) pairs with dense per-launch ids, found
   through a per-group wave table. The per-lane path takes plain ints
   and allocates nothing: [access]/[coord] records are built only when a
   new finding is recorded, and findings are deduplicated on an int key.
   The happens-before model is documented in shadow.mli. *)

open Gpu_ir.Types

type access_kind = Read | Write | Atomic_rw | Atomic_read
type coord = { c_group : int; c_wave : int; c_item : int }

type access = {
  a_site : Gpu_ir.Site.id;
  a_coord : coord;
  a_actor : int;
  a_clock : int;
  a_epoch : int;
}

type cls = Race_ww | Race_rw | Uninit_read | Oob

let cls_name = function
  | Race_ww -> "write-write race"
  | Race_rw -> "read-write race"
  | Uninit_read -> "uninitialized read"
  | Oob -> "out-of-bounds access"

let cls_id = function
  | Race_ww -> "race-ww"
  | Race_rw -> "race-rw"
  | Uninit_read -> "uninit-read"
  | Oob -> "oob"

type finding = {
  f_class : cls;
  f_space : space;
  f_addr : int;
  f_first : access option;
  f_second : access;
  mutable f_count : int;
}

(* ------------------------------------------------------------------ *)
(* Layout                                                              *)
(* ------------------------------------------------------------------ *)

let stride = 11
let writer = 1
let reader = 6

(* field offsets within a writer/reader block; an actor of -1 marks the
   block empty *)
let o_site = 0
let o_actor = 1
let o_item = 2
let o_clock = 3
let o_epoch = 4

type region = {
  cells : int array;
  mutable sync : int array array;
      (** per-word released vector clock ([[||]] = none); [[||]] until
          an atomic touches the region *)
}

let new_region words = { cells = Array.make (words * stride) 0; sync = [||] }
let no_region = { cells = [||]; sync = [||] }

let page_bits = 12
let page_words = 1 lsl (page_bits - 2)
let page_mask = (1 lsl page_bits) - 1

type group = {
  mutable g_launch : int;  (** launch the fields below belong to *)
  mutable epoch : int;  (** barrier epoch *)
  mutable waves : int array;  (** wave -> dense actor id; -1 = unseen *)
  mutable lds : region;
}

type t = {
  mutable launch : int;  (** current launch stamp, from 1 *)
  mutable cur_site : int;
  mutable ranges : (int * int) list;  (** live allocations: (addr, size) *)
  mutable pages : region array;  (** global shadow, by page number *)
  mutable groups : group array;  (** by group index *)
  mutable nactors : int;
  mutable actor_group : int array;
  mutable actor_wave : int array;
  mutable avcs : int array array;  (** actor id -> its vector clock *)
  dedup : (int, finding) Hashtbl.t;
  mutable rev_findings : finding list;  (** reverse first-occurrence order *)
}

let create () =
  {
    launch = 1;
    cur_site = -1;
    ranges = [];
    pages = [||];
    groups = [||];
    nactors = 0;
    actor_group = [||];
    actor_wave = [||];
    avcs = [||];
    dedup = Hashtbl.create 16;
    rev_findings = [];
  }

let findings t = List.rev t.rev_findings
let clean t = t.rev_findings = []

(* a copy of [a] of length [n], padded with [fill] *)
let grow a n fill =
  let b = Array.make n fill in
  Array.blit a 0 b 0 (Array.length a);
  b

(* ------------------------------------------------------------------ *)
(* Host-side tracking                                                  *)
(* ------------------------------------------------------------------ *)

let note_alloc t ~addr ~size = t.ranges <- (addr, size) :: t.ranges

let reset_allocs t =
  t.ranges <- [];
  t.pages <- [||]

let rec in_ranges addr = function
  | [] -> false
  | (a, sz) :: rest -> (addr >= a && addr + 4 <= a + sz) || in_ranges addr rest

let in_some_range t addr = in_ranges addr t.ranges

let page t addr =
  let p = addr lsr page_bits in
  if p >= Array.length t.pages then
    t.pages <- grow t.pages (max 16 (2 * (p + 1))) no_region;
  let r = t.pages.(p) in
  if r != no_region then r
  else begin
    let r = new_region page_words in
    t.pages.(p) <- r;
    r
  end

let host_write t addr =
  let c = (page t addr).cells in
  let b = ((addr land page_mask) lsr 2) * stride in
  c.(b) <- c.(b) lor 1

(* ------------------------------------------------------------------ *)
(* Launch lifecycle                                                    *)
(* ------------------------------------------------------------------ *)

let begin_launch t =
  t.launch <- t.launch + 1;
  t.cur_site <- -1;
  t.nactors <- 0

let set_site t site = t.cur_site <- site

(* Group [g]'s state, reset on its first use in the current launch. *)
let group_state t g =
  if g >= Array.length t.groups then begin
    let n = max 16 (2 * (g + 1)) in
    let old = t.groups in
    t.groups <-
      Array.init n (fun i ->
          if i < Array.length old then old.(i)
          else { g_launch = 0; epoch = 0; waves = [||]; lds = no_region })
  end;
  let gs = t.groups.(g) in
  if gs.g_launch <> t.launch then begin
    gs.g_launch <- t.launch;
    gs.epoch <- 0;
    Array.fill gs.waves 0 (Array.length gs.waves) (-1)
  end;
  gs

let barrier_release t ~group =
  let gs = group_state t group in
  gs.epoch <- gs.epoch + 1

(* ------------------------------------------------------------------ *)
(* Vector clocks                                                       *)
(* ------------------------------------------------------------------ *)

let vc_get vc i = if i < Array.length vc then vc.(i) else 0

(* pointwise max, in a fresh array *)
let vc_join a b =
  let r = Array.make (max (Array.length a) (Array.length b)) 0 in
  for i = 0 to Array.length r - 1 do
    r.(i) <- max (vc_get a i) (vc_get b i)
  done;
  r

(* [b] adds nothing to [a] (lets a spinning poll skip re-joining) *)
let vc_covers a b =
  let ok = ref true in
  for i = 0 to Array.length b - 1 do
    if b.(i) > vc_get a i then ok := false
  done;
  !ok

(* Dense id of the actor (group, wave); a fresh actor starts its own
   clock at 1 so that a clock of 0 never reads as happened-before. *)
let actor_id t (gs : group) ~group ~wave =
  if wave < Array.length gs.waves && gs.waves.(wave) >= 0 then gs.waves.(wave)
  else begin
    if wave >= Array.length gs.waves then
      gs.waves <- grow gs.waves (max 4 (2 * (wave + 1))) (-1);
    let i = t.nactors in
    t.nactors <- i + 1;
    if i >= Array.length t.avcs then begin
      let n = max 16 (2 * (i + 1)) in
      t.avcs <- grow t.avcs n [||];
      t.actor_group <- grow t.actor_group n 0;
      t.actor_wave <- grow t.actor_wave n 0
    end;
    let vc = Array.make (i + 1) 0 in
    vc.(i) <- 1;
    t.avcs.(i) <- vc;
    t.actor_group.(i) <- group;
    t.actor_wave.(i) <- wave;
    gs.waves.(wave) <- i;
    i
  end

(* Release/acquire bookkeeping for an atomic access to word [i] of [r]:
   acquire the word's released knowledge; a read-modify-write also
   publishes the actor's clock into the word and advances the actor, so
   later own accesses are not covered by what was released. *)
let sync_access t kind r i actor =
  if Array.length r.sync = 0 then
    r.sync <- Array.make (Array.length r.cells / stride) [||];
  let w = r.sync.(i) in
  let vc = t.avcs.(actor) in
  let vc =
    if vc_covers vc w then vc
    else begin
      let j = vc_join vc w in
      t.avcs.(actor) <- j;
      j
    end
  in
  if kind = Atomic_rw then begin
    r.sync.(i) <- vc_join w vc;
    vc.(actor) <- vc.(actor) + 1
  end

(* ------------------------------------------------------------------ *)
(* Findings                                                            *)
(* ------------------------------------------------------------------ *)

let cls_code = function Race_ww -> 0 | Race_rw -> 1 | Uninit_read -> 2 | Oob -> 3

(* Dedup key of (class, space, first site, second site); [first] is -2
   for a finding without a first access (sites start at -1, the host). *)
let key cls space ~first ~second =
  ((first + 2) lsl 34)
  lor ((second + 1) lsl 3)
  lor ((match space with Global -> 0 | Local -> 1) lsl 2)
  lor cls_code cls

(* Bump the count of an already recorded finding; false if it is new. *)
let seen t k =
  match Hashtbl.find t.dedup k with
  | f ->
      f.f_count <- f.f_count + 1;
      true
  | exception Not_found -> false

let add t k cls space ~addr ~first ~second =
  let f =
    {
      f_class = cls;
      f_space = space;
      f_addr = addr;
      f_first = first;
      f_second = second;
      f_count = 1;
    }
  in
  Hashtbl.add t.dedup k f;
  t.rev_findings <- f :: t.rev_findings

(* The current access of [actor], as a report record. *)
let current t ~actor ~item ~epoch =
  {
    a_site = t.cur_site;
    a_coord =
      { c_group = t.actor_group.(actor); c_wave = t.actor_wave.(actor); c_item = item };
    a_actor = actor;
    a_clock = vc_get t.avcs.(actor) actor;
    a_epoch = epoch;
  }

(* The access stored at cell [b] of [c], as a report record. *)
let stored t c b =
  let actor = c.(b + o_actor) in
  {
    a_site = c.(b + o_site);
    a_coord =
      {
        c_group = t.actor_group.(actor);
        c_wave = t.actor_wave.(actor);
        c_item = c.(b + o_item);
      };
    a_actor = actor;
    a_clock = c.(b + o_clock);
    a_epoch = c.(b + o_epoch);
  }

let record_single t cls space ~addr ~actor ~item ~epoch =
  let k = key cls space ~first:(-2) ~second:t.cur_site in
  if not (seen t k) then
    add t k cls space ~addr ~first:None ~second:(current t ~actor ~item ~epoch)

(* A race between the access stored at cell [b] of [c] and the current
   one. *)
let record_pair t cls space ~addr c b ~actor ~item ~epoch =
  let k = key cls space ~first:c.(b + o_site) ~second:t.cur_site in
  if not (seen t k) then
    add t k cls space ~addr
      ~first:(Some (stored t c b))
      ~second:(current t ~actor ~item ~epoch)

(* ------------------------------------------------------------------ *)
(* Access checking                                                     *)
(* ------------------------------------------------------------------ *)

(* The access stored at cell [b] of [c] is absent, or ordered before the
   current one: same wavefront (lockstep program order), same group with
   a barrier in between, or covered by the current actor's acquired
   vector clock (atomic release/acquire chains). *)
let ordered t c b ~actor ~group ~epoch =
  let prev = c.(b + o_actor) in
  prev < 0 || prev = actor
  || (t.actor_group.(prev) = group && c.(b + o_epoch) <> epoch)
  || c.(b + o_clock) <= vc_get t.avcs.(actor) prev

let store_access t c b ~actor ~item ~epoch =
  c.(b + o_site) <- t.cur_site;
  c.(b + o_actor) <- actor;
  c.(b + o_item) <- item;
  c.(b + o_clock) <- vc_get t.avcs.(actor) actor;
  c.(b + o_epoch) <- epoch

(* Word [i] of region [r] was accessed. [keep_init] keeps the word's
   initialized bit when its stamp is stale (global memory). *)
let check_word t space ~keep_init ~addr ~kind ~unchanged r i ~actor ~group
    ~item ~epoch =
  let c = r.cells in
  let b = i * stride in
  if c.(b) lsr 1 <> t.launch then begin
    c.(b) <- (t.launch lsl 1) lor (if keep_init then c.(b) land 1 else 0);
    c.(b + writer + o_actor) <- -1;
    c.(b + reader + o_actor) <- -1;
    if Array.length r.sync > 0 then r.sync.(i) <- [||]
  end;
  match kind with
  | Atomic_rw | Atomic_read ->
      (* synchronization: exempt from race/uninit rules, but an atomic
         read-modify-write leaves the word written *)
      sync_access t kind r i actor;
      c.(b) <- c.(b) lor 1
  | Write when unchanged ->
      (* A store of the word's current bit pattern is architecturally
         unobservable: no reader can tell it happened, so it creates no
         race edge in either direction. Floyd-Warshall depends on this —
         in pass k every group re-stores the row-k/column-k words it
         reads from other groups with min(d, d + dist[k][k]) = d. *)
      c.(b) <- c.(b) lor 1
  | Read ->
      if c.(b) land 1 = 0 then
        record_single t Uninit_read space ~addr ~actor ~item ~epoch;
      if not (ordered t c (b + writer) ~actor ~group ~epoch) then
        record_pair t Race_rw space ~addr c (b + writer) ~actor ~item ~epoch;
      store_access t c (b + reader) ~actor ~item ~epoch
  | Write ->
      if not (ordered t c (b + writer) ~actor ~group ~epoch) then
        record_pair t Race_ww space ~addr c (b + writer) ~actor ~item ~epoch
      else if not (ordered t c (b + reader) ~actor ~group ~epoch) then
        record_pair t Race_rw space ~addr c (b + reader) ~actor ~item ~epoch;
      c.(b) <- c.(b) lor 1;
      store_access t c (b + writer) ~actor ~item ~epoch

let global_access t ~group ~wave ~item ~kind ~unchanged ~addr =
  let gs = group_state t group in
  let actor = actor_id t gs ~group ~wave in
  if addr land 3 <> 0 || not (in_some_range t addr) then
    record_single t Oob Global ~addr ~actor ~item ~epoch:gs.epoch
  else
    check_word t Global ~keep_init:true ~addr ~kind ~unchanged (page t addr)
      ((addr land page_mask) lsr 2)
      ~actor ~group ~item ~epoch:gs.epoch

let lds_access t ~group ~wave ~item ~kind ~unchanged ~addr ~lds_bytes =
  let gs = group_state t group in
  let actor = actor_id t gs ~group ~wave in
  if addr < 0 || addr land 3 <> 0 || addr + 4 > lds_bytes then
    record_single t Oob Local ~addr ~actor ~item ~epoch:gs.epoch
  else begin
    let words = (lds_bytes + 3) lsr 2 in
    if Array.length gs.lds.cells < words * stride then gs.lds <- new_region words;
    check_word t Local ~keep_init:false ~addr ~kind ~unchanged gs.lds
      (addr lsr 2) ~actor ~group ~item ~epoch:gs.epoch
  end
