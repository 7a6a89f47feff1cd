(** Dynamic kernel sanitizer: shadow state for LDS and global memory.

    A device is created with at most one {!t}, which it threads through
    every launch (behind a single [san_on] test per instrumentation site,
    the same zero-cost discipline as tracing and fault provenance) and
    calls
    {!global_access}/{!lds_access} for every lane of every memory
    instruction it issues. The shadow tracks, per 4-byte word, the last
    writer and last reader (work-item, {!Gpu_ir.Site} id, barrier epoch)
    plus an initialized bit, and reports:

    - {e write/write} and {e read/write} races: two conflicting accesses
      from different work-items with no ordering between them;
    - {e uninitialized reads}: a word read before any host or device
      write;
    - {e out-of-bounds accesses}: global addresses outside every live
      buffer allocation (the bump allocator leaves the device memory
      readable, so these are silent in an unsanitized run) and LDS
      addresses outside the group's allocation.

    The happens-before model matches the simulator's execution model:

    - accesses from the {e same wavefront} are ordered (the interpreter
      executes each instruction for all lanes in lockstep and the RMT
      transforms rely on exactly this — e.g. the Intra-Group producer
      publishes through LDS and its consumer twin reads it back with no
      barrier);
    - accesses from different waves of the same work-group are ordered
      when a barrier separates them (different barrier epochs);
    - atomics are release/acquire synchronization: every sync word
      carries a vector clock over (group, wave) actors; an atomic
      read-modify-write joins the word's clock into the actor's,
      publishes the actor's clock into the word and advances the actor
      (release + acquire), while the tagged [A_poll] spin read only
      acquires. This orders the paper's Inter-Group flag protocol (the
      producer's plain accesses happen-before the consumer's once the
      consumer observes the flag) and even the pooled two-tier tag
      rendezvous, whose plain buffer deposits are bracketed by a CAS
      claim and an [A_xchg] publish. Atomics themselves never race, but
      mark words initialized.

    Two accesses race when neither path orders them. A store whose value
    equals the word's current contents is exempt: it is architecturally
    unobservable (Floyd-Warshall's in-place relaxation re-stores the
    row-k/column-k words other groups are reading).

    Findings are deduplicated by (class, space, site pair): the first
    occurrence keeps its address and work-item coordinates, later ones
    only bump a count. The shadow only observes — it never changes
    execution, so a sanitized run is counter- and output-identical to a
    plain one. *)

open Gpu_ir.Types

type access_kind =
  | Read
  | Write
  | Atomic_rw  (** read-modify-write: acquires and releases *)
  | Atomic_read  (** the [A_poll] spin read: acquires only *)

type coord = {
  c_group : int;  (** work-group index within the launch *)
  c_wave : int;  (** wavefront index within the group *)
  c_item : int;  (** flat local work-item id *)
}

type access = {
  a_site : Gpu_ir.Site.id;
  a_coord : coord;
  a_actor : int;  (** dense id of the (group, wave) actor *)
  a_clock : int;  (** the actor's own logical clock at access time *)
  a_epoch : int;  (** barrier epoch of the group at access time *)
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
  f_addr : int;  (** byte address of the first occurrence *)
  f_first : access option;  (** earlier access of a racing pair *)
  f_second : access;  (** the access that triggered the finding *)
  mutable f_count : int;  (** occurrences of this (class, site pair) *)
}

(* Per-word shadow: the initialized bit survives across launches (a
   multi-pass benchmark reads what the previous pass wrote); the
   last-access records are per-launch (kernel boundaries order
   everything). *)
type word = {
  mutable init : bool;
  mutable lastw : access option;
  mutable lastr : access option;
  mutable sync : int array;
      (** vector clock released into this word by atomic writers; [[||]]
          until the word is used for synchronization *)
}

type group_state = { mutable epoch : int; lwords : (int, word) Hashtbl.t }

type t = {
  mutable cur_site : int;  (** site of the instruction being issued *)
  mutable ranges : (int * int) list;  (** live allocations: (addr, size) *)
  gwords : (int, word) Hashtbl.t;  (** global shadow, by word address *)
  groups : (int, group_state) Hashtbl.t;  (** per-group LDS shadow *)
  actors : (int * int, int) Hashtbl.t;  (** (group, wave) -> dense id *)
  mutable avcs : int array array;  (** actor id -> its vector clock *)
  mutable nactors : int;
  dedup : (string, finding) Hashtbl.t;
  mutable rev_findings : finding list;  (** reverse first-occurrence order *)
}

let create () =
  {
    cur_site = -1;
    ranges = [];
    gwords = Hashtbl.create 4096;
    groups = Hashtbl.create 64;
    actors = Hashtbl.create 64;
    avcs = [||];
    nactors = 0;
    dedup = Hashtbl.create 16;
    rev_findings = [];
  }

let findings t = List.rev t.rev_findings
let clean t = t.rev_findings = []

(* ------------------------------------------------------------------ *)
(* Host-side tracking                                                  *)
(* ------------------------------------------------------------------ *)

let note_alloc t ~addr ~size = t.ranges <- (addr, size) :: t.ranges

(** Bump-allocator reset: every buffer (and its contents) is dead. *)
let reset_allocs t =
  t.ranges <- [];
  Hashtbl.reset t.gwords

(** The host wrote the 4-byte word at [addr]. *)
let host_write t addr =
  match Hashtbl.find_opt t.gwords addr with
  | Some w -> w.init <- true
  | None ->
      Hashtbl.add t.gwords addr
        { init = true; lastw = None; lastr = None; sync = [||] }

(* ------------------------------------------------------------------ *)
(* Launch lifecycle                                                    *)
(* ------------------------------------------------------------------ *)

(** Start of a kernel launch: clear the per-launch race state (a launch
    boundary orders everything — including the actor registry and the
    sync vector clocks, whose actor ids are reused by the next launch)
    but keep the initialized bits. *)
let begin_launch t =
  t.cur_site <- -1;
  Hashtbl.iter
    (fun _ w ->
      w.lastw <- None;
      w.lastr <- None;
      w.sync <- [||])
    t.gwords;
  Hashtbl.reset t.groups;
  Hashtbl.reset t.actors;
  t.nactors <- 0

let set_site t site = t.cur_site <- site

let group_state t g =
  match Hashtbl.find_opt t.groups g with
  | Some gs -> gs
  | None ->
      let gs = { epoch = 0; lwords = Hashtbl.create 64 } in
      Hashtbl.add t.groups g gs;
      gs

(** All waves of group [g] passed a barrier: accesses before and after
    are now ordered. *)
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

(** Dense id of the (group, wave) actor; a fresh actor starts its own
    clock at 1 so that a clock of 0 never reads as happened-before. *)
let actor_id t ~group ~wave =
  match Hashtbl.find_opt t.actors (group, wave) with
  | Some i -> i
  | None ->
      let i = t.nactors in
      t.nactors <- i + 1;
      if i >= Array.length t.avcs then begin
        let n = Array.make (max 16 (2 * (i + 1))) [||] in
        Array.blit t.avcs 0 n 0 (Array.length t.avcs);
        t.avcs <- n
      end;
      let vc = Array.make (i + 1) 0 in
      vc.(i) <- 1;
      t.avcs.(i) <- vc;
      Hashtbl.add t.actors (group, wave) i;
      i

(** Release/acquire bookkeeping for an atomic access to [w] by [actor]:
    acquire the word's released knowledge; a read-modify-write also
    publishes the actor's clock into the word and advances the actor, so
    later own accesses are not covered by what was released. *)
let sync_access t kind (w : word) actor =
  match kind with
  | Read | Write -> ()
  | Atomic_read | Atomic_rw ->
      let vc = t.avcs.(actor) in
      let vc =
        if vc_covers vc w.sync then vc
        else begin
          let j = vc_join vc w.sync in
          t.avcs.(actor) <- j;
          j
        end
      in
      if kind = Atomic_rw then begin
        w.sync <- vc_join w.sync vc;
        vc.(actor) <- vc.(actor) + 1
      end

(* ------------------------------------------------------------------ *)
(* Findings                                                            *)
(* ------------------------------------------------------------------ *)

let record t cls space ~addr ~first ~second =
  let key =
    Printf.sprintf "%s/%s/%d/%d" (cls_id cls)
      (match space with Global -> "g" | Local -> "l")
      (match first with Some a -> a.a_site | None -> -1)
      second.a_site
  in
  match Hashtbl.find_opt t.dedup key with
  | Some f -> f.f_count <- f.f_count + 1
  | None ->
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
      Hashtbl.add t.dedup key f;
      t.rev_findings <- f :: t.rev_findings

(* ------------------------------------------------------------------ *)
(* Access checking                                                     *)
(* ------------------------------------------------------------------ *)

(* Ordered iff same wavefront (lockstep program order), same group with
   a barrier in between, or the earlier access is covered by the current
   actor's acquired vector clock (atomic release/acquire chains). *)
let ordered t (a : access) (b : access) =
  a.a_actor = b.a_actor
  || (a.a_coord.c_group = b.a_coord.c_group && a.a_epoch <> b.a_epoch)
  || a.a_clock <= vc_get t.avcs.(b.a_actor) a.a_actor

let check_word t space ~addr ~kind ~unchanged (w : word) (acc : access) =
  match kind with
  | Atomic_rw | Atomic_read ->
      (* synchronization: exempt from race/uninit rules, but an atomic
         read-modify-write leaves the word written *)
      w.init <- true
  | Write when unchanged ->
      (* A store of the word's current bit pattern is architecturally
         unobservable: no reader can tell it happened, so it creates no
         race edge in either direction. Floyd-Warshall depends on this —
         in pass k every group re-stores the row-k/column-k words it
         reads from other groups with min(d, d + dist[k][k]) = d. *)
      w.init <- true
  | Read ->
      if not w.init then
        record t Uninit_read space ~addr ~first:None ~second:acc;
      (match w.lastw with
      | Some prev when not (ordered t prev acc) ->
          record t Race_rw space ~addr ~first:(Some prev) ~second:acc
      | _ -> ());
      w.lastr <- Some acc
  | Write ->
      (match w.lastw with
      | Some prev when not (ordered t prev acc) ->
          record t Race_ww space ~addr ~first:(Some prev) ~second:acc
      | _ -> (
          match w.lastr with
          | Some prev when not (ordered t prev acc) ->
              record t Race_rw space ~addr ~first:(Some prev) ~second:acc
          | _ -> ()));
      w.init <- true;
      w.lastw <- Some acc

let word_of tbl addr =
  match Hashtbl.find_opt tbl addr with
  | Some w -> w
  | None ->
      let w = { init = false; lastw = None; lastr = None; sync = [||] } in
      Hashtbl.add tbl addr w;
      w

let in_some_range t addr =
  List.exists (fun (a, sz) -> addr >= a && addr + 4 <= a + sz) t.ranges

let make_access t (coord : coord) epoch =
  let actor = actor_id t ~group:coord.c_group ~wave:coord.c_wave in
  {
    a_site = t.cur_site;
    a_coord = coord;
    a_actor = actor;
    a_clock = vc_get t.avcs.(actor) actor;
    a_epoch = epoch;
  }

(** A lane touched global word [addr]. [unchanged] marks a store whose
    value equals the word's current contents (a benign, unobservable
    write — it initializes but cannot race). *)
let global_access t ~(coord : coord) ~kind ?(unchanged = false) ~addr () =
  let gs = group_state t coord.c_group in
  let acc = make_access t coord gs.epoch in
  if addr land 3 <> 0 || not (in_some_range t addr) then
    record t Oob Global ~addr ~first:None ~second:acc
  else begin
    let w = word_of t.gwords addr in
    sync_access t kind w acc.a_actor;
    check_word t Global ~addr ~kind ~unchanged w acc
  end

(** A lane touched LDS word [addr] of its group ([lds_bytes] is the
    group's allocation size). *)
let lds_access t ~(coord : coord) ~kind ?(unchanged = false) ~addr ~lds_bytes
    () =
  let gs = group_state t coord.c_group in
  let acc = make_access t coord gs.epoch in
  if addr < 0 || addr land 3 <> 0 || addr + 4 > lds_bytes then
    record t Oob Local ~addr ~first:None ~second:acc
  else begin
    let w = word_of gs.lwords addr in
    sync_access t kind w acc.a_actor;
    check_word t Local ~addr ~kind ~unchanged w acc
  end
