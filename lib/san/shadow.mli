(** Dynamic kernel sanitizer: shadow state for LDS and global memory.

    A device is created with at most one {!t}, which it threads through
    every launch (behind a single [san_on] test per instrumentation site,
    the same zero-cost discipline as tracing and fault provenance) and
    calls {!global_access}/{!lds_access} for every lane of every memory
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
      mark words initialized;
    - a launch boundary orders everything.

    Two accesses race when neither path orders them. A store whose value
    equals the word's current contents is exempt: it is architecturally
    unobservable (Floyd-Warshall's in-place relaxation re-stores the
    row-k/column-k words other groups are reading).

    Findings are deduplicated by (class, space, site pair): the first
    occurrence keeps its address and work-item coordinates, later ones
    only bump a count. The shadow only observes — it never changes
    execution, so a sanitized run is counter- and output-identical to a
    plain one. The per-lane calls allocate nothing unless they record a
    new finding. *)

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

(** One side of a finding. *)
type access = {
  a_site : Gpu_ir.Site.id;  (** [-1] before the launch's first issue *)
  a_coord : coord;
  a_actor : int;  (** dense id of the (group, wave) actor *)
  a_clock : int;  (** the actor's own logical clock at access time *)
  a_epoch : int;  (** barrier epoch of the group at access time *)
}

type cls = Race_ww | Race_rw | Uninit_read | Oob

val cls_name : cls -> string
(** Human-readable class name ("write-write race", ...). *)

val cls_id : cls -> string
(** Stable class id for reports and JSON ("race-ww", ...). *)

type finding = {
  f_class : cls;
  f_space : Gpu_ir.Types.space;
  f_addr : int;  (** byte address of the first occurrence *)
  f_first : access option;  (** earlier access of a racing pair *)
  f_second : access;  (** the access that triggered the finding *)
  mutable f_count : int;  (** occurrences of this (class, site pair) *)
}

type t

val create : unit -> t

val copy : t -> t
(** A shadow with the same state and findings, sharing nothing mutable
    with [t]: a forked device checks its accesses against it. *)

val findings : t -> finding list
(** In order of first occurrence. *)

val clean : t -> bool

(** {1 Host side} *)

val note_alloc : t -> addr:int -> size:int -> unit
(** A buffer of [size] bytes at [addr] is live. *)

val host_write : t -> int -> unit
(** The host wrote the 4-byte word at this address. *)

val in_some_range : t -> int -> bool
(** The 4-byte word at this address lies inside a live buffer. *)

(** {1 Launch lifecycle} *)

val begin_launch : t -> unit
(** Start of a kernel launch: forget the per-launch race state (last
    writer and reader, sync clocks, actors, barrier epochs, LDS contents)
    but keep the initialized bits of global words. *)

val set_site : t -> Gpu_ir.Site.id -> unit
(** Site of the instruction about to issue; the next accesses are its. *)

val barrier_release : t -> group:int -> unit
(** All waves of [group] passed a barrier: accesses before and after are
    now ordered. *)

(** {1 Per-lane accesses} *)

val global_access :
  t ->
  group:int ->
  wave:int ->
  item:int ->
  kind:access_kind ->
  unchanged:bool ->
  addr:int ->
  unit
(** Work-item [item] (flat local id) of wave [wave] of [group] touched
    global word [addr]. [unchanged] marks a store whose value equals the
    word's current contents (a benign, unobservable write — it
    initializes but cannot race). *)

val lds_access :
  t ->
  group:int ->
  wave:int ->
  item:int ->
  kind:access_kind ->
  unchanged:bool ->
  addr:int ->
  lds_bytes:int ->
  unit
(** Like {!global_access}, for LDS word [addr] of the group, whose
    allocation is [lds_bytes] bytes. *)
