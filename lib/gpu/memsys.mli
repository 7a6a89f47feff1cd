(** Global memory system: one functional memory image plus a timing
    model of the per-CU write-through L1s, the shared L2 and DRAM
    bandwidth. Values are always served from the single image (caches
    are tag-only) except for injected L1 poison, which models a
    corrupted cached copy.

    The image is sparse and page-granular ({!Image}): pages are
    materialised on their first non-zero store and untouched words read
    as 0. Bounds do not depend on residency: every access is checked
    against the configured size and alignment and raises {!Fault}
    exactly as a dense image would. *)

exception Fault of string
(** Wild (out-of-bounds or unaligned) access; surfaces as a [Crashed]
    launch outcome. *)

type t = {
  cfg : Config.t;
  image : Image.t;  (** shared with the owning device *)
  l1s : Cache.t array;
  l2 : Cache.t;
  mutable dram_next_free : float;
  write_busy_until : float array;
  mutable mem_busy_until : int array;  (** per-CU vector memory unit *)
  counters : Counters.t;
  mutable poison : poison option;
}

and poison = {
  p_cu : int;
  p_line : int;
  p_word : int;
  p_bit : int;
  mutable p_active : bool;
}

val create : Config.t -> Counters.t -> image:Image.t -> t

val copy : t -> counters:Counters.t -> image:Image.t -> t
(** The same cache, bandwidth and poison state over another image and
    counters (a forked launch's); shares nothing mutable with [t]. *)

(** {1 Functional access} *)

val read32 : t -> int -> int
(** Host/debug read; never poisoned. Raises {!Fault} on an
    out-of-bounds or unaligned address. *)

val write32 : t -> int -> int -> unit
(** Raises {!Fault} like {!read32}; storing 0 to an untouched page
    materialises nothing. *)

val load32 : t -> cu:int -> int -> int
(** Device-side load (applies any active L1 poison for [cu]). *)

val store32 : t -> cu:int -> int -> int -> unit
(** Device-side store; refreshes any poisoned copy of its line. *)

(** {1 Timing} *)

val load_timed : t -> cu:int -> now:int -> int array -> int -> int
(** [load_timed t ~cu ~now lines n]: completion cycle of a coalesced load
    of the lines [lines.(0 .. n - 1)], in that order. *)

val store_would_stall : t -> cu:int -> now:int -> bool

val store_stall_until : t -> cu:int -> int
(** First cycle at which a store on [cu] would no longer stall (exact:
    the backlog cannot change while the store is blocked). *)

val store_timed : t -> cu:int -> now:int -> int -> unit
(** Charge a write-through store of the given number of lines. *)

val atomic_timed : t -> cu:int -> now:int -> int array -> int -> int
(** Completion cycle of an atomic over [lines.(0 .. n - 1)]. *)

(** {1 Fault injection} *)

val inject_l1_poison : t -> cu:int -> seed:int -> bool
