(** Sparse, page-granular global-memory image.

    The image spans [size] bytes but holds storage only for the pages
    that have been written with a non-zero word: a page is materialised
    (zero-filled) on its first non-zero store, and every untouched word
    reads as 0. Creating an image therefore costs one pointer per page,
    not a zero-fill of the whole address space.

    Accesses are 32-bit little-endian words at 4-byte-aligned addresses
    in [\[0, size)]; bounds and alignment are the caller's to check
    ({!Memsys} raises its [Fault] before reaching the image). *)

type t

val page_bytes : int
(** Page granularity of materialisation (4 KiB). *)

val create : int -> t
(** [create size]: an all-zero image of [size] bytes with no resident
    pages. *)

val size : t -> int

val read32 : t -> int -> int
(** The word at an address, sign-extended from 32 bits. *)

val write32 : t -> int -> int -> unit
(** Store the low 32 bits of a value. Storing 0 to an untouched page
    leaves it untouched. *)

val copy : t -> t
(** An image with the same contents: every resident page is copied, so
    later stores to either image are invisible to the other. *)

val resident_pages : t -> int
(** Pages materialised so far. *)
