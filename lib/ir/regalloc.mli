(** Linear-scan register allocation over the {!Regpressure} live
    intervals: a concrete virtual-to-physical assignment that validates
    the pressure estimate (the scan's high-water mark equals the
    max-live bound) and powers the annotated listing of
    [rmtgpu dump]. Spilling is out of scope — GCN kernels that would
    spill instead lower occupancy. *)

open Types

type interval = Regpressure.interval = {
  i_reg : reg;
  i_start : int;
  i_end : int;
  i_divergent : bool;
}

type assignment = {
  phys : int array;  (** virtual -> physical index in its file; -1 = dead *)
  vgprs_used : int;
  sgprs_used : int;
  intervals : interval list;  (** sorted by start *)
}

val allocate : kernel -> assignment

val annotate : kernel -> string
(** Listing with physical names ([r12:v3] = virtual 12 in VGPR 3,
    [:sN] = scalar file) for every register, in instructions and in
    [if]/[break unless] conditions alike. *)
