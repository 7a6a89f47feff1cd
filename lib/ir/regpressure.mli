(** Register-pressure estimation.

    Live-interval analysis over the structured body, yielding the
    VGPR/SGPR demand that drives occupancy — the mechanism behind the
    paper's "costs of doubling the size of work-groups" analysis
    (Sections 6.4/7.4): RMT's extra registers and LDS reduce the number
    of schedulable work-groups. Divergent registers count toward VGPRs,
    uniform ones toward SGPRs; an allocator-slack factor calibrates the
    theoretical minimum into the range real compilers produce. *)

type usage = {
  vgprs : int;  (** per-work-item vector registers *)
  sgprs : int;  (** per-wavefront scalar registers *)
  lds : int;    (** bytes of LDS per work-group *)
}

val vgpr_reserve : int
val sgpr_reserve : int

val vgpr_slack : int -> int
(** Allocator-slack adjustment applied to the live-interval maximum. *)

type interval = {
  i_reg : Types.reg;
  i_start : int;  (** preorder position of the definition *)
  i_end : int;
      (** position of the last use, extended to the end of any loop the
          value is live across *)
  i_divergent : bool;  (** counts toward VGPRs, else SGPRs *)
}

val intervals : Types.kernel -> interval list
(** The live interval of every defined register, sorted by start. *)

val analyze : Types.kernel -> usage
(** The maximum number of simultaneously live intervals per register
    file, with {!vgpr_slack} and the reserves added. *)

val pp_usage : usage -> string
