(** Scheduler-event taxonomy.

    With [trace] set in its launch options, the device records one
    {!event} per observable scheduler action: group dispatch and
    retirement, per-wave instruction issue (tagged with the unit that
    accepted it), barrier arrival/release, and the reason a scanned wave
    could not issue ({!stall_cause}). Events carry plain integers — CU,
    SIMD, group, wave and site ids — so a record never holds references into
    simulator state.

    Overhead discipline: the device guards every emission behind a single
    [tracing] test and allocates records only when the flag is set, so an
    untraced run executes the same instructions on its hot path as before
    events existed. Records come back in the launch result in simulation
    order; a run's event stream is therefore as deterministic as the run
    itself, whatever the harness [-j] worker count. *)

(** The issue unit that accepted an instruction (mirrors the device's
    internal classification). *)
type unit_kind = Valu | Salu | Vmem | Lds

let unit_name = function
  | Valu -> "valu"
  | Salu -> "salu"
  | Vmem -> "vmem"
  | Lds -> "lds"

(** Why a ready-to-scan wave did not issue this cycle. *)
type stall_cause =
  | Scoreboard  (** an operand's producing load has not completed *)
  | Unit_busy  (** the classified issue unit is occupied *)
  | Write_backlog  (** a store exceeded the tolerated write backlog *)
  | Barrier_wait  (** parked at a barrier, waiting for the group *)
  | Spin  (** issued an [A_poll] spin-loop poll (busy, not progressing) *)

let stall_name = function
  | Scoreboard -> "scoreboard"
  | Unit_busy -> "unit-busy"
  | Write_backlog -> "write-backlog"
  | Barrier_wait -> "barrier"
  | Spin -> "spin"

type event =
  | Group_dispatch of { cu : int; group : int; waves : int }
  | Group_retire of { cu : int; group : int }
  | Wave_issue of {
      cu : int;
      simd : int;
      group : int;
      wave : int;
      unit_ : unit_kind;
      busy : int;  (** cycles the unit is occupied by this issue *)
    }
  | Barrier_arrive of { cu : int; group : int; wave : int }
  | Barrier_release of { cu : int; group : int }
  | Stall of {
      cu : int;
      group : int;
      wave : int;
      site : int;
          (** the instruction site the wave is held at (for a barrier
              wait, the barrier's); the profile charges its [stall_*]
              observation there *)
      cause : stall_cause;
    }

(** A timestamped event ([at] is the simulated cycle). *)
type record = { at : int; ev : event }

(* ------------------------------------------------------------------ *)
(* Rendering (debug / golden-file friendly)                            *)
(* ------------------------------------------------------------------ *)

let event_to_string = function
  | Group_dispatch { cu; group; waves } ->
      Printf.sprintf "dispatch cu=%d group=%d waves=%d" cu group waves
  | Group_retire { cu; group } -> Printf.sprintf "retire cu=%d group=%d" cu group
  | Wave_issue { cu; simd; group; wave; unit_; busy } ->
      Printf.sprintf "issue cu=%d simd=%d group=%d wave=%d unit=%s busy=%d" cu
        simd group wave (unit_name unit_) busy
  | Barrier_arrive { cu; group; wave } ->
      Printf.sprintf "barrier-arrive cu=%d group=%d wave=%d" cu group wave
  | Barrier_release { cu; group } ->
      Printf.sprintf "barrier-release cu=%d group=%d" cu group
  | Stall { cu; group; wave; cause; _ } ->
      Printf.sprintf "stall cu=%d group=%d wave=%d cause=%s" cu group wave
        (stall_name cause)

let record_to_string r = Printf.sprintf "%d: %s" r.at (event_to_string r.ev)
