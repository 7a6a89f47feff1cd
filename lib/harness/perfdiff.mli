(** Perf-regression diff gate over two [BENCH_<rev>.json] trajectory
    files: per-run simulated cost counters matched by run label, against
    a relative threshold (tight — counters are deterministic). A run
    of the old file that is missing from the new one is a regression;
    a run only in the new file is an info note. Host time is not
    compared. *)

val default_counter_rel : float
(** [0.02]: a gated counter is flagged when it grew by more than this
    fraction (and by at least one whole count). *)

type severity = Regression | Info

type finding = {
  severity : severity;
  subject : string;  (** run label *)
  metric : string;  (** e.g. ["counters.cycles"] *)
  old_value : float;
  new_value : float;
  detail : string;
}

val gated_counters : string list
(** The cost counters the gate watches (cycles, unit-busy cycles, write
    stalls, spin iterations). *)

exception Bad_file of string
(** Unreadable or malformed trajectory file. *)

val diff :
  ?counter_rel:float ->
  old_path:string ->
  new_path:string ->
  Gpu_trace.Json.t ->
  Gpu_trace.Json.t ->
  finding list
(** Diff two parsed trajectory documents ([old_path]/[new_path] label
    error messages only). Regressions (grown counters, vanished runs)
    come first, then info notes (new runs). *)

val diff_files :
  ?counter_rel:float ->
  old_path:string ->
  new_path:string ->
  unit ->
  finding list
(** @raise Bad_file on unreadable or malformed input. *)

val has_regression : finding list -> bool
val finding_to_string : finding -> string

val report :
  ?counter_rel:float ->
  old_path:string ->
  new_path:string ->
  unit ->
  string * bool
(** Render the full human-readable report; the flag is [true] when any
    regression crossed a threshold (the CLI exits non-zero on it). *)
