(** Domain pool with deterministic, submission-ordered result collection.

    Tasks must be independent closures (each [Run.run] builds its own
    device); results are collected through futures, so report text built
    from them is byte-identical whatever the worker interleaving. Tasks
    queue until the first {!await} of a pending future, which runs the
    whole queue on the awaiting domain and at most [jobs - 1] helper
    domains, and joins them before it returns: no domain outlives that
    drain, so a pool holds no domain between drains and needs no
    shutdown. With [jobs = 1] no domain is spawned and tasks run inline
    at submission, reproducing the sequential harness exactly. *)

type t

type 'a future
(** The pending result of a submitted task. *)

val create : ?jobs:int -> unit -> t
(** A pool of [jobs] workers, the awaiting domain included (default
    {!Domain.recommended_domain_count}, clamped to at least 1). Creating
    a pool spawns nothing. *)

val jobs : t -> int
(** The pool's worker count (1 = sequential). *)

val submit : t -> (unit -> 'a) -> 'a future
(** With [jobs = 1], run the task now, in the caller's domain. Otherwise
    only enqueue it: it runs in the drain of the first {!await} of any
    of the pool's pending futures. *)

val peek : 'a future -> 'a option
(** Non-blocking result probe: [Some v] once the task finished, [None]
    while pending or after a failure (never re-raises, never drains). *)

val await : 'a future -> 'a
(** The task's result. A pending future first drains the pool's queue:
    the caller runs tasks beside at most [min (jobs - 1) (queued - 1)]
    helper domains spawned for this drain, and joins them before
    returning. Re-raises (with its backtrace) any exception the task
    raised. Submit and await from one domain: awaiting a task that
    another domain's drain is running raises [Invalid_argument]. *)

val overlap : t -> (((unit -> 'a) -> 'a future) -> 'b) -> 'b
(** [overlap pool produce] calls [produce start] on the calling domain,
    where [start f] queues the task [f] for helper domains that run it
    while [produce] goes on: at most [jobs - 1] of them, spawned for this
    call as tasks arrive. When [jobs - 1] tasks are already waiting,
    [start] first runs the oldest itself. Once [produce] returns (or
    raises), the caller runs what is still queued and joins the helpers,
    so every future is resolved when [overlap] returns; await them only
    then. With [jobs = 1], [start] is {!submit}: the task runs inline. *)

val map : t -> ('a -> 'b) -> 'a list -> 'b list
(** [map pool f xs] runs [f] over [xs] on the pool and returns results
    in submission (= list) order. If several tasks raise, the exception
    of the earliest-submitted failing task is re-raised. *)

(** {1 Observability} *)

type stats = {
  s_jobs : int;
  tasks_per_worker : int array;  (** index = worker (0 = awaiting domain) *)
  total_queue_wait : float;  (** seconds, summed over dequeued tasks *)
  max_queue_wait : float;  (** seconds *)
}

val stats : t -> stats
(** Snapshot of per-worker task counts and queue-wait totals, summed over
    the pool's drains: worker 0 is the awaiting domain, worker [k] the
    [k]-th helper of each drain. Inline ([jobs = 1]) pools count tasks
    against worker 0 with zero wait. *)

val stats_line : t -> string
(** One-line summary of {!stats} for the [-j] status line. *)
