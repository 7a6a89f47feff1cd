(** Domain pool for embarrassingly parallel simulation work.

    The experiment grid is a set of independent [Run.run] calls: every
    run builds its own {!Gpu_sim.Device} and shares no mutable state
    with any other. The pool queues such closures and hands each
    submission a {!type:future}; the first {!await} of a pending future
    drains the whole queue. The awaiting domain runs tasks itself, beside
    at most [jobs - 1] helper domains spawned for that drain, and joins
    the helpers before returning. No domain outlives a drain, so an idle
    pool costs nothing (in OCaml 5 every minor collection stops every
    domain, idle ones too) and a pool needs no shutdown.

    Determinism contract: a task's result depends only on its closure
    (never on scheduling), callers await futures in submission order —
    which is what keeps parallel report text byte-identical to the
    sequential text — and with [jobs = 1] no domain is spawned at all:
    tasks execute inline at submission, reproducing the sequential
    harness exactly. *)

type 'a state =
  | Pending
  | Done of 'a
  | Failed of exn * Printexc.raw_backtrace

(** Per-pool observability: how many tasks each worker executed and how
    long tasks sat queued before a worker picked them up. Queue-wait is
    the scheduling-delay signal: work is queued until its first await, so
    a long wait means results were needed late, not that workers lagged. *)
type stats = {
  s_jobs : int;
  tasks_per_worker : int array;  (** index = worker (0 = awaiting domain) *)
  total_queue_wait : float;  (** seconds, summed over dequeued tasks *)
  max_queue_wait : float;  (** seconds *)
}

type t = {
  jobs : int;
  lock : Mutex.t;  (** guards [queue] and the statistics below *)
  queue : (float * (unit -> unit)) Queue.t;  (** (submit time, task) *)
  task_counts : int array;
  mutable total_wait : float;
  mutable max_wait : float;
}

(* Written only by its task, which runs either inline in [submit] or in
   a drain; read only after that drain's join. *)
type 'a future = { pool : t; mutable state : 'a state }

let create ?jobs () =
  let jobs =
    max 1
      (match jobs with Some j -> j | None -> Domain.recommended_domain_count ())
  in
  {
    jobs;
    lock = Mutex.create ();
    queue = Queue.create ();
    task_counts = Array.make jobs 0;
    total_wait = 0.0;
    max_wait = 0.0;
  }

let jobs pool = pool.jobs

(* Run one queued task and add it to a worker's tally: tasks run, summed
   and longest queue wait. *)
let run_task (submitted, task) (count, total, longest) =
  let wait = Unix.gettimeofday () -. submitted in
  task ();
  (count + 1, total +. wait, Float.max longest wait)

let no_tasks = (0, 0.0, 0.0)

(* Merge the workers' tallies after their join; worker 0 first. *)
let record pool tallies =
  Mutex.lock pool.lock;
  List.iteri
    (fun wid (count, total, longest) ->
      pool.task_counts.(wid) <- pool.task_counts.(wid) + count;
      pool.total_wait <- pool.total_wait +. total;
      pool.max_wait <- Float.max pool.max_wait longest)
    tallies;
  Mutex.unlock pool.lock

(* Run every queued task: the calling domain and up to [jobs - 1] helpers
   pull tasks through one atomic index. *)
let drain pool =
  Mutex.lock pool.lock;
  let tasks = Array.of_seq (Queue.to_seq pool.queue) in
  Queue.clear pool.queue;
  Mutex.unlock pool.lock;
  let n = Array.length tasks in
  let next = Atomic.make 0 in
  let work () =
    let rec loop tally =
      let i = Atomic.fetch_and_add next 1 in
      if i >= n then tally else loop (run_task tasks.(i) tally)
    in
    loop no_tasks
  in
  let helpers =
    List.init (max 0 (min (pool.jobs - 1) (n - 1))) (fun _ -> Domain.spawn work)
  in
  let mine = work () (* bound first: the caller works before it joins *) in
  record pool (mine :: List.map Domain.join helpers)

let submit pool f =
  let fut = { pool; state = Pending } in
  let task () =
    fut.state <-
      (try Done (f ()) with e -> Failed (e, Printexc.get_raw_backtrace ()))
  in
  if pool.jobs <= 1 then begin
    (* inline execution: the caller is "worker 0" and nothing queues *)
    pool.task_counts.(0) <- pool.task_counts.(0) + 1;
    task ()
  end
  else begin
    Mutex.lock pool.lock;
    Queue.push (Unix.gettimeofday (), task) pool.queue;
    Mutex.unlock pool.lock
  end;
  fut

(* Non-blocking: [Some v] once the task has finished, [None] while it is
   pending or if it failed (metrics drains must never block or re-raise). *)
let peek fut = match fut.state with Done v -> Some v | Pending | Failed _ -> None

let await fut =
  (match fut.state with Pending -> drain fut.pool | Done _ | Failed _ -> ());
  match fut.state with
  | Done v -> v
  | Failed (e, bt) -> Printexc.raise_with_backtrace e bt
  | Pending -> invalid_arg "Pool.await: the task is in another domain's drain"

(* A producer on the calling domain and consumers on helper domains,
   sharing one bounded queue. Helpers are spawned as tasks arrive, at
   most [jobs - 1], and wait on [nonempty] between tasks; the caller
   joins them once [produce] has returned and the queue is empty. *)
let overlap pool produce =
  if pool.jobs <= 1 then produce (submit pool)
  else begin
    let lock = Mutex.create () and nonempty = Condition.create () in
    let queue = Queue.create () and closed = ref false in
    let helpers = ref [] and mine = ref no_tasks in
    (* the next task; [None] once the queue is empty and, when [wait],
       the producer is done *)
    let rec take ~wait =
      match Queue.take_opt queue with
      | None when wait && not !closed ->
          Condition.wait nonempty lock;
          take ~wait
      | next -> next
    in
    let work ~wait tally =
      let rec loop tally =
        Mutex.lock lock;
        let next = take ~wait in
        Mutex.unlock lock;
        match next with None -> tally | Some t -> loop (run_task t tally)
      in
      loop tally
    in
    let start f =
      let fut = { pool; state = Pending } in
      let task () =
        fut.state <-
          (try Done (f ()) with e -> Failed (e, Printexc.get_raw_backtrace ()))
      in
      Mutex.lock lock;
      let oldest =
        if Queue.length queue >= pool.jobs - 1 then Queue.take_opt queue else None
      in
      Queue.push (Unix.gettimeofday (), task) queue;
      if List.length !helpers < pool.jobs - 1 then
        helpers := Domain.spawn (fun () -> work ~wait:true no_tasks) :: !helpers;
      Condition.signal nonempty;
      Mutex.unlock lock;
      Option.iter (fun t -> mine := run_task t !mine) oldest;
      fut
    in
    let finish () =
      Mutex.lock lock;
      closed := true;
      Condition.broadcast nonempty;
      Mutex.unlock lock;
      let mine = work ~wait:false !mine in
      record pool (mine :: List.rev_map Domain.join !helpers)
    in
    Fun.protect ~finally:finish (fun () -> produce start)
  end

let map pool f xs =
  let futures = List.map (fun x -> submit pool (fun () -> f x)) xs in
  List.map await futures

let stats pool =
  Mutex.lock pool.lock;
  let s =
    {
      s_jobs = pool.jobs;
      tasks_per_worker = Array.copy pool.task_counts;
      total_queue_wait = pool.total_wait;
      max_queue_wait = pool.max_wait;
    }
  in
  Mutex.unlock pool.lock;
  s

(** One-line human summary for the [-j] status line, e.g.
    ["4 workers, 36 tasks [10/9/9/8], queue wait avg 1.2 ms, max 8.0 ms"]. *)
let stats_line pool =
  let s = stats pool in
  let total = Array.fold_left ( + ) 0 s.tasks_per_worker in
  let per_worker =
    String.concat "/"
      (Array.to_list (Array.map string_of_int s.tasks_per_worker))
  in
  if s.s_jobs <= 1 then
    Printf.sprintf "1 worker (inline), %d tasks" total
  else
    Printf.sprintf "%d workers, %d tasks [%s], queue wait avg %.1f ms, max %.1f ms"
      s.s_jobs total per_worker
      (if total = 0 then 0.0 else 1000.0 *. s.total_queue_wait /. float_of_int total)
      (1000.0 *. s.max_queue_wait)
