(** Domain-based work-stealing worker pool.

    The pool executes an indexed family of independent tasks
    [f 0 … f (n-1)] on up to [jobs] OCaml 5 domains and returns the
    results {e in index order}, so any caller that derives its
    per-task inputs from the index alone (the fuzz campaign seeds each
    case splitmix-style from [(seed, case_index)]) gets results that
    are byte-identical regardless of [jobs].

    Scheduling: tasks are submitted up-front in contiguous chunks,
    dealt round-robin onto one {e bounded deque per worker}; each
    worker drains its own deque from the front (so [jobs:1] preserves
    exact serial order) and, when empty, steals whole chunks from the
    {e back} of sibling deques.  Workers never produce new tasks —
    nested submission from inside a task is rejected — so a worker
    that finds every deque empty can exit.

    Failure: a task that raises never tears down the pool mid-run by
    itself.  The exception (with its backtrace) is captured; at join
    the exception of the {e smallest failing index} is re-raised, a
    deterministic choice, and every {e other} captured failure is
    logged as an ambient ["pool"]/["secondary-error"] Obs instant so
    no error is silently dropped.  Every task runs, failing or not.
    {!map_all_errors} reports every per-index outcome instead of
    raising. *)

val recommended_jobs : unit -> int
(** [Domain.recommended_domain_count ()]: the default worker count. *)

val now : unit -> float
(** Monotonic seconds ({!Mclock.now}): never decreases within a
    process, so intervals and timeouts survive wall-clock steps.
    Origin is arbitrary — only differences are meaningful.  Exposed so
    callers time whole runs with the same clock the per-task stats
    use. *)

(** Per-task execution cost, measured around the task on its worker
    domain.  {e Not} deterministic — keep it out of any output that
    must be byte-stable across runs or [jobs] values. *)
type stats = {
  st_wall : float;  (** wall-clock seconds spent inside the task *)
  st_alloc_words : float;
      (** words allocated by the task on its domain's minor heap *)
}

val map : ?jobs:int -> ?chunk:int -> int -> (int -> 'a) -> 'a array
(** [map n f] is [[| f 0; …; f (n-1) |]], computed on [jobs] workers
    (default {!recommended_jobs}; clamped to ≥ 1).  [chunk] is the
    number of consecutive indices per scheduling unit (default scales
    with [n / jobs]; pass [1] when task costs vary wildly).

    @raise Invalid_argument on [n < 0] or when called from inside a
    pool task (nested submission).
    @raise exn the captured exception of the smallest failing index,
    with its original backtrace, after all workers joined. *)

val map_stats :
  ?jobs:int ->
  ?chunk:int ->
  int ->
  (int -> 'a) ->
  'a array * stats array
(** Like {!map}, also returning the per-task cost in index order. *)

val map_all_errors :
  ?jobs:int ->
  ?chunk:int ->
  int ->
  (int -> 'a) ->
  ('a, exn) result array
(** Like {!map}, but never re-raises a task failure: the returned
    array has, at each index, [Ok v] for a task that returned and
    [Error e] for a task that raised [e].  A supervisor deciding what to retry sees every
    failure, not just the smallest index.

    @raise Invalid_argument on [n < 0] or nested submission (these are
    caller bugs, not task outcomes). *)
