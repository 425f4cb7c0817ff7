(** Domain-based worker pool for an indexed family of independent
    tasks.

    The pool executes [f 0 … f (n-1)] on up to [jobs] OCaml 5 domains
    and returns the results {e in index order}, so any caller that
    derives its per-task inputs from the index alone (the fuzz campaign
    seeds each case splitmix-style from [(seed, case_index)]) gets
    results that are byte-identical regardless of [jobs].

    Scheduling: one shared cursor hands out runs of [chunk]
    consecutive indices; every worker, the caller included, takes its
    next chunk from it until the indices run out.  With [jobs:1] the
    caller alone runs [0 … n-1] in order on its own domain, spawning
    nothing, so a one-worker map is a plain loop that runs anywhere,
    inside a pool task too.  A map that spawns domains is rejected
    inside a pool task (nested submission).

    Failure: a task that raises never tears down the pool mid-run by
    itself.  The exception (with its backtrace) is captured; once every
    task ran, the exception of the {e smallest failing index} is
    re-raised, a deterministic choice, and every {e other} captured
    failure is logged as an ambient ["pool"]/["secondary-error"] Obs
    instant so no error is silently dropped.  Each task runs inside a
    ["pool"]/["task"] span, emitted on the worker's domain: ambient, so
    out of every digest, unless the map itself is called inside an
    {!Obs.with_scope}. *)

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
    (default [Domain.recommended_domain_count ()]; clamped to ≥ 1).
    [chunk] (default 1) is the number of consecutive indices a worker
    takes at a time; 1 balances tasks whose costs differ by orders of
    magnitude, as fuzz cases do (an EIG case simulates thousands of
    events, a shrunk clock case a handful).

    @raise Invalid_argument on [n < 0], or when [jobs > 1] and called
    from inside a pool task of a map with [jobs > 1] (nested
    submission).
    @raise exn the captured exception of the smallest failing index,
    with its original backtrace, after all workers joined. *)

val map_stats :
  ?jobs:int ->
  ?chunk:int ->
  int ->
  (int -> 'a) ->
  'a array * stats array
(** Like {!map}, also returning the per-task cost in index order. *)
