(** Greedy counterexample shrinking: minimize a failing case while the
    same oracle keeps failing. *)

val candidates : Gen.case -> Gen.case list
(** Valid "smaller" variants of a case, most aggressive first: fewer
    events, milder/fewer faults, fewer processes, tamer schedulers.
    Every candidate satisfies {!Gen.validate}. *)

type result = {
  shrunk : Gen.case;
  steps : int;  (** accepted reductions *)
  evaluations : int;
      (** candidates evaluated, whether each was a session walk, a cut
          of a recorded run or a fresh run (the report calls them
          "candidate runs") *)
}

val shrink :
  ?max_evals:int ->
  ?session_reuse:bool ->
  oracles:Oracle.t list ->
  oracle:string ->
  Gen.case ->
  result
(** Greedy descent: keep the first candidate on which oracle [oracle]
    still fails; stop at a local minimum or after [max_evals]
    (default 80) candidate evaluations.  Candidates go through
    {!Sched_walk}: on a schedule-bearing case the prefix-preserving
    candidates replay through one recording session instead of from
    scratch; on a scheduler-driven case a candidate that only lowers
    the budget of the last candidate run is cut from that run's
    recording.  [session_reuse:false] (default [true]) forces the
    stateless path for both.  The shrunk result is identical either
    way.

    Candidate runs are not traced: a shrink emits one
    [fuzz]/[shrink-eval] instant per candidate and one
    [fuzz]/[shrink-step] per accepted reduction, and nothing else, so
    its trace is the same for either [session_reuse]. *)
