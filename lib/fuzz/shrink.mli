(** Greedy counterexample shrinking: minimize a failing case while the
    same oracle keeps failing.  The one shrinker of the fuzzer's
    witnesses and of the model checker's schedule-bearing ones. *)

val candidates : Gen.case -> Gen.case list
(** The "smaller" variants of a case, most aggressive first.  A move
    never changes the kind of case, so one shrink never mixes kinds.

    - A schedule-bearing case ([c_schedule <> []]) gets schedule moves:
      truncate to half, then to all but one choice; then delete each
      single choice; then zero each nonzero choice.  Not deduplicated.
      The empty schedule is never offered: it means "no schedule" and
      would hand the run back to the case's own scheduler.  Each move
      strictly decreases (length, sum of choices) lexicographically.
    - Any other case gets case moves: fewer events, a shorter fault
      plan, milder/fewer faults, fewer processes, tamer schedulers.
      Deduplicated, and every candidate satisfies {!Gen.validate}. *)

type result = {
  shrunk : Gen.case;
  steps : int;  (** accepted reductions *)
  evaluations : int;
      (** candidates evaluated, whether cut from a recorded run or run
          (the report calls them "candidate runs") *)
}

val evaluator :
  unit -> oracles:Oracle.t list -> Gen.case -> (string * Oracle.outcome) list
(** A fresh candidate evaluator, as one {!shrink} keeps it; its
    verdicts are {!Oracle.evaluate}'s on the same candidate, so it
    changes a shrink's cost, never its result.  It keeps the last
    scheduler-driven candidate it ran, recorded
    ({!Gen.run_case_recorded}).  A candidate that only lowers that
    run's [c_max_events] is answered from a cut of it and runs
    nothing.  Any other scheduler-driven candidate is run recorded and
    becomes the run to cut.  A recorded run or a cut that raises falls
    back to {!Oracle.evaluate}, as does every schedule-bearing
    candidate.  The state belongs to one shrink on one domain. *)

val shrink :
  ?cuts:bool -> oracles:Oracle.t list -> oracle:string -> Gen.case -> result
(** Greedy descent over {!candidates}: keep the first candidate on
    which oracle [oracle] still fails; stop at a local minimum or after
    the evaluation budget, which follows from the kind of case: 200
    candidate evaluations for a schedule-bearing case, 80 for any
    other.  Candidates go through one {!evaluator}; [cuts:false]
    (default [true]) runs every candidate fresh through
    {!Oracle.evaluate} instead.  The result is identical either way.

    Candidate runs are not traced: every evaluation runs {!Obs.muted},
    and a shrink emits one [fuzz]/[shrink-eval] instant per candidate
    and one [fuzz]/[shrink-step] per accepted reduction, and nothing
    else, so its trace is the same for either [cuts]. *)
