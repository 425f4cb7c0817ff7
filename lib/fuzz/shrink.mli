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

type evaluate = oracles:Oracle.t list -> Gen.case -> (string * Oracle.outcome) list
(** A candidate evaluator: the verdicts of [oracles] on a case. *)

val evaluator : unit -> evaluate
(** A fresh evaluator, whose verdicts are {!Oracle.evaluate}'s on the
    same case, so it changes what an evaluation costs, never what it
    answers.  It keeps the last scheduler-driven case it ran, recorded
    ({!Gen.run_case_recorded}).  A case that only lowers that run's
    [c_max_events] is answered from a cut of it and runs nothing.  Any
    other scheduler-driven case is run recorded and becomes the run to
    cut; if that run raises, the answer is {!Oracle.crashed} of what
    it raised, and the case is not run again.  A cut that raises falls
    back to {!Oracle.evaluate}, as does every schedule-bearing case.

    {!Campaign.eval_case} evaluates each case through one evaluator and
    hands it to the case's shrinks, so a candidate that only lowers the
    case's budget is cut from the campaign's own run of the case.  The
    state belongs to one case or shrink on one domain. *)

val shrink :
  ?evaluate:evaluate -> oracles:Oracle.t list -> oracle:string -> Gen.case -> result
(** Greedy descent over {!candidates}: keep the first candidate on
    which oracle [oracle] still fails; stop at a local minimum or after
    the evaluation budget, which follows from the kind of case: 200
    candidate evaluations for a schedule-bearing case, 80 for any
    other.  Candidates go through [evaluate] (default: a fresh
    {!evaluator}); the campaign passes the evaluator that ran the case.
    Any evaluator whose verdicts are {!Oracle.evaluate}'s gives the
    same result: the tests compare shrinks through an {!evaluator}
    with shrinks through [fun ~oracles c -> Oracle.evaluate oracles c],
    which runs every candidate fresh.

    Candidate runs are not traced: every evaluation runs {!Obs.muted},
    and a shrink emits one [fuzz]/[shrink-eval] instant per candidate
    and one [fuzz]/[shrink-step] per accepted reduction, and nothing
    else, so its trace is the same for any such evaluator. *)
