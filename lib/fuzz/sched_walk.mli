(** The candidate evaluator of both shrinkers: session reuse for
    schedule-bearing candidates, cuts of one recorded run for
    scheduler-driven ones.

    For a schedule-bearing box, one recording {!Sim.Session} is kept
    open on the case's {e box} (its processes, faults, workload —
    everything but the schedule); each candidate that differs only in
    [c_schedule] / a smaller [c_max_events] is evaluated by undoing to
    the divergence point and re-delivering the suffix (O(len) amortized
    deliveries per pass instead of O(len²)).

    For scheduler-driven candidates, the evaluator keeps the last one
    it ran, recorded ({!Gen.run_case_recorded}).  A candidate that is
    that run's case with a budget no larger than its budget is
    evaluated on a cut of it, and runs nothing; any other is run with
    recording and replaces it.

    Oracle verdicts are identical to {!Oracle.evaluate} on the same
    candidate — the shrinker's result cannot change, only its cost.

    What a shrink traces: nothing of its candidates.  Every evaluation
    runs {!Obs.muted}, whichever path answers it, so a shrinking run's
    scoped stream holds the case's own run, its oracle verdicts and the
    shrinker's own instants, and it is the same with or without an
    evaluator. *)

type t
(** Per-shrink state: the session and the last recorded run.  It is
    mutated by every {!evaluate} and belongs to one shrink on one
    domain; never share it. *)

val create : Gen.case -> t
(** Evaluator state for shrinking a case.  A schedule-bearing case
    gets a recording session on its box; its [c_schedule] is not
    replayed until the first {!evaluate}.  Nothing is run for a
    scheduler-driven case: the first scheduler-driven candidate is
    the first recorded run.
    @raise Invalid_argument if a schedule-bearing case does not
    {!Gen.validate}. *)

val evaluate :
  t option -> oracles:Oracle.t list -> Gen.case -> (string * Oracle.outcome) list
(** Evaluate a candidate, all of it {!Obs.muted}.

    - With no evaluator state, through {!Oracle.evaluate}.
    - A schedule-bearing candidate goes through the session when the
      session is healthy and the candidate differs from the box only in
      [c_schedule] (non-empty) and an equal-or-smaller [c_max_events];
      otherwise through {!Oracle.evaluate}.  If a session walk raises,
      the session is poisoned (every later schedule-bearing call falls
      back) and the candidate is re-evaluated statelessly, which also
      reproduces the crash verdict the fresh run reports.
    - A scheduler-driven candidate that is the last recorded run's case
      with an equal-or-smaller [c_max_events] is evaluated on that
      run's cut.  Any other is run with recording, which becomes the
      last recorded run.  A recorded run or a cut that raises is
      answered by {!Oracle.evaluate}, and a raising recorded run leaves
      no recorded run behind. *)
