(** The candidate evaluator of both shrinkers, with session reuse for
    schedule-bearing candidates.

    One recording {!Sim.Session} is kept open on a case's {e box} (its
    processes, faults, workload — everything but the schedule); each
    candidate that differs only in [c_schedule] / a smaller
    [c_max_events] is evaluated by undoing to the divergence point and
    re-delivering the suffix, instead of re-simulating from scratch.
    Oracle verdicts are identical to {!Oracle.evaluate} on the same
    candidate — the shrinker's result cannot change, only its cost
    (O(len) amortized deliveries per pass instead of O(len²)).

    What a shrink traces: nothing of its candidates.  Every
    evaluation runs {!Obs.muted}, whichever path answers it, so a
    shrinking run's scoped stream holds the case's own run, its
    oracle verdicts and the shrinker's own instants, and it is the
    same with or without a walker. *)

type t

val create : Gen.case -> t option
(** Open a recording session on the case's box, or [None] when the
    case has no schedule to walk.  The case's own [c_schedule] is not
    replayed until the first {!evaluate}.
    @raise Invalid_argument if the case does not {!Gen.validate}. *)

val evaluate :
  t option -> oracles:Oracle.t list -> Gen.case -> (string * Oracle.outcome) list
(** Evaluate a candidate, all of it {!Obs.muted}.  It goes through the
    walker's session when the walker is healthy and the candidate
    differs from the walker's case only in [c_schedule] (non-empty)
    and an equal-or-smaller [c_max_events]; otherwise, or with no
    walker, through {!Oracle.evaluate}.  If a session walk raises, the
    walker is poisoned (every later call falls back) and the
    candidate is re-evaluated statelessly, which also reproduces the
    crash verdict the fresh run reports. *)
