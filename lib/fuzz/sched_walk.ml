(** The shrinkers' candidate evaluator: session reuse for
    schedule-bearing candidates, cuts of one recorded run for
    scheduler-driven ones.

    Shrinking evaluates many candidates that share a long prefix with
    a run already made: a truncated schedule, a single deleted choice,
    a zeroed choice, and above all a smaller event budget.  The
    stateless path re-simulates every candidate from scratch.  This
    evaluator keeps, per shrink, what lets it answer such candidates
    from work already done.

    {b Schedule-bearing candidates} ([c_schedule <> []]).  One
    recording {!Sim.Session} ([record:true]) stays open on the case's
    box and, per candidate, undoes down to the divergence point and
    re-delivers only the suffix: O(len) amortized per pass instead of
    O(len²).  Soundness rests on three session facts.  (1) A session
    ignores the case's scheduler — delivery is driven purely by choice
    indices against the ready list, exactly like {!Sim.run_scheduled},
    with the same clamping (negative → 0, overflow → last entry) and
    the same FIFO-0 continuation past the end of the schedule.  (2) The
    state after a choice prefix is a function of the prefix alone, so a
    candidate agreeing with the applied prefix up to step [p] can
    resume from the recorded state at [p].  (3) {!Sim.Session.undo}
    restores that state exactly (the qcheck suites of the session undo
    journal pin this against fresh replay), so re-delivery reproduces
    the identical execution the candidate's from-scratch run would
    produce.  A candidate may only differ from the session's box in
    [c_schedule] and a {e smaller-or-equal} [c_max_events]
    ({!compatible}); anything else — dropped process, weakened fault,
    tamed scheduler — changes the box and goes through the stateless
    path.

    {b Scheduler-driven candidates} ([c_schedule = []]).  A run with a
    smaller event budget is a prefix of the same case run with a larger
    one, so the evaluator keeps the last scheduler-driven run it made,
    recorded ({!Gen.run_case_recorded}).  A candidate equal to that
    run's case except for a budget no larger than its budget is
    answered from a cut of it ({!Sim.run_recorded}); any other
    scheduler-driven candidate is run with recording and replaces it.
    A box change the shrinker accepts has therefore already been run
    once, recorded, and its own budget candidates cost no run.  A
    recorded run that raises leaves no cut; its candidates take the
    stateless path, which reproduces the crash verdict.

    {!evaluate} is the one evaluator of both shrinkers' candidates,
    and all of it runs {!Obs.muted}: the session walk, the cuts, the
    recorded runs and the stateless path alike.  A candidate run is an
    engine artifact, not part of the case's observable behavior, so a
    shrink traces only what the shrinker itself emits, and that trace
    is the same whichever path answers. *)

type session_walk = {
  box : Gen.case;  (** the reference case; schedule/budget may differ *)
  sess : Gen.mc_session;
  applied : int array;  (** clamped choices delivered, [0 .. len) *)
  ready_sizes : int array;
      (** ready-list size observed just before each applied step —
          what the clamp of a future candidate's raw choice at that
          step will see, without replaying *)
  mutable len : int;
  mutable poisoned : bool;
      (** a walk raised: session state unknown, fall back for good *)
}

type t = {
  walk : session_walk option;  (** only for a schedule-bearing box *)
  mutable last : (Gen.case * (int -> Gen.run)) option;
      (** the last scheduler-driven candidate run, with its cut *)
}

let create (box : Gen.case) : t =
  let walk =
    if box.Gen.c_schedule = [] then None
    else
      let sess = Obs.muted @@ fun () -> Gen.open_session ~record:true box in
      let cap = max 1 box.Gen.c_max_events in
      Some
        {
          box;
          sess;
          applied = Array.make cap 0;
          ready_sizes = Array.make cap 0;
          len = 0;
          poisoned = false;
        }
  in
  { walk; last = None }

(* Same box, schedule and (no larger) budget aside?  Field-by-field so
   a new Gen.case field breaks the build here instead of silently
   widening what the walker accepts. *)
let compatible (w : session_walk) (c : Gen.case) =
  (not w.poisoned)
  && c.Gen.c_schedule <> []
  && c.Gen.c_max_events <= w.box.Gen.c_max_events
  && { c with Gen.c_schedule = w.box.Gen.c_schedule;
       c_max_events = w.box.Gen.c_max_events }
     = w.box

let clamp c m = if c < 0 then 0 else if c >= m then m - 1 else c

(* Position the session on [cand]'s execution: undo to the divergence
   point, deliver the rest, return the terminal run. *)
let walk (w : session_walk) (cand : Gen.case) : Gen.run =
  let budget = cand.Gen.c_max_events in
  let raws = Array.of_list cand.Gen.c_schedule in
  let eff i = if i < Array.length raws then raws.(i) else 0 in
  (* longest prefix of the applied walk the candidate reproduces: the
     ready size at step i is a function of the choices before i, so
     the recorded size is exactly what the candidate's clamp sees *)
  let p = ref 0 in
  while
    !p < w.len && !p < budget
    && clamp (eff !p) w.ready_sizes.(!p) = w.applied.(!p)
  do
    incr p
  done;
  while w.sess.Gen.ms_delivered () > !p do
    w.sess.Gen.ms_undo ()
  done;
  w.len <- !p;
  while
    w.sess.Gen.ms_delivered () < budget && not (w.sess.Gen.ms_finished ())
  do
    let i = w.sess.Gen.ms_delivered () in
    let m = List.length (w.sess.Gen.ms_ready ()) in
    let c = clamp (eff i) m in
    ignore (w.sess.Gen.ms_deliver c);
    w.applied.(i) <- c;
    w.ready_sizes.(i) <- m;
    w.len <- i + 1
  done;
  w.sess.Gen.ms_run ()

(* The last recorded run's cut, if [c] is that run's case with a budget
   no larger than its budget. *)
let cut_for (t : t) (c : Gen.case) =
  match t.last with
  | Some (r, cut)
    when c.Gen.c_max_events <= r.Gen.c_max_events
         && { c with Gen.c_max_events = r.Gen.c_max_events } = r ->
      Some cut
  | _ -> None

let evaluate (w : t option) ~oracles (cand : Gen.case) :
    (string * Oracle.outcome) list =
  Obs.muted @@ fun () ->
  match w with
  | None -> Oracle.evaluate oracles cand
  | Some t when cand.Gen.c_schedule <> [] -> (
      match t.walk with
      | Some sw when compatible sw cand -> (
          match walk sw cand with
          | run -> Oracle.evaluate_run oracles cand run
          | exception _ ->
              (* session state is now unknown; poison the walker and let
                 the stateless path both answer this candidate and
                 reproduce the crash verdict the fresh run would report *)
              sw.poisoned <- true;
              Oracle.evaluate oracles cand)
      | _ -> Oracle.evaluate oracles cand)
  | Some t -> (
      match cut_for t cand with
      | Some cut -> (
          match cut cand.Gen.c_max_events with
          | run -> Oracle.evaluate_run oracles cand run
          | exception _ -> Oracle.evaluate oracles cand)
      | None -> (
          t.last <- None;
          match Gen.run_case_recorded cand with
          | run, cut ->
              t.last <- Some (cand, cut);
              Oracle.evaluate_run oracles cand run
          | exception _ -> Oracle.evaluate oracles cand))
