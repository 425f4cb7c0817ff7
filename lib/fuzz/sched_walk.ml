(** The shrinkers' candidate evaluator, with session reuse for
    schedule-bearing candidates.

    Shrinking a counterexample whose delivery order is an explicit
    schedule ([c_schedule <> []]) evaluates many candidates that share
    a long prefix with the current case: a truncation, a single
    deleted choice, a zeroed choice, a smaller event budget.  The
    stateless path re-simulates every candidate from scratch —
    O(len²) deliveries per shrink pass.  This walker keeps {e one}
    recording {!Sim.Session} ([record:true]) open on the case's box
    and, per candidate, undoes down to the divergence point and
    re-delivers only the suffix: O(len) amortized per pass.

    Soundness rests on three session facts.  (1) A session ignores the
    case's scheduler — delivery is driven purely by choice indices
    against the ready list, exactly like {!Sim.run_scheduled}, with
    the same clamping (negative → 0, overflow → last entry) and the
    same FIFO-0 continuation past the end of the schedule.  (2) The
    state after a choice prefix is a function of the prefix alone, so
    a candidate agreeing with the applied prefix up to step [p] can
    resume from the recorded state at [p].  (3) {!Sim.Session.undo}
    restores that state exactly (the qcheck suites of PR 8 pin this
    against fresh replay), so re-delivery reproduces the identical
    execution the candidate's from-scratch run would produce.

    A candidate may only differ from the walker's box in [c_schedule]
    and a {e smaller-or-equal} [c_max_events] ({!compatible});
    anything else — dropped process, weakened fault, tamed scheduler —
    changes the box itself and must go through the stateless path.

    {!evaluate} is the one evaluator of both shrinkers' candidates,
    and all of it runs {!Obs.muted}: the session walk, the stateless
    fallback and the poisoned-walker fallback alike.  A candidate run
    is an engine artifact, not part of the case's observable behavior,
    so a shrink traces only what the shrinker itself emits, and that
    trace is the same with or without a walker. *)

type t = {
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

let create (box : Gen.case) : t option =
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

(* Same box, schedule and (no larger) budget aside?  Field-by-field so
   a new Gen.case field breaks the build here instead of silently
   widening what the walker accepts. *)
let compatible (t : t) (c : Gen.case) =
  (not t.poisoned)
  && c.Gen.c_schedule <> []
  && c.Gen.c_max_events <= t.box.Gen.c_max_events
  && { c with Gen.c_schedule = t.box.Gen.c_schedule;
       c_max_events = t.box.Gen.c_max_events }
     = t.box

let clamp c m = if c < 0 then 0 else if c >= m then m - 1 else c

(* Position the session on [cand]'s execution: undo to the divergence
   point, deliver the rest, return the terminal run. *)
let walk (t : t) (cand : Gen.case) : Gen.run =
  let budget = cand.Gen.c_max_events in
  let raws = Array.of_list cand.Gen.c_schedule in
  let eff i = if i < Array.length raws then raws.(i) else 0 in
  (* longest prefix of the applied walk the candidate reproduces: the
     ready size at step i is a function of the choices before i, so
     the recorded size is exactly what the candidate's clamp sees *)
  let p = ref 0 in
  while
    !p < t.len && !p < budget
    && clamp (eff !p) t.ready_sizes.(!p) = t.applied.(!p)
  do
    incr p
  done;
  while t.sess.Gen.ms_delivered () > !p do
    t.sess.Gen.ms_undo ()
  done;
  t.len <- !p;
  while
    t.sess.Gen.ms_delivered () < budget && not (t.sess.Gen.ms_finished ())
  do
    let i = t.sess.Gen.ms_delivered () in
    let m = List.length (t.sess.Gen.ms_ready ()) in
    let c = clamp (eff i) m in
    ignore (t.sess.Gen.ms_deliver c);
    t.applied.(i) <- c;
    t.ready_sizes.(i) <- m;
    t.len <- i + 1
  done;
  t.sess.Gen.ms_run ()

let evaluate (w : t option) ~oracles (cand : Gen.case) :
    (string * Oracle.outcome) list =
  Obs.muted @@ fun () ->
  match w with
  | Some t when compatible t cand -> (
      match walk t cand with
      | run -> Oracle.evaluate_run oracles cand run
      | exception _ ->
          (* session state is now unknown; poison the walker and let
             the stateless path both answer this candidate and
             reproduce the crash verdict the fresh run would report *)
          t.poisoned <- true;
          Oracle.evaluate oracles cand)
  | _ -> Oracle.evaluate oracles cand
