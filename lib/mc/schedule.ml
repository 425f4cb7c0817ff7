(** Schedule prefixes and their deterministic replay.

    A schedule is a sequence of {e choice indices}: choice [i] picks
    the index-[i]th entry of the session's ready list (posting order)
    at step [i].  Replaying the same prefix through {!Fuzz.Gen}'s
    choice-point session always yields the identical execution —
    {!Sim.Session} is deterministic given the choices — which is what
    makes stateless search sound: every node of the exploration tree is
    reconstructed from its prefix alone.

    Each executed delivery is summarized as a {!step}, carrying exactly
    the causal facts the DPOR race analysis and the canonicalizer need:
    which envelope was delivered where, which step posted it, and the
    envelope-id watermark before the step ran (so a message can be
    named by its posting step and send offset, independent of the
    interleaving). *)

(** One executed delivery. *)
type step = {
  sp_env : int;  (** envelope id (dense, posting order) *)
  sp_dst : int;  (** receiving process *)
  sp_posted_at : int;
      (** delivery index of the step that posted the envelope; [-1] for
          the initial wake-ups *)
  sp_first_env : int;
      (** envelope-id watermark before this step ran: the envelopes
          this step posted have ids in [[sp_first_env; next watermark)] *)
}

(** Hard cap on the event budget of model-checked cases: the explorer
    tracks happens-before as per-step bit masks in a native [int]. *)
let max_budget = 62

(** Replay a choice prefix from scratch.  Returns the live session
    (positioned after the prefix, ready for further choices or
    [ms_run]) and the executed steps.  Choices are clamped to the
    ready-list size, mirroring {!Sim.run_scheduled}; a prefix longer
    than the execution is cut at the maximal point.

    Replays run {!Obs.muted}: the simulator-level events of an
    exploration-internal replay are an engine artifact (the incremental
    engine reaches the same node without them), so they are kept out of
    the scoped stream — the trace digest of a model-checking run is a
    function of the search tree, not of how the engine walks it. *)
let replay (case : Fuzz.Gen.case) (choices : int list) :
    Fuzz.Gen.mc_session * step array =
  Obs.muted @@ fun () ->
  let s = Fuzz.Gen.open_session case in
  let steps = ref [] in
  let rec go = function
    | [] -> ()
    | c :: rest ->
        if s.Fuzz.Gen.ms_finished () then ()
        else begin
          let m = List.length (s.Fuzz.Gen.ms_ready ()) in
          let c = if c < 0 then 0 else if c >= m then m - 1 else c in
          let watermark = s.Fuzz.Gen.ms_envelopes () in
          let info = s.Fuzz.Gen.ms_deliver c in
          steps :=
            {
              sp_env = info.Sim.Session.i_env;
              sp_dst = info.Sim.Session.i_dst;
              sp_posted_at = info.Sim.Session.i_posted_at;
              sp_first_env = watermark;
            }
            :: !steps;
          go rest
        end
  in
  go choices;
  (s, Array.of_list (List.rev !steps))

(** The happens-before mask of one more step, given the masks so far:
    bit [j] of the result is set iff step [j] is in the causal past of
    the new step (same receiving process, or posting, transitively
    closed).  [last] is the index of the previous step at the new
    step's destination ([-1] if none).  The length-[max_budget] cap
    keeps every mask in one [int]. *)
let hb_mask_step (masks : int array) ~posted_at ~last =
  let m = ref 0 in
  if posted_at >= 0 then m := (1 lsl posted_at) lor masks.(posted_at);
  if last >= 0 then m := !m lor (1 lsl last) lor masks.(last);
  !m

(** Happens-before masks of a whole step sequence (the replay engine's
    per-node recomputation; the incremental engine maintains the same
    masks one {!hb_mask_step} at a time). *)
let hb_masks ~nprocs (steps : step array) : int array =
  let k = Array.length steps in
  let masks = Array.make k 0 in
  (* last previous step at each process, for the program-order edge *)
  let last_at = Array.make nprocs (-1) in
  for i = 0 to k - 1 do
    let d = steps.(i).sp_dst in
    masks.(i) <- hb_mask_step masks ~posted_at:steps.(i).sp_posted_at ~last:last_at.(d);
    last_at.(d) <- i
  done;
  masks

(** Causal past of a {e send}: the posting step and everything before
    it.  Used by the race rule — two same-destination deliveries are a
    reversible race exactly when neither message's send is caused by
    the other's delivery. *)
let send_mask (masks : int array) ~posted_at =
  if posted_at < 0 then 0 else (1 lsl posted_at) lor masks.(posted_at)
