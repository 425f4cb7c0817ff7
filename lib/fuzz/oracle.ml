(** Theorem oracles: the paper's quantitative claims as executable
    checks over a finished fuzz run.

    Each oracle encodes one theorem as "hypothesis ⇒ bound": when the
    hypothesis does not hold for the case at hand (wrong workload, or
    the execution is not admissible for the protocol's Ξ), the oracle
    {e skips} rather than passes, so campaign reports distinguish
    vacuous from real coverage.  For theorems quantified over every
    admissible Ξ (precision, progress, delay assignment), the oracle
    instantiates Ξ with {!Core.Abc.admissible_xi} — the case's Ξ when
    the execution is admissible for it, else a witness just above the
    exact admissibility threshold — so the bounds are checked at their
    tightest on {e every} execution, whatever scheduler produced it. *)

open Core
open Execgraph

type outcome = Pass | Skip of string | Fail of string

(** Evaluation context, shared by all oracles so per-case analyses
    (notably the parametric-search threshold behind [xi_eff]) run at
    most once. *)
type ctx = {
  case : Gen.case;
  run : Gen.run;
  graph : Graph.t;  (** faithful execution graph *)
  adm : bool Lazy.t;  (** graph admissible for the case's own Ξ; several
                          oracles gate on this, so it is decided once *)
  xi_eff : Rat.t Lazy.t;  (** a Ξ the execution is admissible for *)
}

type t = {
  name : string;
  theorem : string;  (** which claim of the paper this checks *)
  check : ctx -> outcome;
}

let make_ctx case run =
  let graph = Gen.graph_of_run run in
  let adm = lazy (Abc_check.is_admissible graph ~xi:case.Gen.c_xi) in
  {
    case;
    run;
    graph;
    adm;
    xi_eff =
      lazy
        (if Lazy.force adm then case.Gen.c_xi
         else Abc.admissible_xi graph ~fallback:case.Gen.c_xi);
  }

let failf fmt = Printf.ksprintf (fun s -> Fail s) fmt

(* Fault plans tamper with individual messages, which voids different
   hypotheses for different oracles:
   - drop / misdirect break reliable delivery between correct
     processes, the hypothesis of every liveness-flavoured theorem
     (progress, causal cone, lock-step, consensus);
   - delay overrides and the duplicates' extra copies can exceed τ+,
     voiding the Θ certification of Theorem 6 (the delivered graph's
     own admissibility, which [xi_eff] measures, is unaffected). *)
let plan_preserves_delivery plan =
  List.for_all
    (fun (_, a) ->
      match a with Sim.P_drop | Sim.P_misdirect _ -> false | _ -> true)
    plan

let plan_theta_safe plan =
  List.for_all
    (fun (_, a) ->
      match a with Sim.P_delay _ | Sim.P_duplicate _ -> false | _ -> true)
    plan

(* Whether the scheduler family guarantees that the COMPLETE execution
   (not just the simulated prefix) is admissible for the case's Ξ:
   Theta by Theorem 6 (the generator enforces Ξ > τ+/τ−), the
   deferring adversary by construction.  Theorems whose hypothesis is
   admissibility of the whole execution (lock-step, consensus on top
   of it) must not be checked on other families: a truncated run can
   be admissible while a message still in flight — e.g. the targeted
   scheduler's stretched link — would close an inadmissible cycle
   right after the budget ran out.  A fault plan that rewrites delays
   voids the Θ certificate; the deferring adversary's certificate
   reasons about the exact message set, so any plan voids it. *)
let complete_execution_admissible case =
  match case.Gen.c_sched with
  | Gen.S_theta _ -> plan_theta_safe case.Gen.c_plan
  | Gen.S_deferring _ -> case.Gen.c_plan = []
  | _ -> false

(* Gate for the positive theorem oracles (their statements quantify
   over n >= 3f + 1): at the resilience boundary the bounds are
   expected to break, and witnessing that is the job of the
   [boundary-*] oracles below. *)
let positive ctx k =
  if ctx.case.Gen.c_boundary then Skip "resilience-boundary case (n = 3f)" else k ()

(* Messages between correct processes that were delivered and
   processed: the deliveries that actually drive the protocols.  Gates
   based on [delivered] alone are unsound with a Byzantine flooder in
   the system — it burns event budget without contributing progress. *)
let faithful_deliveries (r : (_, _) Sim.result) =
  Array.fold_left
    (fun n (te : _ Sim.trace_entry) ->
      if te.Sim.tr_sender >= 0 && te.Sim.tr_processed && te.Sim.tr_faithful_id <> None
      then n + 1
      else n)
    0 r.Sim.trace

(* A prefix of the faithful graph: the first [k] events (event ids are
   dense in delivery order) with the messages among them.  Prefixes of
   admissible executions are admissible — removing events only removes
   cycles — so they are exactly the "admissible prefixes" Theorem 7
   quantifies over.  Sim appends each faithful event and then the edges
   into it, so the edges among the first [k] events are those before
   the first edge into event [k], and {!Graph.prefix} views them in
   place. *)
let prefix_graph g k =
  let d = Graph.digraph g in
  let w = ref 0 in
  while !w < Digraph.edge_count d && Digraph.edge_dst d !w < k do
    incr w
  done;
  Graph.prefix g ~events:k ~edges:!w

(* ------------------------------------------------------------------ *)
(* Admissibility of scheduler-guaranteed executions *)

let o_theta_admissible =
  {
    name = "theta-admissible";
    theorem = "Thm 6: every Theta(tau-,tau+) execution is ABC-admissible for Xi > tau+/tau-";
    check =
      (fun ctx ->
        match ctx.case.Gen.c_sched with
        | Gen.S_theta _ ->
            if not (plan_theta_safe ctx.case.Gen.c_plan) then
              Skip "fault plan overrides scheduler delays"
            else if Lazy.force ctx.adm then Pass
            else
              failf "Theta execution not admissible for Xi = %s"
                (Rat.to_string ctx.case.Gen.c_xi)
        | _ -> Skip "non-Theta scheduler");
  }

let o_defer_admissible =
  {
    name = "defer-admissible";
    theorem = "Def 4: the deferring adversary stays exactly inside admissibility";
    check =
      (fun ctx ->
        match ctx.case.Gen.c_sched with
        | Gen.S_deferring _ ->
            if ctx.case.Gen.c_plan <> [] then
              Skip "fault plan tampers with the adversary's message set"
            else if Lazy.force ctx.adm then Pass
            else
              failf "deferring-adversary execution violates its own Xi = %s"
                (Rat.to_string ctx.case.Gen.c_xi)
        | _ -> Skip "not the deferring adversary");
  }

(* ------------------------------------------------------------------ *)
(* Clock synchronization (Algorithm 1): Theorems 1-4 and Lemma 4 *)

let clock_input ctx r =
  { Clock_sync.result = r; correct = Gen.correct_procs ctx.case; xi = Lazy.force ctx.xi_eff }

(* Hypothesis gate for Algorithm 1's quantitative theorems (2-4 and
   Lemma 4), which quantify over admissible {e complete} executions.
   Checking them is sound when the scheduler family bounds the
   complete execution, or when the run quiesced — no message in
   flight, so the simulated prefix IS the complete execution and
   [xi_eff] certifies it.  Otherwise a receipt past the event budget
   (a stretched targeted link, say) can break the theorem's bound
   while the truncated graph still looks admissible. *)
let clock_hypothesis ctx (r : (_, _) Sim.result) k =
  positive ctx (fun () ->
      if not (plan_preserves_delivery ctx.case.Gen.c_plan) then
        Skip "fault plan drops or misdirects messages"
      else if complete_execution_admissible ctx.case || r.Sim.undelivered = 0 then
        k ()
      else Skip "messages in flight: complete execution not certified admissible")

let o_clock_progress =
  {
    name = "clock-progress";
    theorem = "Thm 1: correct clocks advance (>= 1 after the initial exchange)";
    check =
      (fun ctx ->
        match ctx.run with
        | Gen.R_clock _ when ctx.case.Gen.c_boundary ->
            Skip "resilience-boundary case (n = 3f)"
        | Gen.R_clock _ when not (plan_preserves_delivery ctx.case.Gen.c_plan) ->
            Skip "fault plan drops or misdirects messages"
        | Gen.R_clock r ->
            let n = ctx.case.Gen.c_nprocs in
            let woke p =
              Array.exists
                (fun (te : _ Sim.trace_entry) ->
                  te.Sim.tr_proc = p && te.Sim.tr_sender = -1 && te.Sim.tr_processed)
                r.Sim.trace
            in
            if faithful_deliveries r < n * (n + 3) then
              Skip "too few correct-to-correct deliveries for the initial exchange"
            else if not (List.for_all woke (Gen.correct_procs ctx.case)) then
              (* an adversarial (model-checked) schedule can starve a
                 wake-up within the budget; Thm 1 presumes every correct
                 process eventually takes its first step *)
              Skip "a correct process's wake-up is still in flight"
            else
              let lagging =
                List.filter
                  (fun p -> Clock_sync.clock r.Sim.final_states.(p) < 1)
                  (Gen.correct_procs ctx.case)
              in
              if lagging = [] then Pass
              else failf "correct processes stuck at clock 0: %s"
                  (String.concat "," (List.map string_of_int lagging))
        | _ -> Skip "clock workload only");
  }

let o_precision_cuts =
  {
    name = "precision-cuts";
    theorem = "Thm 2: skew <= 2Xi between correct processes on consistent cuts";
    check =
      (fun ctx ->
        match ctx.run with
        | Gen.R_clock r ->
            clock_hypothesis ctx r (fun () ->
                let input = clock_input ctx r in
                let bound = Rat.floor_int (Rat.mul Rat.two input.Clock_sync.xi) in
                let skew = Clock_sync.max_skew_on_cuts input in
                if skew <= bound then Pass
                else failf "skew %d > 2Xi = %d (Xi = %s)" skew bound
                    (Rat.to_string input.Clock_sync.xi))
        | _ -> Skip "clock workload only");
  }

let o_precision_realtime =
  {
    name = "precision-rt";
    theorem = "Thm 3: skew <= 2Xi between correct processes on real-time cuts";
    check =
      (fun ctx ->
        match ctx.run with
        | Gen.R_clock r ->
            clock_hypothesis ctx r (fun () ->
                let input = clock_input ctx r in
                let bound = Rat.floor_int (Rat.mul Rat.two input.Clock_sync.xi) in
                let skew = Clock_sync.max_skew_realtime input in
                if skew <= bound then Pass
                else failf "real-time skew %d > 2Xi = %d (Xi = %s)" skew bound
                    (Rat.to_string input.Clock_sync.xi))
        | _ -> Skip "clock workload only");
  }

let o_causal_cone =
  {
    name = "causal-cone";
    theorem = "Lemma 4: ticks older than C - 2Xi were received from every correct process";
    check =
      (fun ctx ->
        match ctx.run with
        | Gen.R_clock r ->
            clock_hypothesis ctx r (fun () ->
                let checked, violations =
                  Clock_sync.causal_cone_violations (clock_input ctx r)
                in
                match violations with
                | [] -> if checked = 0 then Skip "no checkable (event, tick) pair" else Pass
                | (ev, l, sender) :: _ ->
                    failf "%d violations, first: event %d misses (tick %d) from p%d"
                      (List.length violations) ev l sender)
        | _ -> Skip "clock workload only");
  }

let o_bounded_progress =
  {
    name = "bounded-progress";
    theorem = "Thm 4: within rho = 4Xi+1 distinguished events, every correct process acts";
    check =
      (fun ctx ->
        match ctx.run with
        | Gen.R_clock r ->
            clock_hypothesis ctx r (fun () ->
                let checked, violations =
                  Clock_sync.bounded_progress_violations (clock_input ctx r)
                in
                match violations with
                | [] -> if checked = 0 then Skip "no full rho-interval in the run" else Pass
                | (p, lo, hi, q) :: _ ->
                    failf "%d violations, first: p%d ran events %d..%d with no step of p%d"
                      (List.length violations) p lo hi q)
        | _ -> Skip "clock workload only");
  }

(* ------------------------------------------------------------------ *)
(* Lock-step rounds (Algorithm 2): Theorem 5 *)

let o_lockstep =
  {
    name = "lockstep";
    theorem = "Thm 5: rounds of ceil(2Xi) phases are lock-step on admissible executions";
    check =
      (fun ctx ->
        match ctx.run with
        | Gen.R_lockstep _ when ctx.case.Gen.c_boundary ->
            Skip "resilience-boundary case (n = 3f)"
        | Gen.R_lockstep _ when not (plan_preserves_delivery ctx.case.Gen.c_plan) ->
            Skip "fault plan drops or misdirects messages"
        | Gen.R_lockstep r -> (
            if not (complete_execution_admissible ctx.case) then
              Skip "scheduler does not bound the complete execution"
            else if not (Lazy.force ctx.adm) then
              Skip "execution not admissible for the protocol's Xi"
            else
              let correct = Gen.correct_procs ctx.case in
              let checked, violations = Lockstep.lockstep_violations r ~correct in
              match violations with
              | [] -> if checked = 0 then Skip "no round started" else Pass
              | (p, rho, missing) :: _ ->
                  failf "%d violations, first: p%d started round %d without p%d's message"
                    (List.length violations) p rho missing)
        | _ -> Skip "lockstep workload only");
  }

(* ------------------------------------------------------------------ *)
(* Consensus over lock-step rounds: agreement and validity *)

let o_consensus =
  {
    name = "eig-consensus";
    theorem = "Sect 3/6: EIG over Algorithm 2 solves Byzantine consensus";
    check =
      (fun ctx ->
        match ctx.run with
        | Gen.R_consensus _ when ctx.case.Gen.c_boundary ->
            Skip "resilience-boundary case (n = 3f)"
        | Gen.R_consensus _ when not (plan_preserves_delivery ctx.case.Gen.c_plan) ->
            Skip "fault plan drops or misdirects messages"
        | Gen.R_consensus (r, inputs) ->
            if not (complete_execution_admissible ctx.case) then
              Skip "scheduler does not bound the complete execution"
            else if not (Lazy.force ctx.adm) then
              Skip "execution not admissible for the protocol's Xi"
            else
              let correct = Gen.correct_procs ctx.case in
              let decisions =
                List.map
                  (fun p ->
                    (p, Consensus.Eig.decision (Lockstep.round_state r.Sim.final_states.(p))))
                  correct
              in
              if List.exists (fun (_, d) -> d = None) decisions then
                if r.Sim.delivered >= ctx.case.Gen.c_max_events then
                  Skip "event budget exhausted before decision"
                else failf "run quiesced with undecided correct processes"
              else if
                Consensus.check_agreement decisions
                  ~inputs:(List.map (fun p -> inputs.(p)) correct)
              then Pass
              else
                failf "agreement/validity broken: decisions %s on inputs %s"
                  (String.concat ","
                     (List.map
                        (fun (_, d) ->
                          match d with Some v -> string_of_int v | None -> "-")
                        decisions))
                  (String.concat ","
                     (List.map (fun p -> string_of_int inputs.(p)) correct))
        | _ -> Skip "eig workload only");
  }

(* ------------------------------------------------------------------ *)
(* Normalized delay assignments: Theorem 7 *)

let delay_assignment_at graph ~xi ~what =
  match Delay_assignment.solve_fast graph ~xi with
  | None ->
      failf "no delay assignment on %s despite admissibility for Xi = %s" what
        (Rat.to_string xi)
  | Some a ->
      if Delay_assignment.verify graph ~xi a then Pass
      else
        failf "assignment on %s violates 1 < tau(e) < %s or local monotonicity" what
          (Rat.to_string xi)

let o_delay_assignment =
  {
    name = "delay-assignment";
    theorem = "Thm 7: every admissible prefix has delays with 1 < tau(e) < Xi";
    check =
      (fun ctx ->
        let xi = Lazy.force ctx.xi_eff in
        match delay_assignment_at ctx.graph ~xi ~what:"the full graph" with
        | Pass ->
            let k = Graph.event_count ctx.graph / 2 in
            if k < 2 then Pass
            else delay_assignment_at (prefix_graph ctx.graph k) ~xi ~what:"the half prefix"
        | other -> other);
  }

(* ------------------------------------------------------------------ *)
(* Resilience-boundary oracles: the paper's bounds are TIGHT at
   n = 3f, and these witness it.  The polarity is inverted on purpose:
   a witnessed violation of the (here inapplicable) n >= 3f + 1
   theorem is reported as [Fail], so the whole failure machinery —
   shrinking, repro lines, golden replays — works on witnesses
   unchanged, and a boundary campaign that finds {e no} witness shows
   up loudly in the report. *)

let o_boundary_precision =
  {
    name = "boundary-precision";
    theorem =
      "Thm 2 tightness: at n = 3f an equivocator can push skew beyond 2Xi";
    check =
      (fun ctx ->
        if not ctx.case.Gen.c_boundary then Skip "resilience-boundary cases only"
        else
          match ctx.run with
          | Gen.R_clock r ->
              let input =
                {
                  Clock_sync.result = r;
                  correct = Gen.correct_procs ctx.case;
                  xi = ctx.case.Gen.c_xi;
                }
              in
              let bound = Rat.floor_int (Rat.mul Rat.two ctx.case.Gen.c_xi) in
              let skew = Clock_sync.max_skew_on_cuts input in
              if skew > bound then
                failf "WITNESS: skew %d > 2Xi = %d at n = 3f (Xi = %s)" skew bound
                  (Rat.to_string ctx.case.Gen.c_xi)
              else Pass
          | _ -> Skip "clock boundary cases only");
  }

let o_boundary_agreement =
  {
    name = "boundary-agreement";
    theorem = "EIG tightness: at n = 3f an equivocator can break agreement";
    check =
      (fun ctx ->
        if not ctx.case.Gen.c_boundary then Skip "resilience-boundary cases only"
        else
          match ctx.run with
          | Gen.R_consensus (r, _) -> (
              let decisions =
                List.filter_map
                  (fun p ->
                    match
                      Consensus.Eig.decision (Lockstep.round_state r.Sim.final_states.(p))
                    with
                    | Some v -> Some (p, v)
                    | None -> None)
                  (Gen.correct_procs ctx.case)
              in
              match decisions with
              | (p, v) :: rest -> (
                  match List.find_opt (fun (_, v') -> v' <> v) rest with
                  | Some (q, v') ->
                      failf "WITNESS: p%d decided %d but p%d decided %d at n = 3f" p v q v'
                  | None -> Pass)
              | [] -> Pass)
          | _ -> Skip "eig boundary cases only");
  }

(* ------------------------------------------------------------------ *)

let registry =
  [
    o_theta_admissible;
    o_defer_admissible;
    o_clock_progress;
    o_precision_cuts;
    o_precision_realtime;
    o_causal_cone;
    o_bounded_progress;
    o_lockstep;
    o_consensus;
    o_delay_assignment;
    o_boundary_precision;
    o_boundary_agreement;
  ]

(** Apply every oracle to an already-finished run (the model checker
    evaluates executions it produced itself, one per equivalence
    class).  An oracle that raises surfaces as a ["no-crash"]-style
    failure of that oracle rather than escaping the caller. *)
let evaluate_run oracles case run =
  let ctx = make_ctx case run in
  ("no-crash", Pass)
  :: List.map
       (fun o ->
         let outcome = try o.check ctx with e -> Fail (Printexc.to_string e) in
         (o.name, outcome))
       oracles

let crashed e = [ ("no-crash", Fail (Printexc.to_string e)) ]

(** Run the case once and apply every oracle.  A crash anywhere in the
    simulation or an oracle surfaces as a failure of the pseudo-oracle
    ["no-crash"] rather than escaping the campaign loop. *)
let evaluate oracles case =
  match Gen.run_case case with
  | exception e -> crashed e
  | run -> evaluate_run oracles case run

let oracle_names oracles = "no-crash" :: List.map (fun o -> o.name) oracles

let only name oracles = List.filter (fun o -> o.name = name) oracles

(** Resolve a comma-separated list of oracle names against the
    registry, preserving registry order.  ["no-crash"] is accepted (it
    is always evaluated) but selects no registry oracle.  Unknown names
    are an error listing the valid ones — silently running zero oracles
    is how a typo turns a red campaign green. *)
let select spec =
  let names =
    String.split_on_char ',' spec |> List.map String.trim
    |> List.filter (fun s -> s <> "")
  in
  if names = [] then Error "empty oracle selection"
  else
    let known n = n = "no-crash" || List.exists (fun o -> o.name = n) registry in
    match List.filter (fun n -> not (known n)) names with
    | [] -> Ok (List.filter (fun o -> List.mem o.name names) registry)
    | unknown ->
        Error
          (Printf.sprintf "unknown oracle%s: %s; valid names: %s"
             (if List.length unknown > 1 then "s" else "")
             (String.concat ", " unknown)
             (String.concat ", " (oracle_names registry)))

let failures results =
  List.filter_map
    (fun (name, o) -> match o with Fail d -> Some (name, d) | _ -> None)
    results
