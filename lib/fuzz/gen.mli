(** Fuzz-case generation and execution.

    A {!case} is a fully serializable adversarial simulation: process
    count, fault vector, Ξ, a scheduler from the full {!Sim} palette
    (including the deferring adversary), a workload, and an event
    budget.  All randomness derives from the single [c_seed], so a case
    replays bit-for-bit from its one-line form (see {!Replay}). *)

type sched_spec =
  | S_theta of { tau_minus : Rat.t; tau_plus : Rat.t }
  | S_async of { max_delay : Rat.t }
  | S_growing of {
      nclusters : int;
      intra_min : Rat.t;
      intra_max : Rat.t;
      inter_base : Rat.t;
      growth_rate : Rat.t;
    }
  | S_eventually_theta of {
      gst : Rat.t;
      chaos_max : Rat.t;
      tau_minus : Rat.t;
      tau_plus : Rat.t;
    }
  | S_targeted of {
      tau_minus : Rat.t;
      tau_plus : Rat.t;
      victim_sender : int;
      victim_dst : int;
      stretch : Rat.t;
    }
  | S_deferring of { victim_sender : int; victim_dst : int }

type workload = W_clock | W_lockstep | W_consensus

type case = {
  c_seed : int;
  c_nprocs : int;
  c_faults : Sim.fault array;
  c_xi : Rat.t;
  c_sched : sched_spec;
  c_workload : workload;
  c_max_events : int;
  c_plan : Sim.fault_plan;  (** message-level fault actions, [] for none *)
  c_boundary : bool;
      (** resilience-boundary mode: [n = 3f] with an equivocator, where
          violations of the paper's bounds are expected and witnessed *)
  c_schedule : int list;
      (** explicit delivery schedule ([] for none): replayed through
          {!Sim.run_scheduled}, overriding the scheduler.  Emitted by
          the model checker's counterexample lines ([sch=] field). *)
}

val family_name : sched_spec -> string
(** ["theta"], ["async"], ["growing"], ["etheta"], ["targeted"] or
    ["defer"]. *)

val workload_name : workload -> string
(** ["clock"], ["lockstep"] or ["eig"]. *)

val nfaulty : case -> int
val correct_procs : case -> int list

val validate : case -> (case, string) result
(** Check every structural invariant the theorem oracles rely on:
    [n ≥ 3f + 1] (positive cases) or exactly [n = 3f] with an
    equivocator (boundary cases), known strategy names, [Ξ > 1] with
    numerator and denominator at most
    {!Execgraph.Abc_check.xi_part_bound}, [Ξ > τ+/τ−] for Θ cases,
    victim and misdirect indices in range, budget ≥ nprocs, … *)

val generate : seed:int -> case
(** Deterministic: equal seeds produce equal cases.  Generated cases
    always satisfy {!validate}.  Samples the full nemesis palette:
    named byzantine strategies, crashes (including [Crash 0]),
    send/receive omission, crash-recovery, and message-level fault
    plans on a quarter of the cases — always at [n ≥ 3f + 1]. *)

val generate_boundary : seed:int -> case
(** Resilience-boundary cases at exactly [n = 3f] with an equivocator:
    clock workload under the deferring adversary (Thm 2 precision
    expected to break) or EIG consensus with forged per-destination
    relays (agreement expected to break). *)

(** A finished run, tagged by workload. *)
type run =
  | R_clock of (Core.Clock_sync.state, Core.Clock_sync.msg) Sim.result
  | R_lockstep of
      ((unit, unit) Core.Lockstep.state, unit Core.Lockstep.msg) Sim.result
  | R_consensus of
      ( (Core.Consensus.Eig.state, Core.Consensus.Eig.msg) Core.Lockstep.state,
        Core.Consensus.Eig.msg Core.Lockstep.msg )
      Sim.result
      * int array  (** the per-process consensus inputs *)

val graph_of_run : run -> Execgraph.Graph.t
(** The faithful execution graph of the run. *)

val delivered_of_run : run -> int

val run_case : case -> run
(** Execute the case ({!Sim.run}; {!Sim.run_deferring} for
    [S_deferring]; {!Sim.run_scheduled} when [c_schedule] is
    non-empty).  Deterministic.  @raise Invalid_argument if the case
    does not {!validate}. *)

val run_case_recorded : case -> run * (int -> run)
(** [let r, cut = run_case_recorded c]: [r] is [run_case c], and [cut k]
    is [run_case] of the same case with [c_max_events = k], for any
    [k <= c_max_events], cut from [r]'s recording instead of simulated
    again ({!Sim.run_recorded}, {!Sim.run_deferring_recorded}).  A run
    with a smaller budget is a prefix of the same case's run with a
    larger one, so the cut is exact: graphs, trace, final states and
    counts, and so every oracle verdict.  [cut k] raises what
    [run_case] raises on the smaller case (validation, processes that
    never woke up), and [Invalid_argument] for [k] above the budget.
    A campaign runs every case this way, and its shrinks answer the
    case's budget-only candidates from the cut ({!Shrink.evaluator}).
    @raise Invalid_argument if the case does not {!validate} or
    carries a schedule ([c_schedule <> []]). *)

(** A case opened as an interactive choice-point session (see
    {!Sim.Session}), with the workload's state/message types hidden:
    the model checker inspects the ready list, picks deliveries one by
    one, and wraps the terminal execution as a {!run} for the oracle
    battery.  Call [ms_run] once, at a maximal point. *)
type mc_session = {
  ms_ready : unit -> Sim.Session.info list;
  ms_iter_ready : (env:int -> dst:int -> posted_at:int -> unit) -> unit;
      (** {!Sim.Session.iter_ready}: the same entries without the list
          allocation (the explorer's per-node read path) *)
  ms_deliver : int -> Sim.Session.info;
  ms_finished : unit -> bool;
  ms_delivered : unit -> int;
  ms_envelopes : unit -> int;
  ms_undo : unit -> unit;
      (** {!Sim.Session.undo}: roll the last delivery back (sessions
          opened with [record:true] only) *)
  ms_run : unit -> run;
}

val open_session : ?record:bool -> case -> mc_session
(** Fresh session for the case (its [c_schedule] is ignored — the
    caller drives).  [record:true] keeps the undo journal that
    [ms_undo] needs (default [false]).
    @raise Invalid_argument if the case does not {!validate}. *)
