(** Message-driven discrete-event simulator.

    This is the "distributed system" substrate of the reproduction: the
    paper's claims are all about the causal structure (execution graph)
    of executions of message-driven algorithms, which this simulator
    produces exactly, under adversarial control of message delays.

    Model (Section 2 of the paper):
    - processes are state machines taking atomic, zero-time
      receive+compute+send steps, each triggered by exactly one message;
    - an external wake-up message triggers each process's first step,
      before any message from another process is received;
    - processes may be Byzantine (arbitrary behaviour, modelled by an
      alternative algorithm chosen by the experiment) or crash after a
      given number of steps;
    - every message sent by a correct process is received by every
      recipient within finite time; a faulty receiver still {e receives}
      (the receive event occurs) but need not {e process} the message.

    The simulator records one execution graph, the {e faithful} graph:
    the paper's space–time diagram, with every message sent by a
    Byzantine process dropped along with its send step and its receive
    event, and every receive event a faulty receiver failed to process
    dropped too (the graph the ABC synchrony condition of Definition 4
    constrains).  Every delivery, kept in the graph or not, has an
    entry in the trace, indexed by delivery.

    A run can be recorded as it goes ({!run_recorded},
    {!run_deferring_recorded}) and then cut down to any smaller event
    budget: the result the same configuration returns with that
    budget, built from the record without simulating again. *)

(** A message posted during a step. *)
type 'm send = { dst : int; payload : 'm }

(** A message-driven distributed algorithm.  [init] is the wake-up step
    (the paper's externally triggered first computing step); [step]
    handles one received message. *)
type ('s, 'm) algorithm = {
  init : self:int -> nprocs:int -> 's * 'm send list;
  step : self:int -> nprocs:int -> 's -> sender:int -> 'm -> 's * 'm send list;
}

type fault =
  | Correct
  | Crash of int
      (** [Crash k]: behaves correctly for its first [k] computing steps
          (including the wake-up), then stops processing.

          Boundary semantics, pinned: [Crash 0] crashes {e before} the
          wake-up step.  The process still has a well-defined initial
          state (the one [init] would compute), but it sends nothing —
          its wake-up broadcast is lost with the crash — and it appears
          in {e no} faithful-graph node. *)
  | Recover of int * int
      (** [Recover (k_down, k_up)]: correct for its first [k_down]
          computing steps, then down — arriving messages are received
          but not processed — until [k_up] messages have been lost,
          after which it resumes processing with its pre-crash state
          (amnesia-free crash-recovery).  Requires [k_up >= 1]. *)
  | Send_omission of int
      (** [Send_omission k]: processes normally, but from its
          [(k+1)]-th computing step on (wake-up counts as step 1) every
          message it posts is silently dropped. *)
  | Receive_omission of int
      (** [Receive_omission j], [j >= 1]: fails to process every [j]-th
          received message (the wake-up is exempt). *)
  | Byzantine of string
      (** runs the per-process strategy from the config's byzantine
          table.  The string is an opaque strategy name (lowercase
          alphanumerics; [""] conventionally means "silent") carried
          through serialization — see [Byz] for the named palette. *)

val fault_to_string : fault -> string
(** Compact serialization: ["C"], ["K<k>"], ["R<kd>-<ku>"], ["SO<k>"],
    ["RO<j>"], or ["B<name>"] — the wire form used by fuzz-case repro
    lines. *)

val fault_of_string : string -> fault option
(** Inverse of {!fault_to_string}; [None] on malformed input. *)

(** {1 Fault plans} *)

(** Message-level fault action, applied to the message whose global
    [msg_index] it is keyed on; composable with any scheduler. *)
type plan_action =
  | P_drop  (** silently lost *)
  | P_duplicate of Rat.t
      (** delivered normally plus a copy arriving the given extra delay
          after the first (under {!run_deferring}, the copy is simply
          queued after the original) *)
  | P_misdirect of int  (** rerouted to the given destination *)
  | P_delay of Rat.t
      (** scheduler delay overridden with this one (no-op under
          {!run_deferring}, whose time is logical) *)

type fault_plan = (int * plan_action) list
(** Actions keyed by [msg_index]; at most one action per index. *)

val plan_to_string : fault_plan -> string
(** Wire form, e.g. ["5:drop,9:dup2,14:to0,21:dl7/2"] (empty string for
    the empty plan). *)

val plan_of_string : string -> fault_plan option
(** Inverse of {!plan_to_string}; [None] on malformed input or
    duplicate indices. *)

(** Scheduler: assigns a non-negative rational delay to each message.
    [msg_index] is a global dense counter, usable for adversarial
    targeting of individual messages. *)
type 'm scheduler = {
  delay :
    sender:int -> dst:int -> send_time:Rat.t -> msg_index:int -> payload:'m -> Rat.t;
}

(** Per-delivery trace record, indexed by delivery. *)
type 's trace_entry = {
  tr_proc : int;
  tr_sender : int;  (** [-1] for the wake-up *)
  tr_time : Rat.t;
  tr_faithful_id : int option;  (** node id in the faithful graph, if kept *)
  tr_state_after : 's option;  (** [None] if the receiver did not process *)
  tr_processed : bool;
}

type ('s, 'm) result = {
  graph : Execgraph.Graph.t;
      (** faithful execution graph (faulty-sent messages dropped) *)
  final_states : 's array;
  trace : 's trace_entry array;  (** indexed by delivery *)
  delivered : int;  (** number of receive events simulated *)
  undelivered : int;  (** messages still in flight when the run stopped *)
  posted : int;  (** wake-ups + messages emitted by steps + duplicate copies *)
  dropped : int;
      (** messages lost to send-omission or a plan's [P_drop];
          [posted = delivered + undelivered + dropped] always holds *)
}

type ('s, 'm) config = {
  nprocs : int;
  algorithm : ('s, 'm) algorithm;
  byzantine : (int -> ('s, 'm) algorithm) option;
      (** per-process strategy table for [Byzantine] processes *)
  faults : fault array;
  plan : fault_plan;
  scheduler : 'm scheduler;
  max_events : int;  (** hard cap on simulated receive events *)
  stop_when : ('s array -> bool) option;
      (** checked after every processed step once every process has woken *)
}

val make_config :
  ?byzantine:(int -> ('s, 'm) algorithm) ->
  ?plan:fault_plan ->
  ?stop_when:('s array -> bool) ->
  nprocs:int ->
  algorithm:('s, 'm) algorithm ->
  faults:fault array ->
  scheduler:'m scheduler ->
  max_events:int ->
  unit ->
  ('s, 'm) config
(** Validates sizes, fault parameters, that [Byzantine] faults come
    with a strategy table, and the plan (indices >= 0, misdirect
    targets in range, delays non-negative).
    @raise Invalid_argument otherwise. *)

val run : ('s, 'm) config -> ('s, 'm) result
(** Run to completion: agenda exhausted, event cap hit, or [stop_when]
    satisfied.  Deterministic given the scheduler.

    A {!Session} driven in scheduler time.  Each posted copy falls due
    at its send time plus its delay: the scheduler's, asked with the
    copy's destination (the new one for [P_misdirect]), or [P_delay]'s
    override; a [P_duplicate] copy falls due [extra] after the first.
    The earliest copy due is delivered next and its event stamped with
    that time; copies due at one time go in posting order, the
    wake-ups (all due at 0) first.
    @raise Invalid_argument ["Sim.run: negative delay"] if the
    scheduler returns a negative delay, before the copy is posted. *)

val run_recorded : ('s, 'm) config -> ('s, 'm) result * (int -> ('s, 'm) result)
(** {!run}, recording the run as it goes: [let r, cut = run_recorded
    cfg], then [cut k] is what {!run} returns on [cfg] with
    [max_events = k], for any [0 <= k <= cfg.max_events], without
    running anything again.

    The loop reads its budget only where it asks whether to go on,
    before each delivery, so the run with budget [k] is the first [k]
    deliveries of this one (all of it if this one stopped sooner).
    After each delivery the loop records the faithful graph's event and
    edge counts, [posted], [dropped] and the destination's new state.
    [cut k] builds its result from those: the graph as a
    {!Execgraph.Graph.prefix} view of [r]'s (the same ids, no array
    copied), the first [k] trace entries, each process's last
    recorded state, and [undelivered = posted - k - dropped].  It is
    O(k) and allocates O(k) words; [cut] of the full budget is [r]
    itself.  A cut raises what the smaller run raises when it has
    processes that never woke up.  Both results may be used side by
    side: a cut's graph is read-only, and nothing changes [r]'s graph
    once the run is over.
    @raise Invalid_argument from [cut] on a budget out of range. *)

(** {1 Schedulers} *)

val theta_scheduler :
  rng:Random.State.t ->
  tau_minus:Rat.t ->
  tau_plus:Rat.t ->
  ?grain:int ->
  unit ->
  'm scheduler
(** Θ-Model scheduler: delays uniform on [[tau_minus, tau_plus]] (as
    rationals with denominator [grain]).  By Theorem 6 every execution
    it produces is ABC-admissible for any [Ξ > tau_plus/tau_minus]. *)

val async_scheduler :
  rng:Random.State.t -> max_delay:Rat.t -> ?grain:int -> unit -> 'm scheduler
(** Fully asynchronous: delays uniform on [[0, max_delay]] (zero-delay
    messages allowed, as in the ABC model). *)

val constant_scheduler : Rat.t -> 'm scheduler
(** Fixed delay (a degenerate Θ with τ− = τ+). *)

val growing_scheduler :
  rng:Random.State.t ->
  cluster_of:(int -> int) ->
  intra_min:Rat.t ->
  intra_max:Rat.t ->
  inter_base:Rat.t ->
  growth_rate:Rat.t ->
  ?grain:int ->
  unit ->
  'm scheduler
(** Fig. 9 / §5.3 spacecraft formation: inter-cluster delays grow
    linearly with send time (unbounded — no Θ-Model applies) while
    intra-cluster delays stay within [[intra_min, intra_max]]. *)

val eventually_theta_scheduler :
  rng:Random.State.t ->
  gst:Rat.t ->
  chaos_max:Rat.t ->
  tau_minus:Rat.t ->
  tau_plus:Rat.t ->
  ?grain:int ->
  unit ->
  'm scheduler
(** ◇-model scheduler (§6 ◇ABC / ?◇ABC): chaotic delays on
    [[0, chaos_max]] before the global stabilization time [gst],
    Θ-bounded afterwards. *)

val targeted_scheduler :
  rng:Random.State.t ->
  tau_minus:Rat.t ->
  tau_plus:Rat.t ->
  victim:(sender:int -> dst:int -> msg_index:int -> bool) ->
  stretched:(send_time:Rat.t -> Rat.t) ->
  ?grain:int ->
  unit ->
  'm scheduler
(** Θ on non-victims; messages selected by [victim] get the [stretched]
    delay — used to build ABC-admissible executions violating every Θ
    (isolated slow chains, cf. Fig. 1 and §5.2). *)

(** {1 Analyses} *)

val faithful_states : ('s, 'm) result -> (int, 's) Hashtbl.t
(** States reached after each faithful-graph event (event id -> state),
    for algorithm-level analyses such as per-event clock values. *)

(** {1 Choice-point sessions}

    The simulator's one delivery engine: every run is a session, and
    all of them share its per-delivery machinery (fault bookkeeping,
    plan handling, graph growth, trace).  A session exposes the set of
    {e ready} (posted, undelivered) messages at every point and lets
    the caller pick which one is delivered next; this is the model
    checker's hook, and {!run_scheduled} and {!run_deferring} drive it
    too.  Time is logical — each event is stamped with its delivery
    index — so an execution is fully determined by the sequence of
    choices.  {!run} drives a session of its own, in scheduler time:
    its pending copies wait by due time, not in posting order. *)

module Session : sig
  type ('s, 'm) t

  (** A ready message, as seen by an external explorer. *)
  type info = {
    i_env : int;
        (** dense envelope id in posting order; wake-ups are [0..n-1] *)
    i_sender : int;  (** [-1] for a wake-up *)
    i_dst : int;
    i_posted_at : int;
        (** delivery index of the step that posted it; [-1] for the
            initial wake-ups *)
    i_correct : bool;  (** posted by a non-Byzantine sender *)
    i_faithful_src : int option;
        (** faithful-graph node of the sending step, if kept *)
  }

  val create : ?record:bool -> ('s, 'm) config -> ('s, 'm) t
  (** Fresh session: the ready list holds exactly the [n] wake-ups.
      With [record:true] every {!deliver} pushes an O(1) undo-journal
      frame, enabling {!undo}; default [false] (no journal, no
      overhead). *)

  val ready : ('s, 'm) t -> info list
  (** Undelivered messages, in posting order (the canonical choice
      order: choice [k] of {!deliver} picks the [k]-th entry). *)

  val iter_ready :
    ('s, 'm) t -> (env:int -> dst:int -> posted_at:int -> unit) -> unit
  (** Allocation-free view of {!ready} (no list, no closure): calls
      [f] once per visible entry, in the same order, with the fields an
      explorer keys on.
      The model checker's DFS visits a node per delivery, so this is
      its hottest read path. *)

  val deliver : ('s, 'm) t -> int -> info
  (** [deliver s k] removes the [k]-th ready message and executes the
      step it triggers; returns the delivered message's info.  The
      entries before the chosen one are copied once and the suffix
      after it is shared, so a journal's saved list stays valid.
      @raise Invalid_argument if [k] is out of range. *)

  val finished : ('s, 'm) t -> bool
  (** No ready messages, event budget exhausted, or [stop_when]
      satisfied — the execution is maximal. *)

  val undo : ('s, 'm) t -> unit
  (** Roll the most recent delivery back: ready list, trace, the
      destination's algorithm state and fault counters, the execution
      graph, and every derived counter return to their exact prior
      values.  O(Δ) in the work that delivery did.  Requires the
      session to record ([create ~record:true]).
      @raise Invalid_argument if there is nothing recorded to undo. *)

  val graph : ('s, 'm) t -> Execgraph.Graph.t
  (** The faithful execution graph recorded so far (live view). *)

  val delivered : ('s, 'm) t -> int
  (** Deliveries executed so far (= the current logical time). *)

  val envelopes : ('s, 'm) t -> int
  (** Envelopes created so far; the ids posted by the next step are
      assigned densely from this value (explorers use the before/after
      difference to attribute messages to their posting step). *)

  val result : ?allow_unwoken:bool -> ?who:string -> ('s, 'm) t -> ('s, 'm) result
  (** Package the execution so far.  With [allow_unwoken:true]
      (default [false]) a process whose wake-up was starved by the
      choice sequence gets its well-defined initial state (the
      [Crash 0] convention) instead of raising. *)
end

val run_scheduled : ('s, 'm) config -> choices:int array -> ('s, 'm) result
(** Replay an externally chosen delivery sequence through a
    {!Session}: choice [i] picks the index-[choices.(i)] entry of the
    ready list at step [i].  Out-of-range choices saturate at the last
    ready entry; when the array is exhausted the run continues FIFO
    (choice 0) until maximal.  The config's [scheduler] is ignored;
    the result uses the unwoken-process fallback, since a schedule may
    starve a wake-up within the budget. *)

(** {1 Oracle-guided deferring adversary} *)

val run_deferring :
  ('s, 'm) config ->
  xi:Rat.t ->
  victim:(sender:int -> dst:int -> bool) ->
  ('s, 'm) result
(** Like {!run}, but delivery order is chosen by an adaptive adversary
    that defers every message selected by [victim] for as long as the
    ABC condition for [xi] allows: before delivering the oldest
    non-victim message, it checks on the recorded graph whether the
    deferral would still be admissible, and delivers the victim at the
    last admissible moment.  Executions sit exactly at the
    admissibility boundary — the adversary behind the paper's
    "timing out message chains" observation (Fig. 3, sweep S1).  The
    config's [scheduler] is ignored; events are stamped with logical
    times.

    A check whose answer the previous decision already established is
    skipped: after delivering a message whose step grew the faithful
    graph as speculated and posted no victim message, the graph plus
    the deferred queue is the extension that decision verified.  The
    skipped check still emits its [adm] instant, so traces are
    unchanged. *)

val run_deferring_recorded :
  ('s, 'm) config ->
  xi:Rat.t ->
  victim:(sender:int -> dst:int -> bool) ->
  ('s, 'm) result * (int -> ('s, 'm) result)
(** {!run_deferring}, recording the run as {!run_recorded} does: [cut k]
    is what {!run_deferring} returns with [max_events = k].  The loop
    reads its budget only where it asks whether to go on, and [release]
    may deliver several deferred messages between two such questions,
    so the run with budget [k] stops at the first question asked with
    at least [k] deliveries made: [cut k] delivers that many.  Every
    other detail is {!run_recorded}'s. *)

val run_deferring_reference :
  ('s, 'm) config ->
  xi:Rat.t ->
  victim:(sender:int -> dst:int -> bool) ->
  ('s, 'm) result
(** {!run_deferring}'s loop with every admissibility check asked; the
    reference {!run_deferring} is tested against. *)
