(** Algorithm 2 (Section 3): lock-step round simulation on top of the
    clock synchronization Algorithm 1.

    Clocks are treated as phase counters; with the paper's uniform
    schedule a round lasts [P = ⌈2Ξ⌉] phases (any integer [P ≥ 2Ξ]
    preserves Theorem 5's proof, which only needs Lemma 4's causal cone
    across a clock distance of [2Ξ]).  The round [r] computing step
    runs exactly when the clock reaches the round's start tick: it
    reads the buffered round [r−1] messages, computes, and broadcasts
    the round [r] message piggybacked on the start tick.

    Round schedules are pluggable: {!uniform_schedule} is the paper's
    Algorithm 2; {!doubling_schedule} implements §6's eventual
    lock-step for the ◇ABC / ?ABC variants. *)

module Iset : Set.S with type elt = int
module Imap : Map.S with type key = int

(** A synchronous full-information round algorithm to run on top.
    [r_step] receives the round [r−1] messages that arrived in time —
    under Theorem 5 all correct ones — and returns the round [r]
    broadcast payload. *)
type ('rs, 'rm) round_algo = {
  r_init : self:int -> nprocs:int -> 'rs * 'rm;
  r_step : self:int -> nprocs:int -> round:int -> 'rs -> (int * 'rm) list -> 'rs * 'rm;
}

type 'rm msg = { tick : int; round_payload : 'rm option }

type ('rs, 'rm) state = {
  cs : Clock_sync.state;  (** the underlying Algorithm 1 state *)
  r : int;  (** current round *)
  rs : 'rs;  (** round-algorithm state *)
  round_msgs : (int * 'rm) list Imap.t;  (** round -> messages received *)
  history : (int * Iset.t) list;
      (** (round started, senders whose round-(r−1) messages were
          available at that moment) — for Theorem 5 verification *)
}

val phase_length : xi:Rat.t -> int
(** [⌈2Ξ⌉]. *)

val round_of : ('rs, 'rm) state -> int
val clock_of : ('rs, 'rm) state -> int
val round_state : ('rs, 'rm) state -> 'rs

(** A round schedule: [start_of_round r] is the clock value at which
    the round [r] computing step runs, strictly increasing with
    [start_of_round 0 = 0]; [round_at k] is [Some r] iff
    [k = start_of_round r]. *)
type schedule = { start_of_round : int -> int; round_at : int -> int option }

val uniform_schedule : int -> schedule
(** Rounds of [p] phases: the paper's Algorithm 2 with [p = ⌈2Ξ⌉]. *)

val doubling_schedule : int -> schedule
(** §6 eventual lock-step: round [r] lasts [p0·2^r] phases, so once the
    duration exceeds the actual (unknown / eventually-holding) [2Ξ],
    rounds are lock-step for good. *)

val algorithm_scheduled :
  f:int -> schedule:schedule -> ('rs, 'rm) round_algo ->
  (('rs, 'rm) state, 'rm msg) Sim.algorithm
(** Algorithm 1 + Algorithm 2 merged, over an arbitrary schedule. *)

val algorithm :
  f:int -> xi:Rat.t -> ('rs, 'rm) round_algo ->
  (('rs, 'rm) state, 'rm msg) Sim.algorithm
(** The paper's Algorithm 2: {!uniform_schedule} with [⌈2Ξ⌉] phases. *)

(** {1 Theorem 5 verification} *)

val lockstep_violations :
  (('rs, 'rm) state, 'rm msg) Sim.result -> correct:int list ->
  int * (int * int * int) list
(** For every correct [p] and started round [ρ ≥ 1]: the round [ρ−1]
    messages of all correct processes that started [ρ−1] were available
    at [p]'s round-[ρ] step.  Returns (round starts checked,
    violations as (p, ρ, missing sender)). *)

val first_lockstep_round :
  (('rs, 'rm) state, 'rm msg) Sim.result -> correct:int list -> int
(** First round from which lock-step holds for good. *)

val rounds_reached :
  (('rs, 'rm) state, 'rm msg) Sim.result -> correct:int list -> (int * int) list

val noop_round_algo : (unit, unit) round_algo
(** Empty payloads, for running the bare simulation. *)
