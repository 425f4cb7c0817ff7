(** The ABC synchrony condition (Definition 4): an execution is
    admissible for parameter Ξ iff every relevant cycle [Z] of its
    execution graph satisfies [|Z−|/|Z+| < Ξ].

    Two checkers:

    - {!check}: {b polynomial}, by reduction to nonpositive-cycle
      detection.  Writing Ξ = α/β in lowest terms, build a digraph [H]
      with a forward arc of weight +α per message, a backward arc of
      weight −β per message, and a backward arc of weight 0 per local
      edge (no forward local arcs: relevance demands all locals
      backward).  [G] violates Definition 4 iff [H] has a directed
      cycle of weight ≤ 0, decided exactly by Bellman–Ford on the
      rescaled integer weights [(m+1)·w − 1].  The full proof is in the
      implementation's header comment.
    - {!check_enumerate}: {b exhaustive} oracle over all simple shadow
      cycles; exponential, used by tests to cross-validate. *)

type verdict =
  | Admissible
  | Violation of Cycle.t  (** a concrete relevant cycle with ratio ≥ Ξ *)

val xi_part_bound : int
(** [2^30]: the largest numerator or denominator of Ξ (in lowest
    terms) that {!check} and {!Checker} accept. *)

val xi_range_error : Rat.t -> string option
(** [Some message] naming the [2^30] bound when Ξ's numerator or
    denominator exceeds {!xi_part_bound}, [None] otherwise.  Inputs
    that carry a Ξ (the CLI's [--xi], replay lines, mc boxes) reject
    with this message rather than reach the checkers' exception. *)

val check : Graph.t -> xi:Rat.t -> verdict
(** Polynomial check; on violation returns a concrete witness cycle.
    @raise Invalid_argument unless [1 < Ξ] and both numerator and
    denominator of [Ξ] (in lowest terms) are [<= 2^30] — the bound
    under which the integer cycle detection provably cannot
    overflow. *)

val check_enumerate : ?max_cycles:int -> Graph.t -> xi:Rat.t -> verdict
(** Exhaustive oracle (small graphs only). *)

val is_admissible : Graph.t -> xi:Rat.t -> bool
val pp_verdict : Format.formatter -> verdict -> unit

(** {1 Incremental admissibility}

    The simulator appends a handful of edges between admissibility
    queries, but {!check} starts from scratch every time.  A
    {!Checker.checker} caches the auxiliary digraph [H] and the
    Bellman–Ford potentials across queries: committed growth of the
    underlying graph is absorbed by relaxing only from the newly
    inserted arcs, and {e speculative} extensions ("would delivering
    these messages stay admissible?" — the deferring adversary's inner
    loop) are journaled and rolled back in time proportional to the
    work they caused, not to the graph size.

    Verdicts agree exactly with {!check} (the test suite checks this
    differentially on random growing executions).  Inadmissibility of
    the committed graph latches: execution graphs only grow and added
    edges never remove a violating cycle. *)
module Checker : sig
  type checker

  val create : Graph.t -> xi:Rat.t -> checker
  (** Attach a checker to [g].  The graph may keep growing through
      {!Graph.add_event} / {!Graph.add_message}; each query absorbs
      whatever was appended since the last one.  The graph must only
      ever be extended (never rebuilt) while a checker is attached.
      @raise Invalid_argument on the same [Ξ] conditions as {!check}. *)

  val is_admissible : checker -> bool
  (** Sync with the underlying graph and decide Definition 4 for it,
      in time proportional to the edges added since the last query
      (amortized).  Equivalent to [check g ~xi = Admissible]. *)

  (** {2 Speculation}

      Between {!spec_begin} and {!spec_abort}, hypothetical events and
      messages extend [H] without touching the underlying graph.  The
      underlying graph must not change during a speculation.  At most
      one speculation can be open per checker; they do not nest. *)

  val spec_begin : checker -> unit

  val spec_add_event : checker -> proc:int -> int
  (** Append a hypothetical receive event at [proc] (with its implied
      local edge from the process's previous — real or speculative —
      event) and return its would-be event id. *)

  val spec_add_message : checker -> src:int -> dst:int -> unit
  (** Add a hypothetical message edge between two (real or
      speculative) event ids. *)

  val spec_admissible : checker -> bool
  (** Would the committed graph plus the speculative extension be
      admissible?  May be queried repeatedly as the speculation
      grows. *)

  val spec_abort : checker -> unit
  (** Retract the speculative extension and return to the committed
      state. *)
end
