(** The ABC synchrony condition (Definition 4): an execution is
    admissible for parameter Ξ iff every relevant cycle [Z] of its
    execution graph satisfies [|Z−|/|Z+| < Ξ].

    Writing Ξ = α/β in lowest terms, let [H] be the digraph with a
    forward arc of weight +α per message, a backward arc of weight −β
    per message, and a backward arc of weight 0 per local edge (no
    forward local arcs: relevance demands all locals backward).  [G]
    violates Definition 4 iff [H] has a directed cycle of weight ≤ 0;
    the proof is in the implementation's header comment.  Three ways
    to decide it:

    - {!is_admissible}: the verdict alone, by {!potentials}, the one
      native kernel: Bellman–Ford on [H] in the lexicographic
      (W, −arcs) order, arcs read straight off the execution graph.
      The same kernel runs every probe of [Core.Abc]'s Ξ search and
      [Core.Delay_assignment.solve_fast].
    - {!check}: the verdict with a witness cycle: [H] built as a
      {!Digraph.t} and the generic Bellman–Ford on the rescaled integer
      weights [(m+1)·w − 1].  The only checker that returns a witness
      ([abc check], reports F3/F4 and F10), and the reference the
      kernel is tested against.
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
(** [check g ~xi = Admissible], decided by {!potentials} without a
    witness.  @raise Invalid_argument on the same Ξ conditions as
    {!check}. *)

val potentials : Graph.t -> a:int -> b:int -> (int array * int array) option
(** The one native kernel: Bellman–Ford on [H] for Ξ = a/b, arcs read
    straight off [g], potentials in the lexicographic (W, −arcs) order.
    [None] iff [H] has a cycle of weight ≤ 0, i.e. iff [g] has a
    relevant cycle with ratio ≥ a/b.  Otherwise [Some (ws, es)]: for
    every event [v], a shortest walk into [v] (from a virtual source
    with a zero-arc walk to every event) has weight [ws.(v)] and
    [−es.(v)] arcs.  Behind {!is_admissible}, every probe of
    [Core.Abc.max_relevant_ratio] and [Core.Delay_assignment.solve_fast].
    @raise Invalid_argument if [(n+1)·max(a,b)] exceeds [max_int]
    ([n] events), the bound on every walk sum. *)

(** {1 Incremental admissibility}

    The simulator appends a handful of edges between admissibility
    queries, but {!check} starts from scratch every time.  A
    {!Checker.checker} keeps the Bellman–Ford potentials of [H] across
    queries, reading [H]'s arcs straight off the execution graph as
    {!potentials} does: growth of the graph is absorbed by relaxing
    only from the new edges' arcs, and {e speculative} extensions
    ("would delivering these messages stay admissible?" — the deferring
    adversary's inner loop) are appended to the graph, journaled, and
    rolled back in time proportional to the work they caused, not to
    the graph size.

    Verdicts agree exactly with {!check} (the test suite checks this
    differentially on random growing executions).  Inadmissibility of
    the committed graph latches: execution graphs only grow and added
    edges never remove a violating cycle. *)
module Checker : sig
  type checker

  val create : Graph.t -> xi:Rat.t -> checker
  (** Attach a checker to [g].  The graph may keep growing through
      {!Graph.add_event} / {!Graph.add_message}; each query absorbs
      whatever was appended since the last one.  Outside a speculation
      the graph must only ever be extended (never truncated or rebuilt)
      while a checker is attached.
      @raise Invalid_argument on the same [Ξ] conditions as {!check}. *)

  val is_admissible : checker -> bool
  (** Sync with the graph and decide Definition 4 for it, in time
      proportional to the edges added since the last query
      (amortized).  Equivalent to [check g ~xi = Admissible].
      @raise Invalid_argument during a speculation. *)

  (** {2 Speculation}

      {!spec_begin} records the graph's (events, edges) watermark; the
      caller then appends hypothetical events and messages with
      {!Graph.add_event} / {!Graph.add_message}, asks
      {!spec_admissible}, and {!spec_abort} truncates the graph back to
      the watermark.  At most one speculation can be open per checker;
      they do not nest. *)

  val spec_begin : checker -> unit
  (** Sync with the graph, then open a speculation at its current
      watermark.  @raise Invalid_argument if one is open already. *)

  val spec_admissible : checker -> bool
  (** Would the graph as it stands — the committed part plus what was
      appended since {!spec_begin} — be admissible?  May be queried
      repeatedly as the speculation grows.
      @raise Invalid_argument outside a speculation. *)

  val spec_abort : checker -> unit
  (** Retract the speculation: {!Graph.truncate} the graph back to the
      watermark and return the checker to its committed state.
      @raise Invalid_argument outside a speculation. *)
end
