(** Generic directed multigraphs and the graph algorithms used by the
    ABC reproduction.

    Nodes are dense integers [0 .. node_count - 1]; edges carry dense
    integer ids so that callers can attach weights or labels in flat
    arrays.  The structure is a {e multigraph}: parallel edges and
    (in principle) self-loops are representable, which matters for
    execution graphs where a process may send a message to itself in
    parallel with the local edge between two consecutive events.

    Three algorithm families live here:
    - {!topological_sort} / {!is_dag} for causal orders,
    - {!module:Bellman_ford}, a functor over an ordered additive monoid
      of weights, used both for negative-/nonpositive-cycle detection
      (the polynomial ABC admissibility check) and for
      difference-constraint potentials over ε-extended rationals,
    - {!shadow_cycles}, exhaustive enumeration of the simple cycles of
      the {e undirected shadow graph} (Definition 2 of the paper), used
      by the paper-faithful LP construction and as a test oracle. *)

type t

type edge = { id : int; src : int; dst : int }
(** An edge as a record, built on demand by the cold readers
    ({!edge}, {!edges}, {!out_edges}, …).  The graph itself stores its
    edges in flat int arrays; hot loops walk edge ids with
    {!first_out}/{!next_out} and {!first_in}/{!next_in} instead, which
    allocate nothing. *)

(** {1 Construction} *)

val create : int -> t
(** [create n] is an empty graph on nodes [0 .. n-1]. *)

val add_node : t -> int
(** Appends a fresh node and returns its index.
    @raise Invalid_argument on a view. *)

val add_edge : t -> src:int -> dst:int -> int
(** Appends a fresh edge and returns its id.  Ids are dense and
    assigned in insertion order.  Allocates nothing unless the arrays
    grow.  @raise Invalid_argument on a node out of range or on a
    view. *)

val truncate : t -> nodes:int -> edges:int -> unit
(** [truncate g ~nodes ~edges] removes every edge with id [>= edges]
    and every node with index [>= nodes], rolling the graph back to an
    earlier prefix of its construction (ids are dense and assigned in
    insertion order, so a prefix is identified by the two counts).
    O(removed edges); a later append reuses the freed capacity.  Used
    by the incremental admissibility checker to retract speculative
    extensions.  If a live view of [g] reads past [(nodes, edges)]
    (see {!prefix}), [g] first takes fresh copies of its arrays.
    @raise Invalid_argument on a view, if the counts exceed the
    current sizes, or if a surviving edge references a removed
    node. *)

val prefix : t -> nodes:int -> edges:int -> t
(** [prefix g ~nodes ~edges] is what [g] was after that much of its
    construction, the same ids: a read-only {e view} of [g]'s arrays
    with smaller counts, made in O(1).  A view stays valid for as long
    as it is referenced, whatever [g] does later: appends to [g] land
    past the view's counts, where the view's readers skip them; and a
    truncate of [g] (or a growth of its arrays) below the largest
    watermark any view of [g] holds first gives [g] fresh copies of its
    arrays, leaving the old ones to the views ({e detaching}).  A view
    of a view reads the same arrays and records its watermark with
    them.  So a prefix of a finished graph never copies, and a graph
    truncated back and forth above its views' watermarks copies
    nothing either.
    @raise Invalid_argument as {!truncate} does (except on a view:
    a view of a view is allowed); changing a view raises it too. *)

(** {1 Accessors} *)

val node_count : t -> int
val edge_count : t -> int

val edge_src : t -> int -> int
(** The source node of an edge id.  @raise Invalid_argument on an id
    outside [0 .. edge_count g - 1]. *)

val edge_dst : t -> int -> int

val first_out : t -> int -> int
(** [first_out g v] is the newest edge leaving [v], or [-1]; then
    [next_out g e] is the next older edge leaving the same node, or
    [-1].  Every adjacency list runs newest first (decreasing ids), the
    order {!out_edges} lists.  On a view, edges its parent appended
    later are skipped here, at the head of the list.
    @raise Invalid_argument on a node out of range. *)

val next_out : t -> int -> int

val first_in : t -> int -> int
(** As {!first_out}, over the edges entering a node. *)

val next_in : t -> int -> int

val edge : t -> int -> edge
val edges : t -> edge list
(** Every edge, in id order. *)

val out_edges : t -> int -> edge list
(** The edges leaving a node, newest first. *)

val in_edges : t -> int -> edge list
(** The edges entering a node, newest first. *)

(** All edges incident to a node in the undirected shadow graph, each
    tagged with [+1] if it leaves the node, [-1] if it enters it. *)
val shadow_incident : t -> int -> (edge * int) list

(** {1 Orders} *)

val topological_sort : t -> int list option
(** [Some order] (sources first) if the graph is acyclic, else [None]. *)

val is_dag : t -> bool

(** {1 Shortest paths / cycle detection} *)

module type WEIGHT = sig
  type t

  val zero : t
  val add : t -> t -> t
  val compare : t -> t -> int
end

module Bellman_ford (W : WEIGHT) : sig
  val negative_cycle : t -> weight:(edge -> W.t) -> edge list option
  (** [negative_cycle g ~weight] is [Some cycle] (a directed cycle whose
      total weight is strictly negative, as an edge list in traversal
      order) if one exists, and [None] otherwise.  Runs Bellman–Ford
      from a virtual super-source, so disconnected graphs are handled. *)

  val potentials : t -> weight:(edge -> W.t) -> W.t array option
  (** [potentials g ~weight] is [Some pi] with
      [pi.(dst) <= pi.(src) + weight e] for every edge [e] — a feasible
      solution of the difference constraints — or [None] if a negative
      cycle makes the system infeasible. *)
end

(** {1 Undirected simple cycles} *)

type traversal = { edge : edge; dir : int }
(** One step of a cycle traversal: [dir = +1] if the edge is traversed
    from [src] to [dst], [-1] otherwise. *)

val shadow_cycles : ?max_cycles:int -> t -> traversal list list
(** All simple cycles of the undirected shadow graph, each reported
    exactly once as a traversal.  A simple cycle visits every node at
    most once and has at least two edges (a pair of parallel edges forms
    the smallest cycle).  Exponential in general: intended for small
    graphs (tests, the paper-faithful LP of Fig. 6).
    @param max_cycles safety cap; raises [Failure] when exceeded. *)

val pp : Format.formatter -> t -> unit
