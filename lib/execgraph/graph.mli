(** Execution graphs (Definition 1): the digraph of the space–time
    diagram of an admissible execution, with receive events as nodes
    and two kinds of edges — {e local edges} between consecutive events
    of the same process and {e non-local edges} (messages) reflecting
    the happens-before relation without its transitive closure.

    The builder enforces the structural discipline of the model: events
    of one process are appended in causal order (local edges are
    created implicitly), and a message edge goes from its send step
    (which coincides with a receive event, steps being atomic
    receive+compute+send) to its receive event.  Per the paper's
    treatment of Byzantine faults, callers exclude messages sent by
    faulty processes simply by never adding them (the [Sim] layer
    performs that dropping). *)

type edge_kind = Local | Message

type t

(** {1 Construction} *)

val create : nprocs:int -> t

val add_event : ?time:Rat.t -> t -> proc:int -> Event.t
(** Appends the next receive event of [proc]; a local edge from the
    process's previous event is added implicitly.
    @raise Invalid_argument on a bad process index. *)

val add_message : t -> src:int -> dst:int -> Digraph.edge
(** Adds a message edge between two existing event ids.
    @raise Invalid_argument on bad event ids. *)

val truncate : t -> events:int -> edges:int -> unit
(** Rolls the graph back to an earlier watermark (a prior
    [(event_count, edge_count)] pair), undoing appends newest-first.
    The pair must be a consistent snapshot: every surviving edge
    references surviving events.  O(removed).
    @raise Invalid_argument on an inconsistent watermark. *)

val prefix : t -> events:int -> edges:int -> t
(** [prefix g ~events ~edges] is a new graph equal to what [g] was at
    that earlier watermark: the same event ids, records and edge ids,
    the same per-process lists.  [g] is not changed, and later changes
    to either graph do not reach the other.  The two share their
    immutable parts (event and edge records, adjacency and per-process
    list tails), so the copy allocates O(events + edges) words and no
    list cell.  A simulation cut to a smaller budget ([Sim]'s recorded
    runs) takes its graphs this way.
    @raise Invalid_argument on an inconsistent watermark. *)

(** {1 Accessors} *)

val nprocs : t -> int
val event_count : t -> int

val edge_count : t -> int
(** Total edges, local and message (the edge watermark {!truncate}
    takes). *)

val message_count : t -> int
val event : t -> int -> Event.t
val edge_kind : t -> int -> edge_kind
val is_message : t -> Digraph.edge -> bool

val digraph : t -> Digraph.t
(** The underlying digraph (nodes = event ids, edges = local +
    message). *)

val events_of_proc : t -> int -> int list
(** Event ids of a process in causal (seq) order. *)

val last_event_of_proc : t -> int -> int option

(** {1 Causality} *)

val causally_before : t -> int -> int -> bool
(** Reflexive-transitive causal reachability [φ →* ψ]. *)

val causal_past : t -> int -> bool array
(** The causal cone of an event: mask over event ids of all [φ] with
    [φ →* ψ] (Lemma 4's cone; also used for cut closures). *)

val is_dag : t -> bool
val pp : Format.formatter -> t -> unit
