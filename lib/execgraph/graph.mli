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
    process's previous event is added implicitly.  Allocates the
    returned event record and nothing else unless the arrays grow.
    @raise Invalid_argument on a bad process index or on a view. *)

val add_message : t -> src:int -> dst:int -> int
(** Adds a message edge between two existing event ids and returns its
    edge id.  Allocates nothing unless the arrays grow.
    @raise Invalid_argument on bad event ids or on a view. *)

val truncate : t -> events:int -> edges:int -> unit
(** Rolls the graph back to an earlier watermark (a prior
    [(event_count, edge_count)] pair), undoing appends newest-first;
    each process's last event goes back along its [prev] link.  The
    pair must be a consistent snapshot: every surviving edge
    references surviving events.  O(removed), and an append after it
    reuses the freed capacity.  If a live {!prefix} view of [g] (or of
    its digraph) reads past the watermark, [g] first takes fresh copies
    of its arrays and leaves the old ones to its views ({e detaching}),
    so no view sees the change.
    @raise Invalid_argument on an inconsistent watermark, or on a
    view. *)

val prefix : t -> events:int -> edges:int -> t
(** [prefix g ~events ~edges] is what [g] was at that earlier
    watermark — the same event ids, records and edge ids, the same
    per-process events — as a read-only {e view} of [g]'s arrays: it
    copies none of them and builds only its own records and its array
    of per-process last events (found by following [prev] links back
    below the watermark).  A view stays valid, and unchanged, for as
    long as it is referenced: [g]'s later appends land past its counts,
    where its readers skip them, and a {!truncate} of [g] below the
    largest watermark any view holds detaches [g] first.  A view of a
    view reads the same arrays and records its watermark with them.
    A simulation cut to a smaller budget ([Sim]'s recorded runs) and
    the delay-assignment oracle's half prefix take their graphs this
    way.
    @raise Invalid_argument on an inconsistent watermark.  Changing a
    view ({!add_event}, {!add_message}, {!truncate}) raises it too. *)

(** {1 Accessors} *)

val nprocs : t -> int
val event_count : t -> int

val edge_count : t -> int
(** Total edges, local and message (the edge watermark {!truncate}
    takes). *)

val message_count : t -> int
val event : t -> int -> Event.t
val edge_kind : t -> int -> edge_kind

val is_message_id : t -> int -> bool
(** [is_message_id g e]: is edge id [e] a message?  What hot loops
    walking {!Digraph.first_in}/{!Digraph.next_in} ask. *)

val is_message : t -> Digraph.edge -> bool

val digraph : t -> Digraph.t
(** The underlying digraph (nodes = event ids, edges = local +
    message).  Every adjacency list runs newest first (decreasing edge
    ids). *)

val events_of_proc : t -> int -> int list
(** Event ids of a process in causal (seq) order. *)

val last_event_of_proc : t -> int -> int option

val prev_event : t -> int -> int
(** The event before [id] at its process, or [-1]: walked from
    {!last_event_of_proc}, each process's events newest first, with no
    allocation. *)

(** {1 Causality} *)

val causally_before : t -> int -> int -> bool
(** Reflexive-transitive causal reachability [φ →* ψ]. *)

val causal_past : t -> int -> bool array
(** The causal cone of an event: mask over event ids of all [φ] with
    [φ →* ψ] (Lemma 4's cone; also used for cut closures). *)

val is_dag : t -> bool
val pp : Format.formatter -> t -> unit
