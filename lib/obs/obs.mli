(** Structured tracing and metrics with deterministic digests.

    A zero-third-party-dependency observability substrate for the four
    execution engines (Sim, Fuzz.Campaign, Mc, Pool).  Design goals,
    in order:

    {ol
    {- {e Free when off.}  Tracing is compiled in but disabled by
       default; every instrumentation site is guarded by {!on} (one
       atomic load) so the disabled cost is a branch — no allocation,
       no call.  `bench/main.exe z1` pins this at <3% on the Z1
       campaign.}
    {- {e Lock-free when on.}  Each domain appends to its own ring
       buffer ({!Domain.DLS}); the only lock is taken once per domain
       per capture session, to register the buffer in the drain
       registry.  Tracing therefore composes with {!Pool} workers.}
    {- {e Deterministic digests.}  Events carry a {e logical}
       timestamp [(scope, seq)]: a scope is an explicit coordinate set
       by the engine (fuzz case index, mc task index) via
       {!with_scope}, and [seq] counts emissions within the scope.
       Wall-clock and domain ids are recorded but excluded from the
       canonical order and from {!digest}, so the digest of a run is
       byte-identical regardless of [--jobs] — the strongest cheap
       check that the parallel drivers are faithful to the serial
       semantics.  Events emitted outside any scope (e.g. {!Pool}
       task spans, whose worker domains are a scheduling accident and
       which a [jobs:1] map emits on the caller alone) are {e ambient}:
       kept in traces, excluded from the digest.}} *)

(** Argument value attached to an event. *)
type arg = I of int | S of string | B of bool

(** Event kind, mirroring the Chrome [trace_event] phases. *)
type kind =
  | K_span_begin  (** ["B"]: a region of interest opens *)
  | K_span_end  (** ["E"]: the matching region closes *)
  | K_instant  (** ["i"]: a point event *)
  | K_counter of int  (** ["C"]: a sampled counter value *)

type event = {
  ev_cat : string;  (** subsystem: ["sim"], ["fuzz"], ["mc"], ["pool"] *)
  ev_name : string;
  ev_kind : kind;
  ev_scope : int;  (** logical scope id; [-1] = ambient *)
  ev_seq : int;  (** emission index within the scope (or the domain, if ambient) *)
  ev_args : (string * arg) list;
  ev_wall : float;
      (** monotonic clock at emission ({!Mclock.now}: arbitrary
          origin, never decreases) — never part of the digest *)
  ev_dom : int;  (** physical domain id — never part of the digest *)
}

(* ------------------------------------------------------------------ *)
(* Emission (the hot path) *)

val on : unit -> bool
(** Is tracing enabled?  Call sites must guard with
    [if Obs.on () then Obs.instant ...] so the disabled path allocates
    nothing. *)

val span_begin : string -> string -> (string * arg) list -> unit
val span_end : string -> string -> (string * arg) list -> unit
val instant : string -> string -> (string * arg) list -> unit

val counter : string -> string -> (string * arg) list -> int -> unit
(** [counter cat name args v] records a sampled counter value [v]. *)

val muted : (unit -> 'a) -> 'a
(** [muted f] runs [f] with {!on} forced to [false] on the calling
    domain.  Nesting-safe, and exception-safe: if [f] raises, the mute
    depth is restored and the exception re-raised with its backtrace.
    Allocates nothing itself (no [Fun.protect]), so it can wrap every
    delivery of a search.  For engines whose
    instrumentation must stay a pure function of their {e input} while
    their {e internals} vary.  Three engine artifacts run muted:
    {ul
    {- the model checker's deliver/undo walks, which the incremental
       engine uses in place of replayed deliveries;}
    {- the replay engine's from-scratch schedule replays of each
       explored prefix;}
    {- shrink candidate runs, whichever evaluation path (a cut of a
       recorded run or a fresh simulation) answers them.}}
    Muting them keeps the scoped stream (and hence {!digest})
    byte-identical across engines and evaluation paths.  Do not open a
    {!with_scope} inside a muted region: scope bookkeeping is behind
    the same guard. *)

val with_scope : int -> (unit -> 'a) -> 'a
(** [with_scope id f] runs [f] with events stamped [(id, 0), (id, 1), …].
    Scope ids must be non-negative and, within one capture session,
    used by exactly one (deterministic) unit of work — a fuzz case
    index, an mc frontier-task index — so the scoped event stream is a
    pure function of the input and digests are [--jobs]-invariant.
    Nesting saves and restores the outer scope.  When tracing is off
    this is [f ()]. *)

(* ------------------------------------------------------------------ *)
(* Capture sessions *)

type trace = {
  t_events : event array;
      (** canonical order: scoped events sorted by [(scope, seq)],
          then ambient events by (buffer registration order, seq) *)
  t_dropped : int;  (** events lost to ring overflow (0 in sane runs) *)
}

val start : ?capacity:int -> unit -> unit
(** Enable tracing and open a fresh capture session (events of any
    previous session are discarded).  [capacity] bounds each
    per-domain ring (default [2{^20}] events); on overflow the oldest
    events of that ring are overwritten and counted in {!t_dropped}.
    Must not be called while scoped work is running. *)

val drain : unit -> trace
(** Disable tracing and return the session's events.  Call after all
    traced work has joined (e.g. after [Campaign.run] returns). *)

val capture : ?capacity:int -> (unit -> 'a) -> 'a * trace
(** [capture f] = {!start}, [f ()], {!drain} — exceptions from [f]
    still disable tracing. *)

(* ------------------------------------------------------------------ *)
(* Sinks and digests *)

val filter : cats:string list -> trace -> trace
(** Keep only events whose [ev_cat] is listed. *)

val canonical_line : event -> string
(** The canonical JSONL rendering of one event: deterministic fields
    only ([cat], [name], [ph], [scope], [seq], [args]) — no wall
    clock, no domain id. *)

val digest : trace -> string
(** MD5 hex digest of the concatenated {!canonical_line}s of the
    {e scoped} events, in canonical order.  Ambient events, wall-clock
    and domain fields are excluded, so the digest is invariant under
    the worker count and under the sink format. *)

val to_jsonl : ?wall:bool -> Buffer.t -> trace -> unit
(** One JSON object per line, in canonical order.  [wall:true]
    (default) appends the nondeterministic ["wall"] and ["dom"]
    fields; [wall:false] emits exactly the {!canonical_line}s (the
    digest's preimage), which is what golden tests pin. *)

val to_chrome : ?wall:bool -> Buffer.t -> trace -> unit
(** Chrome [trace_event] JSON ([chrome://tracing], Perfetto): an
    object with [traceEvents] and an [otherData] block carrying the
    digest and drop count.  With [wall:false] timestamps are the
    canonical event index instead of microseconds. *)
