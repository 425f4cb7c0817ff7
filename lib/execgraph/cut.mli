(** Consistent cuts, frontiers, cut intervals and real-time cuts
    (Definitions 5 and 6 of the paper; Theorem 3's Mattern-style
    real-time cuts).

    A cut is represented by its {e frontier}: for each process, the
    sequence number of its last included event ([-1] when the process
    contributes no event).  A cut [S] is consistent when every
    {e correct} process has an event in [S] and [S] is left-closed
    under the reflexive-transitive causal order [→*]. *)

type t

val frontier : t -> int array
(** Per process: last included seq, or [-1].  The returned array is the
    cut's own representation; callers may mutate it to build cuts. *)

val mem : t -> Event.t -> bool
val empty : nprocs:int -> t

val full : Graph.t -> t
(** The cut containing all events. *)

val left_closure : Graph.t -> t -> t
(** Extend the frontier with the causal past of every included event. *)

val closure_of_event : Graph.t -> Event.t -> t
(** ⟨φ⟩: the left closure of a single event. *)

val is_consistent : Graph.t -> correct:int list -> t -> bool
(** Definition 5, relative to a set of correct processes. *)

val interval : Graph.t -> from_event:Event.t -> to_event:Event.t -> Event.t list
(** Cut interval [⟨φ⟩, ⟨ψ⟩] := ⟨ψ⟩ \ ⟨φ⟩ (Definition 6). *)

val at_time : Graph.t -> Rat.t -> t
(** Real-time cut (Mattern): all events with timestamp ≤ t; left-closed
    whenever message delays are non-negative. *)

val principal_cuts : Graph.t -> t list
(** The left closures of each single event plus the full cut — the
    family over which the Theorem 2 skew bound is checked.  O(E²), so
    only the reference skew computation
    ([Core.Clock_sync.max_skew_on_cuts_reference]) builds it; the
    oracles read the same frontiers off one vector-clock pass
    ([Core.Clock_sync.max_skew_on_cuts]). *)

val pp : Format.formatter -> t -> unit
