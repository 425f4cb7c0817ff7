(** The ABC model (Section 2): the exact admissibility threshold.

    The model is parameterized by a rational synchrony parameter Ξ > 1
    (Definition 4), and [Execgraph.Abc_check] decides admissibility for
    one Ξ.  This module computes the {e exact maximum relevant-cycle
    ratio} of an execution graph — the infimum of the admissible Ξ — in
    polynomial time by parametric search: exact
    binary search on the Stern–Brocot tree over the monotone
    cycle-detection probe.  Every probe is one run of the native kernel
    [Abc_check.potentials] on the execution graph itself: no auxiliary
    graph is prebuilt, and no probe needs big integers (probe parts
    never exceed 2m+1 for [m] messages, far inside the kernel's
    guard). *)

val max_relevant_ratio : Execgraph.Graph.t -> Rat.t option
(** The maximum ratio [|Z−|/|Z+|] over the relevant cycles: [Some r]
    means the graph is admissible exactly for every [Ξ > r]; [None]
    means every relevant cycle has ratio ≤ 1 (or there is none), i.e.
    admissible for {e every} Ξ > 1. *)

val admissible_xi : Execgraph.Graph.t -> fallback:Rat.t -> Rat.t
(** A Ξ for which the graph is guaranteed admissible: [fallback] if the
    graph is admissible for it already, otherwise a rational just above
    {!max_relevant_ratio}.  Used by theorem oracles to instantiate
    "admissible for Ξ ⇒ …" hypotheses on arbitrary executions.
    @raise Invalid_argument unless [fallback > 1]. *)

val admissibility_threshold : Execgraph.Graph.t -> string
(** {!max_relevant_ratio}, rendered for reports. *)
