(** The paper's non-standard cycle space (Section 4.1).

    A cycle [Z] of an execution graph induces a {e cycle vector} over
    the messages of the graph: coefficient [+1] for backward messages
    ([e ∈ Z−]), [−1] for forward messages ([e ∈ Z+]), [0] elsewhere
    (Fig. 7).  Cycle addition [⊕] adds vectors: oppositely-oriented
    common messages ({e mixed edges}) cancel, identically-oriented ones
    become multi-edges.

    The module implements cycle vectors and their non-negative integer
    linear combinations, consistency of cycle pairs (Definition 10),
    the constructive {e mixed-free decomposition} of Lemmas 8–10 /
    Theorem 11 (by cancelling opposite traversal steps and Eulerian
    re-splitting of the balanced remainder into vertex-simple cycles),
    and the aggregated ratio checks of Lemma 7/11 and Corollary 1. *)

open Execgraph

(** Sparse integer vectors indexed by message edge id. *)
module Vector : sig
  type t

  val zero : t
  val coeff : t -> int -> int
  val set : t -> int -> int -> t
  val add : t -> t -> t
  val scale : int -> t -> t
  val equal : t -> t -> bool
  val is_zero : t -> bool

  val support : t -> int list
  (** Message ids with non-zero coefficient. *)

  val s_minus : t -> int
  (** [s−]: sum of the non-negative coefficients (backward weight). *)

  val s_plus : t -> int
  (** [s+]: sum of the negative coefficients (forward weight, ≤ 0). *)

  val pp : Format.formatter -> t -> unit
end

val vector_of_cycle : Graph.t -> Cycle.t -> Vector.t
(** The cycle vector per the paper's convention: [+1] on [Z−], [−1] on
    [Z+], under the cycle's Definition-3 orientation. *)

(** Consistency of a cycle pair (Definition 10): [I_consistent] when
    all common messages are identically oriented in the two cycle
    vectors (or the cycles are message-disjoint), [O_consistent] when
    all are oppositely oriented, [Mixed] otherwise. *)
type consistency = I_consistent | O_consistent | Mixed

val consistency : Graph.t -> Cycle.t -> Cycle.t -> consistency

exception Not_decomposable of string
(** Raised when the input steps are not balanced — impossible for
    genuine cycles; kept as a defensive check. *)

val decompose : Graph.t -> (int * Cycle.t) list -> Cycle.t list
(** [decompose g cycles] re-expresses the ⊕-sum of [cycles] (with
    non-negative multiplicities) as a mixed-free family (Theorem 11).
    @raise Invalid_argument on negative multiplicities.
    @raise Not_decomposable if the steps are not balanced. *)

val sum_vector : Graph.t -> (int * Cycle.t) list -> Vector.t
(** The ⊕-sum of a weighted family, as a vector. *)

val verify_decomposition :
  Graph.t -> inputs:(int * Cycle.t) list -> outputs:Cycle.t list -> bool
(** The decomposition's defining property: the vector sum is preserved
    and no two output cycles share an oppositely-oriented message. *)

val corollary1_holds : Vector.t -> xi:Rat.t -> bool
(** Corollary 1, checked on a concrete vector: a non-negative
    combination of relevant cycles of an ABC-admissible graph satisfies
    [|C−|/|C+| < Ξ] (zero vectors pass vacuously). *)
