(** Exact rational arithmetic over {!Bigint}.

    Values are kept in canonical form: the denominator is positive and
    [gcd num den = 1], with zero represented as [0/1].  Structural
    equality therefore coincides with numeric equality.

    The ABC model's synchrony parameter Ξ is "a given rational number
    Ξ > 1" (Definition 4 of the paper), and the delay-assignment proof
    engine (Section 4.1) manipulates linear systems whose solutions must
    be certified exactly, so this module is used pervasively instead of
    floating point.

    {b Representation.}  A two-constructor variant: a {e small} form
    holding numerator and denominator as native ints with
    [|num|, den <= 2^30 - 1] (so every cross product in
    add/sub/mul/div/compare stays below [2^60] and every two-product
    sum below [2^61], exact on OCaml's 63-bit ints), and a {e big}
    form over {!Bigint} entered only when a reduced result exceeds
    those bounds.  Values representable in the small form are never
    held in the big form, so structural equality still coincides with
    numeric equality.  In practice Ξ, clock values and edge weights are
    tiny, so the hot paths (the admissibility checker, the simplex
    pivots of small LP instances, the fuzz oracles) run entirely on
    native ints with no bignum allocation. *)

type t

(** {1 Construction} *)

val zero : t
val one : t
val two : t
val minus_one : t

val make : Bigint.t -> Bigint.t -> t
(** [make num den] is the canonical rational [num/den].
    @raise Division_by_zero if [den] is zero. *)

val of_bigint : Bigint.t -> t
val of_int : int -> t

val of_ints : int -> int -> t
(** [of_ints a b] is [a/b].  @raise Division_by_zero if [b = 0]. *)

val of_string : string -> t
(** Parses ["a/b"], ["a"], or a decimal like ["1.5"]. *)

(** {1 Accessors} *)

val num : t -> Bigint.t
val den : t -> Bigint.t

val int_parts : t -> (int * int) option
(** [Some (num, den)] when both parts fit a native [int], [None]
    otherwise.  A small rational's parts are read as they are, with no
    {!Bigint.t} built, which {!num} and {!den} cannot avoid. *)

val to_float : t -> float
val to_string : t -> string

(** {1 Predicates and comparisons} *)

val sign : t -> int
val is_zero : t -> bool
val is_integer : t -> bool

val is_small : t -> bool
(** [is_small x] is [true] iff [x] is held in the word-sized fast-path
    form.  Exposed for tests and benchmarks; algorithms must not
    depend on it. *)

val equal : t -> t -> bool
val compare : t -> t -> int
val min : t -> t -> t
val max : t -> t -> t

(** {1 Arithmetic} *)

val neg : t -> t
val abs : t -> t
val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val div : t -> t -> t
(** @raise Division_by_zero on a zero divisor. *)

val inv : t -> t
(** @raise Division_by_zero on zero. *)

val mul_int : t -> int -> t

val floor : t -> Bigint.t
(** Greatest integer [<= x]. *)

val ceil : t -> Bigint.t
(** Least integer [>= x]. *)

val floor_int : t -> int
(** [floor] as a native int.  @raise Failure on overflow. *)

val ceil_int : t -> int

module O : sig
  val ( + ) : t -> t -> t
  val ( - ) : t -> t -> t
  val ( * ) : t -> t -> t
  val ( / ) : t -> t -> t
  val ( ~- ) : t -> t
  val ( = ) : t -> t -> bool
  val ( <> ) : t -> t -> bool
  val ( < ) : t -> t -> bool
  val ( <= ) : t -> t -> bool
  val ( > ) : t -> t -> bool
  val ( >= ) : t -> t -> bool
end

val pp : Format.formatter -> t -> unit

val check_invariant : t -> bool
(** [true] iff the value is in canonical form: positive denominator,
    [gcd num den = 1], and held small iff it fits the small bounds.
    Used by the test suite. *)

(** {1 Infinitesimal extension}

    Rationals extended with a formal infinitesimal ε: values [a + b·ε]
    ordered lexicographically.  This turns the {e strict} inequality
    systems of the paper (the normalized-assignment conditions
    [1 < τ(e) < Ξ] of Section 4.1, and the strict system [Ax < b] of
    Fig. 6) into non-strict systems over an ordered field, so they can
    be solved exactly by simplex / difference-constraint propagation
    with no ad-hoc numeric slack.  A feasible point with positive
    ε-coordinates can then be {e standardized}: substituting a small
    enough concrete rational for ε (see {!Eps.standardize_with}) yields
    a strictly feasible rational point. *)
module Eps : sig
  type rat = t

  type t = { std : rat; eps : rat }
  (** [std + eps·ε] with ε infinitesimal and positive. *)

  val zero : t
  val one : t
  val epsilon : t

  val of_rat : rat -> t
  val make : rat -> rat -> t

  val add : t -> t -> t
  val sub : t -> t -> t
  val neg : t -> t
  val scale : rat -> t -> t

  val compare : t -> t -> int
  (** Lexicographic: standard part first, then ε-coefficient. *)

  val equal : t -> t -> bool
  val min : t -> t -> t
  val max : t -> t -> t

  val standardize_with : rat -> t -> rat
  (** [standardize_with e x] substitutes the concrete positive rational
      [e] for ε. *)

  val pp : Format.formatter -> t -> unit
end
