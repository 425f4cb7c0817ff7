(** Exact linear-inequality solving for the delay-assignment proof
    engine (Section 4.1 of the paper) — the Fourier–Motzkin engine.

    The paper shows (Theorem 12) that the strict system [Ax < b] built
    from a finite ABC execution graph (Fig. 6) always has a solution,
    via a variant of Farkas' lemma (Theorem 10, after Carver 1921):

    {e [Ax < b] has a solution iff every [y ≥ 0] with [yᵀA = 0]
    satisfies [yᵀb > 0].}

    This module provides the computational counterpart: a
    Fourier–Motzkin eliminator over exact rationals (greedy variable
    ordering, constraint deduplication) that decides feasibility of
    mixed strict/non-strict systems, returns a concrete solution when
    feasible, and returns a {e Farkas certificate} when infeasible — a
    non-negative combination [y] of the original rows with [yᵀA = 0]
    and [yᵀb ≤ 0] (or [= 0] with a strict row involved), exactly a
    witness violating Theorem 10's criterion.

    Fourier–Motzkin is doubly exponential in the worst case, matching
    its role as the paper-faithful reference: the delay-assignment
    solver uses {!Simplex.solve} (same interface), which the tests
    compare with this one on small systems. *)

type relation = Le  (** [≤] *) | Lt  (** [<] *)

type certificate = {
  y : Rat.t array;  (** [y ≥ 0], [yᵀA = 0] *)
  y_b : Rat.t;  (** [yᵀb], which is [≤ 0] *)
  strict_involved : bool;
      (** whether a strict row has positive coefficient in [y]; when
          [yᵀb = 0] this is what makes the system infeasible *)
}

type result = Feasible of Rat.t array | Infeasible of certificate

type system = { nvars : int; rows : (Rat.t array * relation * Rat.t) list }

val make_system : nvars:int -> (Rat.t array * relation * Rat.t) list -> system

val solve : system -> result
(** Decide by Fourier–Motzkin; see the module documentation. *)

val check_solution : system -> Rat.t array -> bool
(** Verify a putative solution row by row. *)

val check_certificate : system -> certificate -> bool
(** Verify a Farkas certificate: [y ≥ 0], [y ≠ 0], [yᵀA = 0], and
    [yᵀb < 0] (or [= 0] with a strict row in the support). *)
