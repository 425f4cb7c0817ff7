(** Normalized delay assignments (Section 4.1, Theorems 7 and 12).

    Theorem 7: for every finite ABC execution graph (admissible for Ξ)
    there is an end-to-end delay assignment τ with [1 < τ(e) < Ξ] for
    every message and strictly positive local-edge weights, such that
    the weighted graph is causally equivalent to the original.  This is
    the engine behind the ABC/Θ model indistinguishability (Thm. 9).

    Two independent constructions:
    - {!solve_fast}: event occurrence times via difference constraints
      over the ε-extended rationals, solved by Bellman–Ford potentials;
      polynomial, delays are time differences so every cycle condition
      holds by construction.  The potentials come from the native
      admissibility kernel [Execgraph.Abc_check.potentials];
      {!solve_reference} is the same construction over {!Rat.Eps};
    - {!solve_faithful}: the paper's Fig. 6 system [Ax < b] over one
      variable per message, with cycle rows from explicit enumeration;
      solved exactly by simplex over ℚ(ε) (default) or Fourier–Motzkin
      (the proof-faithful narrative).  Infeasibility comes with a
      Farkas certificate (Theorem 10). *)

type assignment = {
  times : Rat.t array;  (** event id -> occurrence time *)
  delays : (int * Rat.t) list;  (** message edge id -> delay in (1, Ξ) *)
  epsilon : Rat.t;  (** the concrete ε substituted for the infinitesimal *)
}

val solve_fast : Execgraph.Graph.t -> xi:Rat.t -> assignment option
(** [None] iff the graph violates the ABC condition for Ξ (Theorem 12
    in contrapositive).  The potentials of
    [Execgraph.Abc_check.potentials] for Ξ = a/b, read as the
    lexicographic domain (b·std, ε-count), then ε and the event times
    in native ints; falls back to {!solve_reference} unless
    {!fits_native}.  The result is structurally equal to
    {!solve_reference}'s.  @raise Invalid_argument unless [Ξ > 1]. *)

val solve_reference : Execgraph.Graph.t -> xi:Rat.t -> assignment option
(** The same solver over {!Rat.Eps}: the generic Bellman–Ford on an
    auxiliary constraint digraph.  The slow reference {!solve_fast} is
    tested against.  @raise Invalid_argument unless [Ξ > 1]. *)

val fits_native : Execgraph.Graph.t -> xi:Rat.t -> bool
(** The native path's overflow guard: both parts of Ξ = a/b are
    native ints and [(n+1)·(arcs+1)·max(a,b) < 2^60], with [n] the
    event count and [arcs] = edges + messages. *)

val verify : Execgraph.Graph.t -> xi:Rat.t -> assignment -> bool
(** [1 < τ(e) < Ξ] for every message and strict time increase along
    every local edge. *)

type fig6_system = {
  system : Lp.system;
  message_ids : int array;  (** column -> message edge id *)
  n_relevant : int;
  n_nonrelevant : int;  (** all-forward-locals cycle rows *)
}

val build_fig6 : ?max_cycles:int -> Execgraph.Graph.t -> xi:Rat.t -> fig6_system
(** The matrix of Fig. 6: 2k bound rows, one row per relevant cycle
    and the sign-flipped row per all-forward-locals cycle (cycles with
    locals in both classes are unconstrained — see DESIGN.md,
    "Deviations"). *)

type faithful_result =
  | Assignment of (int * Rat.t) list  (** message edge id -> delay *)
  | Farkas of Lp.certificate

val solve_faithful :
  ?max_cycles:int ->
  ?engine:[ `Simplex | `Fourier_motzkin ] ->
  Execgraph.Graph.t ->
  xi:Rat.t ->
  faithful_result
(** Solve the Fig. 6 system ([`Simplex] by default; [`Fourier_motzkin]
    mirrors the paper's proof and is exponential). *)

val verify_faithful :
  ?max_cycles:int -> Execgraph.Graph.t -> xi:Rat.t -> (int * Rat.t) list -> bool
(** Check an assignment directly against the paper's conditions:
    bounds (4) and the per-cycle conditions (6) / sign-flipped. *)
