(** Theorem oracles: the paper's quantitative claims as executable
    checks over a finished fuzz run.  Oracles {e skip} (rather than
    pass) when their theorem's hypothesis does not hold for the case,
    so reports distinguish vacuous from real coverage. *)

type outcome = Pass | Skip of string | Fail of string

(** Per-case evaluation context, shared so expensive analyses (the
    exact admissibility threshold behind [xi_eff]) run at most once. *)
type ctx = {
  case : Gen.case;
  run : Gen.run;
  graph : Execgraph.Graph.t;  (** faithful execution graph *)
  adm : bool Lazy.t;
      (** whether [graph] is admissible for the case's own Ξ; several
          oracles gate on this, so it is decided at most once *)
  xi_eff : Rat.t Lazy.t;
      (** a Ξ the execution is provably admissible for, via
          {!Core.Abc.admissible_xi} *)
}

type t = {
  name : string;
  theorem : string;  (** the claim of the paper being checked *)
  check : ctx -> outcome;
}

val make_ctx : Gen.case -> Gen.run -> ctx

val registry : t list
(** The default oracles: Θ/deferring admissibility (Thm 6, Def 4),
    clock progress (Thm 1), precision on consistent and real-time cuts
    (Thms 2-3), causal cone (Lemma 4), bounded progress (Thm 4),
    lock-step rounds (Thm 5), EIG consensus agreement + validity,
    delay-assignment existence with [1 < τ(e) < Ξ] on the full graph
    and its half prefix (Thm 7), and the two resilience-boundary
    oracles [boundary-precision] / [boundary-agreement].

    The positive theorem oracles skip on boundary cases ([n = 3f]) and
    on cases whose fault plan voids their hypothesis (drop/misdirect
    break reliable delivery; delay overrides and duplicates void the Θ
    certificate of the scheduler).  The boundary oracles run only on
    boundary cases and have inverted polarity: a {e witnessed
    violation} of the corresponding [n ≥ 3f + 1] bound is reported as
    [Fail], so shrinking, repro lines and golden replays work on
    witnesses unchanged. *)

val evaluate : t list -> Gen.case -> (string * outcome) list
(** Run the case once, apply every oracle.  Results start with the
    pseudo-oracle ["no-crash"], which fails iff the simulation or an
    oracle raised. *)

val crashed : exn -> (string * outcome) list
(** What {!evaluate} reports when running the case raised [e]: the
    ["no-crash"] failure alone, its detail [Printexc.to_string e]. *)

val evaluate_run : t list -> Gen.case -> Gen.run -> (string * outcome) list
(** Like {!evaluate}, on an execution the caller already produced —
    the model checker's per-equivalence-class evaluation.  Oracle
    exceptions are caught per oracle; ["no-crash"] passes (the run
    exists). *)

val select : string -> (t list, string) result
(** Resolve a comma-separated oracle-name list against {!registry},
    preserving registry order; ["no-crash"] is accepted but selects no
    registry oracle.  [Error] on an unknown name, listing the valid
    names. *)

val prefix_graph : Execgraph.Graph.t -> int -> Execgraph.Graph.t
(** [prefix_graph g k]: the first [k] events of a {!Sim} graph and the
    messages among them, the half prefix the [delay-assignment] oracle
    checks: a read-only {!Execgraph.Graph.prefix} view of [g]. *)

val oracle_names : t list -> string list
(** The names {!evaluate} can report, in report order. *)

val only : string -> t list -> t list
(** The oracles named [name] ([[]] for ["no-crash"], which {!evaluate}
    reports regardless).  An oracle's verdict in {!evaluate} does not
    depend on which other oracles run beside it, so a caller that reads
    one verdict can evaluate just that oracle. *)

val failures : (string * outcome) list -> (string * string) list
(** The [(oracle, detail)] pairs of failing outcomes. *)
