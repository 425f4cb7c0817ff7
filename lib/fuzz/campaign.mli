(** Campaign driver: generate, run, check, shrink, accumulate — on a
    {!Pool} of [jobs] domains.

    Deterministic in [(seed, cases, oracles)] {e regardless of
    [jobs]}: per-case seeds are mixed splitmix64-style from
    [(seed, case_index)] rather than drawn from a shared stream, and
    per-worker results are merged back in case-index order.  The only
    nondeterministic field of an outcome is {!cost}, which
    {!Report.render} excludes.  Every campaign runs all its cases
    through {!Pool.map_stats}. *)

type failure = {
  fl_oracle : string;
  fl_detail : string;
  fl_case : Gen.case;
  fl_shrunk : Shrink.result option;  (** [None] when shrinking is off *)
}

type oracle_stat = { os_pass : int; os_skip : int; os_fail : int }

(** Execution cost of the campaign.  Nondeterministic — never rendered
    into the byte-stable report ({!Report.render}); see
    {!Report.render_cost}. *)
type cost = {
  ct_jobs : int;  (** workers the campaign ran on *)
  ct_wall : float;  (** whole-campaign wall-clock seconds *)
  ct_case_wall : float array;  (** per-case wall seconds, index order *)
  ct_case_alloc : float array;  (** per-case minor-heap words, index order *)
}

type outcome = {
  cp_seed : int;
  cp_cases_run : int;  (** every case of the campaign: [cases] *)
  cp_boundary : bool;  (** resilience-boundary campaign ([n = 3f] cases) *)
  cp_families : (string * int) list;  (** scheduler family -> cases *)
  cp_workloads : (string * int) list;
  cp_stats : (string * oracle_stat) list;  (** registry order *)
  cp_failures : failure list;
  cp_cost : cost;
}

val case_seed : seed:int -> int -> int
(** The per-case seed: a splitmix64 finalizer applied to the base seed
    offset by [(index + 1)] golden-gamma increments.  A pure function
    of [(seed, index)], so cases can be generated and evaluated in any
    order on any worker. *)

(** Everything one case contributes to the outcome: the generated
    case, every oracle's verdict, and the (possibly shrunk) failures.
    Plain data — a distributed runner marshals these across a process
    boundary and merges them with {!merge_evals} exactly as the
    in-process pool path does. *)
type case_eval = {
  ce_case : Gen.case;
  ce_results : (string * Oracle.outcome) list;
  ce_failures : failure list;
}

val eval_case :
  oracles:Oracle.t list ->
  shrink:bool ->
  boundary:bool ->
  seed:int ->
  int ->
  case_eval
(** Evaluate case [i] of the campaign [(seed, …)]: generate it from
    {!case_seed}, run it once and apply the oracles, shrink any
    failures.  The run goes through one {!Shrink.evaluator}, which
    records it and is handed to each failure's shrink, so a candidate
    that only lowers the case's budget is cut from that run.  A pure
    function of its arguments (events are emitted under Obs scope [i],
    so trace digests stay placement-invariant).  This is the unit of
    work a remote shard executes. *)

val merge_evals :
  oracles:Oracle.t list ->
  seed:int ->
  cases:int ->
  boundary:bool ->
  cost:cost ->
  case_eval array ->
  outcome
(** Fold per-case evaluations — one per case, in case-index order —
    into an {!outcome}.  [run] is [eval_case] + [merge_evals]; a
    sharded campaign that evaluates the same index range and merges in
    the same order produces the same outcome modulo [cost].
    @raise Invalid_argument unless there are [cases] evaluations. *)

val run :
  ?oracles:Oracle.t list ->
  ?shrink:bool ->
  ?boundary:bool ->
  ?cases:int ->
  ?jobs:int ->
  seed:int ->
  unit ->
  outcome
(** Run [cases] (default 100) generated cases with {!Pool.map_stats}
    on [jobs] workers (default [Domain.recommended_domain_count ()]).
    Failures are shrunk unless [shrink:false].  [jobs:1] evaluates the
    cases in index order on the calling domain.
    [boundary:true] draws every case from {!Gen.generate_boundary}
    instead of {!Gen.generate}: [n = 3f] with an equivocator, where the
    [boundary-*] oracles are expected to witness violations (reported
    as failures). *)
