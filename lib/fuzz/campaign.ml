(** Campaign driver: generate cases from a base seed, run every oracle
    on each, shrink the failures, and accumulate statistics.

    A campaign is a pure function of [(seed, cases, oracles)]: each
    case derives its RNG seed from [(seed, case_index)] through a
    splitmix64 finalizer — no shared random stream — so case [i] is
    the same case no matter which worker runs it or in which order.
    Cases are evaluated on a {!Pool} of [jobs] domains (shrinking of a
    failing case happens inside the same task, so it parallelizes and
    stays a function of the case alone) and the pool returns the
    results {e in case-index order}, which is the order every
    statistic and failure is accumulated in.  Identical [(seed, cases)]
    invocations therefore produce identical {!outcome} values — and
    identical rendered reports (see {!Report}) — {e regardless of
    [jobs]}.

    The only nondeterministic part of an outcome is {!cost} (wall
    time, allocation), which {!Report.render} deliberately excludes. *)

type failure = {
  fl_oracle : string;
  fl_detail : string;
  fl_case : Gen.case;
  fl_shrunk : Shrink.result option;  (** [None] when shrinking is off *)
}

type oracle_stat = { os_pass : int; os_skip : int; os_fail : int }

type cost = {
  ct_jobs : int;  (** workers the campaign ran on *)
  ct_wall : float;  (** whole-campaign wall-clock seconds *)
  ct_case_wall : float array;  (** per-case wall seconds, index order *)
  ct_case_alloc : float array;  (** per-case minor words, index order *)
}

type outcome = {
  cp_seed : int;
  cp_cases_run : int;
  cp_boundary : bool;  (** resilience-boundary campaign ([n = 3f] cases) *)
  cp_families : (string * int) list;  (** scheduler family -> cases, sorted *)
  cp_workloads : (string * int) list;  (** workload -> cases, sorted *)
  cp_stats : (string * oracle_stat) list;  (** in registry order *)
  cp_failures : failure list;
  cp_cost : cost;  (** nondeterministic; excluded from {!Report.render} *)
}

(* Distinct per-case seeds, splitmix64-style: the base seed is offset
   by (index+1) times the golden-gamma increment and pushed through
   the splitmix finalizer.  Unlike drawing case seeds from one shared
   stream, this makes case i a function of (seed, i) alone — exactly
   what index-ordered parallel evaluation needs.  Replays never need
   to invert it (the repro line carries the whole case). *)
let case_seed ~seed i =
  let open Int64 in
  let golden_gamma = 0x9E3779B97F4A7C15L in
  let z = add (of_int seed) (mul golden_gamma (of_int (i + 1))) in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  let z = logxor z (shift_right_logical z 31) in
  to_int (logand z 0x3FFFFFFFFFFFFFFFL)

let bump assoc key =
  match List.assoc_opt key assoc with
  | Some n -> (key, n + 1) :: List.remove_assoc key assoc
  | None -> (key, 1) :: assoc

(* Everything one case contributes to the outcome; produced inside a
   pool task, merged in index order afterwards. *)
type case_eval = {
  ce_case : Gen.case;
  ce_results : (string * Oracle.outcome) list;
  ce_failures : failure list;
}

let eval_case ~oracles ~shrink ~boundary ~seed i =
  (* the case index is the event scope: everything a case emits gets
     logical timestamps (i, 0), (i, 1), … no matter which worker runs
     it, so campaign trace digests are jobs-invariant *)
  Obs.with_scope i @@ fun () ->
  if Obs.on () then
    Obs.span_begin "fuzz" "case"
      [ ("i", Obs.I i); ("seed", Obs.I (case_seed ~seed i)) ];
  let gen = if boundary then Gen.generate_boundary else Gen.generate in
  let case = gen ~seed:(case_seed ~seed i) in
  (* the case runs once, recorded, and its shrinks start from that run:
     a candidate that only lowers the case's budget is a cut of it *)
  let evaluate = Shrink.evaluator () in
  let results = evaluate ~oracles case in
  if Obs.on () then
    List.iter
      (fun (name, o) ->
        Obs.instant "fuzz" "oracle"
          [
            ("name", Obs.S name);
            ( "verdict",
              Obs.S
                (match o with
                | Oracle.Pass -> "pass"
                | Oracle.Skip _ -> "skip"
                | Oracle.Fail _ -> "fail") );
          ])
      results;
  let failures =
    List.map
      (fun (fl_oracle, fl_detail) ->
        let fl_shrunk =
          if shrink then Some (Shrink.shrink ~evaluate ~oracles ~oracle:fl_oracle case)
          else None
        in
        { fl_oracle; fl_detail; fl_case = case; fl_shrunk })
      (Oracle.failures results)
  in
  if Obs.on () then
    Obs.span_end "fuzz" "case"
      [ ("i", Obs.I i); ("failures", Obs.I (List.length failures)) ];
  { ce_case = case; ce_results = results; ce_failures = failures }

(* Fold the per-case evaluations, in index order, into the outcome. *)
let merge_evals ~oracles ~seed ~cases ~boundary ~cost (evals : case_eval array) =
  if Array.length evals <> cases then
    invalid_arg "Campaign.merge_evals: one evaluation per case";
  let stats =
    ref
      (List.map
         (fun n -> (n, { os_pass = 0; os_skip = 0; os_fail = 0 }))
         (Oracle.oracle_names oracles))
  in
  let families = ref [] and workloads = ref [] in
  let failures = ref [] in
  Array.iter
    (fun ce ->
      families := bump !families (Gen.family_name ce.ce_case.Gen.c_sched);
      workloads := bump !workloads (Gen.workload_name ce.ce_case.Gen.c_workload);
      List.iter
        (fun (name, o) ->
          stats :=
            List.map
              (fun (n, s) ->
                if n <> name then (n, s)
                else
                  ( n,
                    match o with
                    | Oracle.Pass -> { s with os_pass = s.os_pass + 1 }
                    | Oracle.Skip _ -> { s with os_skip = s.os_skip + 1 }
                    | Oracle.Fail _ -> { s with os_fail = s.os_fail + 1 } ))
              !stats)
        ce.ce_results;
      failures := List.rev_append ce.ce_failures !failures)
    evals;
  {
    cp_seed = seed;
    cp_cases_run = cases;
    cp_boundary = boundary;
    cp_families = List.sort compare !families;
    cp_workloads = List.sort compare !workloads;
    cp_stats = !stats;
    cp_failures = List.rev !failures;
    cp_cost = cost;
  }

let run ?(oracles = Oracle.registry) ?(shrink = true) ?(boundary = false)
    ?(cases = 100) ?jobs ~seed () : outcome =
  let started = Mclock.now () in
  let jobs =
    max 1 (match jobs with Some j -> j | None -> Domain.recommended_domain_count ())
  in
  let evals, stats =
    Pool.map_stats ~jobs cases (eval_case ~oracles ~shrink ~boundary ~seed)
  in
  let cost =
    {
      ct_jobs = jobs;
      ct_wall = Mclock.now () -. started;
      ct_case_wall = Array.map (fun s -> s.Pool.st_wall) stats;
      ct_case_alloc = Array.map (fun s -> s.Pool.st_alloc_words) stats;
    }
  in
  merge_evals ~oracles ~seed ~cases ~boundary ~cost evals
