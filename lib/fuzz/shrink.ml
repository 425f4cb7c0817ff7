(** Greedy counterexample shrinking.

    Given a case failing some oracle, repeatedly try "smaller" variants,
    keeping a variant iff the {e same} oracle still fails on it, until
    no candidate fails (a local minimum) or the evaluation budget runs
    out.  One shrinker serves both kinds of case: a schedule-bearing
    case (a model-checker witness) moves only its schedule; any other
    moves its events, faults, processes and scheduler, and every such
    candidate goes through {!Gen.validate}, so shrinking never leaves
    the space of well-formed cases. *)

let dedup_cases l =
  let rec go acc = function
    | [] -> List.rev acc
    | c :: rest -> if List.mem c acc then go acc rest else go (c :: acc) rest
  in
  go [] l

(* Schedule moves, most aggressive first: truncate to half, then to all
   but one choice; delete one choice; zero one nonzero choice.  Each
   strictly decreases (length, sum of choices) lexicographically, and
   none is the empty schedule, which means "no schedule". *)
let schedule_moves (c : Gen.case) : Gen.case list =
  let sch = c.Gen.c_schedule in
  let n = List.length sch in
  let keep p = { c with Gen.c_schedule = List.filteri (fun j _ -> p j) sch } in
  let zero i = { c with Gen.c_schedule = List.mapi (fun j x -> if j = i then 0 else x) sch } in
  List.filter_map
    (fun k -> if k >= 1 && k < n then Some (keep (fun j -> j < k)) else None)
    [ n / 2; n - 1 ]
  @ (if n >= 2 then List.init n (fun i -> keep (fun j -> j <> i)) else [])
  @ List.concat (List.mapi (fun i x -> if x > 0 then [ zero i ] else []) sch)

(* Case moves, most aggressive reductions first. *)
let case_moves (c : Gen.case) : Gen.case list =
  let ev = c.Gen.c_max_events in
  let n = c.Gen.c_nprocs in
  let event_cands =
    List.filter_map
      (fun e -> if e >= max n 2 && e < ev then Some { c with Gen.c_max_events = e } else None)
      [ ev / 4; ev / 2; 3 * ev / 4; ev - 1 ]
  in
  let drop_proc =
    if n <= 2 then []
    else
      let n' = n - 1 in
      let fix p = if p >= n' then 0 else p in
      let fix_pair vs vd =
        let vs = fix vs and vd = fix vd in
        if vs = vd then (vs, (vs + 1) mod n') else (vs, vd)
      in
      let sched =
        match c.Gen.c_sched with
        | Gen.S_targeted t ->
            let victim_sender, victim_dst = fix_pair t.victim_sender t.victim_dst in
            Gen.S_targeted { t with victim_sender; victim_dst }
        | Gen.S_deferring { victim_sender; victim_dst } ->
            let victim_sender, victim_dst = fix_pair victim_sender victim_dst in
            Gen.S_deferring { victim_sender; victim_dst }
        | s -> s
      in
      [
        {
          c with
          Gen.c_nprocs = n';
          c_faults = Array.sub c.Gen.c_faults 0 n';
          c_sched = sched;
        };
      ]
  in
  let weaken_faults =
    match
      (* the last faulty process, mirroring the generator's layout *)
      Array.to_list c.Gen.c_faults
      |> List.mapi (fun i f -> (i, f))
      |> List.filter (fun (_, f) -> f <> Sim.Correct)
      |> List.rev
    with
    | [] -> []
    | (i, f) :: _ ->
        let with_fault g =
          let faults = Array.copy c.Gen.c_faults in
          faults.(i) <- g;
          { c with Gen.c_faults = faults }
        in
        (match f with
        | Sim.Byzantine _ -> [ with_fault Sim.Correct; with_fault (Sim.Crash 2) ]
        | Sim.Crash k when k > 1 -> [ with_fault Sim.Correct; with_fault (Sim.Crash (k / 2)) ]
        | _ -> [ with_fault Sim.Correct ])
  in
  let shrink_plan =
    match c.Gen.c_plan with
    | [] -> []
    | plan ->
        let half =
          List.filteri (fun i _ -> 2 * i < List.length plan) plan
        in
        { c with Gen.c_plan = [] }
        :: (if List.length half < List.length plan then [ { c with Gen.c_plan = half } ] else [])
  in
  let q = Rat.of_ints in
  let tame_sched =
    match c.Gen.c_sched with
    | Gen.S_theta { tau_minus; tau_plus } ->
        if Rat.equal tau_minus tau_plus then []
        else [ { c with Gen.c_sched = Gen.S_theta { tau_minus; tau_plus = tau_minus } } ]
    | Gen.S_async _ ->
        [ { c with Gen.c_sched = Gen.S_theta { tau_minus = q 1 1; tau_plus = q 2 1 } } ]
    | Gen.S_growing { intra_min; intra_max; _ } ->
        [ { c with Gen.c_sched = Gen.S_theta { tau_minus = intra_min; tau_plus = intra_max } } ]
    | Gen.S_eventually_theta { tau_minus; tau_plus; _ } ->
        [ { c with Gen.c_sched = Gen.S_theta { tau_minus; tau_plus } } ]
    | Gen.S_targeted { tau_minus; tau_plus; victim_sender; victim_dst; stretch } ->
        { c with Gen.c_sched = Gen.S_theta { tau_minus; tau_plus } }
        ::
        (if Rat.compare stretch (Rat.mul_int tau_plus 2) > 0 then
           [
             {
               c with
               Gen.c_sched =
                 Gen.S_targeted
                   {
                     tau_minus;
                     tau_plus;
                     victim_sender;
                     victim_dst;
                     stretch = Rat.div stretch Rat.two;
                   };
             };
           ]
         else [])
    | Gen.S_deferring _ ->
        [ { c with Gen.c_sched = Gen.S_theta { tau_minus = q 1 1; tau_plus = q 2 1 } } ]
  in
  dedup_cases
    (List.filter
       (fun c' -> c' <> c && Result.is_ok (Gen.validate c'))
       (event_cands @ shrink_plan @ weaken_faults @ drop_proc @ tame_sched))

let candidates (c : Gen.case) : Gen.case list =
  if c.Gen.c_schedule <> [] then schedule_moves c else case_moves c

type result = {
  shrunk : Gen.case;
  steps : int;  (** accepted reductions *)
  evaluations : int;
      (** candidates evaluated, whether cut from a recorded run or run *)
}

type evaluate = oracles:Oracle.t list -> Gen.case -> (string * Oracle.outcome) list

(* A run with a smaller event budget is a prefix of the same case run
   with a larger one, so a cut of the last recorded run answers a
   budget-only candidate exactly.  A recorded run that raises is
   answered with the crash verdict [Oracle.evaluate] builds, without
   running the case again (a traced run would emit its events twice);
   a cut that raises goes to [Oracle.evaluate], which reports what a
   fresh run of the smaller case raises. *)
let evaluator () : evaluate =
  let last = ref None in
  fun ~oracles (c : Gen.case) ->
    match !last with
    | _ when c.Gen.c_schedule <> [] -> Oracle.evaluate oracles c
    | Some (r, cut)
      when c.Gen.c_max_events <= r.Gen.c_max_events
           && { c with Gen.c_max_events = r.Gen.c_max_events } = r -> (
        match cut c.Gen.c_max_events with
        | run -> Oracle.evaluate_run oracles c run
        | exception _ -> Oracle.evaluate oracles c)
    | _ -> (
        last := None;
        match Gen.run_case_recorded c with
        | run, cut ->
            last := Some (c, cut);
            Oracle.evaluate_run oracles c run
        | exception e -> Oracle.crashed e)

(** [shrink ~oracles ~oracle c] greedily minimizes [c] while oracle
    [oracle] keeps failing, spending at most 200 candidate evaluations
    on a schedule-bearing case and 80 on any other.

    Candidates are judged on [oracle] alone: the acceptance test reads
    no other verdict, every check is a pure function of the shared
    context that emits no trace event, and [Oracle.evaluate []] still
    reports ["no-crash"] — so running the rest of the battery would
    change nothing but the cost.  Every evaluation runs {!Obs.muted},
    so a shrink traces only its own instants. *)
let shrink ?(evaluate = evaluator ()) ~oracles ~oracle (c0 : Gen.case) : result =
  let oracles = Oracle.only oracle oracles in
  let max_evals = if c0.Gen.c_schedule <> [] then 200 else 80 in
  let evals = ref 0 in
  let still_fails c =
    incr evals;
    if Obs.on () then Obs.instant "fuzz" "shrink-eval" [ ("n", Obs.I !evals) ];
    match Obs.muted (fun () -> evaluate ~oracles c) with
    | results ->
        List.exists
          (fun (name, o) ->
            name = oracle && match o with Oracle.Fail _ -> true | _ -> false)
          results
    | exception _ -> false
  in
  let rec go c steps =
    if !evals >= max_evals then { shrunk = c; steps; evaluations = !evals }
    else
      match
        List.find_opt
          (fun c' -> !evals < max_evals && still_fails c')
          (candidates c)
      with
      | Some c' ->
          if Obs.on () then
            Obs.instant "fuzz" "shrink-step" [ ("steps", Obs.I (steps + 1)) ];
          go c' (steps + 1)
      | None -> { shrunk = c; steps; evaluations = !evals }
  in
  go c0 0
