(** Frontier-splitting exploration driver.

    Parallel DPOR is racy in general: backtrack sets computed in one
    subtree may target nodes owned by another worker.  We sidestep this
    by splitting at a fixed {e frontier depth}: every prefix of that
    length is expanded {e naively} (all choices, no reduction), and each
    resulting prefix becomes an independent task explored with full
    DPOR below the frontier.  Race analysis inside a subtree never
    reaches above its own root ({!Explore.explore} ignores prefix
    steps), so tasks share nothing and the output is independent of the
    worker count: tasks are enumerated in lexicographic prefix order,
    merged in that same order with first-seen class dedup, and the
    final class list is sorted by canonical key.  Byte-determinism of
    the report then follows for any [--jobs].

    The phases are exposed separately ({!frontier_tasks},
    {!explore_task}, {!merge_tasks}) because a distributed runner
    executes them in different processes: every worker re-enumerates
    the (cheap, deterministic) frontier locally, explores its assigned
    task range, and ships the subtrees back for an in-order merge that
    is byte-identical to {!run}.

    Tasks overlap: a class reachable from several prefixes is explored
    below each of them, so the price is duplicated {e exploration}
    proportional to the naive blow-up of the frontier layer (the e = 9
    clock box runs 34,032 executions for its 5,112 classes at the
    default depth 2, and 5,112 at depth 0); depth 2 is the default and
    plenty for the tree widths this model produces.  The oracle
    battery is not duplicated.  A class's {e owner} is the
    lowest-index task whose prefix reaches it ({!Canon.extends}), and
    a task runs the battery only on the first-seen classes it owns; it
    decides that from the frontier nodes left of its own path, so the
    cost does not grow with the number of tasks.  The merge keeps the
    first record in task order, as before; if that record is not its
    owner's (the owner's DPOR missed the class), its battery was left
    to the merge, which runs it on a replay of the record's own
    schedule.  So the battery runs once per class, on the
    representative the report names, at any worker count, engine or
    shard split. *)

type violation = {
  vi_class : string;  (** canonical key of the violating class *)
  vi_oracle : string;
  vi_detail : string;
  vi_case : Fuzz.Gen.case;  (** schedule-bearing repro case *)
  vi_shrunk : Fuzz.Gen.case;
      (** after {!Fuzz.Shrink.shrink}: the schedule moves only, so
          still schedule-bearing *)
}

type outcome = {
  mc_case : Fuzz.Gen.case;  (** the box, schedule-free *)
  mc_dpor : bool;
  mc_engine : Explore.engine;
  mc_frontier : int;  (** effective frontier depth *)
  mc_tasks : int;
  mc_executions : int;
  mc_sleep_blocked : int;
  mc_deliveries : int;
  mc_undos : int;  (** deliveries rolled back (incremental engine) *)
  mc_tt_hits : int;  (** transposition-table prunes (naive mode) *)
  mc_batteries : int;  (** oracle batteries run inside the tasks *)
  mc_merge_batteries : int;
      (** batteries the merge ran: classes their owner's DPOR missed *)
  mc_classes : Explore.class_rec list;  (** sorted by [cl_key] *)
  mc_violations : violation list;
}

(* Reject cases the driver cannot model-check; shared by the local run
   and the distributed worker (which must fail identically). *)
let validate_case (case : Fuzz.Gen.case) =
  (match Fuzz.Gen.validate case with
  | Ok _ -> ()
  | Error e -> invalid_arg ("Mc.Driver.run: " ^ e));
  if case.Fuzz.Gen.c_schedule <> [] then
    invalid_arg "Mc.Driver.run: the case already carries a schedule";
  if case.Fuzz.Gen.c_plan <> [] then
    invalid_arg
      ("Mc.Driver.run: the box carries the fault plan "
      ^ Sim.plan_to_string case.Fuzz.Gen.c_plan
      ^ "; plan entries are keyed by a global send counter, so Canon keys \
         would not name classes");
  if case.Fuzz.Gen.c_max_events > Schedule.max_budget then
    invalid_arg
      (Printf.sprintf "Mc.Driver.run: budget %d above the mc cap %d"
         case.Fuzz.Gen.c_max_events Schedule.max_budget);
  match case.Fuzz.Gen.c_sched with
  | Fuzz.Gen.S_deferring _ ->
      invalid_arg
        "Mc.Driver.run: the deferring adversary picks its own delivery \
         order; model-check an async box instead"
  | _ -> ()

let effective_frontier ~frontier (case : Fuzz.Gen.case) =
  max 0 (min frontier case.Fuzz.Gen.c_max_events)

(* Naive expansion of the frontier layer, in lexicographic prefix
   order; prefixes that hit a maximal execution early become tasks of
   their own (the subtree explorer records them as terminals).  A pure
   function of (case, frontier): any process enumerating the same case
   gets the same task array, which is what makes task indices stable
   distributed work ids. *)
let frontier_tasks ~frontier (case : Fuzz.Gen.case) : int list array =
  validate_case case;
  let frontier = effective_frontier ~frontier case in
  let tasks = ref [] in
  let rec enum prefix depth =
    if depth = frontier then tasks := prefix :: !tasks
    else begin
      let sess, _steps = Schedule.replay case prefix in
      if sess.Fuzz.Gen.ms_finished () then tasks := prefix :: !tasks
      else
        let m = List.length (sess.Fuzz.Gen.ms_ready ()) in
        for c = 0 to m - 1 do
          enum (prefix @ [ c ]) (depth + 1)
        done
    end
  in
  (* scope 0: the (serial) frontier enumeration; scope 1+i: task i.
     Every scoped event stream is a pure function of the case, so the
     trace digest is jobs-invariant like the report itself. *)
  Obs.with_scope 0 @@ fun () ->
  enum [] 0;
  let tasks = Array.of_list (List.rev !tasks) in
  if Obs.on () then
    Obs.instant "mc" "frontier"
      [ ("tasks", Obs.I (Array.length tasks)); ("depth", Obs.I frontier) ];
  tasks

(* Whether no prefix key in [prefixes] reaches the class [key]. *)
let reached_by_none prefixes key =
  let k = ref 0 in
  while !k < Array.length prefixes && not (Canon.extends ~prefix:prefixes.(!k) key) do
    incr k
  done;
  !k = Array.length prefixes

(* Canon keys of the frontier nodes left of [prefix]'s path: for each
   depth j, the prefix's first j choices followed by each smaller
   choice (muted replays).  The tasks before [prefix] are exactly the
   frontier leaves below these nodes, and a node reaches a class iff a
   leaf below it does (the class's maximal execution below the node
   passes through one), so no earlier task reaches a class iff none of
   these nodes does: Σ choices replays per task, not one per earlier
   task. *)
let left_keys (case : Fuzz.Gen.case) prefix =
  let key choices =
    let steps = snd (Schedule.replay case choices) in
    Canon.key ~nprocs:case.Fuzz.Gen.c_nprocs ~len:(Array.length steps) steps
  in
  Array.of_list
    (List.concat
       (List.mapi
          (fun j c ->
            let above = List.filteri (fun k _ -> k < j) prefix in
            List.init c (fun c' -> key (above @ [ c' ])))
          prefix))

let explore_task ~oracles ~dpor ~engine ~tt ~(case : Fuzz.Gen.case)
    ~(tasks : int list array) i : Explore.subtree =
  (* task [i] owns the classes no earlier task's prefix reaches; the
     keys that decide it are built at the first class that asks, so a
     battery-free search replays nothing *)
  let left = lazy (left_keys case tasks.(i)) in
  let owns key = reached_by_none (Lazy.force left) key in
  let sb =
    Obs.with_scope (1 + i) @@ fun () ->
    if Obs.on () then Obs.span_begin "mc" "task" [ ("i", Obs.I i) ];
    let sb = Explore.explore ~engine ~tt ~oracles ~dpor ~owns ~case ~prefix:tasks.(i) in
    if Obs.on () then
      Obs.span_end "mc" "task"
        [ ("i", Obs.I i); ("execs", Obs.I sb.Explore.sb_execs) ];
    sb
  in
  (* engine-dependent statistics are emitted {e ambient} (outside the
     task scope, under their own category): they vary with the engine
     by design, so they must stay out of the digest and of the
     scoped stream the goldens pin *)
  if Obs.on () then begin
    Obs.counter "mce" "deliveries" [ ("task", Obs.I i) ] sb.Explore.sb_deliveries;
    Obs.counter "mce" "undos" [ ("task", Obs.I i) ] sb.Explore.sb_undos;
    Obs.counter "mce" "tt-hits" [ ("task", Obs.I i) ] sb.Explore.sb_tt_hits
  end;
  sb

(* Merge in task order (lexicographic prefixes) with first-seen class
   dedup, then sort classes by key: both steps are independent of the
   worker count — and of which process explored which subtree.  A kept
   record without a battery was found first by a task that does not
   own it; its battery runs here, on a replay of its own schedule. *)
let merge_tasks ~oracles ~dpor ~engine ~frontier ~(case : Fuzz.Gen.case)
    (subtrees : Explore.subtree array) : outcome =
  let execs = ref 0 in
  let sleep_blocked = ref 0 in
  let deliveries = ref 0 in
  let undos = ref 0 in
  let tt_hits = ref 0 in
  let batteries = ref 0 in
  let merge_batteries = ref 0 in
  let seen = Hashtbl.create 64 in
  let classes = ref [] in
  Array.iter
    (fun (sb : Explore.subtree) ->
      execs := !execs + sb.Explore.sb_execs;
      sleep_blocked := !sleep_blocked + sb.Explore.sb_sleep_blocked;
      deliveries := !deliveries + sb.Explore.sb_deliveries;
      undos := !undos + sb.Explore.sb_undos;
      tt_hits := !tt_hits + sb.Explore.sb_tt_hits;
      batteries := !batteries + sb.Explore.sb_batteries;
      List.iter
        (fun (cl : Explore.class_rec) ->
          if not (Hashtbl.mem seen cl.Explore.cl_key) then begin
            Hashtbl.add seen cl.Explore.cl_key ();
            let cl =
              if oracles = [] || cl.Explore.cl_results <> [] then cl
              else begin
                incr merge_batteries;
                let sess, _ = Schedule.replay case cl.Explore.cl_choices in
                {
                  cl with
                  Explore.cl_results =
                    Fuzz.Oracle.evaluate_run oracles case (sess.Fuzz.Gen.ms_run ());
                }
              end
            in
            classes := cl :: !classes
          end)
        sb.Explore.sb_classes)
    subtrees;
  let classes =
    List.sort
      (fun (a : Explore.class_rec) b ->
        compare a.Explore.cl_key b.Explore.cl_key)
      !classes
  in
  let violations =
    List.concat_map
      (fun (cl : Explore.class_rec) ->
        List.filter_map
          (fun (name, o) ->
            match o with
            | Fuzz.Oracle.Fail detail ->
                let vcase =
                  { case with Fuzz.Gen.c_schedule = cl.Explore.cl_choices }
                in
                let shrunk =
                  (Fuzz.Shrink.shrink ~oracles ~oracle:name vcase).Fuzz.Shrink.shrunk
                in
                Some
                  {
                    vi_class = cl.Explore.cl_key;
                    vi_oracle = name;
                    vi_detail = detail;
                    vi_case = vcase;
                    vi_shrunk = shrunk;
                  }
            | Fuzz.Oracle.Pass | Fuzz.Oracle.Skip _ -> None)
          cl.Explore.cl_results)
      classes
  in
  {
    mc_case = case;
    mc_dpor = dpor;
    mc_engine = engine;
    mc_frontier = effective_frontier ~frontier case;
    mc_tasks = Array.length subtrees;
    mc_executions = !execs;
    mc_sleep_blocked = !sleep_blocked;
    mc_deliveries = !deliveries;
    mc_undos = !undos;
    mc_tt_hits = !tt_hits;
    mc_batteries = !batteries;
    mc_merge_batteries = !merge_batteries;
    mc_classes = classes;
    mc_violations = violations;
  }

let run ?(oracles = Fuzz.Oracle.registry) ?(dpor = true)
    ?(engine = Explore.Incremental) ?(tt = true) ?(frontier = 2) ?jobs
    (case : Fuzz.Gen.case) : outcome =
  let tasks = frontier_tasks ~frontier case in
  let subtrees =
    Pool.map ?jobs (Array.length tasks) (explore_task ~oracles ~dpor ~engine ~tt ~case ~tasks)
  in
  merge_tasks ~oracles ~dpor ~engine ~frontier ~case subtrees
