(* Tests for the bounded model checker: the sch= wire field, schedule
   replay determinism (the property stateless search stands on),
   DPOR-vs-naive class/verdict equivalence on exhaustively explorable
   boxes, exact class sets against a brute-force enumeration, the
   rejection of fault-plan boxes, worker-count independence of the
   report, battery ownership (Canon.extends against the frontier
   tasks' exhaustive subtrees, one battery per class on its
   representative), and schedule shrinking on the pinned boundary
   witness. *)

open Fuzz

let prop name count arb f =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb f)

let q = Rat.of_ints

(* the key of a whole step array *)
let canon_key ~nprocs steps = Mc.Canon.key ~nprocs ~len:(Array.length steps) steps

let clock_box ?(boundary = false) ?faults ~nprocs ~budget ~xi () =
  let faults =
    match faults with Some f -> f | None -> Array.make nprocs Sim.Correct
  in
  {
    Gen.c_seed = 1;
    c_nprocs = nprocs;
    c_faults = faults;
    c_xi = xi;
    c_sched = Gen.S_async { max_delay = Rat.one };
    c_workload = Gen.W_clock;
    c_max_events = budget;
    c_plan = [];
    c_boundary = boundary;
    c_schedule = [];
  }

let boundary_box ~budget ~xi =
  clock_box ~boundary:true
    ~faults:[| Sim.Correct; Sim.Correct; Byz.fault Byz.Equivocator |]
    ~nprocs:3 ~budget ~xi ()

(* the golden witness: greedy starvation schedule pushing skew past
   2Xi at n = 3f (see test/golden/mc_schedule_replay.expected) *)
let witness_line =
  "abc1;s=1;n=3;f=C,C,Beq;xi=3/2;w=clock;d=async:1;e=20;b=1;sch=0.0.0.6.0.2.5.1.6.2.6.4.6.7.8.8.9.10.10.11"

let wire_tests =
  [
    Alcotest.test_case "sch= field round-trips" `Quick (fun () ->
        let c =
          { (clock_box ~nprocs:3 ~budget:8 ~xi:(q 2 1) ()) with
            Gen.c_schedule = [ 0; 2; 1; 0; 3 ];
          }
        in
        let line = Replay.to_string c in
        (match Replay.of_string line with
        | Ok c' ->
            if c' <> c then
              Alcotest.failf "sch round-trip changed the case: %s" line
        | Error e -> Alcotest.failf "%s does not parse back: %s" line e);
        if not (String.length line > 4) then Alcotest.fail "empty line");
    Alcotest.test_case "schedule-free lines carry no sch= field" `Quick
      (fun () ->
        let line =
          Replay.to_string (clock_box ~nprocs:3 ~budget:8 ~xi:(q 2 1) ())
        in
        let contains needle hay =
          let nl = String.length needle and hl = String.length hay in
          let rec go i =
            i + nl <= hl && (String.sub hay i nl = needle || go (i + 1))
          in
          go 0
        in
        if contains "sch=" line then
          Alcotest.failf "unexpected sch= in %s" line);
    Alcotest.test_case "malformed schedules are rejected" `Quick (fun () ->
        List.iter
          (fun line ->
            match Replay.of_string line with
            | Error _ -> ()
            | Ok _ -> Alcotest.failf "%S should not parse" line)
          [
            "abc1;s=1;n=3;f=C,C,C;xi=2;w=clock;d=async:1;e=8;sch=";
            "abc1;s=1;n=3;f=C,C,C;xi=2;w=clock;d=async:1;e=8;sch=0..1";
            "abc1;s=1;n=3;f=C,C,C;xi=2;w=clock;d=async:1;e=8;sch=0.-1";
            "abc1;s=1;n=3;f=C,C,C;xi=2;w=clock;d=async:1;e=8;sch=zero";
            (* the deferring adversary picks its own order *)
            "abc1;s=1;n=3;f=C,C,C;xi=2;w=clock;d=defer:0:1;e=8;sch=0.1";
          ]);
    Alcotest.test_case "a box with an out-of-range Xi is rejected naming 2^30" `Quick
      (fun () ->
        (* the box `abc mc --procs 3 --budget 4 --xi 4294967297/2`
           builds; past validation, the checkers would raise inside
           every class's battery *)
        match Gen.validate (clock_box ~nprocs:3 ~budget:4 ~xi:(q 4294967297 2) ()) with
        | Ok _ -> Alcotest.fail "out-of-range Xi accepted"
        | Error e ->
            if not (Util.contains "2^30" e) then
              Alcotest.failf "error does not name the bound: %s" e);
    Alcotest.test_case "the golden witness line parses and fails" `Quick
      (fun () ->
        match Replay.of_string witness_line with
        | Error e -> Alcotest.failf "witness line rejected: %s" e
        | Ok c -> (
            if List.length c.Gen.c_schedule <> 20 then
              Alcotest.fail "witness schedule length changed";
            match
              List.assoc "boundary-precision"
                (Oracle.evaluate Oracle.registry c)
            with
            | Oracle.Fail _ -> ()
            | _ -> Alcotest.fail "witness no longer fails boundary-precision"));
  ]

let graph_dump g = Format.asprintf "%a" Execgraph.Graph.pp g

(* non-empty: [c_schedule = []] means "no schedule", so the empty
   prefix would compare against the case's own scheduler instead *)
let arb_choices =
  QCheck.make
    ~print:(fun l -> String.concat "." (List.map string_of_int l))
    QCheck.Gen.(list_size (int_range 1 8) (int_range 0 5))

let determinism_tests =
  [
    prop "schedule replay is deterministic (same prefix, same graph)" 50
      arb_choices (fun choices ->
        let case = clock_box ~nprocs:3 ~budget:8 ~xi:(q 2 1) () in
        let dump () =
          let sess, steps = Mc.Schedule.replay case choices in
          ( graph_dump (Gen.graph_of_run (sess.Gen.ms_run ())),
            canon_key ~nprocs:3 steps )
        in
        dump () = dump ());
    prop "session replay agrees with Sim.run_scheduled" 50 arb_choices
      (fun choices ->
        let case = clock_box ~nprocs:3 ~budget:8 ~xi:(q 2 1) () in
        let sess, _ = Mc.Schedule.replay case choices in
        (* drive the session to a maximal execution, FIFO after the
           prefix, mirroring run_scheduled's continuation *)
        while not (sess.Gen.ms_finished ()) do
          ignore (sess.Gen.ms_deliver 0)
        done;
        let g_session = graph_dump (Gen.graph_of_run (sess.Gen.ms_run ())) in
        let g_sched =
          graph_dump
            (Gen.graph_of_run
               (Gen.run_case { case with Gen.c_schedule = choices }))
        in
        g_session = g_sched);
  ]

let equivalence_tests =
  let configs =
    [
      ("n=2 clock b=5", clock_box ~nprocs:2 ~budget:5 ~xi:(q 2 1) ());
      ("n=3 clock b=4", clock_box ~nprocs:3 ~budget:4 ~xi:(q 2 1) ());
      ("n=3 boundary b=5", boundary_box ~budget:5 ~xi:(q 3 2));
      (* the largest boxes: DPOR runs 1,059 of naive's 5,694
         executions at e = 6, and 8,712 of 186,696 at e = 8 *)
      ("n=3 clock b=6", clock_box ~nprocs:3 ~budget:6 ~xi:(q 2 1) ());
      ("n=3 clock b=8", clock_box ~nprocs:3 ~budget:8 ~xi:(q 2 1) ());
    ]
  in
  [
    Alcotest.test_case "dpor and naive agree on classes and verdicts" `Quick
      (fun () ->
        (* three independent searches of the same box: DPOR (sleep
           sets), exhaustive naive, and table-pruned naive — all must
           agree on the class list and every verdict; on every box
           both reductions must actually reduce against the
           exhaustive baseline *)
        List.iter
          (fun (name, case) ->
            let dpor = Mc.Driver.run ~dpor:true ~jobs:1 case in
            let full = Mc.Driver.run ~dpor:false ~tt:false ~jobs:1 case in
            let tabled = Mc.Driver.run ~dpor:false ~tt:true ~jobs:1 case in
            let vd = Mc.Mc_report.render_verdicts dpor in
            let vn = Mc.Mc_report.render_verdicts full in
            let vt = Mc.Mc_report.render_verdicts tabled in
            if vd <> vn then
              Alcotest.failf "%s: verdict mismatch:\n--- dpor ---\n%s--- naive ---\n%s"
                name vd vn;
            if vt <> vn then
              Alcotest.failf
                "%s: verdict mismatch:\n--- naive+tt ---\n%s--- naive ---\n%s"
                name vt vn;
            let keys (o : Mc.Driver.outcome) =
              List.map (fun c -> c.Mc.Explore.cl_key) o.Mc.Driver.mc_classes
            in
            if keys dpor <> keys full then
              Alcotest.failf "%s: dpor/naive class key sets differ" name;
            if keys tabled <> keys full then
              Alcotest.failf "%s: naive+tt/naive class key sets differ" name;
            (* the table preserves first-seen representatives exactly *)
            let reps (o : Mc.Driver.outcome) =
              List.map (fun c -> c.Mc.Explore.cl_choices) o.Mc.Driver.mc_classes
            in
            if reps tabled <> reps full then
              Alcotest.failf "%s: the table changed class representatives" name;
            if dpor.Mc.Driver.mc_executions > full.Mc.Driver.mc_executions then
              Alcotest.failf "%s: dpor explored MORE executions than naive" name;
            if tabled.Mc.Driver.mc_executions > full.Mc.Driver.mc_executions
            then
              Alcotest.failf "%s: the table INCREASED naive executions" name;
            if full.Mc.Driver.mc_executions <= dpor.Mc.Driver.mc_executions then
              Alcotest.failf "%s: dpor failed to reduce (%d vs %d naive executions)"
                name dpor.Mc.Driver.mc_executions full.Mc.Driver.mc_executions;
            if tabled.Mc.Driver.mc_tt_hits = 0 then
              Alcotest.failf "%s: the transposition table pruned nothing" name)
          configs);
  ]

(* The reference class set: a plain DFS over one recording session
   that takes every visible choice and names each maximal execution by
   its Canon.key -- no DPOR, no table and no engine record. *)
let enumerate_class_keys (case : Gen.case) =
  let nprocs = case.Gen.c_nprocs in
  let s = Gen.open_session ~record:true case in
  let keys = Hashtbl.create 1024 in
  let rec dfs steps =
    if s.Gen.ms_finished () then
      Hashtbl.replace keys
        (canon_key ~nprocs (Array.of_list (List.rev steps)))
        ()
    else
      for c = 0 to List.length (s.Gen.ms_ready ()) - 1 do
        let first_env = s.Gen.ms_envelopes () in
        let i = s.Gen.ms_deliver c in
        dfs
          ({
             Mc.Schedule.sp_env = i.Sim.Session.i_env;
             sp_dst = i.Sim.Session.i_dst;
             sp_posted_at = i.Sim.Session.i_posted_at;
             sp_first_env = first_env;
           }
          :: steps);
        s.Gen.ms_undo ()
      done
  in
  dfs [];
  List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) keys [])

(* Distinct keys must stay distinct classes: a hashed class identity
   can merge receipts ending 2.0.0, 1.0.0 with ones ending 2.1.0,
   0.0.0, and the table then drops the second class's whole subtree.
   Boxes with E >= 10 and the e = 9 boundary box are left out: DPOR
   itself misses classes there (see ROADMAP). *)
let exact_class_tests =
  [
    Alcotest.test_case
      "every search finds exactly the enumerated classes (boundary, e=7)"
      `Quick (fun () ->
        let box = boundary_box ~budget:7 ~xi:(q 3 2) in
        let expected = enumerate_class_keys box in
        Alcotest.(check int) "enumerated classes" 1002 (List.length expected);
        List.iter
          (fun (name, (o : Mc.Driver.outcome)) ->
            let got =
              List.map (fun c -> c.Mc.Explore.cl_key) o.Mc.Driver.mc_classes
            in
            if got <> expected then
              Alcotest.failf "%s: %d classes, the enumeration has %d" name
                (List.length got) (List.length expected))
          [
            ("dpor, frontier 0", Mc.Driver.run ~oracles:[] ~frontier:0 ~jobs:1 box);
            ("dpor, frontier 2", Mc.Driver.run ~oracles:[] ~frontier:2 ~jobs:1 box);
            ("tabled naive", Mc.Driver.run ~oracles:[] ~dpor:false ~jobs:1 box);
            ( "naive",
              Mc.Driver.run ~oracles:[] ~dpor:false ~tt:false ~jobs:1 box );
          ]);
    Alcotest.test_case "the n=3 e=9 clock box has 5,112 classes under dpor"
      `Quick (fun () ->
        let o =
          Mc.Driver.run ~oracles:[] ~jobs:1
            (clock_box ~nprocs:3 ~budget:9 ~xi:(q 2 1) ())
        in
        Alcotest.(check int) "classes" 5112 (List.length o.Mc.Driver.mc_classes));
    Alcotest.test_case "a box with a fault plan is rejected naming the plan"
      `Quick (fun () ->
        (* Sim applies a plan by its global send counter, so
           deliveries at different processes stop commuting *)
        let case =
          {
            (clock_box ~nprocs:3 ~budget:7 ~xi:(q 2 1) ()) with
            Gen.c_plan = [ (2, Sim.P_duplicate Rat.one) ];
          }
        in
        match Mc.Driver.run ~oracles:[] ~jobs:1 case with
        | _ -> Alcotest.fail "a box with a fault plan was model-checked"
        | exception Invalid_argument e ->
            if not (Util.contains "fault plan 2:dup1" e) then
              Alcotest.failf "error does not name the plan: %s" e);
  ]

let jobs_tests =
  [
    Alcotest.test_case "report is byte-identical for --jobs 1 and 2" `Quick
      (fun () ->
        (* the e = 8 boundary box has classes whose battery the merge
           runs (see owner_tests) *)
        List.iter
          (fun case ->
            let render jobs =
              Mc.Mc_report.render ~stats:true (Mc.Driver.run ~jobs case)
            in
            let r1 = render 1 and r2 = render 2 in
            if r1 <> r2 then
              Alcotest.failf
                "jobs-dependent output:\n--- jobs 1 ---\n%s--- jobs 2 ---\n%s" r1 r2)
          [
            clock_box ~nprocs:3 ~budget:5 ~xi:(q 2 1) ();
            boundary_box ~budget:8 ~xi:(q 3 2);
          ]);
  ]

(* Battery ownership (Mc.Driver): a class's battery runs in the
   lowest-index frontier task whose prefix reaches it, as decided by
   Canon.extends on the prefix's key; the merge runs the battery of a
   kept record whose owner's DPOR missed the class. *)
let extends_tests =
  let yes prefix key =
    if not (Mc.Canon.extends ~prefix key) then
      Alcotest.failf "%S should extend to %S" prefix key
  and no prefix key =
    if Mc.Canon.extends ~prefix key then
      Alcotest.failf "%S should not extend to %S" prefix key
  in
  [
    Alcotest.test_case "extends: an empty component extends to anything" `Quick
      (fun () ->
        yes "||" "w|w,0.0.0|w";
        yes "w||" "w,0.0.0||w";
        yes "|w|" "w|w,0.0.0|";
        no "|w|" "w||w";
        no "w,0.0.0||" "w||");
    Alcotest.test_case "extends: equal keys" `Quick (fun () ->
        yes "w|w|" "w|w|";
        yes "w,1.0.0|w|0.0.1" "w,1.0.0|w|0.0.1";
        let _, steps =
          Mc.Schedule.replay
            (clock_box ~nprocs:3 ~budget:8 ~xi:(q 2 1) ())
            [ 0; 2; 1; 0; 3; 1; 0; 2 ]
        in
        let k = canon_key ~nprocs:3 steps in
        yes k k);
    Alcotest.test_case "extends: names compare whole (0.1.1 vs 0.1.10)"
      `Quick (fun () ->
        (* a character-level prefix test accepts the first pair *)
        no "w,0.1.1|w" "w,0.1.10|w";
        no "w,0.1.1|" "w,0.1.10,2.0.0|w";
        yes "w,0.1.1|w" "w,0.1.1,0.1.10|w";
        yes "w,0.1.10|w" "w,0.1.10|w,0.0.0";
        no "w|0.0.0" "w|w,0.0.0");
  ]

let owner_boxes =
  [
    ("clock n=3 e=6", clock_box ~nprocs:3 ~budget:6 ~xi:(q 2 1) ());
    ("clock n=3 e=7", clock_box ~nprocs:3 ~budget:7 ~xi:(q 2 1) ());
    ("clock n=2 e=6", clock_box ~nprocs:2 ~budget:6 ~xi:(q 2 1) ());
    ("clock n=4 e=6", clock_box ~nprocs:4 ~budget:6 ~xi:(q 2 1) ());
    ( "clock n=4 e=6 crash",
      clock_box
        ~faults:[| Sim.Correct; Sim.Correct; Sim.Correct; Sim.Crash 2 |]
        ~nprocs:4 ~budget:6 ~xi:(q 2 1) () );
    ("boundary e=6", boundary_box ~budget:6 ~xi:(q 3 2));
    ("boundary e=7", boundary_box ~budget:7 ~xi:(q 3 2));
  ]

let owner_tests =
  [
    Alcotest.test_case
      "Canon.extends and each task pick the lowest task whose naive subtree \
       has the class"
      `Quick (fun () ->
        List.iter
          (fun (name, box) ->
            List.iter
              (fun frontier ->
                let tasks = Mc.Driver.frontier_tasks ~frontier box in
                let prefix_keys =
                  Array.map
                    (fun p ->
                      canon_key ~nprocs:box.Gen.c_nprocs
                        (snd (Mc.Schedule.replay box p)))
                    tasks
                in
                (* brute force: the lowest task whose exhaustive
                   subtree contains the class *)
                let found = Hashtbl.create 1024 in
                Array.iteri
                  (fun i _ ->
                    let sb =
                      Mc.Driver.explore_task ~oracles:[] ~dpor:false
                        ~engine:Mc.Explore.Incremental ~tt:false ~case:box ~tasks i
                    in
                    List.iter
                      (fun (cl : Mc.Explore.class_rec) ->
                        if not (Hashtbl.mem found cl.Mc.Explore.cl_key) then
                          Hashtbl.add found cl.Mc.Explore.cl_key i)
                      sb.Mc.Explore.sb_classes)
                  tasks;
                Hashtbl.iter
                  (fun key brute ->
                    let rec pick i =
                      if i = Array.length tasks then -1
                      else if Mc.Canon.extends ~prefix:prefix_keys.(i) key then i
                      else pick (i + 1)
                    in
                    let picked = pick 0 in
                    if picked <> brute then
                      Alcotest.failf
                        "%s, frontier %d: class %s is first in task %d's \
                         subtree, Canon.extends picks task %d"
                        name frontier key brute picked)
                  found;
                (* the driver's own decision: a DPOR task runs the
                   battery on exactly the classes it owns *)
                Array.iteri
                  (fun i _ ->
                    let sb =
                      Mc.Driver.explore_task ~oracles:Oracle.registry ~dpor:true
                        ~engine:Mc.Explore.Incremental ~tt:true ~case:box ~tasks i
                    in
                    List.iter
                      (fun (cl : Mc.Explore.class_rec) ->
                        let owned = Hashtbl.find found cl.Mc.Explore.cl_key = i in
                        if owned <> (cl.Mc.Explore.cl_results <> []) then
                          Alcotest.failf
                            "%s, frontier %d: task %d %s the battery of class %s, \
                             whose owner is task %d"
                            name frontier i
                            (if owned then "skipped" else "ran")
                            cl.Mc.Explore.cl_key
                            (Hashtbl.find found cl.Mc.Explore.cl_key))
                      sb.Mc.Explore.sb_classes)
                  tasks)
              [ 1; 2; 3 ])
          owner_boxes);
    Alcotest.test_case
      "the battery runs once per class, on each class's representative"
      `Quick (fun () ->
        (* the e = 8 boundary box: the owner's DPOR misses 16 classes
           that a later task finds, so the merge runs their batteries
           (ROADMAP, "DPOR loses classes"; a DPOR fix lowers it) *)
        List.iter
          (fun (name, box, at_merge) ->
            let o = Mc.Driver.run ~jobs:1 box in
            let classes = List.length o.Mc.Driver.mc_classes in
            Alcotest.(check int)
              (name ^ ": battery runs in tasks and at merge")
              classes
              (o.Mc.Driver.mc_batteries + o.Mc.Driver.mc_merge_batteries);
            Alcotest.(check int)
              (name ^ ": battery runs at merge")
              at_merge o.Mc.Driver.mc_merge_batteries;
            List.iter
              (fun (cl : Mc.Explore.class_rec) ->
                let sess, _ = Mc.Schedule.replay box cl.Mc.Explore.cl_choices in
                if
                  cl.Mc.Explore.cl_results
                  <> Oracle.evaluate_run Oracle.registry box (sess.Gen.ms_run ())
                then
                  Alcotest.failf
                    "%s: class %s's verdicts are not its representative's"
                    name (Mc.Canon.short cl.Mc.Explore.cl_key))
              o.Mc.Driver.mc_classes)
          [
            ("clock n=3 e=7", clock_box ~nprocs:3 ~budget:7 ~xi:(q 2 1) (), 0);
            ("boundary e=7", boundary_box ~budget:7 ~xi:(q 3 2), 0);
            ("boundary e=8", boundary_box ~budget:8 ~xi:(q 3 2), 16);
          ]);
  ]

let shrink_tests =
  [
    Alcotest.test_case "witness schedule shrinks and still fails" `Quick
      (fun () ->
        match Replay.of_string witness_line with
        | Error e -> Alcotest.failf "witness line rejected: %s" e
        | Ok c -> (
            let shrunk =
              (Shrink.shrink ~oracles:Oracle.registry
                 ~oracle:"boundary-precision" c).Shrink.shrunk
            in
            if
              List.length shrunk.Gen.c_schedule
              > List.length c.Gen.c_schedule
            then Alcotest.fail "shrinking grew the schedule";
            if shrunk.Gen.c_schedule = [] then
              Alcotest.fail "shrunk to the empty schedule (meaning: none)";
            match
              List.assoc "boundary-precision"
                (Oracle.evaluate Oracle.registry shrunk)
            with
            | Oracle.Fail _ -> ()
            | _ -> Alcotest.fail "shrunk case no longer fails"));
  ]

let suite =
  wire_tests @ determinism_tests @ equivalence_tests @ exact_class_tests
  @ jobs_tests @ extends_tests @ owner_tests @ shrink_tests
