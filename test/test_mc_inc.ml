(* The incremental exploration engine against the stateless replay
   engine: both drive the same DFS, so every output — class keys,
   representative schedules, verdicts, and the scoped Obs event stream
   — must be byte-identical, on clean boxes and under faults and the
   resilience boundary, at any worker count.

   Also pinned here: the near-linear deliveries-per-execution the
   engine exists to deliver, at least 5x fewer deliveries than the
   replay engine simulates, and two allocation tripwires on the e=8
   search: without oracles, in minor words per execution (a key built
   from lists, a closure per node or a ready list copied twice per
   delivery would put it back over, and so would the per-node churn
   the engine removed — ready-list copies, env→dst tables, per-node
   replays) and with the registry (the same churn, or a battery per
   task per class, as before battery ownership, would). *)

open Fuzz

let q = Rat.of_ints

let clock_box ?(boundary = false) ?faults ?(nprocs = 3) ~budget () =
  let faults =
    match faults with Some f -> f | None -> Array.make nprocs Sim.Correct
  in
  {
    Gen.c_seed = 1;
    c_nprocs = nprocs;
    c_faults = faults;
    c_xi = q 2 1;
    c_sched = Gen.S_async { max_delay = Rat.one };
    c_workload = Gen.W_clock;
    c_max_events = budget;
    c_plan = [];
    c_boundary = boundary;
    c_schedule = [];
  }

let boxes =
  [
    ("clean", clock_box ~budget:7 ());
    ("clean e=8", clock_box ~budget:8 ());
    ( "crash",
      clock_box
        ~faults:[| Sim.Correct; Sim.Correct; Sim.Correct; Sim.Crash 1 |]
        ~nprocs:4 ~budget:7 () );
    ( "boundary equivocator",
      { (clock_box
           ~faults:[| Sim.Correct; Sim.Correct; Byz.fault Byz.Equivocator |]
           ~budget:7 ())
        with
        Gen.c_boundary = true;
        c_xi = q 3 2;
      } );
  ]

let signature (o : Mc.Driver.outcome) =
  ( List.map
      (fun (c : Mc.Explore.class_rec) ->
        (c.Mc.Explore.cl_key, c.Mc.Explore.cl_choices))
      o.Mc.Driver.mc_classes,
    Mc.Mc_report.render_verdicts o )

let engine_tests =
  [
    Alcotest.test_case
      "replay and incremental engines agree byte-for-byte on every box"
      `Quick (fun () ->
        List.iter
          (fun (name, case) ->
            let inc =
              Mc.Driver.run ~engine:Mc.Explore.Incremental ~jobs:1 case
            in
            let rep = Mc.Driver.run ~engine:Mc.Explore.Replay ~jobs:1 case in
            if signature inc <> signature rep then
              Alcotest.failf "%s: engines disagree:\n--- incremental ---\n%s\n\
                              --- replay ---\n%s"
                name
                (Mc.Mc_report.render ~stats:false inc)
                (Mc.Mc_report.render ~stats:false rep);
            (* the whole point of the engine: deliveries near the
               schedule depth, not quadratic in it *)
            let dpe o =
              float_of_int o.Mc.Driver.mc_deliveries
              /. float_of_int (max 1 o.Mc.Driver.mc_executions)
            in
            if dpe inc > 1.5 *. float_of_int case.Gen.c_max_events then
              Alcotest.failf "%s: incremental engine replays (%.2f del/exec)"
                name (dpe inc);
            (* the engine's speed-up over replay, as a counter: 6.4-6.7x
               on the e=7 boxes, 7.5x at e=8 *)
            if rep.Mc.Driver.mc_deliveries < 5 * inc.Mc.Driver.mc_deliveries
            then
              Alcotest.failf
                "%s: replay simulated %d deliveries, under 5x the incremental \
                 engine's %d"
                name rep.Mc.Driver.mc_deliveries inc.Mc.Driver.mc_deliveries;
            if inc.Mc.Driver.mc_undos = 0 then
              Alcotest.failf "%s: incremental engine recorded no undos" name)
          boxes);
    Alcotest.test_case "engine and jobs leave the Obs trace digest alone"
      `Quick (fun () ->
        (* the digest covers the scoped mc event stream — expansion,
           race and prune instants — so it certifies the two engines
           (and any worker count) walk the identical tree *)
        let case = clock_box ~budget:6 () in
        let digest ~engine ~jobs =
          let (), trace =
            Obs.capture (fun () ->
                ignore (Mc.Driver.run ~engine ~jobs case))
          in
          Obs.digest trace
        in
        let d = digest ~engine:Mc.Explore.Incremental ~jobs:1 in
        List.iter
          (fun (name, d') ->
            if d' <> d then
              Alcotest.failf "%s changed the trace digest (%s vs %s)" name d'
                d)
          [
            ("replay engine", digest ~engine:Mc.Explore.Replay ~jobs:1);
            ("jobs=2", digest ~engine:Mc.Explore.Incremental ~jobs:2);
            ("replay at jobs=2", digest ~engine:Mc.Explore.Replay ~jobs:2);
          ]);
  ]

(* The e=8 search without oracles, in minor words per maximal
   execution (8,712 of them; Gc.minor_words, warm): 362 with the key
   written in place, closure-free node bookkeeping and the leaner
   session delivery (377 while every delivery copied the process
   states for an absent [stop_when]); 615 with the key built from per-process lists and
   a Buffer, a closure per node and two list copies per delivery.  The
   old key alone puts it back over the 500 ceiling, and so, by far,
   would per-node replays or ready-list copies. *)
let tripwire_ceiling_words_per_exec = 500.

(* The same search with the oracle registry on (Gc.allocated_bytes,
   warm): 31.6 MB, each class's battery run once, in the frontier task
   that owns it; 48.4 MB with the old key, node closures and delivery
   copies; 74.8 MB with a battery in every task that finds the class,
   as before ownership (8,712 batteries for 1,296 classes).  The
   ceiling sits below the second. *)
let battery_ceiling_bytes = 42e6

let tripwire_tests =
  [
    Alcotest.test_case
      "e=8 search with the battery stays under the allocation ceiling" `Slow
      (fun () ->
        let case = clock_box ~budget:8 () in
        ignore (Mc.Driver.run ~jobs:1 case);
        let a0 = Gc.allocated_bytes () in
        let o = Mc.Driver.run ~jobs:1 case in
        let allocated = Gc.allocated_bytes () -. a0 in
        Alcotest.(check int)
          "one battery per class" (List.length o.Mc.Driver.mc_classes)
          (o.Mc.Driver.mc_batteries + o.Mc.Driver.mc_merge_batteries);
        if allocated > battery_ceiling_bytes then
          Alcotest.failf
            "e=8 search with the battery allocated %.1f MB, over the %.0f MB \
             tripwire: batteries run more than once per class, or the \
             exploration's churn is back"
            (allocated /. 1e6)
            (battery_ceiling_bytes /. 1e6));
    Alcotest.test_case "e=8 search stays under the allocation ceiling" `Slow
      (fun () ->
        let case = clock_box ~budget:8 () in
        ignore (Mc.Driver.run ~oracles:[] ~dpor:true ~jobs:1 case);
        let w0 = Gc.minor_words () in
        let o = Mc.Driver.run ~oracles:[] ~dpor:true ~jobs:1 case in
        let words = Gc.minor_words () -. w0 in
        Alcotest.(check int) "the search is the expected one" 8712 o.Mc.Driver.mc_executions;
        let per_exec = words /. float_of_int o.Mc.Driver.mc_executions in
        if per_exec > tripwire_ceiling_words_per_exec then
          Alcotest.failf
            "e=8 search allocated %.0f minor words per execution, over the %.0f \
             tripwire: per-node or per-key churn is back in the explorer"
            per_exec tripwire_ceiling_words_per_exec);
  ]

let suite = engine_tests @ tripwire_tests
