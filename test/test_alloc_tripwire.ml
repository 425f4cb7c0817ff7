(* Allocation-regression tripwires, each under a checked-in ceiling.

   A fixed serial fuzz campaign (20 cases, seed 1, no shrinking): the
   small-rational fast path and the incremental admissibility checker
   cut its allocation ~17x when they landed, and the one-pass
   consistent-cut skew a further ~17x, from 0.592 GB to 0.035 GB.
   The ceiling, 0.1 GB, is ~2.9x the measured value: generous against
   allocator and version noise, yet the quadratic closure-based cuts
   (0.59 GB) fail it, as do the big-integer-only paths (~15 GB).

   A 20-case boundary campaign with shrinking (seed 1): every case is a
   witness and is shrunk, 649 candidate evaluations in all.  A shrink
   answers a smaller-budget candidate from a cut of the last run it
   recorded, and starts from the campaign's own recorded run of the
   case, so a case's first candidate is a cut too.  The campaign
   allocates 0.0108 GB, against 0.0151 GB when each shrink simulates
   its case's first candidate again, in the suite and alone in its
   process alike.  The ceiling, 0.0130 GB, lies between the two
   builds, so a shrink that re-simulates its case's first candidate
   fails here.

   One deferring run ([Fuzz.Gen.run_case] on case 1 of the seed-1
   boundary campaign: clock workload, 116 deliveries, the adversary
   speculating before each): 30,241 minor words warm (31,393 with the
   process states copied for [stop_when] after every delivery, 32,177
   with an [enqueue] closure per send too), against 58,562 when the graph kept
   edge records and cons-list adjacency and the adversary filtered
   three copies of its ready list per step, and 42,119 with the flat
   graph but the copied lists.  The ceiling,
   37,000, lies between, so speculation that allocates per speculated
   edge again, or a ready list copied per step again, fails here.

   One Theorem 2 skew ([Clock_sync.max_skew_on_cuts]) on case 1 of the
   seed-1 boundary campaign (65 events, 3 processes): the vector-clock
   pass allocates 942 minor words, against 61,183 for the closure-based
   reference.  The ceiling is 3x the one pass's figure.

   One delay assignment on the bench's 200-event random execution (74
   events, 140 edges) at Xi = 4: the native-int kernel allocates ~1.10k
   minor words there, nearly all of it the answer's rationals, against
   ~72.6k for the Rat.Eps reference.  The ceiling is 3x the kernel's
   figure.

   The admissibility kernel on the same graph: [is_admissible] at
   Xi = 3/2 and Xi = 4 allocates 155-160 minor words (the two potential
   arrays) and [Abc.max_relevant_ratio] 1,233 (one kernel run per
   Stern-Brocot probe), against 9,296-18,027 and 49,113 on the generic
   path (a list-built auxiliary graph and the Digraph.Bellman_ford
   functor).  The ceilings are 3x the kernel's figures, so a caller
   that drifts back to the generic path fails here.

   One shard worker unit's Obs capture (seed 7, cases 0-15 of a
   boundary campaign with shrinking): its 16 cases and their oracle
   verdicts and shrink instants come to 6,703 events, because shrink
   candidates run muted, and the pool's 16 ambient task spans bring
   the capture to 6,735.  Tracing the ~31 candidate re-runs per
   witness again would put it back near 84k.  The ceiling is 2x the
   measured count; the count is deterministic. *)

let ceiling_bytes = 100_000_000.

let shrink_ceiling_bytes = 13_000_000.

let deferring_ceiling_words = 37_000.

let cuts_ceiling_words = 2_814.

let assignment_ceiling_words = 3_300.

let admissible_ceiling_words = 480.

let ratio_ceiling_words = 3_700.

let unit_event_ceiling = 13_400

(* The bench's 200-event random execution: 74 events, 140 edges. *)
let g200 () =
  let rng = Random.State.make [| 1 |] in
  let g =
    Execgraph.Generate.random_execution rng ~nprocs:4 ~max_events:200 ~max_delay:3 ~fanout:2
  in
  Alcotest.(check (pair int int))
    "g200 shape (events, edges)" (74, 140)
    (Execgraph.Graph.event_count g, Execgraph.Graph.edge_count g);
  g

(* The result of [f ()] and the minor words of a second, warm call. *)
let minor_words f =
  ignore (f ());
  let w0 = Gc.minor_words () in
  let r = f () in
  (r, Gc.minor_words () -. w0)

let suite =
  [
    Alcotest.test_case "20-case campaign stays under allocation ceiling"
      `Slow
      (fun () ->
        let a0 = Gc.allocated_bytes () in
        let outcome = Fuzz.Campaign.run ~shrink:false ~cases:20 ~seed:1 ~jobs:1 () in
        let allocated = Gc.allocated_bytes () -. a0 in
        Alcotest.(check (list (pair string string)))
          "campaign itself is clean" []
          (List.map
             (fun f -> (f.Fuzz.Campaign.fl_oracle, f.Fuzz.Campaign.fl_detail))
             outcome.Fuzz.Campaign.cp_failures);
        if allocated > ceiling_bytes then
          Alcotest.failf
            "fixed campaign allocated %.3f GB, over the %.2f GB tripwire: \
             the small-rational fast path, the incremental checker or the \
             one-pass consistent cuts have regressed"
            (allocated /. 1e9) (ceiling_bytes /. 1e9));
    Alcotest.test_case "a shrinking boundary campaign stays under its allocation ceiling"
      `Quick
      (fun () ->
        let a0 = Gc.allocated_bytes () in
        let o =
          Fuzz.Campaign.run ~shrink:true ~boundary:true ~cases:20 ~seed:1 ~jobs:1 ()
        in
        let allocated = Gc.allocated_bytes () -. a0 in
        let evaluations =
          List.fold_left
            (fun k f ->
              match f.Fuzz.Campaign.fl_shrunk with
              | Some r -> k + r.Fuzz.Shrink.evaluations
              | None -> k)
            0 o.Fuzz.Campaign.cp_failures
        in
        Alcotest.(check int) "every case is a witness" 20
          (List.length o.Fuzz.Campaign.cp_failures);
        Alcotest.(check int) "candidate evaluations" 649 evaluations;
        if allocated > shrink_ceiling_bytes then
          Alcotest.failf
            "the shrinking boundary campaign allocated %.4f GB, over the %.4f GB \
             tripwire: shrink candidates with a smaller budget are being \
             simulated again instead of cut from the campaign's or the last \
             recorded run"
            (allocated /. 1e9) (shrink_ceiling_bytes /. 1e9));
    Alcotest.test_case "a deferring boundary run stays under its minor-word ceiling" `Quick
      (fun () ->
        let c = Fuzz.Gen.generate_boundary ~seed:(Fuzz.Campaign.case_seed ~seed:1 1) in
        Alcotest.(check string)
          "case" "abc1;s=1054795105;n=3;f=C,C,Beq;xi=5/2;w=clock;d=defer:0:1;e=116;b=1"
          (Fuzz.Replay.to_string c);
        let run, words = minor_words (fun () -> Fuzz.Gen.run_case c) in
        Alcotest.(check int) "deliveries" 116 (Fuzz.Gen.delivered_of_run run);
        if words > deferring_ceiling_words then
          Alcotest.failf
            "a 116-delivery deferring run allocated %.0f minor words, over the \
             %.0f-word tripwire: the adversary's speculation allocates per \
             speculated edge, or its ready list is copied per step"
            words deferring_ceiling_words);
    Alcotest.test_case "Theorem 2's skew on a boundary run stays under its minor-word ceiling"
      `Quick
      (fun () ->
        let c = Fuzz.Gen.generate_boundary ~seed:(Fuzz.Campaign.case_seed ~seed:1 1) in
        match Fuzz.Gen.run_case c with
        | Fuzz.Gen.R_clock result ->
            Alcotest.(check int) "events" 65 (Execgraph.Graph.event_count result.Sim.graph);
            let input =
              { Core.Clock_sync.result; correct = Fuzz.Gen.correct_procs c; xi = c.Fuzz.Gen.c_xi }
            in
            let skew, words = minor_words (fun () -> Core.Clock_sync.max_skew_on_cuts input) in
            Alcotest.(check int) "skew" 12 skew;
            if words > cuts_ceiling_words then
              Alcotest.failf
                "max_skew_on_cuts on a 65-event run allocated %.0f minor words, over \
                 the %.0f-word tripwire: the consistent cuts are no longer one \
                 vector-clock pass"
                words cuts_ceiling_words
        | _ -> Alcotest.fail "case 1 of the seed-1 boundary campaign is a clock case");
    Alcotest.test_case "delay assignment on g200 stays under its minor-word ceiling"
      `Quick
      (fun () ->
        let g = g200 () in
        let a, words =
          minor_words (fun () -> Core.Delay_assignment.solve_fast g ~xi:(Rat.of_ints 4 1))
        in
        Alcotest.(check bool) "admissible at Xi = 4" true (a <> None);
        if words > assignment_ceiling_words then
          Alcotest.failf
            "solve_fast on g200 allocated %.0f minor words, over the %.0f-word \
             tripwire: the native delay-assignment kernel has regressed"
            words assignment_ceiling_words);
    Alcotest.test_case "admissibility and the Xi search on g200 stay under their ceilings"
      `Quick
      (fun () ->
        let g = g200 () in
        List.iter
          (fun (xi, want) ->
            let ok, words =
              minor_words (fun () -> Execgraph.Abc_check.is_admissible g ~xi)
            in
            Alcotest.(check bool) ("admissible at Xi = " ^ Rat.to_string xi) want ok;
            if words > admissible_ceiling_words then
              Alcotest.failf
                "is_admissible on g200 at Xi = %s allocated %.0f minor words, over \
                 the %.0f-word tripwire: it no longer runs the native kernel"
                (Rat.to_string xi) words admissible_ceiling_words)
          [ (Rat.of_ints 3 2, false); (Rat.of_ints 4 1, true) ];
        let r, words = minor_words (fun () -> Core.Abc.max_relevant_ratio g) in
        Alcotest.(check (option string)) "threshold" (Some "3") (Option.map Rat.to_string r);
        if words > ratio_ceiling_words then
          Alcotest.failf
            "max_relevant_ratio on g200 allocated %.0f minor words, over the \
             %.0f-word tripwire: its probes no longer run the native kernel"
            words ratio_ceiling_words);
    Alcotest.test_case "a shrinking worker unit stays under its event ceiling" `Quick
      (fun () ->
        let spec =
          Dist.Work.W_fuzz
            { wf_seed = 7; wf_cases = 100; wf_boundary = true; wf_shrink = true; wf_oracles = None }
        in
        let _, tr = Obs.capture (fun () -> Dist.Work.exec_payload spec ~lo:0 ~hi:16) in
        Alcotest.(check int) "no event dropped" 0 tr.Obs.t_dropped;
        let shrink_evals =
          Array.fold_left
            (fun k (e : Obs.event) -> if e.Obs.ev_name = "shrink-eval" then k + 1 else k)
            0 tr.Obs.t_events
        in
        if shrink_evals = 0 then Alcotest.fail "the unit shrank nothing";
        let events = Array.length tr.Obs.t_events in
        if events > unit_event_ceiling then
          Alcotest.failf
            "the unit captured %d events, over the %d-event tripwire: shrink \
             candidate runs are being traced again"
            events unit_event_ceiling);
  ]
