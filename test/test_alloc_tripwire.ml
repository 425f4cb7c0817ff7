(* Allocation-regression tripwires, each under a checked-in ceiling.

   A fixed serial fuzz campaign: the small-rational fast path and the
   incremental admissibility checker cut its allocation ~17x when they
   landed; reverting either puts it far above the ceiling, so
   `make check` fails loudly instead of the regression slipping in
   silently.  The ceiling is ~2.5x the measured value (0.91 GB in the
   reference container) — generous against allocator and version
   noise, but an order of magnitude below the ~15 GB the
   big-integer-only paths allocate on the same campaign.

   One delay assignment on the bench's 200-event random execution (74
   events, 140 edges) at Xi = 4: the native-int kernel allocates ~1.15k
   minor words there, nearly all of it the answer's rationals, against
   ~72.6k for the Rat.Eps reference.  The ceiling is 3x the kernel's
   figure.

   One shard worker unit's Obs capture (seed 7, cases 0-15 of a
   boundary campaign with shrinking): its 16 cases and their oracle
   verdicts and shrink instants come to 6,703 events, because shrink
   candidates run muted.  Tracing the ~31 candidate re-runs per
   witness again would put it back near 84k.  The ceiling is 2x the
   measured count; the count is deterministic. *)

let ceiling_bytes = 2_500_000_000.

let assignment_ceiling_words = 3_450.

let unit_event_ceiling = 13_400

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
            "fixed campaign allocated %.2f GB, over the %.2f GB tripwire: \
             the small-rational fast path or the incremental checker has \
             regressed"
            (allocated /. 1e9) (ceiling_bytes /. 1e9));
    Alcotest.test_case "delay assignment on g200 stays under its minor-word ceiling"
      `Quick
      (fun () ->
        let rng = Random.State.make [| 1 |] in
        let g =
          Execgraph.Generate.random_execution rng ~nprocs:4 ~max_events:200 ~max_delay:3
            ~fanout:2
        in
        Alcotest.(check (pair int int))
          "g200 shape (events, edges)" (74, 140)
          (Execgraph.Graph.event_count g, Execgraph.Graph.edge_count g);
        let xi = Rat.of_ints 4 1 in
        let solve () = Core.Delay_assignment.solve_fast g ~xi in
        ignore (solve ());
        let w0 = Gc.minor_words () in
        let a = solve () in
        let words = Gc.minor_words () -. w0 in
        Alcotest.(check bool) "admissible at Xi = 4" true (a <> None);
        if words > assignment_ceiling_words then
          Alcotest.failf
            "solve_fast on g200 allocated %.0f minor words, over the %.0f-word \
             tripwire: the native delay-assignment kernel has regressed"
            words assignment_ceiling_words);
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
