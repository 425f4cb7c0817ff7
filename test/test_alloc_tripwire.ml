(* Allocation-regression tripwires, each under a checked-in ceiling.

   A fixed serial fuzz campaign: the small-rational fast path and the
   incremental admissibility checker cut its allocation ~17x (see
   BENCH_rat.json); reverting either puts it far above the ceiling, so
   `make check` fails loudly instead of the regression slipping in
   silently.  The ceiling is ~2.5x the measured value (0.91 GB in the
   reference container) — generous against allocator and version
   noise, but an order of magnitude below the ~15 GB the
   big-integer-only paths allocate on the same campaign.

   One delay assignment on the bench's 200-event random execution (74
   events, 140 edges) at Xi = 4: the native-int kernel allocates ~1.15k
   minor words there, nearly all of it the answer's rationals, against
   ~72.6k for the Rat.Eps reference.  The ceiling is 3x the kernel's
   figure. *)

let ceiling_bytes = 2_500_000_000.

let assignment_ceiling_words = 3_450.

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
  ]
