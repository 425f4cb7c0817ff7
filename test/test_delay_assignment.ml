(* Tests for Theorem 7/12: normalized delay assignments via the fast
   potential solver and the paper-faithful Fig. 6 LP, including Farkas
   certificates (Theorem 10) on inadmissible graphs. *)

open Core
open Execgraph

let xi a b = Rat.of_ints a b

let unit_tests =
  [
    Alcotest.test_case "fig1 graph: fast solver finds delays in (1, Xi)" `Quick
      (fun () ->
        (* reuse the Fig. 1 construction (relevant cycle ratio 5/4) *)
        let g = Test_execgraph.build_fig1 () in
        (match Delay_assignment.solve_fast g ~xi:(xi 2 1) with
        | None -> Alcotest.fail "should be solvable at Xi=2"
        | Some a ->
            Alcotest.(check bool) "verifies" true (Delay_assignment.verify g ~xi:(xi 2 1) a));
        (* at Xi = 5/4 the graph is inadmissible: no assignment *)
        Alcotest.(check bool) "unsolvable at Xi=5/4" true
          (Delay_assignment.solve_fast g ~xi:(xi 5 4) = None));
    Alcotest.test_case "fig1 graph: faithful LP agrees" `Quick (fun () ->
        let g = Test_execgraph.build_fig1 () in
        (match Delay_assignment.solve_faithful g ~xi:(xi 2 1) with
        | Delay_assignment.Farkas _ -> Alcotest.fail "should be feasible at Xi=2"
        | Delay_assignment.Assignment delays ->
            Alcotest.(check bool) "verifies against paper conditions" true
              (Delay_assignment.verify_faithful g ~xi:(xi 2 1) delays));
        match Delay_assignment.solve_faithful g ~xi:(xi 5 4) with
        | Delay_assignment.Assignment _ -> Alcotest.fail "should be infeasible at Xi=5/4"
        | Delay_assignment.Farkas cert ->
            let f6 = Delay_assignment.build_fig6 g ~xi:(xi 5 4) in
            Alcotest.(check bool) "certificate checks" true
              (Lp.check_certificate f6.Delay_assignment.system cert));
    Alcotest.test_case "fig6 matrix shape" `Quick (fun () ->
        let g = Test_execgraph.build_fig1 () in
        let f6 = Delay_assignment.build_fig6 g ~xi:(xi 2 1) in
        (* 9 messages, 1 relevant cycle, 0 non-relevant *)
        Alcotest.(check int) "columns" 9 (Array.length f6.Delay_assignment.message_ids);
        Alcotest.(check int) "relevant rows" 1 f6.Delay_assignment.n_relevant;
        Alcotest.(check int) "non-relevant rows" 0 f6.Delay_assignment.n_nonrelevant;
        match f6.Delay_assignment.system with
        | { Lp.nvars; rows } ->
            Alcotest.(check int) "nvars" 9 nvars;
            Alcotest.(check int) "rows = 2k + l + m" (9 + 9 + 1) (List.length rows));
    Alcotest.test_case "fig3 graph: both solvers reject at Xi=2, accept at 9/4" `Quick
      (fun () ->
        let g = Test_execgraph.build_fig ~reply_after_psi:true () in
        Alcotest.(check bool) "fast rejects" true
          (Delay_assignment.solve_fast g ~xi:(xi 2 1) = None);
        (match Delay_assignment.solve_faithful g ~xi:(xi 2 1) with
        | Delay_assignment.Assignment _ -> Alcotest.fail "faithful should reject"
        | Delay_assignment.Farkas cert ->
            let f6 = Delay_assignment.build_fig6 g ~xi:(xi 2 1) in
            Alcotest.(check bool) "certificate" true
              (Lp.check_certificate f6.Delay_assignment.system cert));
        match
          ( Delay_assignment.solve_fast g ~xi:(xi 9 4),
            Delay_assignment.solve_faithful g ~xi:(xi 9 4) )
        with
        | Some a, Delay_assignment.Assignment d ->
            Alcotest.(check bool) "fast verifies" true
              (Delay_assignment.verify g ~xi:(xi 9 4) a);
            Alcotest.(check bool) "faithful verifies" true
              (Delay_assignment.verify_faithful g ~xi:(xi 9 4) d)
        | _ -> Alcotest.fail "both should accept at Xi=9/4");
    Alcotest.test_case "delays imply Theta-execution (Theorem 7 -> Theorem 9)" `Quick
      (fun () ->
        (* assignment delays lie in (1, Xi) so the delay ratio is < Xi:
           the timed version satisfies the static Θ condition for Θ=Xi *)
        let g = Test_execgraph.build_fig1 () in
        match Delay_assignment.solve_fast g ~xi:(xi 2 1) with
        | None -> Alcotest.fail "solvable"
        | Some a ->
            let ds = List.map snd a.Delay_assignment.delays in
            let lo = List.fold_left Rat.min (List.hd ds) ds in
            let hi = List.fold_left Rat.max (List.hd ds) ds in
            Alcotest.(check bool) "ratio < Xi" true
              Rat.O.(Rat.div hi lo < xi 2 1));
  ]

let prop name count arb f = QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb f)

let arb_seed = QCheck.make ~print:string_of_int QCheck.Gen.(int_range 0 1_000_000)

let property_tests =
  [
    prop "fast solver solvable iff ABC-admissible (Theorem 12)" 100 arb_seed
      (fun seed ->
        let rng = Random.State.make [| seed |] in
        let g = Util.random_execution rng ~nprocs:3 ~max_events:14 ~max_delay:3 ~fanout:2 in
        List.for_all
          (fun x ->
            let solvable = Delay_assignment.solve_fast g ~xi:x <> None in
            solvable = Abc_check.is_admissible g ~xi:x)
          [ xi 5 4; xi 3 2; xi 2 1; xi 3 1 ]);
    prop "fast and faithful solvers agree on feasibility" 60 arb_seed (fun seed ->
        let rng = Random.State.make [| seed |] in
        let g = Util.random_execution rng ~nprocs:3 ~max_events:11 ~max_delay:3 ~fanout:2 in
        List.for_all
          (fun x ->
            let fast = Delay_assignment.solve_fast g ~xi:x <> None in
            let faithful =
              match Delay_assignment.solve_faithful g ~xi:x with
              | Delay_assignment.Assignment _ -> true
              | Delay_assignment.Farkas _ -> false
            in
            fast = faithful)
          [ xi 3 2; xi 2 1 ]);
    prop "solutions always verify; certificates always check" 60 arb_seed (fun seed ->
        let rng = Random.State.make [| seed |] in
        let g = Util.random_execution rng ~nprocs:3 ~max_events:11 ~max_delay:3 ~fanout:2 in
        List.for_all
          (fun x ->
            (match Delay_assignment.solve_fast g ~xi:x with
            | Some a -> Delay_assignment.verify g ~xi:x a
            | None -> true)
            &&
            match Delay_assignment.solve_faithful g ~xi:x with
            | Delay_assignment.Assignment d -> Delay_assignment.verify_faithful g ~xi:x d
            | Delay_assignment.Farkas cert ->
                let f6 = Delay_assignment.build_fig6 g ~xi:x in
                Lp.check_certificate f6.Delay_assignment.system cert)
          [ xi 3 2; xi 2 1 ]);
    prop "assigned times preserve the event order at every process" 60 arb_seed
      (fun seed ->
        let rng = Random.State.make [| seed |] in
        let g = Util.random_execution rng ~nprocs:3 ~max_events:12 ~max_delay:3 ~fanout:2 in
        match Delay_assignment.solve_fast g ~xi:(xi 3 1) with
        | None -> true
        | Some a ->
            List.for_all
              (fun p ->
                let evs = Graph.events_of_proc g p in
                let rec increasing = function
                  | a' :: (b :: _ as tl) ->
                      Rat.compare a.Delay_assignment.times.(a') a.Delay_assignment.times.(b) < 0
                      && increasing tl
                  | _ -> true
                in
                increasing evs)
              [ 0; 1; 2 ]);
  ]

(* ------------------------------------------------------------------ *)
(* The native kernel against the Rat.Eps reference *)

let same g x = Delay_assignment.solve_fast g ~xi:x = Delay_assignment.solve_reference g ~xi:x

(* A hand-built execution graph whose ids do not follow time: events
   are created process by process, so a message from a later process
   to an earlier one runs from a higher to a lower event id.  Messages
   go forward in a hidden per-event time, which keeps the graph a
   DAG. *)
let hand_built rng =
  let nprocs = 1 + Random.State.int rng 3 in
  let g = Graph.create ~nprocs in
  let times = ref [] in
  for p = 0 to nprocs - 1 do
    let t = ref 0 in
    for _ = 1 to Random.State.int rng 5 do
      t := !t + 1 + Random.State.int rng 3;
      let ev = Graph.add_event g ~proc:p in
      times := (ev.Event.id, !t) :: !times
    done
  done;
  let times = Array.of_list (List.rev_map snd !times) in
  let n = Array.length times in
  if n > 1 then
    for _ = 1 to Random.State.int rng 9 do
      let u = Random.State.int rng n and v = Random.State.int rng n in
      if times.(u) < times.(v) then ignore (Graph.add_message g ~src:u ~dst:v)
    done;
  g

(* Ξ = a/b with 1 < Ξ, parts up to 12, plus the graph's exact
   threshold (infeasible there) and a Ξ just above it, and one whose
   parts sit at the 2^30 bound. *)
let xis rng g =
  let b = 1 + Random.State.int rng 6 in
  let a = b + 1 + Random.State.int rng (3 * b) in
  let near_one = Rat.of_ints (1 lsl 30) ((1 lsl 30) - 1) in
  let thresholds =
    match Abc.max_relevant_ratio g with
    | Some r -> [ r; Rat.add r (Rat.of_ints 1 997) ]
    | None -> []
  in
  (Rat.of_ints a b :: near_one :: xi 2 1 :: thresholds)

let kernel_tests =
  [
    prop "native kernel = Rat.Eps reference (random executions)" 150 arb_seed (fun seed ->
        let rng = Random.State.make [| seed |] in
        (* max_events 0 and 1 give the graphs with n = 0 and n = 1 *)
        let g =
          Util.random_execution rng ~nprocs:(1 + Random.State.int rng 5)
            ~max_events:(Random.State.int rng 30)
            ~max_delay:(1 + Random.State.int rng 5)
            ~fanout:(1 + Random.State.int rng 3)
        in
        List.for_all (same g) (xis rng g));
    prop "native kernel = Rat.Eps reference (ids out of time order)" 150 arb_seed
      (fun seed ->
        let rng = Random.State.make [| seed |] in
        let g = hand_built rng in
        List.for_all (same g) (xis rng g));
    Alcotest.test_case "the edge cases: no events, one event, a threshold" `Quick (fun () ->
        let g0 = Graph.create ~nprocs:2 in
        Alcotest.(check bool) "n = 0" true (same g0 (xi 2 1));
        let g1 = Graph.create ~nprocs:2 in
        ignore (Graph.add_event g1 ~proc:1);
        Alcotest.(check bool) "n = 1" true (same g1 (xi 2 1));
        Alcotest.(check bool) "n = 1 solvable" true
          (Delay_assignment.solve_fast g1 ~xi:(xi 2 1) <> None);
        (* fig1's threshold is 5/4: infeasible at it, feasible just above *)
        let g = Test_execgraph.build_fig1 () in
        Alcotest.(check bool) "at the threshold" true
          (same g (xi 5 4) && Delay_assignment.solve_fast g ~xi:(xi 5 4) = None);
        Alcotest.(check bool) "just above" true
          (same g (xi 126 100) && Delay_assignment.solve_fast g ~xi:(xi 126 100) <> None));
    Alcotest.test_case "the empty execution graph has a delay assignment" `Quick (fun () ->
        (* no events means no constraint: both solvers must answer, as
           the admissibility checker does, not read zero Bellman-Ford
           rounds as a negative cycle *)
        let g = Graph.create ~nprocs:2 in
        List.iter
          (fun x ->
            let what = Rat.to_string x in
            match
              (Delay_assignment.solve_fast g ~xi:x, Delay_assignment.solve_reference g ~xi:x)
            with
            | Some a, Some r ->
                Alcotest.(check int) (what ^ ": no times") 0 (Array.length a.Delay_assignment.times);
                Alcotest.(check int) (what ^ ": no delays") 0 (List.length a.Delay_assignment.delays);
                Alcotest.(check bool) (what ^ ": same as the reference") true (a = r);
                Alcotest.(check bool) (what ^ ": verifies") true (Delay_assignment.verify g ~xi:x a)
            | fast, reference ->
                Alcotest.failf "Xi = %s: solve_fast %s, solve_reference %s" what
                  (if fast = None then "None" else "Some")
                  (if reference = None then "None" else "Some"))
          [ xi 2 1; xi 3 2 ]);
    Alcotest.test_case "a slack with no epsilon part does not bound epsilon" `Quick
      (fun () ->
        (* ε must come from the constraints whose ε-parts enforce
           strictness (the reference's [c > 0]); here a message sits
           at slack 1/2 with none, and counting it would shrink ε from
           3/8 to 1/4 *)
        let g = Graph.create ~nprocs:3 in
        List.iter (fun p -> ignore (Graph.add_event g ~proc:p)) [ 0; 1; 2; 0; 1; 0; 0; 2 ];
        List.iter
          (fun (src, dst) -> ignore (Graph.add_message g ~src ~dst))
          [ (0, 3); (0, 4); (1, 5); (2, 6); (4, 7) ];
        Alcotest.(check bool) "same as the reference" true (same g (xi 5 2));
        match Delay_assignment.solve_fast g ~xi:(xi 5 2) with
        | None -> Alcotest.fail "admissible at Xi = 5/2"
        | Some a ->
            Alcotest.(check string) "epsilon" "3/8" (Rat.to_string a.Delay_assignment.epsilon));
    Alcotest.test_case "the overflow guard routes to the reference" `Quick (fun () ->
        let g = Test_execgraph.build_fig1 () in
        let n = Graph.event_count g and arcs = Graph.edge_count g + Graph.message_count g in
        (* Ξ = (2k+1)/k ≈ 2 (fig1 is admissible there) with the larger
           part at the guard's limit, and one past it *)
        let limit = ((1 lsl 60) - 1) / (arcs + 1) / (n + 1) in
        let at_part p = Rat.of_ints p (p / 2) in
        let inside = at_part (if limit mod 2 = 1 then limit else limit - 1) in
        let outside = at_part (if limit mod 2 = 1 then limit + 2 else limit + 1) in
        Alcotest.(check bool) "inside the guard" true (Delay_assignment.fits_native g ~xi:inside);
        Alcotest.(check bool) "past the guard" false (Delay_assignment.fits_native g ~xi:outside);
        (* parts near 2^61: the kernel's first two-arc sum would wrap
           around, so only the reference can answer *)
        let huge = Rat.of_ints ((1 lsl 61) + 1) (1 lsl 60) in
        let bignum = Rat.make (Bigint.of_string "36893488147419103233") (Bigint.of_int 3) in
        List.iter
          (fun (name, x) ->
            match Delay_assignment.solve_fast g ~xi:x with
            | None -> Alcotest.failf "%s: fig1 is admissible at Xi = %s" name (Rat.to_string x)
            | Some a ->
                Alcotest.(check bool) (name ^ ": same as the reference") true (same g x);
                Alcotest.(check bool) (name ^ ": verifies") true (Delay_assignment.verify g ~xi:x a))
          [ ("inside", inside); ("outside", outside); ("near 2^61", huge); ("bignum", bignum) ];
        Alcotest.(check bool) "near 2^61 is past the guard" false
          (Delay_assignment.fits_native g ~xi:huge);
        Alcotest.(check bool) "bignum parts are past the guard" false
          (Delay_assignment.fits_native g ~xi:bignum));
  ]

let suite = unit_tests @ property_tests @ kernel_tests
