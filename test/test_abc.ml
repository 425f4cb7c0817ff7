(* Tests for Core.Abc's exact maximum relevant-cycle ratio (parametric
   search), cross-validated against the exhaustive enumeration oracle
   and the witness checker Abc_check.check, and for the native kernel
   behind Abc_check.is_admissible and the search's probes, against
   Abc_check.check. *)

open Core
open Execgraph

let xi a b = Rat.of_ints a b

let unit_tests =
  [
    Alcotest.test_case "max ratio of fig1 is 5/4" `Quick (fun () ->
        let g = Test_execgraph.build_fig1 () in
        match Abc.max_relevant_ratio g with
        | None -> Alcotest.fail "expected a ratio"
        | Some r -> Alcotest.(check bool) "5/4" true (Rat.equal r (xi 5 4)));
    Alcotest.test_case "max ratio of fig3 is 2" `Quick (fun () ->
        let g = Test_execgraph.build_fig ~reply_after_psi:true () in
        match Abc.max_relevant_ratio g with
        | None -> Alcotest.fail "expected a ratio"
        | Some r -> Alcotest.(check bool) "2" true (Rat.equal r (xi 2 1)));
    Alcotest.test_case "graph with only non-relevant cycles: None" `Quick (fun () ->
        (* a single self-message cycle *)
        let g = Graph.create ~nprocs:1 in
        let a = Graph.add_event g ~proc:0 in
        let b = Graph.add_event g ~proc:0 in
        ignore (Graph.add_message g ~src:a.Event.id ~dst:b.Event.id);
        Alcotest.(check bool) "None" true (Abc.max_relevant_ratio g = None));
    Alcotest.test_case "empty graph: None" `Quick (fun () ->
        let g = Graph.create ~nprocs:2 in
        ignore (Graph.add_event g ~proc:0);
        Alcotest.(check bool) "None" true (Abc.max_relevant_ratio g = None));
    Alcotest.test_case "threshold string" `Quick (fun () ->
        let g = Test_execgraph.build_fig1 () in
        Alcotest.(check string) "5/4" "5/4" (Abc.admissibility_threshold g));
    Alcotest.test_case "the kernel's guard: exact up to its bound, rejected past it" `Quick
      (fun () ->
        (* fig1's threshold is 5/4, so Xi = a/(a/2) >= 2 is admissible
           and Xi = a/(a-1) just above 1 is not, even when a is at the
           largest part whose walk sums still fit *)
        let g = Test_execgraph.build_fig1 () in
        let limit = max_int / (Graph.event_count g + 1) in
        Alcotest.(check bool) "admissible near 2" true
          (Abc_check.potentials g ~a:limit ~b:(limit / 2) <> None);
        Alcotest.(check bool) "violating near 1" true
          (Abc_check.potentials g ~a:limit ~b:(limit - 1) = None);
        match Abc_check.potentials g ~a:(limit + 1) ~b:1 with
        | _ -> Alcotest.fail "a part past the bound was accepted"
        | exception Invalid_argument msg ->
            Alcotest.(check bool) ("names the bound: " ^ msg) true
              (Util.contains "(n+1)*max(a,b)" msg));
  ]

let prop name count arb f = QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb f)

let arb_seed = QCheck.make ~print:string_of_int QCheck.Gen.(int_range 0 1_000_000)

(* The native kernel behind is_admissible against the generic
   Bellman–Ford of check. *)
let same_verdict g x =
  Abc_check.is_admissible g ~xi:x = (Abc_check.check g ~xi:x = Abc_check.Admissible)

let property_tests =
  [
    prop "max ratio agrees with enumeration oracle" 120 arb_seed (fun seed ->
        let rng = Random.State.make [| seed |] in
        let g = Util.random_execution rng ~nprocs:3 ~max_events:14 ~max_delay:3 ~fanout:2 in
        let fast = Abc.max_relevant_ratio g in
        let slow = Util.max_relevant_ratio g in
        match (fast, slow) with
        | None, None -> true
        | None, Some r -> Rat.compare r Rat.one <= 0 (* <=1 collapses to None *)
        | Some _, None -> false
        | Some a, Some b -> Rat.equal a b);
    prop "admissible strictly above the max ratio, violating at it" 60 arb_seed
      (fun seed ->
        let rng = Random.State.make [| seed |] in
        let g = Util.random_execution rng ~nprocs:3 ~max_events:16 ~max_delay:4 ~fanout:2 in
        (* the polynomial checker with its witness, not the kernel the
           search probes *)
        let admissible x = Abc_check.check g ~xi:x = Abc_check.Admissible in
        match Abc.max_relevant_ratio g with
        | None -> admissible (xi 101 100)
        | Some r ->
            let just_above = Rat.add r (Rat.of_ints 1 1000) in
            admissible just_above && (Rat.compare r Rat.one <= 0 || not (admissible r)));
    prop "is_admissible = check on random executions" 150 arb_seed (fun seed ->
        let rng = Random.State.make [| seed |] in
        let g = Util.any_execution rng in
        List.for_all (same_verdict g) (Util.xis rng g));
    prop "is_admissible = check, ids out of time order" 150 arb_seed
      (fun seed ->
        let rng = Random.State.make [| seed |] in
        let g = Util.hand_built rng in
        List.for_all (same_verdict g) (Util.xis rng g));
  ]

(* Differential tests: the admissible-Xi front-end cross-checked
   against the parametric search it wraps, and the Theorem-11
   decomposition checked to keep every cycle under the aggregate ratio
   bound of Corollary 1.  Both run on random executions so they probe
   shapes the hand-built figures do not. *)
let differential_tests =
  [
    prop "admissible_xi agrees with the parametric search" 80 arb_seed
      (fun seed ->
        let rng = Random.State.make [| seed |] in
        let g =
          Util.random_execution rng
            ~nprocs:(2 + (seed mod 5))
            ~max_events:40 ~max_delay:4 ~fanout:3
        in
        let fallback = xi 3 2 in
        let x = Abc.admissible_xi g ~fallback in
        (* whatever is returned must actually be admissible ... *)
        Abc_check.is_admissible g ~xi:x
        &&
        (* ... and must sit exactly where the exact threshold says *)
        match Abc.max_relevant_ratio g with
        | None -> Rat.equal x fallback
        | Some r ->
            if Rat.compare fallback r > 0 then Rat.equal x fallback
            else Rat.compare x r > 0 && Rat.compare x (Rat.add r Rat.one) <= 0);
    prop "decomposition keeps every cycle under the graph threshold" 40 arb_seed
      (fun seed ->
        let rng = Random.State.make [| seed |] in
        let g =
          Util.random_execution rng ~nprocs:3 ~max_events:18 ~max_delay:3
            ~fanout:2
        in
        let relevant =
          List.filter (fun c -> c.Cycle.relevant) (Cycle.enumerate g)
        in
        match relevant with
        | [] -> true (* nothing to decompose; vacuously fine *)
        | _ ->
            let xi_adm = Abc.admissible_xi g ~fallback:(xi 3 2) in
            (* weighted family (weights 1 and 2) over a bounded prefix,
               so the Eulerian re-split stays cheap *)
            let inputs =
              List.filteri (fun i _ -> i < 8) relevant
              |> List.mapi (fun i c -> (1 + (i mod 2), c))
            in
            let outputs = Cyclespace.decompose g inputs in
            Cyclespace.verify_decomposition g ~inputs ~outputs
            && Cyclespace.corollary1_holds
                 (Cyclespace.sum_vector g inputs)
                 ~xi:xi_adm
            && List.for_all (fun c -> Cycle.satisfies_abc c ~xi:xi_adm) outputs);
  ]

let suite = unit_tests @ property_tests @ differential_tests
