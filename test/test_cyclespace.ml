(* Tests for the cycle space of Section 4.1: cycle vectors, ⊕,
   consistency (Definition 10), mixed-free decomposition (Lemmas 8-10,
   Theorem 11) and the sum properties (Lemma 7/11, Corollary 1). *)

open Execgraph

let xi a b = Rat.of_ints a b

(* Figure 2 analogue: two relevant cycles X and Y sharing message e
   with opposite orientation, so X ⊕ Y cancels e. *)
type fig2 = {
  g : Graph.t;
  x : Cycle.t;
  y : Cycle.t;
  e_id : int; (* message shared oppositely *)
}

let build_fig2 () =
  let g = Graph.create ~nprocs:4 in
  (* u at p0; v at p1; a1 at p3; w1..w3 at p2 *)
  let u = Graph.add_event g ~proc:0 in
  let v = Graph.add_event g ~proc:1 in
  let a1 = Graph.add_event g ~proc:3 in
  let w1 = Graph.add_event g ~proc:2 in
  let w2 = Graph.add_event g ~proc:2 in
  let w3 = Graph.add_event g ~proc:2 in
  let e1 = Graph.add_message g ~src:u.Event.id ~dst:v.Event.id in
  let e4 = Graph.add_message g ~src:v.Event.id ~dst:a1.Event.id in
  let e5 = Graph.add_message g ~src:a1.Event.id ~dst:w1.Event.id in
  let e = Graph.add_message g ~src:v.Event.id ~dst:w2.Event.id in
  let e3 = Graph.add_message g ~src:u.Event.id ~dst:w3.Event.id in
  ignore e1;
  ignore e4;
  ignore e5;
  ignore e3;
  let cycles = Cycle.enumerate g in
  (* X: u -e1- v -e- w2 -local- w3 ~e3~ u   (ratio 2/1)
     Y: v -e- w2 ~local~ w1 ~e5~ a1 ~e4~ v  (ratio 2/1) *)
  let find_cycle msg_count has_edge not_edge =
    List.find
      (fun c ->
        let msgs = Cycle.messages g c.Cycle.traversal in
        List.length msgs = msg_count
        && List.exists (fun (t : Digraph.traversal) -> t.edge.id = has_edge) msgs
        && not (List.exists (fun (t : Digraph.traversal) -> t.edge.id = not_edge) msgs))
      cycles
  in
  let x = find_cycle 3 e e4 in
  let y = find_cycle 3 e e1 in
  { g; x; y; e_id = e }

let unit_tests =
  [
    Alcotest.test_case "fig2: X and Y are relevant with ratio 2" `Quick (fun () ->
        let { g = _; x; y; _ } = build_fig2 () in
        Alcotest.(check bool) "X relevant" true x.Cycle.relevant;
        Alcotest.(check bool) "Y relevant" true y.Cycle.relevant;
        Alcotest.(check bool) "X ratio 2" true (Rat.equal (Cycle.ratio x) (xi 2 1));
        Alcotest.(check bool) "Y ratio 2" true (Rat.equal (Cycle.ratio y) (xi 2 1)));
    Alcotest.test_case "fig2: e oppositely oriented => o-consistent" `Quick (fun () ->
        let { g; x; y; e_id } = build_fig2 () in
        let vx = Cyclespace.vector_of_cycle g x and vy = Cyclespace.vector_of_cycle g y in
        Alcotest.(check int) "product -1" (-1)
          (Cyclespace.Vector.coeff vx e_id * Cyclespace.Vector.coeff vy e_id);
        Alcotest.(check bool) "o-consistent" true
          (Cyclespace.consistency g x y = Cyclespace.O_consistent));
    Alcotest.test_case "fig2: X + Y cancels e in the vector sum" `Quick (fun () ->
        let { g; x; y; e_id } = build_fig2 () in
        let s = Cyclespace.sum_vector g [ (1, x); (1, y) ] in
        Alcotest.(check int) "e cancelled" 0 (Cyclespace.Vector.coeff s e_id);
        Alcotest.(check int) "s- = 3" 3 (Cyclespace.Vector.s_minus s);
        Alcotest.(check int) "s+ = -1" (-1) (Cyclespace.Vector.s_plus s));
    Alcotest.test_case "fig2: mixed-free decomposition of X + Y" `Quick (fun () ->
        let { g; x; y; _ } = build_fig2 () in
        let outputs = Cyclespace.decompose g [ (1, x); (1, y) ] in
        Alcotest.(check bool) "valid decomposition" true
          (Cyclespace.verify_decomposition g ~inputs:[ (1, x); (1, y) ] ~outputs);
        (* the graph's maximal relevant ratio is 3 (the outer cycle), so
           for any Xi > 3 the combined vector obeys Corollary 1 *)
        let s = Cyclespace.sum_vector g [ (1, x); (1, y) ] in
        Alcotest.(check bool) "corollary 1 at Xi=7/2" true
          (Cyclespace.corollary1_holds s ~xi:(xi 7 2));
        Alcotest.(check bool) "ratio exactly 3 not below" false
          (Cyclespace.corollary1_holds s ~xi:(xi 3 1)));
    Alcotest.test_case "multiplicities: 2X decomposes and doubles the vector" `Quick
      (fun () ->
        let { g; x; _ } = build_fig2 () in
        let outputs = Cyclespace.decompose g [ (2, x) ] in
        Alcotest.(check bool) "valid" true
          (Cyclespace.verify_decomposition g ~inputs:[ (2, x) ] ~outputs);
        let s = Cyclespace.sum_vector g [ (2, x) ] in
        Alcotest.(check int) "s- doubled" 4 (Cyclespace.Vector.s_minus s));
    Alcotest.test_case "vector operations" `Quick (fun () ->
        let open Cyclespace.Vector in
        let v = set (set zero 0 2) 1 (-1) in
        let w = set (set zero 0 (-2)) 2 3 in
        let s = add v w in
        Alcotest.(check int) "cancel" 0 (coeff s 0);
        Alcotest.(check int) "keep" (-1) (coeff s 1);
        Alcotest.(check int) "keep2" 3 (coeff s 2);
        Alcotest.(check bool) "scale zero" true (is_zero (scale 0 v));
        Alcotest.(check int) "s_minus" 3 (s_minus s);
        Alcotest.(check int) "s_plus" (-1) (s_plus s));
    Alcotest.test_case "disjoint cycles are i-consistent" `Quick (fun () ->
        let g = Graph.create ~nprocs:4 in
        (* two disjoint 2-process ping-pong relevant cycles... use two
           fig1-style lens pairs on distinct processes *)
        let a0 = Graph.add_event g ~proc:0 in
        let b0 = Graph.add_event g ~proc:1 in
        let b1 = Graph.add_event g ~proc:1 in
        ignore (Graph.add_message g ~src:a0.Event.id ~dst:b0.Event.id);
        ignore (Graph.add_message g ~src:a0.Event.id ~dst:b1.Event.id);
        let c0 = Graph.add_event g ~proc:2 in
        let d0 = Graph.add_event g ~proc:3 in
        let d1 = Graph.add_event g ~proc:3 in
        ignore (Graph.add_message g ~src:c0.Event.id ~dst:d0.Event.id);
        ignore (Graph.add_message g ~src:c0.Event.id ~dst:d1.Event.id);
        match Cycle.enumerate g with
        | [ c1; c2 ] ->
            Alcotest.(check bool) "i-consistent" true
              (Cyclespace.consistency g c1 c2 = Cyclespace.I_consistent)
        | l -> Alcotest.failf "expected 2 cycles, got %d" (List.length l));
  ]

let prop name count arb f = QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb f)

let arb_seed = QCheck.make ~print:string_of_int QCheck.Gen.(int_range 0 1_000_000)

let property_tests =
  [
    prop "decomposition always verifies on random relevant sums" 100 arb_seed
      (fun seed ->
        let rng = Random.State.make [| seed |] in
        let g = Util.random_execution rng ~nprocs:3 ~max_events:14 ~max_delay:3 ~fanout:2 in
        let relevant = List.filter (fun c -> c.Cycle.relevant) (Cycle.enumerate g) in
        if relevant = [] then true
        else begin
          let inputs =
            List.filteri (fun i _ -> i < 4) relevant
            |> List.map (fun c -> (1 + Random.State.int rng 2, c))
          in
          let outputs = Cyclespace.decompose g inputs in
          Cyclespace.verify_decomposition g ~inputs ~outputs
        end);
    prop "corollary 1 on admissible graphs" 100 arb_seed (fun seed ->
        let rng = Random.State.make [| seed |] in
        let g = Util.random_execution rng ~nprocs:3 ~max_events:12 ~max_delay:3 ~fanout:2 in
        match Util.max_relevant_ratio g with
        | None -> true
        | Some rmax ->
            (* pick Xi strictly above the max ratio: graph is admissible *)
            let x = Rat.add rmax (Rat.of_ints 1 3) in
            assert (Abc_check.is_admissible g ~xi:x);
            let relevant = List.filter (fun c -> c.Cycle.relevant) (Cycle.enumerate g) in
            let inputs = List.map (fun c -> (1 + Random.State.int rng 2, c)) relevant in
            let s = Cyclespace.sum_vector g inputs in
            Cyclespace.corollary1_holds s ~xi:x);
    prop "decomposed cycles never contain a forward local edge if inputs are relevant"
      60 arb_seed (fun seed ->
        let rng = Random.State.make [| seed |] in
        let g = Util.random_execution rng ~nprocs:3 ~max_events:12 ~max_delay:3 ~fanout:2 in
        let relevant = List.filter (fun c -> c.Cycle.relevant) (Cycle.enumerate g) in
        if relevant = [] then true
        else begin
          let inputs = List.map (fun c -> (1, c)) relevant in
          let outputs = Cyclespace.decompose g inputs in
          (* Corollary 1 case analysis: an output aligned with the sum
             (case 1) must be relevant; we check the weaker structural
             fact that its locals are consistently oriented. *)
          List.for_all
            (fun (c : Cycle.t) ->
              let locals =
                List.filter
                  (fun (t : Digraph.traversal) -> not (Graph.is_message g t.edge))
                  c.Cycle.traversal
              in
              let plus = List.length (List.filter (fun (t : Digraph.traversal) -> t.dir = 1) locals) in
              plus = 0 || plus = List.length locals)
            outputs
        end);
  ]

let suite = unit_tests @ property_tests
