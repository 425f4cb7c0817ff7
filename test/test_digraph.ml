(* Tests for the digraph substrate: construction, orders, Bellman-Ford,
   and undirected simple-cycle enumeration. *)

module BF = Digraph.Bellman_ford (struct
  type t = int

  let zero = 0
  let add = ( + )
  let compare = Stdlib.compare
end)

let mk_graph n edges =
  let g = Digraph.create n in
  let es = List.map (fun (s, d) -> Digraph.add_edge g ~src:s ~dst:d) edges in
  (g, es)

let unit_tests =
  [
    Alcotest.test_case "construction and accessors" `Quick (fun () ->
        let g, es = mk_graph 3 [ (0, 1); (1, 2); (0, 2) ] in
        Alcotest.(check int) "nodes" 3 (Digraph.node_count g);
        Alcotest.(check int) "edges" 3 (Digraph.edge_count g);
        Alcotest.(check int) "edge ids dense" 2 (List.nth es 2);
        Alcotest.(check int) "out deg 0" 2 (List.length (Digraph.out_edges g 0));
        Alcotest.(check int) "in deg 2" 2 (List.length (Digraph.in_edges g 2));
        Alcotest.(check int) "shadow deg 1" 2 (List.length (Digraph.shadow_incident g 1)));
    Alcotest.test_case "add_node grows" `Quick (fun () ->
        let g = Digraph.create 0 in
        let ids = List.init 100 (fun _ -> Digraph.add_node g) in
        Alcotest.(check int) "dense ids" 99 (List.nth ids 99);
        Alcotest.(check int) "count" 100 (Digraph.node_count g));
    Alcotest.test_case "topological sort on DAG" `Quick (fun () ->
        let g, _ = mk_graph 4 [ (0, 1); (0, 2); (1, 3); (2, 3) ] in
        match Digraph.topological_sort g with
        | None -> Alcotest.fail "expected DAG"
        | Some order ->
            let pos = Array.make 4 0 in
            List.iteri (fun i v -> pos.(v) <- i) order;
            List.iter
              (fun (e : Digraph.edge) ->
                Alcotest.(check bool) "respects edges" true (pos.(e.src) < pos.(e.dst)))
              (Digraph.edges g));
    Alcotest.test_case "topological sort detects cycle" `Quick (fun () ->
        let g, _ = mk_graph 3 [ (0, 1); (1, 2); (2, 0) ] in
        Alcotest.(check bool) "not a DAG" false (Digraph.is_dag g));
    Alcotest.test_case "bellman-ford: no negative cycle" `Quick (fun () ->
        let g, _ = mk_graph 3 [ (0, 1); (1, 2); (2, 0) ] in
        let weight (e : Digraph.edge) = if e.src = 2 then -1 else 1 in
        Alcotest.(check bool) "total weight 1 > 0" true
          (BF.negative_cycle g ~weight = None);
        match BF.potentials g ~weight with
        | None -> Alcotest.fail "potentials should exist"
        | Some pi ->
            List.iter
              (fun (e : Digraph.edge) ->
                Alcotest.(check bool) "feasible" true (pi.(e.dst) <= pi.(e.src) + weight e))
              (Digraph.edges g));
    Alcotest.test_case "bellman-ford: finds negative cycle" `Quick (fun () ->
        let g, _ = mk_graph 4 [ (0, 1); (1, 2); (2, 1); (2, 3) ] in
        let weight (e : Digraph.edge) =
          match (e.src, e.dst) with 1, 2 -> -3 | 2, 1 -> 2 | _ -> 1
        in
        (match BF.negative_cycle g ~weight with
        | None -> Alcotest.fail "expected negative cycle"
        | Some cycle ->
            let total = List.fold_left (fun acc e -> acc + weight e) 0 cycle in
            Alcotest.(check bool) "cycle weight negative" true (total < 0);
            (* the returned edges form a closed walk *)
            let ok = ref true in
            let arr = Array.of_list cycle in
            Array.iteri
              (fun i (e : Digraph.edge) ->
                let nxt = arr.((i + 1) mod Array.length arr) in
                if e.dst <> nxt.Digraph.src then ok := false)
              arr;
            Alcotest.(check bool) "closed walk" true !ok);
        Alcotest.(check bool) "potentials infeasible" true (BF.potentials g ~weight = None));
    Alcotest.test_case "shadow cycles: triangle" `Quick (fun () ->
        let g, _ = mk_graph 3 [ (0, 1); (1, 2); (0, 2) ] in
        let cycles = Digraph.shadow_cycles g in
        Alcotest.(check int) "one cycle" 1 (List.length cycles);
        Alcotest.(check int) "three edges" 3 (List.length (List.hd cycles)));
    Alcotest.test_case "shadow cycles: parallel edges (2-cycle)" `Quick (fun () ->
        let g, _ = mk_graph 2 [ (0, 1); (0, 1) ] in
        let cycles = Digraph.shadow_cycles g in
        Alcotest.(check int) "one 2-cycle" 1 (List.length cycles);
        Alcotest.(check int) "two edges" 2 (List.length (List.hd cycles)));
    Alcotest.test_case "shadow cycles: K4 count" `Quick (fun () ->
        (* K4 has 7 simple cycles: 4 triangles + 3 four-cycles. *)
        let edges = [ (0, 1); (0, 2); (0, 3); (1, 2); (1, 3); (2, 3) ] in
        let g, _ = mk_graph 4 edges in
        Alcotest.(check int) "seven cycles" 7 (List.length (Digraph.shadow_cycles g)));
    Alcotest.test_case "shadow cycles: tree has none" `Quick (fun () ->
        let g, _ = mk_graph 5 [ (0, 1); (0, 2); (1, 3); (1, 4) ] in
        Alcotest.(check int) "no cycles" 0 (List.length (Digraph.shadow_cycles g)));
  ]

(* Random DAG generator for property tests. *)
let gen_dag =
  let open QCheck.Gen in
  int_range 2 8 >>= fun n ->
  list_size (int_range 1 14) (pair (int_range 0 (n - 1)) (int_range 0 (n - 1)))
  >>= fun raw ->
  let edges = List.filter_map (fun (a, b) -> if a < b then Some (a, b) else if b < a then Some (b, a) else None) raw in
  return (n, edges)

let arb_dag =
  QCheck.make
    ~print:(fun (n, es) ->
      Printf.sprintf "n=%d edges=[%s]" n
        (String.concat ";" (List.map (fun (a, b) -> Printf.sprintf "%d->%d" a b) es)))
    gen_dag

let prop name count arb f = QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb f)

let property_tests =
  [
    prop "DAGs topo-sort" 200 arb_dag (fun (n, es) ->
        let g, _ = mk_graph n es in
        Digraph.is_dag g);
    prop "shadow cycles are simple and closed" 200 arb_dag (fun (n, es) ->
        let g, _ = mk_graph n es in
        let check_cycle tr =
          (* closed walk in the shadow graph, no repeated vertex *)
          let endpoints (t : Digraph.traversal) =
            if t.dir = 1 then (t.edge.src, t.edge.dst) else (t.edge.dst, t.edge.src)
          in
          let arr = Array.of_list tr in
          let k = Array.length arr in
          let closed = ref (k >= 2) in
          for i = 0 to k - 1 do
            let _, b = endpoints arr.(i) and a', _ = endpoints arr.((i + 1) mod k) in
            if b <> a' then closed := false
          done;
          let starts = List.map (fun t -> fst (endpoints t)) tr in
          let sorted = List.sort_uniq compare starts in
          !closed && List.length sorted = k
        in
        List.for_all check_cycle (Digraph.shadow_cycles g));
    prop "cycle count vs cyclomatic lower bound" 200 arb_dag (fun (n, es) ->
        (* every connected graph with m >= n edges has at least one cycle *)
        let g, _ = mk_graph n es in
        let distinct = List.sort_uniq compare es in
        let cycles = Digraph.shadow_cycles g in
        if List.length es > List.length distinct then List.length cycles >= 1
        else true);
    prop "potentials certify absence of negative cycles" 200 arb_dag (fun (n, es) ->
        let g, _ = mk_graph n es in
        (* random-ish weights derived from edge endpoints; DAG has no
           directed cycle at all, so potentials always exist *)
        let weight (e : Digraph.edge) = (e.src * 7) - (e.dst * 3) in
        match BF.potentials g ~weight with
        | None -> false
        | Some pi ->
            List.for_all
              (fun (e : Digraph.edge) -> pi.(e.dst) <= pi.(e.src) + weight e)
              (Digraph.edges g));
  ]

let suite = unit_tests @ property_tests
