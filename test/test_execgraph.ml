(* Tests for execution graphs: Definitions 1-6 of the paper, the
   figure scenarios (Figs. 1, 3, 4), and cross-validation of the
   polynomial ABC admissibility checker against the exhaustive
   cycle-enumeration oracle. *)

open Execgraph

let xi a b = Rat.of_ints a b

let is_admissible_enum g ~xi =
  match Abc_check.check_enumerate g ~xi with
  | Abc_check.Admissible -> true
  | Abc_check.Violation _ -> false

(* ------------------------------------------------------------------ *)
(* Figure 1: a relevant cycle where a slow chain C1 of 4 messages spans
   a fast chain C2 of 5 messages; ratio |Z-|/|Z+| = 5/4. *)

let build_fig1 () =
  let g = Graph.create ~nprocs:9 in
  (* q = 0, relays of C2 = 1..4, p = 5, relays of C1 = 6..8 *)
  let phi0 = Graph.add_event g ~proc:0 in
  let a1 = Graph.add_event g ~proc:1 in
  let a2 = Graph.add_event g ~proc:2 in
  let a3 = Graph.add_event g ~proc:3 in
  let a4 = Graph.add_event g ~proc:4 in
  let psi1 = Graph.add_event g ~proc:5 in
  let b1 = Graph.add_event g ~proc:6 in
  let b2 = Graph.add_event g ~proc:7 in
  let b3 = Graph.add_event g ~proc:8 in
  let psi2 = Graph.add_event g ~proc:5 in
  (* C2: m1 .. m5 *)
  ignore (Graph.add_message g ~src:phi0.Event.id ~dst:a1.Event.id);
  ignore (Graph.add_message g ~src:a1.Event.id ~dst:a2.Event.id);
  ignore (Graph.add_message g ~src:a2.Event.id ~dst:a3.Event.id);
  ignore (Graph.add_message g ~src:a3.Event.id ~dst:a4.Event.id);
  ignore (Graph.add_message g ~src:a4.Event.id ~dst:psi1.Event.id);
  (* C1: m6 .. m9 *)
  ignore (Graph.add_message g ~src:phi0.Event.id ~dst:b1.Event.id);
  ignore (Graph.add_message g ~src:b1.Event.id ~dst:b2.Event.id);
  ignore (Graph.add_message g ~src:b2.Event.id ~dst:b3.Event.id);
  ignore (Graph.add_message g ~src:b3.Event.id ~dst:psi2.Event.id);
  g

(* ------------------------------------------------------------------ *)
(* Figures 3 and 4: process p = 0 ping-pongs twice with pfast = 1 while
   a message to pslow = 2 is outstanding.  If the reply lands after the
   second pong (event psi), it closes a relevant cycle with ratio 4/2
   (Fig. 3); if it lands before psi, the big cycle is non-relevant
   (Fig. 4). *)

let build_fig ~reply_after_psi () =
  let g = Graph.create ~nprocs:3 in
  let phi0 = Graph.add_event g ~proc:0 in
  let tau1 = Graph.add_event g ~proc:1 in
  let phi1 = Graph.add_event g ~proc:0 in
  let tau2 = Graph.add_event g ~proc:1 in
  let sigma = Graph.add_event g ~proc:2 in
  let mk_tail () =
    if reply_after_psi then begin
      let psi = Graph.add_event g ~proc:0 in
      let phi'' = Graph.add_event g ~proc:0 in
      (psi, phi'')
    end
    else begin
      let phi = Graph.add_event g ~proc:0 in
      let psi = Graph.add_event g ~proc:0 in
      (psi, phi)
    end
  in
  let psi, reply_target = mk_tail () in
  ignore (Graph.add_message g ~src:phi0.Event.id ~dst:tau1.Event.id) (* ping1 *);
  ignore (Graph.add_message g ~src:tau1.Event.id ~dst:phi1.Event.id) (* pong1 *);
  ignore (Graph.add_message g ~src:phi1.Event.id ~dst:tau2.Event.id) (* ping2 *);
  ignore (Graph.add_message g ~src:tau2.Event.id ~dst:psi.Event.id) (* pong2 *);
  ignore (Graph.add_message g ~src:phi0.Event.id ~dst:sigma.Event.id) (* to pslow *);
  ignore (Graph.add_message g ~src:sigma.Event.id ~dst:reply_target.Event.id) (* reply *);
  g

(* ------------------------------------------------------------------ *)

let unit_tests =
  [
    Alcotest.test_case "builder: local edges and seq numbers" `Quick (fun () ->
        let g = Graph.create ~nprocs:2 in
        let e0 = Graph.add_event g ~proc:0 in
        let e1 = Graph.add_event g ~proc:0 in
        let e2 = Graph.add_event g ~proc:1 in
        Alcotest.(check int) "seq 0" 0 e0.Event.seq;
        Alcotest.(check int) "seq 1" 1 e1.Event.seq;
        Alcotest.(check int) "seq of other proc" 0 e2.Event.seq;
        Alcotest.(check int) "one local edge" 1 (Digraph.edge_count (Graph.digraph g));
        Alcotest.(check int) "events" 3 (Graph.event_count g);
        Alcotest.(check int) "no messages yet" 0 (Graph.message_count g));
    Alcotest.test_case "causally_before across message" `Quick (fun () ->
        let g = Graph.create ~nprocs:2 in
        let a = Graph.add_event g ~proc:0 in
        let b = Graph.add_event g ~proc:1 in
        let c = Graph.add_event g ~proc:1 in
        ignore (Graph.add_message g ~src:a.Event.id ~dst:b.Event.id);
        Alcotest.(check bool) "a -> b" true (Graph.causally_before g a.Event.id b.Event.id);
        Alcotest.(check bool) "a -> c via local" true
          (Graph.causally_before g a.Event.id c.Event.id);
        Alcotest.(check bool) "reflexive" true (Graph.causally_before g a.Event.id a.Event.id);
        Alcotest.(check bool) "not backwards" false
          (Graph.causally_before g c.Event.id a.Event.id));
    Alcotest.test_case "fig1: single relevant cycle with ratio 5/4" `Quick (fun () ->
        let g = build_fig1 () in
        let cycles = Cycle.enumerate g in
        Alcotest.(check int) "one cycle" 1 (List.length cycles);
        let c = List.hd cycles in
        Alcotest.(check bool) "relevant" true c.Cycle.relevant;
        Alcotest.(check int) "|Z-|" 5 c.Cycle.backward_messages;
        Alcotest.(check int) "|Z+|" 4 c.Cycle.forward_messages;
        Alcotest.(check bool) "ratio" true (Rat.equal (Cycle.ratio c) (xi 5 4)));
    Alcotest.test_case "fig1: admissible for Xi=2, violating for Xi=5/4" `Quick (fun () ->
        let g = build_fig1 () in
        Alcotest.(check bool) "Xi=2 poly" true (Abc_check.is_admissible g ~xi:(xi 2 1));
        Alcotest.(check bool) "Xi=2 enum" true (is_admissible_enum g ~xi:(xi 2 1));
        Alcotest.(check bool) "Xi=5/4 poly" false (Abc_check.is_admissible g ~xi:(xi 5 4));
        Alcotest.(check bool) "Xi=5/4 enum" false (is_admissible_enum g ~xi:(xi 5 4));
        Alcotest.(check bool) "Xi=4/3 poly" true (Abc_check.is_admissible g ~xi:(xi 4 3)));
    Alcotest.test_case "fig3: late reply closes relevant cycle 4/2" `Quick (fun () ->
        let g = build_fig ~reply_after_psi:true () in
        (match Abc_check.check g ~xi:(xi 2 1) with
        | Abc_check.Admissible -> Alcotest.fail "expected violation at Xi=2"
        | Abc_check.Violation c ->
            Alcotest.(check bool) "relevant" true c.Cycle.relevant;
            Alcotest.(check bool) "ratio >= 2" true
              (Rat.compare (Cycle.ratio c) (xi 2 1) >= 0));
        Alcotest.(check bool) "enum agrees" false (is_admissible_enum g ~xi:(xi 2 1));
        (* with a laxer Xi the same graph is fine *)
        Alcotest.(check bool) "Xi=9/4 poly" true (Abc_check.is_admissible g ~xi:(xi 9 4));
        Alcotest.(check bool) "Xi=9/4 enum" true (is_admissible_enum g ~xi:(xi 9 4)));
    Alcotest.test_case "fig4: early reply yields only non-relevant big cycle" `Quick
      (fun () ->
        let g = build_fig ~reply_after_psi:false () in
        Alcotest.(check bool) "Xi=2 poly" true (Abc_check.is_admissible g ~xi:(xi 2 1));
        Alcotest.(check bool) "Xi=2 enum" true (is_admissible_enum g ~xi:(xi 2 1));
        (* the 6-message cycle through psi exists but is non-relevant *)
        let big =
          List.filter (fun c -> List.length (Cycle.messages g c.Cycle.traversal) = 6)
            (Cycle.enumerate g)
        in
        Alcotest.(check bool) "big cycle exists" true (big <> []);
        List.iter
          (fun c -> Alcotest.(check bool) "non-relevant" false c.Cycle.relevant)
          big);
    Alcotest.test_case "self-message parallel to local edge is non-relevant" `Quick
      (fun () ->
        let g = Graph.create ~nprocs:1 in
        let a = Graph.add_event g ~proc:0 in
        let b = Graph.add_event g ~proc:0 in
        ignore (Graph.add_message g ~src:a.Event.id ~dst:b.Event.id);
        let cycles = Cycle.enumerate g in
        Alcotest.(check int) "one 2-cycle" 1 (List.length cycles);
        Alcotest.(check bool) "non-relevant" false (List.hd cycles).Cycle.relevant;
        (* and hence admissible for every Xi *)
        Alcotest.(check bool) "admissible" true (Abc_check.is_admissible g ~xi:(xi 3 2)));
    Alcotest.test_case "consistent cuts: closure and membership" `Quick (fun () ->
        let g = build_fig1 () in
        (* closure of psi2 (last event of p=5) must contain everything *)
        let psi2 = List.nth (Graph.events_of_proc g 5) 1 in
        let cl = Cut.closure_of_event g (Graph.event g psi2) in
        let full = Cut.full g in
        Alcotest.(check bool) "closure of sink = full cut" true
          (Cut.frontier cl = Cut.frontier full);
        Alcotest.(check bool) "consistent" true
          (Cut.is_consistent g ~correct:[ 0; 1; 2; 3; 4; 5; 6; 7; 8 ] cl));
    Alcotest.test_case "consistent cuts: non-closed cut detected" `Quick (fun () ->
        let g = Graph.create ~nprocs:2 in
        let a = Graph.add_event g ~proc:0 in
        let b = Graph.add_event g ~proc:1 in
        ignore (Graph.add_message g ~src:a.Event.id ~dst:b.Event.id);
        (* cut containing b but not a is not left-closed *)
        let c = Cut.empty ~nprocs:2 in
        (Cut.frontier c).(1) <- 0;
        Alcotest.(check bool) "not consistent" false (Cut.is_consistent g ~correct:[ 1 ] c);
        let cl = Cut.left_closure g c in
        Alcotest.(check int) "closure pulls in a" 0 (Cut.frontier cl).(0));
    Alcotest.test_case "cut interval excludes the causal past" `Quick (fun () ->
        let g = build_fig ~reply_after_psi:true () in
        let p0_events = Graph.events_of_proc g 0 in
        let phi0 = Graph.event g (List.nth p0_events 0) in
        let psi = Graph.event g (List.nth p0_events 2) in
        let interval = Cut.interval g ~from_event:phi0 ~to_event:psi in
        Alcotest.(check bool) "phi0 not in interval" true
          (not (List.exists (fun (e : Event.t) -> Event.equal e phi0) interval));
        Alcotest.(check bool) "psi in interval" true
          (List.exists (fun (e : Event.t) -> Event.equal e psi) interval));
    Alcotest.test_case "execution graphs are DAGs" `Quick (fun () ->
        let rng = Random.State.make [| 42 |] in
        for _ = 1 to 20 do
          let g = Util.random_execution rng ~nprocs:3 ~max_events:30 ~max_delay:4 ~fanout:2 in
          Alcotest.(check bool) "dag" true (Graph.is_dag g)
        done);
  ]

let prop name count arb f = QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb f)

let arb_seed = QCheck.make ~print:string_of_int QCheck.Gen.(int_range 0 1_000_000)

let property_tests =
  [
    prop "poly checker agrees with enumeration oracle" 150 arb_seed (fun seed ->
        let rng = Random.State.make [| seed |] in
        let g = Util.random_execution rng ~nprocs:3 ~max_events:14 ~max_delay:3 ~fanout:2 in
        List.for_all
          (fun x ->
            let poly = Abc_check.is_admissible g ~xi:x in
            let enum = is_admissible_enum g ~xi:x in
            poly = enum)
          [ xi 5 4; xi 3 2; xi 2 1; xi 3 1; xi 7 2 ]);
    prop "violation witness really violates" 150 arb_seed (fun seed ->
        let rng = Random.State.make [| seed |] in
        let g = Util.random_execution rng ~nprocs:4 ~max_events:18 ~max_delay:5 ~fanout:2 in
        List.for_all
          (fun x ->
            match Abc_check.check g ~xi:x with
            | Abc_check.Admissible -> true
            | Abc_check.Violation c ->
                c.Cycle.relevant && Rat.compare (Cycle.ratio c) x >= 0)
          [ xi 5 4; xi 2 1 ]);
    prop "admissibility is monotone in Xi" 100 arb_seed (fun seed ->
        let rng = Random.State.make [| seed |] in
        let g = Util.random_execution rng ~nprocs:3 ~max_events:16 ~max_delay:4 ~fanout:2 in
        let xs = [ xi 5 4; xi 3 2; xi 2 1; xi 3 1; xi 5 1 ] in
        let verdicts = List.map (fun x -> Abc_check.is_admissible g ~xi:x) xs in
        (* once admissible at some Xi, admissible at every larger Xi *)
        let rec mono = function
          | a :: (b :: _ as tl) -> ((not a) || b) && mono tl
          | _ -> true
        in
        mono verdicts);
    prop "left closures are consistent cuts" 100 arb_seed (fun seed ->
        let rng = Random.State.make [| seed |] in
        let g = Util.random_execution rng ~nprocs:3 ~max_events:20 ~max_delay:4 ~fanout:2 in
        let correct =
          List.filter (fun p -> Graph.events_of_proc g p <> []) [ 0; 1; 2 ]
        in
        (* the full cut is the left closure of all sinks *)
        let full = Cut.full g in
        Cut.is_consistent g ~correct full
        &&
        let ids = List.init (Graph.event_count g) Fun.id in
        List.for_all
          (fun id ->
            let cl = Cut.closure_of_event g (Graph.event g id) in
            Cut.frontier (Cut.left_closure g cl) = Cut.frontier cl)
          ids);
    prop "causal past = membership in closure" 60 arb_seed (fun seed ->
        let rng = Random.State.make [| seed |] in
        let g = Util.random_execution rng ~nprocs:3 ~max_events:15 ~max_delay:3 ~fanout:2 in
        let n = Graph.event_count g in
        let ok = ref true in
        for id = 0 to n - 1 do
          let mask = Graph.causal_past g id in
          let cl = Cut.closure_of_event g (Graph.event g id) in
          for j = 0 to n - 1 do
            let in_past = mask.(j) in
            let ev = Graph.event g j in
            (* membership in the closure over-approximates the causal
               past only for events of the same process below the
               frontier -- which are exactly the causal past too, via
               local edges.  So the two notions coincide. *)
            if in_past <> Cut.mem cl ev then ok := false
          done
        done;
        !ok);
  ]

(* ------------------------------------------------------------------ *)
(* Appends, truncates and prefix views against a naive model *)

(* The model: each event's process in id order, and each edge's
   (src, dst, is a message) in id order; an event appends a local edge
   from its process's previous event. *)
type model = { m_procs : int list; m_edges : (int * int * bool) list }

let model_event m p =
  let id = List.length m.m_procs in
  let last = ref (-1) in
  List.iteri (fun i q -> if q = p then last := i) m.m_procs;
  {
    m_procs = m.m_procs @ [ p ];
    m_edges = (if !last >= 0 then m.m_edges @ [ (!last, id, false) ] else m.m_edges);
  }

(* What a reader sees of a graph, as plain data: per event its process,
   seq and previous event; the edges with their kinds; per event its
   out- and in-adjacency, walked by id and as lists; per process its
   events and last event. *)
let observe g =
  let dg = Graph.digraph g in
  let walk first next v =
    let rec go e = if e < 0 then [] else e :: go (next dg e) in
    go (first dg v)
  in
  let ids = List.map (fun (e : Digraph.edge) -> e.id) in
  ( List.init (Graph.event_count g) (fun id ->
        let ev = Graph.event g id in
        (ev.Event.proc, ev.Event.seq, Graph.prev_event g id)),
    List.map
      (fun (e : Digraph.edge) -> (e.src, e.dst, Graph.is_message g e))
      (Digraph.edges dg),
    List.init (Graph.event_count g) (fun v ->
        ( walk Digraph.first_out Digraph.next_out v,
          walk Digraph.first_in Digraph.next_in v,
          ids (Digraph.out_edges dg v),
          ids (Digraph.in_edges dg v) )),
    List.init (Graph.nprocs g) (fun p ->
        (Graph.events_of_proc g p, Graph.last_event_of_proc g p)) )

(* The same from the model: adjacency newest first. *)
let expect ~nprocs m =
  let procs = Array.of_list m.m_procs and edges = Array.of_list m.m_edges in
  let n = Array.length procs in
  let before id = List.filter (fun i -> i < id && procs.(i) = procs.(id)) (List.init n Fun.id) in
  let newest_first keep =
    List.rev (List.filter keep (List.init (Array.length edges) Fun.id))
  in
  ( List.init n (fun id ->
        let b = before id in
        (procs.(id), List.length b, List.fold_left max (-1) b)),
    m.m_edges,
    List.init n (fun v ->
        let outs = newest_first (fun e -> let s, _, _ = edges.(e) in s = v)
        and ins = newest_first (fun e -> let _, d, _ = edges.(e) in d = v) in
        (outs, ins, outs, ins)),
    List.init nprocs (fun p ->
        let own = List.filter (fun i -> procs.(i) = p) (List.init n Fun.id) in
        (own, match List.rev own with [] -> None | id :: _ -> Some id)) )

type op = Ev of int | Msg of int * int | Trunc of int | Pre of int | Pre_view of int * int

let show_op = function
  | Ev p -> Printf.sprintf "ev %d" p
  | Msg (a, b) -> Printf.sprintf "msg %d %d" a b
  | Trunc k -> Printf.sprintf "trunc %d" k
  | Pre k -> Printf.sprintf "prefix %d" k
  | Pre_view (i, k) -> Printf.sprintf "prefix-of-view %d %d" i k

let arb_ops =
  let open QCheck.Gen in
  let op =
    frequency
      [
        (5, map (fun p -> Ev p) (int_bound 2));
        (4, map2 (fun a b -> Msg (a, b)) nat nat);
        (2, map (fun k -> Trunc k) nat);
        (2, map (fun k -> Pre k) nat);
        (1, map2 (fun i k -> Pre_view (i, k)) nat nat);
      ]
  in
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map show_op ops))
    (list_size (int_range 1 60) op)

let raises f = match f () with _ -> false | exception Invalid_argument _ -> true

(* Run [ops] on a graph and on the model, then take a view of the
   result, truncate the graph below it to empty and append again.
   After every step the graph and every view taken so far must read as
   their models, and changing any view must raise.  A snapshot is a
   watermark with its model; [history] holds the graph's, newest
   first, and each view keeps the history it was taken from. *)
let views_agree ops =
  let nprocs = 3 in
  let g = Graph.create ~nprocs in
  let empty = { m_procs = []; m_edges = [] } in
  let m = ref empty and history = ref [ (0, 0, empty) ] and views = ref [] in
  let snapshot () =
    history := (Graph.event_count g, Graph.edge_count g, !m) :: !history
  in
  let rec drop_to k = function
    | _ :: rest when k > 0 -> drop_to (k - 1) rest
    | l -> l
  in
  let ok = ref true in
  let check () =
    if observe g <> expect ~nprocs !m then ok := false;
    List.iter
      (fun (v, vm, _) ->
        if observe v <> expect ~nprocs vm then ok := false;
        if
          not
            (raises (fun () -> Graph.add_event v ~proc:0)
            && raises (fun () -> Graph.add_message v ~src:0 ~dst:0)
            && raises (fun () -> Graph.truncate v ~events:0 ~edges:0)
            && raises (fun () -> Digraph.add_node (Graph.digraph v)))
        then ok := false)
      !views
  in
  let apply = function
    | Ev p ->
        ignore (Graph.add_event g ~proc:p);
        m := model_event !m p;
        snapshot ()
    | Msg (a, b) ->
        let n = Graph.event_count g in
        if n > 0 then begin
          let src = a mod n and dst = b mod n in
          ignore (Graph.add_message g ~src ~dst);
          m := { !m with m_edges = !m.m_edges @ [ (src, dst, true) ] };
          snapshot ()
        end
    | Trunc k ->
        history := drop_to (k mod List.length !history) !history;
        let events, edges, sm = List.hd !history in
        Graph.truncate g ~events ~edges;
        m := sm
    | Pre k ->
        let h = drop_to (k mod List.length !history) !history in
        let events, edges, sm = List.hd h in
        views := (Graph.prefix g ~events ~edges, sm, h) :: !views
    | Pre_view (i, k) ->
        if !views <> [] then begin
          let v, _, vh = List.nth !views (i mod List.length !views) in
          let h = drop_to (k mod List.length vh) vh in
          let events, edges, sm = List.hd h in
          views := (Graph.prefix v ~events ~edges, sm, h) :: !views
        end
  in
  let step op =
    apply op;
    check ()
  in
  List.iter step ops;
  List.iter step
    [ Pre 0; Trunc (List.length !history - 1); Ev 0; Ev 1; Msg (0, 1); Ev 0; Msg (2, 0) ];
  !ok

let view_tests =
  [
    prop "appends, truncates and prefix views agree with a naive model" 300 arb_ops
      views_agree;
  ]

let suite = unit_tests @ property_tests @ view_tests
