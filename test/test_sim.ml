(* Tests for the discrete-event simulator substrate itself: wake-up
   ordering, fault semantics, the faulty-message dropping rule for the
   faithful execution graph, scheduler behaviours, and trace/graph
   consistency. *)

open Execgraph

let q = Rat.of_ints

(* A transparent echo algorithm: every process records what it
   received; process 0 broadcasts a token at wake-up, everyone relays
   it exactly once. *)
type msg = Token of int

type echo_state = { seen : (int * int) list; relayed : bool }

let echo : (echo_state, msg) Sim.algorithm =
  {
    init =
      (fun ~self ~nprocs ->
        let sends =
          if self = 0 then List.init nprocs (fun d -> { Sim.dst = d; payload = Token 0 })
          else []
        in
        ({ seen = []; relayed = false }, sends));
    step =
      (fun ~self ~nprocs s ~sender (Token h) ->
        let s = { s with seen = (sender, h) :: s.seen } in
        if (not s.relayed) && self <> 0 then
          ( { s with relayed = true },
            List.init nprocs (fun d -> { Sim.dst = d; payload = Token (h + 1) }) )
        else (s, []));
  }

let run ?(nprocs = 3) ?(faults = None) ?byz ?(max_events = 100) ?(scheduler = None) () =
  let faults = match faults with Some f -> f | None -> Array.make nprocs Sim.Correct in
  let scheduler =
    match scheduler with
    | Some s -> s
    | None -> Sim.constant_scheduler (q 1 1)
  in
  Sim.run (Sim.make_config ?byzantine:byz ~nprocs ~algorithm:echo ~faults ~scheduler ~max_events ())

let unit_tests =
  [
    Alcotest.test_case "wake-ups precede every message" `Quick (fun () ->
        let r = run () in
        (* the first events at each process are its wake-up: trace
           entries with tr_sender = -1 come before any other entry of
           the same process *)
        let seen_wake = Array.make 3 false in
        Array.iter
          (fun te ->
            if te.Sim.tr_sender = -1 then seen_wake.(te.Sim.tr_proc) <- true
            else
              Alcotest.(check bool) "woke before receiving" true seen_wake.(te.Sim.tr_proc))
          r.Sim.trace);
    Alcotest.test_case "faithful graph equals full graph when all correct" `Quick
      (fun () ->
        (* all correct: every delivery is a faithful event *)
        let r = run () in
        Alcotest.(check int) "same events" (Array.length r.Sim.trace)
          (Graph.event_count r.Sim.graph));
    Alcotest.test_case "graphs are DAGs with consistent local chains" `Quick (fun () ->
        let r = run ~max_events:60 () in
        Alcotest.(check bool) "faithful DAG" true (Graph.is_dag r.Sim.graph);
        (* seq numbers are dense and in insertion order per process *)
        List.iter
          (fun p ->
            List.iteri
              (fun i id ->
                Alcotest.(check int) "dense seq" i (Graph.event r.Sim.graph id).Event.seq)
              (Graph.events_of_proc r.Sim.graph p))
          [ 0; 1; 2 ]);
    Alcotest.test_case "crash stops processing but not receiving" `Quick (fun () ->
        let faults = [| Sim.Correct; Sim.Crash 1; Sim.Correct |] in
        let r = run ~faults:(Some faults) () in
        (* p1 woke (1 step) then crashed: its state never relays *)
        Alcotest.(check bool) "p1 did not relay" false r.Sim.final_states.(1).relayed;
        (* receipts at p1 still happen, as the trace records... *)
        Alcotest.(check bool) "p1 has receive events" true
          (Array.fold_left
             (fun k te -> if te.Sim.tr_proc = 1 then k + 1 else k)
             0 r.Sim.trace
          > 1);
        (* ...but the faithful graph keeps only the processed wake-up:
           unprocessed deliveries are causally inert *)
        Alcotest.(check int) "faithful keeps only processed steps" 1
          (List.length (Graph.events_of_proc r.Sim.graph 1));
        (* and unprocessed trace entries are flagged *)
        Alcotest.(check bool) "unprocessed entries exist" true
          (Array.exists
             (fun te -> te.Sim.tr_proc = 1 && not te.Sim.tr_processed)
             r.Sim.trace));
    Alcotest.test_case "crash at 0 still yields an initial state" `Quick (fun () ->
        let faults = [| Sim.Correct; Sim.Crash 0; Sim.Correct |] in
        let r = run ~faults:(Some faults) () in
        Alcotest.(check bool) "initial state" false r.Sim.final_states.(1).relayed;
        Alcotest.(check (list (pair int int))) "saw nothing" [] r.Sim.final_states.(1).seen);
    Alcotest.test_case "byzantine-sent messages dropped from faithful graph" `Quick
      (fun () ->
        let faults = [| Sim.Correct; Sim.Byzantine "flood"; Sim.Correct |] in
        let byz : (echo_state, msg) Sim.algorithm =
          {
            init =
              (fun ~self:_ ~nprocs ->
                ( { seen = []; relayed = false },
                  List.init nprocs (fun d -> { Sim.dst = d; payload = Token 99 }) ));
            step = (fun ~self:_ ~nprocs:_ s ~sender:_ _ -> (s, []));
          }
        in
        let r = run ~faults:(Some faults) ~byz:(fun _ -> byz) () in
        (* the byzantine broadcast reached everyone, as the trace
           records, but none of its messages appear in the faithful
           graph *)
        Alcotest.(check bool) "more deliveries than faithful events" true
          (Array.length r.Sim.trace > Graph.event_count r.Sim.graph);
        (* faithful event count = deliveries minus byz-sent *)
        let byz_receipts =
          Array.fold_left
            (fun acc te -> if te.Sim.tr_sender = 1 then acc + 1 else acc)
            0 r.Sim.trace
        in
        Alcotest.(check int) "every byz receipt dropped"
          (Array.length r.Sim.trace - byz_receipts)
          (Graph.event_count r.Sim.graph));
    Alcotest.test_case "scheduler delays shape arrival order" `Quick (fun () ->
        (* constant delay 1: token relays arrive in generations *)
        let r = run () in
        let times =
          List.filter_map
            (fun id -> (Graph.event r.Sim.graph id).Event.time)
            (List.init (Graph.event_count r.Sim.graph) Fun.id)
        in
        Alcotest.(check bool) "timestamps recorded" true (times <> []);
        List.iter
          (fun t -> Alcotest.(check bool) "integral times" true (Rat.is_integer t))
          times);
    Alcotest.test_case "make_config rejects a wrong-sized fault vector" `Quick
      (fun () ->
        Alcotest.check_raises "size mismatch"
          (Invalid_argument "Sim.make_config: faults size") (fun () ->
            ignore
              (Sim.make_config ~nprocs:3 ~algorithm:echo
                 ~faults:(Array.make 4 Sim.Correct)
                 ~scheduler:(Sim.constant_scheduler (q 1 1))
                 ~max_events:10 ())));
    Alcotest.test_case "make_config rejects Byzantine without a byz algorithm"
      `Quick (fun () ->
        Alcotest.check_raises "missing byzantine"
          (Invalid_argument
             "Sim.make_config: Byzantine faults require a byzantine algorithm")
          (fun () ->
            ignore
              (Sim.make_config ~nprocs:4 ~algorithm:echo
                 ~faults:[| Sim.Correct; Sim.Correct; Sim.Correct; Sim.Byzantine "x" |]
                 ~scheduler:(Sim.constant_scheduler (q 1 1))
                 ~max_events:10 ())));
    Alcotest.test_case "make_config accepts Byzantine with a byz algorithm" `Quick
      (fun () ->
        let cfg =
          Sim.make_config ~byzantine:(fun _ -> echo) ~nprocs:4 ~algorithm:echo
            ~faults:[| Sim.Correct; Sim.Correct; Sim.Correct; Sim.Byzantine "" |]
            ~scheduler:(Sim.constant_scheduler (q 1 1))
            ~max_events:50 ()
        in
        ignore (Sim.run cfg));
    Alcotest.test_case "fault round-trips through fault_of_string" `Quick
      (fun () ->
        List.iter
          (fun f ->
            Alcotest.(check bool)
              "round-trip" true
              (Sim.fault_of_string (Sim.fault_to_string f) = Some f))
          [
            Sim.Correct;
            Sim.Byzantine "";
            Sim.Byzantine "eq";
            Sim.Byzantine "rush4";
            Sim.Crash 0;
            Sim.Crash 7;
            Sim.Send_omission 0;
            Sim.Send_omission 5;
            Sim.Receive_omission 1;
            Sim.Receive_omission 4;
            Sim.Recover (0, 1);
            Sim.Recover (5, 6);
          ];
        List.iter
          (fun s ->
            Alcotest.(check bool) (Printf.sprintf "rejected %S" s) true
              (Sim.fault_of_string s = None))
          [ ""; "X"; "K"; "K-1"; "Kx"; "CC"; "SO"; "SOx"; "RO"; "RO0"; "R1";
            "R-1"; "R1-0"; "R1-"; "BEQ"; "B eq"; "Beq!" ]);
    Alcotest.test_case "negative delays are rejected" `Quick (fun () ->
        let scheduler =
          { Sim.delay = (fun ~sender:_ ~dst:_ ~send_time:_ ~msg_index:_ ~payload:_ -> q (-1) 1) }
        in
        Alcotest.check_raises "invalid" (Invalid_argument "Sim.run: negative delay")
          (fun () -> ignore (run ~scheduler:(Some scheduler) ())));
    Alcotest.test_case "stop_when halts the run" `Quick (fun () ->
        let r =
          Sim.run
            (Sim.make_config ~nprocs:3 ~algorithm:echo
               ~faults:(Array.make 3 Sim.Correct)
               ~scheduler:(Sim.constant_scheduler (q 1 1))
               ~max_events:1000
               ~stop_when:(fun states -> Array.exists (fun s -> s.relayed) states)
               ())
        in
        Alcotest.(check bool) "stopped early" true (r.Sim.delivered < 1000));
    Alcotest.test_case "theta scheduler respects its bounds" `Quick (fun () ->
        let rng = Random.State.make [| 4 |] in
        let s = Sim.theta_scheduler ~rng ~tau_minus:(q 3 2) ~tau_plus:(q 4 1) () in
        for i = 0 to 200 do
          let d =
            s.Sim.delay ~sender:0 ~dst:1 ~send_time:Rat.zero ~msg_index:i ~payload:(Token 0)
          in
          Alcotest.(check bool) "within bounds" true Rat.O.(d >= q 3 2 && d <= q 4 1)
        done);
    Alcotest.test_case "growing scheduler grows" `Quick (fun () ->
        let rng = Random.State.make [| 4 |] in
        let s =
          Sim.growing_scheduler ~rng
            ~cluster_of:(fun p -> p mod 2)
            ~intra_min:(q 1 1) ~intra_max:(q 2 1) ~inter_base:(q 3 1) ~growth_rate:(q 1 1) ()
        in
        let at t =
          s.Sim.delay ~sender:0 ~dst:1 ~send_time:(q t 1) ~msg_index:0 ~payload:(Token 0)
        in
        Alcotest.(check bool) "monotone growth" true Rat.O.(at 10 > at 1);
        let intra =
          s.Sim.delay ~sender:0 ~dst:2 ~send_time:(q 50 1) ~msg_index:0 ~payload:(Token 0)
        in
        Alcotest.(check bool) "intra stays bounded" true Rat.O.(intra <= q 2 1));
    Alcotest.test_case "eventually-theta switches at gst" `Quick (fun () ->
        let rng = Random.State.make [| 4 |] in
        let s =
          Sim.eventually_theta_scheduler ~rng ~gst:(q 10 1) ~chaos_max:(q 100 1)
            ~tau_minus:(q 1 1) ~tau_plus:(q 2 1) ()
        in
        for i = 0 to 100 do
          let d =
            s.Sim.delay ~sender:0 ~dst:1 ~send_time:(q 11 1) ~msg_index:i ~payload:(Token 0)
          in
          Alcotest.(check bool) "steady after gst" true Rat.O.(d >= q 1 1 && d <= q 2 1)
        done);
  ]

(* ------------------------------------------------------------------ *)
(* Oracle-guided deferring adversary *)

let adversary_tests =
  [
    Alcotest.test_case "deferring adversary keeps executions admissible" `Quick
      (fun () ->
        let xi = q 2 1 in
        let cfg =
          Sim.make_config ~nprocs:3
            ~algorithm:(Core.Clock_sync.algorithm ~f:0)
            ~faults:(Array.make 3 Sim.Correct)
            ~scheduler:(Sim.constant_scheduler (q 1 1)) (* unused by run_deferring *)
            ~max_events:120 ()
        in
        let r = Sim.run_deferring cfg ~xi ~victim:(fun ~sender:_ ~dst -> dst = 2) in
        Alcotest.(check bool) "admissible" true (Abc_check.is_admissible r.Sim.graph ~xi);
        Alcotest.(check bool) "DAG" true (Graph.is_dag r.Sim.graph);
        (* the adversary actually defers: process 2 executes fewer
           events than the others *)
        let count p = List.length (Graph.events_of_proc r.Sim.graph p) in
        Alcotest.(check bool) "victim starved" true (count 2 < count 0 && count 2 < count 1));
    Alcotest.test_case "deferred executions sit near the admissibility boundary" `Quick
      (fun () ->
        let xi = q 3 1 in
        let cfg =
          Sim.make_config ~nprocs:3
            ~algorithm:(Core.Clock_sync.algorithm ~f:0)
            ~faults:(Array.make 3 Sim.Correct)
            ~scheduler:(Sim.constant_scheduler (q 1 1))
            ~max_events:150 ()
        in
        let r = Sim.run_deferring cfg ~xi ~victim:(fun ~sender:_ ~dst -> dst = 2) in
        Alcotest.(check bool) "admissible at Xi" true
          (Abc_check.is_admissible r.Sim.graph ~xi);
        (* whatever relevant cycles the deferral creates stay strictly
           below Xi (the adversary stops exactly at the boundary) *)
        (match Core.Abc.max_relevant_ratio r.Sim.graph with
        | None -> ()
        | Some ratio ->
            Alcotest.(check bool)
              (Printf.sprintf "ratio %s < Xi" (Rat.to_string ratio))
              true
              Rat.O.(ratio < q 3 1)));
    Alcotest.test_case "adversary rides the boundary when the system can progress" `Quick
      (fun () ->
        (* n = 4, f = 1: the other three advance without the victim, so
           its deferred ticks close relevant cycles with ratios
           approaching Xi from below *)
        let xi = q 3 1 in
        let cfg =
          Sim.make_config ~nprocs:4
            ~algorithm:(Core.Clock_sync.algorithm ~f:1)
            ~faults:(Array.make 4 Sim.Correct)
            ~scheduler:(Sim.constant_scheduler (q 1 1))
            ~max_events:240 ()
        in
        let r = Sim.run_deferring cfg ~xi ~victim:(fun ~sender ~dst:_ -> sender = 3) in
        Alcotest.(check bool) "admissible" true (Abc_check.is_admissible r.Sim.graph ~xi);
        match Core.Abc.max_relevant_ratio r.Sim.graph with
        | None -> Alcotest.fail "expected relevant cycles"
        | Some ratio ->
            Alcotest.(check bool)
              (Printf.sprintf "ratio %s in [2, 3)" (Rat.to_string ratio))
              true
              Rat.O.(ratio >= q 2 1 && ratio < q 3 1));
    Alcotest.test_case "deferring with no victims behaves like FIFO" `Quick (fun () ->
        let cfg =
          Sim.make_config ~nprocs:3 ~algorithm:echo
            ~faults:(Array.make 3 Sim.Correct)
            ~scheduler:(Sim.constant_scheduler (q 1 1))
            ~max_events:50 ()
        in
        let r = Sim.run_deferring cfg ~xi:(q 2 1) ~victim:(fun ~sender:_ ~dst:_ -> false) in
        Alcotest.(check bool) "all delivered or capped" true
          (r.Sim.delivered = 50 || r.Sim.undelivered = 0));
  ]

(* ------------------------------------------------------------------ *)
(* The deferring adversary against its check-every-time reference *)

(* A random deferring run of Algorithm 1: n = 3..6 (n = 3f at n = 3),
   its last f processes crashing, omitting, recovering or byzantine, a
   fault plan on a third of the seeds, and a victim pair, destination
   or sender.  A crashed, down or omitting receiver adds no event where
   the adversary's speculation added one, so the loop asks its next
   question again instead of reusing the last verdict. *)
let deferring_config seed =
  let st = Random.State.make [| 0xDEF; seed |] in
  let pick l = List.nth l (Random.State.int st (List.length l)) in
  let n = 3 + Random.State.int st 4 in
  let f = n / 3 in
  let faults = Array.make n Sim.Correct in
  for i = 1 to f do
    faults.(n - i) <-
      (match Random.State.int st 5 with
      | 0 -> Sim.Crash (Random.State.int st 8)
      | 1 -> Sim.Receive_omission (1 + Random.State.int st 3)
      | 2 -> Sim.Recover (Random.State.int st 5, 1 + Random.State.int st 4)
      | 3 -> Sim.Send_omission (Random.State.int st 5)
      | _ -> Byz.fault (pick Byz.palette))
  done;
  let plan =
    if Random.State.int st 3 > 0 then []
    else
      List.sort_uniq
        (fun (i, _) (j, _) -> compare i j)
        (List.init (1 + Random.State.int st 3) (fun _ ->
             ( Random.State.int st 40,
               pick [ Sim.P_drop; Sim.P_duplicate Rat.one; Sim.P_misdirect (Random.State.int st n);
                      Sim.P_delay (q 3 2) ] )))
  in
  let s = Random.State.int st n and d = Random.State.int st n in
  let victim =
    match Random.State.int st 3 with
    | 0 -> fun ~sender ~dst -> sender = s && dst = d
    | 1 -> fun ~sender:_ ~dst -> dst = d
    | _ -> fun ~sender ~dst:_ -> sender = s
  in
  let cfg =
    Sim.make_config
      ~byzantine:(fun p ->
        Byz.clock ~f (Option.value (Byz.of_fault faults.(p)) ~default:Byz.Silent))
      ~plan ~nprocs:n ~algorithm:(Core.Clock_sync.algorithm ~f) ~faults
      ~scheduler:(Sim.constant_scheduler Rat.one)
      ~max_events:(40 + Random.State.int st 80)
      ()
  in
  (cfg, pick [ q 3 2; q 2 1; q 5 2; q 3 1 ], victim)

(* Run both loops on the seed's config and require the same run: trace
   entries, final states, faithful graph edges, message counts and the
   digest of the scoped Obs stream.  Returns the number
   of [adm] instants and of deliveries from a correct sender that added
   no faithful event. *)
let deferring_agrees seed =
  let cfg, xi, victim = deferring_config seed in
  let go run = Obs.capture (fun () -> Obs.with_scope 0 (fun () -> run cfg ~xi ~victim)) in
  let r, tr = go Sim.run_deferring and r', tr' = go Sim.run_deferring_reference in
  let edges g =
    List.map
      (fun (e : Digraph.edge) -> (e.src, e.dst, Graph.is_message g e))
      (Digraph.edges (Graph.digraph g))
  in
  let counts (r : _ Sim.result) = (r.delivered, r.undelivered, r.posted, r.dropped) in
  let label = Printf.sprintf "seed %d: " seed in
  Alcotest.(check bool) (label ^ "trace") true (r.Sim.trace = r'.Sim.trace);
  Alcotest.(check bool) (label ^ "final states") true (r.Sim.final_states = r'.Sim.final_states);
  Alcotest.(check bool) (label ^ "faithful edges") true (edges r.Sim.graph = edges r'.Sim.graph);
  Alcotest.(check bool) (label ^ "counts") true (counts r = counts r');
  Alcotest.(check string) (label ^ "digest") (Obs.digest tr') (Obs.digest tr);
  let adm =
    Array.fold_left (fun k (e : Obs.event) -> if e.Obs.ev_name = "adm" then k + 1 else k) 0 tr.Obs.t_events
  in
  let unspeculated =
    Array.fold_left
      (fun k (te : _ Sim.trace_entry) ->
        let correct_sender =
          te.tr_sender < 0
          || (match cfg.Sim.faults.(te.tr_sender) with Sim.Byzantine _ -> false | _ -> true)
        in
        if correct_sender && te.tr_faithful_id = None then k + 1 else k)
      0 r.Sim.trace
  in
  (adm, unspeculated)

let deferring_tests =
  [
    Alcotest.test_case "run_deferring = run_deferring_reference on 120 configs" `Quick
      (fun () ->
        let adm = ref 0 and unspeculated = ref 0 in
        for seed = 0 to 119 do
          let a, u = deferring_agrees seed in
          adm := !adm + a;
          unspeculated := !unspeculated + u
        done;
        Alcotest.(check bool) "the runs asked admissibility questions" true (!adm > 0);
        Alcotest.(check bool) "some deliveries added no speculated event" true
          (!unspeculated > 0));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:100 ~name:"run_deferring = run_deferring_reference on random configs"
         (QCheck.make ~print:string_of_int QCheck.Gen.(int_range 0 1_000_000))
         (fun seed ->
           ignore (deferring_agrees seed);
           true));
  ]

(* ------------------------------------------------------------------ *)
(* Recorded runs: a cut equals a fresh run at the smaller budget *)

(* Everything a result exposes of a graph: events with their process,
   seq and time, edges with their ids and kinds, each node's adjacency
   lists in order, and the per-process event lists. *)
let graph_shape g =
  let d = Graph.digraph g in
  let ids = List.map (fun (e : Digraph.edge) -> e.id) in
  ( Graph.event_count g,
    Graph.edge_count g,
    List.init (Graph.event_count g) (fun id ->
        let e = Graph.event g id in
        (e.Event.id, e.proc, e.seq, e.time)),
    List.map
      (fun (e : Digraph.edge) -> (e.id, e.src, e.dst, Graph.edge_kind g e.id))
      (Digraph.edges d),
    List.init (Graph.event_count g) (fun v ->
        (ids (Digraph.out_edges d v), ids (Digraph.in_edges d v))),
    List.init (Graph.nprocs g) (fun p ->
        (Graph.events_of_proc g p, Graph.last_event_of_proc g p)) )

(* [None] when the two results agree on every field, else the first
   field that differs. *)
let result_diff (a : ('s, 'm) Sim.result) (b : ('s, 'm) Sim.result) =
  let counts (r : ('s, 'm) Sim.result) = (r.delivered, r.undelivered, r.posted, r.dropped) in
  if graph_shape a.Sim.graph <> graph_shape b.Sim.graph then Some "faithful graph"
  else if a.Sim.trace <> b.Sim.trace then Some "trace"
  else if a.Sim.final_states <> b.Sim.final_states then Some "final states"
  else if counts a <> counts b then Some "counts"
  else None

(* The budgets a recorded run is cut at: n, the stop point and its
   neighbours, the full budget, and [mids] random budgets in between. *)
let cut_budgets st ~n ~stop ~budget ~mids =
  List.sort_uniq compare
    (List.filter
       (fun k -> k >= n && k <= budget)
       ([ n; stop - 1; stop; stop + 1; budget ]
       @ List.init mids (fun _ -> n + Random.State.int st (max 1 (budget - n + 1)))))

(* A generated case cut at its budgets against fresh runs of the
   smaller cases: every result field and every oracle verdict.
   Returns whether the run stopped before its budget. *)
let case_cut_agrees (c : Fuzz.Gen.case) ~mids =
  let open Fuzz in
  let st = Random.State.make [| 0xC07; c.Gen.c_seed |] in
  let run, cut = Gen.run_case_recorded c in
  let budgets =
    cut_budgets st ~n:c.Gen.c_nprocs ~stop:(Gen.delivered_of_run run)
      ~budget:c.Gen.c_max_events ~mids
  in
  List.iter
    (fun k ->
      let ck = { c with Gen.c_max_events = k } in
      let fresh = Gen.run_case ck and cut = cut k in
      let diff =
        match (cut, fresh) with
        | Gen.R_clock a, Gen.R_clock b -> result_diff a b
        | Gen.R_lockstep a, Gen.R_lockstep b -> result_diff a b
        | Gen.R_consensus (a, ia), Gen.R_consensus (b, ib) ->
            if ia <> ib then Some "inputs" else result_diff a b
        | _ -> Some "workload"
      in
      (match diff with
      | Some what ->
          Alcotest.failf "%s cut at %d: %s differs from a fresh run" (Replay.to_string c) k
            what
      | None -> ());
      if
        Oracle.evaluate_run Oracle.registry ck cut
        <> Oracle.evaluate_run Oracle.registry ck fresh
      then
        Alcotest.failf "%s cut at %d: oracle verdicts differ" (Replay.to_string c) k)
    budgets;
  Gen.delivered_of_run run < c.Gen.c_max_events

(* The seed's deferring config cut at its budgets (at every budget
   from n up with [every]) against fresh [run_deferring]s; returns the
   budgets inside a [release] burst. *)
let deferring_cut_agrees ?(every = false) seed =
  let cfg, xi, victim = deferring_config seed in
  let st = Random.State.make [| 0xC07; seed |] in
  let r, cut = Sim.run_deferring_recorded cfg ~xi ~victim in
  let fresh_full = Sim.run_deferring cfg ~xi ~victim in
  (match result_diff r fresh_full with
  | Some what -> Alcotest.failf "seed %d: the recorded run's %s differs" seed what
  | None -> ());
  let budgets =
    if every then List.init (cfg.Sim.max_events - cfg.Sim.nprocs + 1) (( + ) cfg.Sim.nprocs)
    else
      cut_budgets st ~n:cfg.Sim.nprocs ~stop:r.Sim.delivered ~budget:cfg.Sim.max_events ~mids:4
  in
  List.fold_left
    (fun bursts k ->
      let fresh = Sim.run_deferring { cfg with Sim.max_events = k } ~xi ~victim in
      (match result_diff (cut k) fresh with
      | Some what -> Alcotest.failf "seed %d cut at %d: %s differs from a fresh run" seed k what
      | None -> ());
      if fresh.Sim.delivered > k then bursts + 1 else bursts)
    0 budgets

let prop_cut_generated =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:25 ~name:"a cut of a generated case equals a fresh run"
       (QCheck.make ~print:string_of_int QCheck.Gen.(int_range 0 1_000_000))
       (fun seed ->
         let c =
           if seed mod 4 = 0 then Fuzz.Gen.generate_boundary ~seed
           else Fuzz.Gen.generate ~seed
         in
         ignore (case_cut_agrees c ~mids:2);
         true))

let prop_cut_deferring =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:25
       ~name:"a cut of a random deferring run equals a fresh run_deferring"
       (QCheck.make ~print:string_of_int QCheck.Gen.(int_range 0 1_000_000))
       (fun seed ->
         ignore (deferring_cut_agrees seed);
         true))

let cut_tests =
  [
    Alcotest.test_case "a cut equals a fresh run: every family, workload and fault" `Quick
      (fun () ->
        (* generated cases, each cut only if it brings a scheduler
           family x workload pair, a fault kind or a fault plan not cut
           yet, until all 17 pairs the generator draws and all six
           fault kinds are covered; then the boundary generator's two
           witness kinds *)
        let pairs = Hashtbl.create 32 and kinds = Hashtbl.create 8 in
        let plans = ref 0 and stopped = ref 0 in
        let kind = function
          | Sim.Correct -> "C"
          | Sim.Crash _ -> "K"
          | Sim.Recover _ -> "R"
          | Sim.Send_omission _ -> "SO"
          | Sim.Receive_omission _ -> "RO"
          | Sim.Byzantine _ -> "B"
        in
        let seed = ref 0 in
        while Hashtbl.length pairs < 17 || Hashtbl.length kinds < 6 || !plans < 3 do
          if !seed > 5000 then Alcotest.fail "the generator did not cover every pair";
          let c = Fuzz.Gen.generate ~seed:!seed in
          incr seed;
          let pair =
            (Fuzz.Gen.family_name c.Fuzz.Gen.c_sched, Fuzz.Gen.workload_name c.Fuzz.Gen.c_workload)
          in
          let ks = List.map kind (Array.to_list c.Fuzz.Gen.c_faults) in
          let planned = c.Fuzz.Gen.c_plan <> [] && !plans < 3 in
          if
            (not (Hashtbl.mem pairs pair))
            || List.exists (fun k -> not (Hashtbl.mem kinds k)) ks
            || planned
          then begin
            Hashtbl.replace pairs pair ();
            List.iter (fun k -> Hashtbl.replace kinds k ()) ks;
            if planned then incr plans;
            if case_cut_agrees c ~mids:2 then incr stopped
          end
        done;
        for seed = 0 to 5 do
          ignore (case_cut_agrees (Fuzz.Gen.generate_boundary ~seed) ~mids:3)
        done;
        Alcotest.(check bool) "runs that stopped before their budget were cut" true
          (!stopped > 0));
    Alcotest.test_case "a cut raises what the smaller run raises" `Quick (fun () ->
        let raised f =
          match f () with _ -> "no exception" | exception e -> Printexc.to_string e
        in
        (* a deferring boundary case *)
        let c = Fuzz.Gen.generate_boundary ~seed:1 in
        let _, cut = Fuzz.Gen.run_case_recorded c in
        let n = c.Fuzz.Gen.c_nprocs in
        Alcotest.(check string) "a budget below n fails validation"
          (raised (fun () -> Fuzz.Gen.run_case { c with Fuzz.Gen.c_max_events = n - 1 }))
          (raised (fun () -> cut (n - 1)));
        Alcotest.(check string) "a budget above the recorded one is refused"
          "Invalid_argument(\"Sim.run_deferring: cut budget out of range\")"
          (raised (fun () -> cut (c.Fuzz.Gen.c_max_events + 1)));
        (* Sim's own cut of a run whose budget left a process unwoken *)
        let cfg, xi, victim = deferring_config 3 in
        let _, cut = Sim.run_deferring_recorded cfg ~xi ~victim in
        let k = cfg.Sim.nprocs - 1 in
        Alcotest.(check string) "an unwoken process"
          (raised (fun () -> Sim.run_deferring { cfg with Sim.max_events = k } ~xi ~victim))
          (raised (fun () -> cut k)));
    Alcotest.test_case "a cut inside a release burst stops where a fresh run stops" `Quick
      (fun () ->
        (* on these configs (destination-keyed victims) [release]
           delivers several deferred messages between two budget
           questions, so a run whose budget falls inside such a burst
           delivers more than its budget *)
        let bursts =
          List.fold_left (fun b seed -> b + deferring_cut_agrees ~every:true seed) 0 [ 87; 209 ]
        in
        Alcotest.(check bool) "some budgets fell inside a burst" true (bursts > 0));
    prop_cut_generated;
    prop_cut_deferring;
  ]

(* ------------------------------------------------------------------ *)
(* Scheduler time: each copy arrives at its send time plus its delay *)

(* A random config over Algorithm 1 whose scheduler logs every delay it
   answers, in call order: (msg_index, sender, dst, send_time, delay).
   Coarse grains make ties at one instant common, and the plan's
   duplicates may arrive with no extra delay, so posting order decides
   many deliveries. *)
let timed_config seed =
  let st = Random.State.make [| 0x71ED; seed |] in
  let pick l = List.nth l (Random.State.int st (List.length l)) in
  let n = 2 + Random.State.int st 5 in
  let f = n / 3 in
  let faults =
    Array.init n (fun _ ->
        match Random.State.int st 7 with
        | 0 -> Sim.Crash (Random.State.int st 6)
        | 1 -> Sim.Receive_omission (1 + Random.State.int st 3)
        | 2 -> Sim.Recover (Random.State.int st 4, 1 + Random.State.int st 3)
        | 3 -> Sim.Send_omission (Random.State.int st 4)
        | 4 -> Byz.fault (pick Byz.palette)
        | _ -> Sim.Correct)
  in
  let plan =
    List.sort_uniq
      (fun (i, _) (j, _) -> compare i j)
      (List.init (Random.State.int st 5) (fun _ ->
           ( Random.State.int st 30,
             match Random.State.int st 3 with
             | 0 -> Sim.P_drop
             | 1 -> Sim.P_misdirect (Random.State.int st n)
             | _ -> Sim.P_duplicate (q (Random.State.int st 3) 2) )))
  in
  let rng = Random.State.make [| seed |] in
  let grain = 1 + Random.State.int st 4 in
  let base =
    match Random.State.int st 4 with
    | 0 -> Sim.theta_scheduler ~rng ~tau_minus:(q 1 1) ~tau_plus:(q 2 1) ~grain ()
    | 1 -> Sim.async_scheduler ~rng ~max_delay:(q 2 1) ~grain ()
    | 2 ->
        Sim.growing_scheduler ~rng ~cluster_of:(fun p -> p mod 2) ~intra_min:(q 1 2)
          ~intra_max:(q 1 1) ~inter_base:(q 1 1) ~growth_rate:(q 1 4) ~grain ()
    | _ ->
        Sim.targeted_scheduler ~rng ~tau_minus:(q 1 1) ~tau_plus:(q 2 1)
          ~victim:(fun ~sender:_ ~dst:_ ~msg_index -> msg_index mod 5 = 0)
          ~stretched:(fun ~send_time -> Rat.add send_time (q 3 1))
          ~grain ()
  in
  let log = ref [] in
  let scheduler =
    {
      Sim.delay =
        (fun ~sender ~dst ~send_time ~msg_index ~payload ->
          let d = base.Sim.delay ~sender ~dst ~send_time ~msg_index ~payload in
          log := (msg_index, sender, dst, send_time, d) :: !log;
          d);
    }
  in
  let stop_at = 2 + Random.State.int st 12 in
  let cfg =
    Sim.make_config
      ~byzantine:(fun p ->
        Byz.clock ~f (Option.value (Byz.of_fault faults.(p)) ~default:Byz.Silent))
      ~plan
      ~stop_when:(Array.exists (fun s -> Core.Clock_sync.clock s >= stop_at))
      ~nprocs:n ~algorithm:(Core.Clock_sync.algorithm ~f) ~faults ~scheduler
      ~max_events:(n + Random.State.int st 120)
      ()
  in
  (cfg, log)

(* Run the seed's config and require its message deliveries, in order,
   to be the first of the logged copies sorted by (due time, posting
   order): a copy falls due at its send time plus its delay, a
   duplicate's second copy [extra] later and right behind the first in
   posting order.  The wake-ups come first, at time 0, and the copies
   still pending are exactly the rest. *)
let timed_agrees seed =
  let cfg, log = timed_config seed in
  let r = Sim.run cfg in
  let copies =
    List.concat_map
      (fun (idx, sender, dst, send_time, d) ->
        let due = Rat.add send_time d in
        match List.assoc_opt idx cfg.Sim.plan with
        | Some (Sim.P_duplicate extra) ->
            [ (dst, sender, due); (dst, sender, Rat.add due extra) ]
        | _ -> [ (dst, sender, due) ])
      (List.rev !log)
  in
  let expected =
    List.stable_sort (fun (_, _, t) (_, _, t') -> Rat.compare t t') copies
  in
  let trace = Array.to_list r.Sim.trace in
  let wakeups, messages = List.partition (fun te -> te.Sim.tr_sender < 0) trace in
  let got = List.map (fun te -> (te.Sim.tr_proc, te.Sim.tr_sender, te.Sim.tr_time)) messages in
  let label = Printf.sprintf "seed %d: " seed in
  let n = cfg.Sim.nprocs in
  Alcotest.(check (list int)) (label ^ "wake-ups first") (List.init n Fun.id)
    (List.map (fun te -> te.Sim.tr_proc) (List.filteri (fun i _ -> i < n) trace));
  Alcotest.(check bool) (label ^ "wake-ups at 0") true
    (List.for_all (fun te -> Rat.equal te.Sim.tr_time Rat.zero) wakeups);
  Alcotest.(check bool) (label ^ "deliveries in due order") true
    (got = List.filteri (fun i _ -> i < List.length got) expected);
  Alcotest.(check int) (label ^ "the rest pending")
    (List.length expected - List.length got) r.Sim.undelivered;
  Alcotest.(check int) (label ^ "posted = delivered + undelivered + dropped") r.Sim.posted
    (r.Sim.delivered + r.Sim.undelivered + r.Sim.dropped);
  (List.length got, r.Sim.delivered < cfg.Sim.max_events && r.Sim.undelivered > 0)

let timed_tests =
  [
    Alcotest.test_case "Sim.run delivers each copy at its send time plus its delay" `Quick
      (fun () ->
        let messages = ref 0 and stopped = ref 0 in
        for seed = 0 to 59 do
          let m, s = timed_agrees seed in
          messages := !messages + m;
          if s then incr stopped
        done;
        Alcotest.(check bool) "messages were delivered" true (!messages > 0);
        Alcotest.(check bool) "stop_when ended some runs" true (!stopped > 0));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:200
         ~name:"Sim.run's deliveries follow (send time + delay, posting order)"
         (QCheck.make ~print:string_of_int QCheck.Gen.(int_range 0 1_000_000))
         (fun seed ->
           ignore (timed_agrees seed);
           true));
  ]

let suite = unit_tests @ adversary_tests @ deferring_tests @ cut_tests @ timed_tests
