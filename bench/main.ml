(* Benchmark & experiment harness.

   Regenerates every figure and theorem-bound of the paper (there are
   no measurement tables; the evaluation artifacts are the ten figures
   and the quantitative bounds of Theorems 1-7).  For each experiment
   id of DESIGN.md the harness prints the measured rows/series next to
   the paper's claim, then runs one Bechamel timing benchmark per
   experiment on its core computational kernel.

   Run with: dune exec bench/main.exe               (reports + timings)
             dune exec bench/main.exe -- reports    (reports only)
             dune exec bench/main.exe -- reports F1 F6 -j 4
                                        (selected sections, 4 workers)
             dune exec bench/main.exe -- pool --cases 1000 --jobs 4
                                        (campaign scaling series -> BENCH_pool.json)

   Report sections print through a domain-local formatter: each
   section renders into its own buffer, so sections can run on pool
   workers in parallel and still print in their canonical order,
   byte-identical to the serial output. *)

open Core
open Execgraph

let q = Rat.of_ints

let out_key : Format.formatter Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Format.std_formatter)

let pr fmt = Format.fprintf (Domain.DLS.get out_key) fmt
let header title = pr "@.==== %s ====@." title

(* ------------------------------------------------------------------ *)
(* Shared scenario builders *)

let fig1_graph () =
  let g = Graph.create ~nprocs:9 in
  let ev p = Graph.add_event g ~proc:p in
  let msg a b = ignore (Graph.add_message g ~src:a.Event.id ~dst:b.Event.id) in
  let phi0 = ev 0 in
  let a1 = ev 1 and a2 = ev 2 and a3 = ev 3 and a4 = ev 4 in
  let psi1 = ev 5 in
  msg phi0 a1; msg a1 a2; msg a2 a3; msg a3 a4; msg a4 psi1;
  let b1 = ev 6 and b2 = ev 7 and b3 = ev 8 in
  let psi2 = ev 5 in
  msg phi0 b1; msg b1 b2; msg b2 b3; msg b3 psi2;
  g

let fig34_graph ~late =
  let g = Graph.create ~nprocs:3 in
  let ev p = Graph.add_event g ~proc:p in
  let msg a b = ignore (Graph.add_message g ~src:a.Event.id ~dst:b.Event.id) in
  let phi0 = ev 0 in
  let tau1 = ev 1 in
  let phi1 = ev 0 in
  let tau2 = ev 1 in
  let sigma = ev 2 in
  let psi, target =
    if late then begin
      let psi = ev 0 in
      let phi'' = ev 0 in
      (psi, phi'')
    end
    else begin
      let phi = ev 0 in
      let psi = ev 0 in
      (psi, phi)
    end
  in
  msg phi0 tau1; msg tau1 phi1; msg phi1 tau2; msg tau2 psi;
  msg phi0 sigma; msg sigma target;
  g

let run_clock_sync ~seed ~nprocs ~f ~faults ~byz ~max_events ~tau_plus =
  let rng = Random.State.make [| seed |] in
  let scheduler = Sim.theta_scheduler ~rng ~tau_minus:(q 1 1) ~tau_plus () in
  let cfg =
    Sim.make_config ?byzantine:byz ~nprocs ~algorithm:(Clock_sync.algorithm ~f) ~faults
      ~scheduler ~max_events ()
  in
  Sim.run cfg

let correct_of faults =
  List.filter (fun p -> faults.(p) = Sim.Correct) (List.init (Array.length faults) Fun.id)

(* ------------------------------------------------------------------ *)
(* Experiment reports *)

let report_f1 () =
  header "F1 | Fig. 1: relevant cycle, chain spanning (paper: ratio |Z-|/|Z+| = 5/4)";
  let g = fig1_graph () in
  List.iter
    (fun c ->
      if c.Cycle.relevant then
        pr "  relevant cycle: |Z-| = %d, |Z+| = %d, ratio = %s@." c.Cycle.backward_messages
          c.Cycle.forward_messages
          (Rat.to_string (Cycle.ratio c)))
    (Cycle.enumerate g);
  pr "  admissible Xi=2: %b (expected true), Xi=5/4: %b (expected false)@."
    (Abc_check.is_admissible g ~xi:(q 2 1))
    (Abc_check.is_admissible g ~xi:(q 5 4))

let report_f2 () =
  header "F2 | Fig. 2: cycle addition X (+) Y cancels the mixed edge e";
  let g = Graph.create ~nprocs:4 in
  let ev p = Graph.add_event g ~proc:p in
  let msg a b = Graph.add_message g ~src:a.Event.id ~dst:b.Event.id in
  let u = ev 0 and v = ev 1 and a1 = ev 3 in
  let _w1 = ev 2 and w2 = ev 2 and w3 = ev 2 in
  let _e1 = msg u v and _e4 = msg v a1 in
  let _e5 = msg a1 _w1 in
  let e = msg v w2 in
  let _e3 = msg u w3 in
  let cycles = List.filter (fun c -> c.Cycle.relevant) (Cycle.enumerate g) in
  let with_e =
    List.filter
      (fun c ->
        List.exists
          (fun (t : Digraph.traversal) -> t.edge.id = e.Digraph.id)
          (Cycle.messages g c.Cycle.traversal))
      cycles
  in
  match with_e with
  | [ x; y ] ->
      let s = Cyclespace.sum_vector g [ (1, x); (1, y) ] in
      pr "  X and Y share e: %s@."
        (match Cyclespace.consistency g x y with
        | Cyclespace.O_consistent -> "o-consistent (as in the paper)"
        | Cyclespace.I_consistent -> "i-consistent"
        | Cyclespace.Mixed -> "mixed");
      pr "  coefficient of e in X+Y: %d (expected 0: cancelled)@."
        (Cyclespace.Vector.coeff s e.Digraph.id);
      let outputs = Cyclespace.decompose g [ (1, x); (1, y) ] in
      pr "  mixed-free decomposition verifies: %b@."
        (Cyclespace.verify_decomposition g ~inputs:[ (1, x); (1, y) ] ~outputs)
  | l -> pr "  unexpected cycle count through e: %d@." (List.length l)

let report_f3_f4 () =
  header "F3/F4 | Figs. 3-4: Xi-timeout closes a relevant 4/2 cycle; early reply is non-relevant";
  let late = fig34_graph ~late:true in
  (match Abc_check.check late ~xi:(q 2 1) with
  | Abc_check.Admissible -> pr "  late reply: admissible (unexpected)@."
  | Abc_check.Violation c ->
      pr "  late reply at Xi=2: violation with ratio %s (paper: 4/2)@."
        (Rat.to_string (Cycle.ratio c)));
  let early = fig34_graph ~late:false in
  pr "  early reply at Xi=2: admissible = %b (paper: cycle N non-relevant)@."
    (Abc_check.is_admissible early ~xi:(q 2 1))

let report_f5 () =
  header "F5 | Fig. 5 / Lemma 4: causal cone of Algorithm 1";
  let faults = [| Sim.Correct; Sim.Correct; Sim.Correct; Sim.Byzantine "rush5" |] in
  let r =
    run_clock_sync ~seed:42 ~nprocs:4 ~f:1 ~faults
      ~byz:(Some (fun _ -> Clock_sync.byzantine_rusher ~ahead:5))
      ~max_events:400 ~tau_plus:(q 2 1)
  in
  let input = { Clock_sync.result = r; correct = correct_of faults; xi = q 5 2 } in
  let checked, violations = Clock_sync.causal_cone_violations input in
  pr "  (event, tick, sender) triples checked: %d, violations: %d (expected 0)@." checked
    (List.length violations)

let report_f6 () =
  header "F6 | Fig. 6: the linear system Ax < b";
  let g = fig34_graph ~late:true in
  let f6 = Delay_assignment.build_fig6 g ~xi:(q 9 4) in
  let k = Array.length f6.Delay_assignment.message_ids in
  pr "  k = %d messages, %d relevant + %d non-relevant cycle rows, total rows = %d@." k
    f6.Delay_assignment.n_relevant f6.Delay_assignment.n_nonrelevant
    ((2 * k) + f6.Delay_assignment.n_relevant + f6.Delay_assignment.n_nonrelevant);
  (match Delay_assignment.solve_faithful g ~xi:(q 9 4) with
  | Delay_assignment.Assignment d ->
      pr "  feasible at Xi=9/4 (Theorem 12); verification: %b@."
        (Delay_assignment.verify_faithful g ~xi:(q 9 4) d)
  | Delay_assignment.Farkas _ -> pr "  infeasible at Xi=9/4 (unexpected)@.");
  match Delay_assignment.solve_faithful g ~xi:(q 2 1) with
  | Delay_assignment.Assignment _ -> pr "  feasible at Xi=2 (unexpected)@."
  | Delay_assignment.Farkas cert ->
      let sys = (Delay_assignment.build_fig6 g ~xi:(q 2 1)).Delay_assignment.system in
      pr "  infeasible at Xi=2 with Farkas certificate (y^T b = %s, checks: %b)@."
        (Rat.to_string cert.Lp.y_b) (Lp.check_certificate sys cert)

let report_f7 () =
  header "F7 | Fig. 7: cycle vectors of relevant vs non-relevant cycles";
  let g = fig34_graph ~late:false in
  List.iter
    (fun c ->
      let v = Cyclespace.vector_of_cycle g c in
      pr "  %s cycle, vector %a@."
        (if c.Cycle.relevant then "relevant    " else "non-relevant")
        Cyclespace.Vector.pp v)
    (List.filteri (fun i _ -> i < 6) (Cycle.enumerate g))

let report_f8 () =
  header "F8 | Fig. 8: the ABC-vs-ParSync prover game";
  List.iter
    (fun (phi, delta) ->
      let g = Parsync.prover_execution ~phi ~delta in
      let abc_ok = Abc_check.is_admissible g ~xi:(q 6 5) in
      let psync = Parsync.parsync_consistent g ~phi ~delta in
      pr "  adversary (Phi=%2d, Delta=%2d): ABC-admissible(Xi=6/5)=%b, ParSync-consistent=%b -> prover %s@."
        phi delta abc_ok psync
        (if abc_ok && not psync then "wins" else "LOSES"))
    [ (1, 1); (2, 4); (8, 3); (16, 16); (64, 32) ]

let report_f9 () =
  header "F9 | Fig. 9: growing inter-cluster delays (spacecraft formation)";
  let cluster_of p = if p < 2 then 0 else 1 in
  let rng = Random.State.make [| 99 |] in
  let scheduler =
    Sim.growing_scheduler ~rng ~cluster_of ~intra_min:(q 1 1) ~intra_max:(q 2 1)
      ~inter_base:(q 5 1) ~growth_rate:(q 2 1) ()
  in
  let peer p = [| 1; 0; 3; 2 |].(p) in
  let algo : (int, unit) Sim.algorithm =
    {
      init = (fun ~self ~nprocs:_ -> (0, [ { Sim.dst = peer self; payload = () } ]));
      step =
        (fun ~self ~nprocs:_ n ~sender () ->
          if sender = peer self then begin
            let out = [ { Sim.dst = peer self; payload = () } ] in
            let out =
              if (n + 1) mod 5 = 0 then { Sim.dst = (self + 2) mod 4; payload = () } :: out
              else out
            in
            (n + 1, out)
          end
          else (n + 1, []));
    }
  in
  let cfg =
    Sim.make_config ~nprocs:4 ~algorithm:algo ~faults:(Array.make 4 Sim.Correct) ~scheduler
      ~max_events:300 ()
  in
  let r = Sim.run cfg in
  (match Theta_model.static_delay_ratio r.Sim.graph with
  | None -> pr "  delay ratio: undefined@."
  | Some ratio ->
      pr "  static delay ratio tau+/tau- = %s ~ %.1f (grows with run length; no Theta holds)@."
        (Rat.to_string ratio) (Rat.to_float ratio));
  match Abc.max_relevant_ratio r.Sim.graph with
  | None -> pr "  max relevant-cycle ratio <= 1: ABC-admissible for every Xi > 1@."
  | Some m -> pr "  max relevant-cycle ratio = %s (finite: ABC applies)@." (Rat.to_string m)

let report_f10 () =
  header "F10 | Fig. 10: FIFO from the ABC condition (paper: Xi=4, forbidden ratio 5)";
  List.iter
    (fun chatter ->
      let bad = Fifo.build ~n_messages:3 ~chatter ~reordered:(Some 0) () in
      let verdict =
        match Abc_check.check bad.Fifo.graph ~xi:(q 4 1) with
        | Abc_check.Admissible -> "reorder allowed"
        | Abc_check.Violation c ->
            Printf.sprintf "reorder forbidden (cycle ratio %s)" (Rat.to_string (Cycle.ratio c))
      in
      pr "  chatter %d: %s; FIFO guaranteed: %b@." chatter verdict
        (Fifo.fifo_guaranteed ~xi:(q 4 1) ~n_messages:3 ~chatter))
    [ 2; 3; 4; 6 ]

let report_t1 () =
  header "T1 | Theorem 1: progress (final clocks after 600 events)";
  List.iter
    (fun (n, f) ->
      let faults = Array.make n Sim.Correct in
      if f >= 1 then faults.(n - 1) <- Sim.Byzantine "rush4";
      if f >= 2 then faults.(n - 2) <- Sim.Crash 10;
      let byz =
        if f >= 1 then Some (fun _ -> Clock_sync.byzantine_rusher ~ahead:4) else None
      in
      let r = run_clock_sync ~seed:5 ~nprocs:n ~f ~faults ~byz ~max_events:600 ~tau_plus:(q 2 1) in
      let clocks =
        List.map (fun p -> Clock_sync.clock r.Sim.final_states.(p)) (correct_of faults)
      in
      pr "  n=%2d f=%d: correct clocks %s (all grow without bound)@." n f
        (String.concat "," (List.map string_of_int clocks)))
    [ (4, 1); (7, 2); (10, 3) ]

let report_t2 () =
  header "T2/T3 | Theorems 2-3: precision <= 2Xi across Xi (scheduler Theta just below Xi)";
  pr "  %-8s %-10s %-12s %-12s %-8s@." "Xi" "bound 2Xi" "skew (cuts)" "skew (rt)" "ok";
  List.iter
    (fun x ->
      let faults = [| Sim.Correct; Sim.Correct; Sim.Correct; Sim.Byzantine "rush6" |] in
      let r =
        run_clock_sync ~seed:8 ~nprocs:4 ~f:1 ~faults
          ~byz:(Some (fun _ -> Clock_sync.byzantine_rusher ~ahead:6))
          ~max_events:300
          ~tau_plus:(Rat.sub x (q 1 4))
      in
      let input = { Clock_sync.result = r; correct = correct_of faults; xi = x } in
      let bound = Rat.floor_int (Rat.mul Rat.two x) in
      let s1 = Clock_sync.max_skew_on_cuts input in
      let s2 = Clock_sync.max_skew_realtime input in
      pr "  %-8s %-10d %-12d %-12d %-8b@." (Rat.to_string x) bound s1 s2
        (s1 <= bound && s2 <= bound))
    [ q 3 2; q 2 1; q 5 2; q 3 1 ]

let report_t4 () =
  header "T4 | Theorem 4: bounded progress rho = 4Xi + 1";
  let faults = Array.make 4 Sim.Correct in
  let r = run_clock_sync ~seed:4 ~nprocs:4 ~f:1 ~faults ~byz:None ~max_events:260 ~tau_plus:(q 2 1) in
  let input = { Clock_sync.result = r; correct = [ 0; 1; 2; 3 ]; xi = q 5 2 } in
  let checked, violations = Clock_sync.bounded_progress_violations input in
  pr "  rho = %d; intervals checked: %d; violations: %d (expected 0)@."
    (Rat.ceil_int (Rat.add (Rat.mul (q 4 1) (q 5 2)) Rat.one))
    checked (List.length violations)

let report_t5 () =
  header "T5 | Theorem 5: lock-step round simulation";
  List.iter
    (fun (label, faults, byz) ->
      let r =
        let rng = Random.State.make [| 31 |] in
        let scheduler = Sim.theta_scheduler ~rng ~tau_minus:(q 1 1) ~tau_plus:(q 2 1) () in
        let cfg =
          Sim.make_config ?byzantine:byz ~nprocs:4
            ~algorithm:(Lockstep.algorithm ~f:1 ~xi:(q 5 2) Lockstep.noop_round_algo)
            ~faults ~scheduler ~max_events:700 ()
        in
        Sim.run cfg
      in
      let correct = correct_of faults in
      let rounds = Lockstep.rounds_reached r ~correct in
      let checked, violations = Lockstep.lockstep_violations r ~correct in
      pr "  %-22s rounds %s; starts checked %d; violations %d@." label
        (String.concat "," (List.map (fun (_, x) -> string_of_int x) rounds))
        checked (List.length violations))
    [
      ("fault-free", Array.make 4 Sim.Correct, None);
      ("one crash", [| Sim.Correct; Sim.Correct; Sim.Correct; Sim.Crash 12 |], None);
      ( "one byzantine",
        [| Sim.Correct; Sim.Correct; Sim.Correct; Sim.Byzantine "noop" |],
        Some (fun _ -> Lockstep.algorithm ~f:1 ~xi:(q 5 2) Lockstep.noop_round_algo) );
    ]

let report_t6 () =
  header "T6 | Theorem 6: M_Theta subset of M_ABC (and the converse fails)";
  let ok = ref 0 and total = 20 in
  for seed = 1 to total do
    let faults = Array.make 3 Sim.Correct in
    let r = run_clock_sync ~seed ~nprocs:3 ~f:0 ~faults ~byz:None ~max_events:100 ~tau_plus:(q 2 1) in
    if Theta_model.subset_of_abc r.Sim.graph ~theta:(q 2 1) ~xi:(q 9 4) then incr ok
  done;
  pr "  %d/%d random Theta(1,2) executions ABC-admissible at Xi=9/4 (expected all)@." !ok total;
  let g = Parsync.prover_execution ~phi:8 ~delta:8 in
  pr "  converse witness: isolated-slow-message execution ABC-admissible(6/5)=%b; no Theta admits it@."
    (Abc_check.is_admissible g ~xi:(q 6 5))

let report_t7 () =
  header "T7 | Theorems 7/12: normalized delay assignment on random graphs";
  let solved = ref 0 and rejected = ref 0 and agree = ref 0 in
  let total = 40 in
  for seed = 1 to total do
    let rng = Random.State.make [| seed |] in
    let g = Generate.random_execution rng ~nprocs:3 ~max_events:12 ~max_delay:3 ~fanout:2 in
    let x = q 2 1 in
    let fast = Delay_assignment.solve_fast g ~xi:x in
    let faithful =
      match Delay_assignment.solve_faithful g ~xi:x with
      | Delay_assignment.Assignment _ -> true
      | Delay_assignment.Farkas _ -> false
    in
    (match fast with
    | Some a -> if Delay_assignment.verify g ~xi:x a then incr solved
    | None -> incr rejected);
    if (fast <> None) = faithful then incr agree
  done;
  pr "  %d solved+verified, %d rejected (inadmissible), fast/faithful agreement %d/%d@."
    !solved !rejected !agree total

let report_t11 () =
  header "T11 | Theorem 11 / Corollary 1: mixed-free decompositions";
  let rng = Random.State.make [| 123 |] in
  let oks = ref 0 and total = ref 0 in
  for _ = 1 to 25 do
    let g = Generate.random_execution rng ~nprocs:3 ~max_events:12 ~max_delay:3 ~fanout:2 in
    let relevant = List.filter (fun c -> c.Cycle.relevant) (Cycle.enumerate g) in
    if relevant <> [] then begin
      incr total;
      let inputs = List.map (fun c -> (1, c)) relevant in
      let outputs = Cyclespace.decompose g inputs in
      if Cyclespace.verify_decomposition g ~inputs ~outputs then incr oks
    end
  done;
  pr "  decompositions verified: %d/%d@." !oks !total

let report_c1 () =
  header "C1 | Consensus over lock-step rounds (EIG, n=4, one Byzantine)";
  let inputs = [| 1; 1; 1; 0 |] in
  let rng = Random.State.make [| 17 |] in
  let scheduler = Sim.theta_scheduler ~rng ~tau_minus:(q 1 1) ~tau_plus:(q 2 1) () in
  let algo = Consensus.Eig.algo ~f:1 ~value:(fun p -> inputs.(p)) in
  let byz =
    let real = Consensus.Eig.algo ~f:1 ~value:(fun _ -> 0) in
    Lockstep.algorithm ~f:1 ~xi:(q 5 2)
      {
        Lockstep.r_init =
          (fun ~self ~nprocs ->
            let st, _ = real.Lockstep.r_init ~self ~nprocs in
            (st, [ ([], 0) ]));
        r_step =
          (fun ~self ~nprocs:_ ~round st _ ->
            (st, List.init round (fun i -> ([ (self + i) mod 4 ], i mod 2))));
      }
  in
  let cfg =
    Sim.make_config ~byzantine:(fun _ -> byz) ~nprocs:4
      ~algorithm:(Lockstep.algorithm ~f:1 ~xi:(q 5 2) algo)
      ~faults:[| Sim.Correct; Sim.Correct; Sim.Correct; Sim.Byzantine "forger" |]
      ~scheduler ~max_events:4000
      ~stop_when:(fun states ->
        List.for_all
          (fun p -> Consensus.Eig.decision (Lockstep.round_state states.(p)) <> None)
          [ 0; 1; 2 ])
      ()
  in
  let r = Sim.run cfg in
  let decisions =
    List.map
      (fun p -> (p, Consensus.Eig.decision (Lockstep.round_state r.Sim.final_states.(p))))
      [ 0; 1; 2 ]
  in
  pr "  decisions: %s; agreement+validity: %b (inputs of correct procs all 1)@."
    (String.concat ","
       (List.map (fun (_, d) -> match d with Some v -> string_of_int v | None -> "-") decisions))
    (Consensus.check_agreement decisions ~inputs:[ 1; 1; 1 ])

let report_v1 () =
  header "V1 | Section 6 variants";
  let g = fig34_graph ~late:true in
  (match Variants.eventually_admissible g ~xi:(q 2 1) with
  | Some k -> pr "  eventually-ABC: violating prefix of %d events cut away (C_GST found)@." k
  | None -> pr "  eventually-ABC: no admissible suffix (unexpected)@.");
  let open Variants.Xi_learner in
  let l = create ~initial:(q 3 2) in
  let l = observe l ~ratio:(q 2 1) ~margin:(q 1 2) in
  pr "  ?ABC learner: after observing ratio 2, estimate = %s (%d revisions)@."
    (Rat.to_string (estimate l)) (revisions l);
  let g1 = fig1_graph () in
  pr "  bounded-cycle ABC (<=2 forward msgs): fig.1 graph admissible at 5/4: %b (full model: %b)@."
    (Variants.admissible_bounded_cycles g1 ~xi:(q 5 4) ~max_forward:2)
    (Abc_check.is_admissible g1 ~xi:(q 5 4))


(* ------------------------------------------------------------------ *)
(* Sweep-series experiments *)

let report_s1 () =
  header "S1 | Failure-detection latency vs Xi (Fig. 3 mechanism)";
  pr "  %-8s %-22s %-26s@." "Xi" "chain before verdict" "max adversarial deferral";
  List.iter
    (fun x ->
      let chain = Rat.ceil_int (Rat.mul Rat.two x) in
      let defer = Scenarios.max_reply_deferral ~xi:x in
      pr "  %-8s %-22d %-26d@." (Rat.to_string x) chain defer)
    [ q 3 2; q 2 1; q 5 2; q 3 1; q 4 1; q 11 2 ];
  pr "  (latency grows linearly with Xi: the paper's trade-off between@.";
  pr "   weaker synchrony and slower detection)@."

let report_s2 () =
  header "S2 | Clock precision vs system size (Theorem 2, Xi = 5/2)";
  pr "  %-6s %-6s %-14s %-12s@." "n" "f" "skew (cuts)" "bound 2Xi";
  List.iter
    (fun (n, f) ->
      let faults = Array.make n Sim.Correct in
      if f >= 1 then faults.(n - 1) <- Sim.Byzantine "rush5";
      let byz =
        if f >= 1 then Some (fun _ -> Clock_sync.byzantine_rusher ~ahead:5) else None
      in
      let r = run_clock_sync ~seed:9 ~nprocs:n ~f ~faults ~byz ~max_events:(60 * n) ~tau_plus:(q 2 1) in
      let input = { Clock_sync.result = r; correct = correct_of faults; xi = q 5 2 } in
      pr "  %-6d %-6d %-14d %-12d@." n f (Clock_sync.max_skew_on_cuts input) 5)
    [ (4, 1); (7, 2); (10, 3); (13, 4) ]

let report_s3 () =
  header "S3 | FIFO chatter threshold vs Xi (Fig. 10 crossover)";
  pr "  %-8s %-30s@." "Xi" "min chatter guaranteeing FIFO";
  List.iter
    (fun x ->
      (* the builder's minimum chain is 2 messages, so start there *)
      let rec find c = if c > 12 then None else if Fifo.fifo_guaranteed ~xi:x ~n_messages:3 ~chatter:c then Some c else find (c + 1) in
      (match find 2 with
      | Some c -> pr "  %-8s %-30d@." (Rat.to_string x) c
      | None -> pr "  %-8s (none up to 12)@." (Rat.to_string x)))
    [ q 2 1; q 5 2; q 3 1; q 4 1; q 5 1; q 6 1 ];
  pr "  (the reorder cycle has ratio chatter+1, so the threshold is max(2, ceil(Xi)-1);@.";
  pr "   stronger synchrony (smaller Xi) needs less chatter -- the crossover shape)@."

let report_s4 () =
  header "S4 | Eventual lock-step: first stable round vs GST (doubling rounds, Section 6)";
  pr "  %-10s %-22s %-14s@." "gst" "first lock-step round" "rounds reached";
  List.iter
    (fun gst ->
      let rng = Random.State.make [| 5 |] in
      let scheduler =
        Sim.eventually_theta_scheduler ~rng ~gst:(q gst 1) ~chaos_max:(q 80 1)
          ~tau_minus:(q 1 1) ~tau_plus:(q 2 1) ()
      in
      let algo =
        Lockstep.algorithm_scheduled ~f:1 ~schedule:(Lockstep.doubling_schedule 2)
          Lockstep.noop_round_algo
      in
      let cfg =
        Sim.make_config ~nprocs:4 ~algorithm:algo ~faults:(Array.make 4 Sim.Correct)
          ~scheduler ~max_events:2200 ()
      in
      let r = Sim.run cfg in
      let correct = [ 0; 1; 2; 3 ] in
      let first_ok = Lockstep.first_lockstep_round r ~correct in
      let maxr =
        List.fold_left (fun acc (_, x) -> max acc x) 0 (Lockstep.rounds_reached r ~correct)
      in
      pr "  %-10d %-22d %-14d@." gst first_ok maxr)
    [ 0; 10; 40; 80 ]

let report_s5 () =
  header "S5 | Related models under the same executions (Section 5.2)";
  pr "  %-22s %-18s %-18s %-18s@." "scheduler" "MMR holds (f=1)" "MCM split exists"
    "ABC admissible(3)";
  List.iter
    (fun (label, mk) ->
      let mmr_ok = ref 0 and mcm_ok = ref 0 and abc_ok = ref 0 and total = 10 in
      for seed = 1 to total do
        let rng = Random.State.make [| seed |] in
        let scheduler : Related_models.Query_rounds.msg Sim.scheduler = mk rng in
        let cfg =
          Sim.make_config ~nprocs:4
            ~algorithm:(Related_models.Query_rounds.algorithm ~rounds:6)
            ~faults:(Array.make 4 Sim.Correct) ~scheduler ~max_events:700 ()
        in
        let r = Sim.run cfg in
        let rounds = Related_models.Query_rounds.rounds r.Sim.final_states.(0) in
        if Related_models.mmr_holds ~n:4 ~f:1 rounds then incr mmr_ok;
        let delays =
          List.map (fun (_, _, _, d) -> d) (Theta_model.message_delays r.Sim.graph)
        in
        if Related_models.mcm_split delays <> None then incr mcm_ok;
        if Abc_check.is_admissible r.Sim.graph ~xi:(q 3 1) then incr abc_ok
      done;
      pr "  %-22s %2d/%-15d %2d/%-15d %2d/%-15d@." label !mmr_ok total !mcm_ok total
        !abc_ok total)
    [
      ("Theta(1, 5/2)", fun rng -> Sim.theta_scheduler ~rng ~tau_minus:(q 1 1) ~tau_plus:(q 5 2) ());
      ("async [0, 12]", fun rng -> Sim.async_scheduler ~rng ~max_delay:(q 12 1) ());
    ];
  pr "  (MMR needs a fixed quorum to always answer first -- rare under any@.";
  pr "   symmetric scheduler; MCM needs a factor-2 delay gap -- absent under@.";
  pr "   tight Theta but common under wide asynchrony; the ABC condition holds@.";
  pr "   whenever relevant-cycle ratios stay below Xi.  The models are@.";
  pr "   incomparable, cf. Section 5.2)@."

let report_s6 () =
  header "S6 | Omega leader election (Lemma 4 as an eventually-perfect detector)";
  List.iter
    (fun (label, faults, correct) ->
      let rng = Random.State.make [| 13 |] in
      let scheduler = Sim.theta_scheduler ~rng ~tau_minus:(q 1 1) ~tau_plus:(q 2 1) () in
      let cfg =
        Sim.make_config ~nprocs:4
          ~algorithm:(Omega.algorithm ~f:1 ~xi:(q 5 2))
          ~faults ~scheduler ~max_events:500 ()
      in
      let r = Sim.run cfg in
      let _, expected, agree = Omega.converged r ~correct in
      pr "  %-18s leader converged to p%d at all correct: %b; accuracy: %b@." label
        expected agree
        (Omega.no_false_suspicions r ~correct))
    [
      ("fault-free", Array.make 4 Sim.Correct, [ 0; 1; 2; 3 ]);
      ("p0 crashes", [| Sim.Crash 2; Sim.Correct; Sim.Correct; Sim.Correct |], [ 1; 2; 3 ]);
      ( "p0, p1 lag then die",
        [| Sim.Crash 6; Sim.Correct; Sim.Correct; Sim.Correct |],
        [ 1; 2; 3 ] );
    ]

let report_s7 () =
  header "S7 | Checker scaling: polynomial check vs execution size";
  pr "  %-10s %-10s %-12s %-16s@." "events" "messages" "admissible" "max ratio";
  List.iter
    (fun events ->
      let rng = Random.State.make [| 2 |] in
      let g = Generate.random_execution rng ~nprocs:5 ~max_events:events ~max_delay:3 ~fanout:3 in
      let adm = Abc_check.is_admissible g ~xi:(q 3 1) in
      let ratio =
        match Abc.max_relevant_ratio g with None -> "<=1" | Some r -> Rat.to_string r
      in
      pr "  %-10d %-10d %-12b %-16s@." (Graph.event_count g) (Graph.message_count g) adm ratio)
    [ 50; 100; 200; 400; 800 ]


let report_s8 () =
  header "S8 | Oracle-guided deferring adversary (admissibility boundary)";
  pr "  %-8s %-14s %-18s %-20s@." "Xi" "admissible" "victim events" "max relevant ratio";
  List.iter
    (fun x ->
      let cfg =
        Sim.make_config ~nprocs:4
          ~algorithm:(Clock_sync.algorithm ~f:1)
          ~faults:(Array.make 4 Sim.Correct)
          ~scheduler:(Sim.constant_scheduler (q 1 1))
          ~max_events:240 ()
      in
      (* defer everything the "slow" process 3 sends: the rest of the
         system can progress without it (n - f = 3), so its ticks
         arrive as late as the ABC condition allows, like pslow's reply
         in Fig. 3 *)
      let r = Sim.run_deferring cfg ~xi:x ~victim:(fun ~sender ~dst:_ -> sender = 3) in
      let adm = Abc_check.is_admissible r.Sim.graph ~xi:x in
      let victim_events = List.length (Graph.events_of_proc r.Sim.graph 3) in
      let ratio =
        match Abc.max_relevant_ratio r.Sim.graph with
        | None -> "<=1"
        | Some m -> Rat.to_string m
      in
      pr "  %-8s %-14b %-18d %-20s@." (Rat.to_string x) adm victim_events ratio)
    [ q 3 2; q 2 1; q 3 1; q 5 1 ];
  pr "  (the adversary starves the victim while staying exactly admissible;@.";
  pr "   larger Xi permits longer deferral -- the weak-synchrony price)@."

let report_z1 () =
  header "Z1 | Property-based fuzzer: bounded campaign over the theorem oracles";
  (* jobs:1 — this may itself run on a pool worker, and nested
     submission is rejected by design *)
  let outcome = Fuzz.Campaign.run ~shrink:false ~cases:25 ~seed:7 ~jobs:1 () in
  pr "%s" (Fuzz.Report.render outcome);
  pr "  (deterministic: `abc fuzz --seed 7 --cases 25` reproduces this report)@."

(* Every report section, keyed by the experiment id of DESIGN.md; the
   list order is the canonical output order. *)
let all_reports =
  [
    ("F1", report_f1);
    ("F2", report_f2);
    ("F3", report_f3_f4);
    ("F5", report_f5);
    ("F6", report_f6);
    ("F7", report_f7);
    ("F8", report_f8);
    ("F9", report_f9);
    ("F10", report_f10);
    ("T1", report_t1);
    ("T2", report_t2);
    ("T4", report_t4);
    ("T5", report_t5);
    ("T6", report_t6);
    ("T7", report_t7);
    ("T11", report_t11);
    ("C1", report_c1);
    ("V1", report_v1);
    ("S1", report_s1);
    ("S2", report_s2);
    ("S3", report_s3);
    ("S4", report_s4);
    ("S5", report_s5);
    ("S6", report_s6);
    ("S7", report_s7);
    ("S8", report_s8);
    ("Z1", report_z1);
  ]

(* Render one section into a string, on whatever domain this runs on:
   point the domain-local formatter at a buffer for the duration. *)
let render_section f =
  let buf = Buffer.create 4096 in
  let fmt = Format.formatter_of_buffer buf in
  let saved = Domain.DLS.get out_key in
  Domain.DLS.set out_key fmt;
  Fun.protect
    ~finally:(fun () ->
      Format.pp_print_flush fmt ();
      Domain.DLS.set out_key saved)
    f;
  Buffer.contents buf

let run_reports ?(jobs = 1) ?(only = []) () =
  let selected =
    match only with
    | [] -> all_reports
    | ids ->
        List.iter
          (fun id ->
            if not (List.mem_assoc id all_reports) then begin
              Format.eprintf "error: unknown report section %S (have: %s)@." id
                (String.concat " " (List.map fst all_reports));
              exit 2
            end)
          ids;
        List.filter (fun (id, _) -> List.mem id ids) all_reports
  in
  pr "ABC model reproduction: experiment reports@.";
  let sections = Array.of_list selected in
  let rendered =
    Pool.map ~jobs ~chunk:1 (Array.length sections) (fun i ->
        render_section (snd sections.(i)))
  in
  Format.print_flush ();
  Array.iter print_string rendered;
  pr "@.All experiment reports done.@.";
  Format.print_flush ()

(* ------------------------------------------------------------------ *)
(* Bechamel timing benchmarks: one per experiment kernel *)

let bench_tests () =
  let open Bechamel in
  let fig1 = fig1_graph () in
  let fig3 = fig34_graph ~late:true in
  let mk_sim_graph events =
    let rng = Random.State.make [| 1 |] in
    Generate.random_execution rng ~nprocs:4 ~max_events:events ~max_delay:3 ~fanout:2
  in
  let g200 = mk_sim_graph 200 in
  let g20 = mk_sim_graph 20 in
  let faults4 = Array.make 4 Sim.Correct in
  [
    Test.make ~name:"F1_fig1_poly_check"
      (Staged.stage (fun () -> Abc_check.is_admissible fig1 ~xi:(q 2 1)));
    Test.make ~name:"F1_fig1_enum_check"
      (Staged.stage (fun () ->
           match Abc_check.check_enumerate fig1 ~xi:(q 2 1) with
           | Abc_check.Admissible -> true
           | _ -> false));
    Test.make ~name:"F2_cycle_decompose_20ev"
      (Staged.stage (fun () ->
           let relevant = List.filter (fun c -> c.Cycle.relevant) (Cycle.enumerate g20) in
           match relevant with
           | [] -> 0
           | l -> List.length (Cyclespace.decompose g20 (List.map (fun c -> (1, c)) l))));
    Test.make ~name:"F3_timeout_detector_run"
      (Staged.stage (fun () ->
           let rng = Random.State.make [| 3 |] in
           let scheduler = Sim.theta_scheduler ~rng ~tau_minus:(q 2 1) ~tau_plus:(q 3 1) () in
           let cfg =
             Sim.make_config ~nprocs:4
               ~algorithm:(Failure_detector.algorithm ~xi:(q 2 1) ~rounds:1)
               ~faults:[| Sim.Correct; Sim.Correct; Sim.Correct; Sim.Crash 1 |]
               ~scheduler ~max_events:200 ()
           in
           (Sim.run cfg).Sim.delivered));
    Test.make ~name:"F6_lp_simplex"
      (Staged.stage (fun () ->
           match Delay_assignment.solve_faithful fig3 ~xi:(q 9 4) with
           | Delay_assignment.Assignment d -> List.length d
           | Delay_assignment.Farkas _ -> 0));
    Test.make ~name:"F6_lp_fourier_motzkin"
      (Staged.stage (fun () ->
           match Delay_assignment.solve_faithful ~engine:`Fourier_motzkin fig3 ~xi:(q 9 4) with
           | Delay_assignment.Assignment d -> List.length d
           | Delay_assignment.Farkas _ -> 0));
    Test.make ~name:"F8_prover_game"
      (Staged.stage (fun () -> Parsync.prover_wins ~phi:16 ~delta:16 ~xi:(q 6 5)));
    Test.make ~name:"F10_fifo_guarantee"
      (Staged.stage (fun () -> Fifo.fifo_guaranteed ~xi:(q 4 1) ~n_messages:3 ~chatter:4));
    Test.make ~name:"T1_clock_sync_600ev"
      (Staged.stage (fun () ->
           let r =
             run_clock_sync ~seed:5 ~nprocs:4 ~f:1 ~faults:faults4 ~byz:None ~max_events:600
               ~tau_plus:(q 2 1)
           in
           Clock_sync.clock r.Sim.final_states.(0)));
    Test.make ~name:"T2_skew_analysis_150ev"
      (Staged.stage
         (let r =
            run_clock_sync ~seed:8 ~nprocs:4 ~f:1 ~faults:faults4 ~byz:None ~max_events:150
              ~tau_plus:(q 2 1)
          in
          let input = { Clock_sync.result = r; correct = [ 0; 1; 2; 3 ]; xi = q 5 2 } in
          fun () -> Clock_sync.max_skew_on_cuts input));
    Test.make ~name:"T5_lockstep_700ev"
      (Staged.stage (fun () ->
           let rng = Random.State.make [| 31 |] in
           let scheduler = Sim.theta_scheduler ~rng ~tau_minus:(q 1 1) ~tau_plus:(q 2 1) () in
           let cfg =
             Sim.make_config ~nprocs:4
               ~algorithm:(Lockstep.algorithm ~f:1 ~xi:(q 5 2) Lockstep.noop_round_algo)
               ~faults:faults4 ~scheduler ~max_events:700 ()
           in
           (Sim.run cfg).Sim.delivered));
    Test.make ~name:"T6_admissibility_200ev"
      (Staged.stage (fun () -> Abc_check.is_admissible g200 ~xi:(q 2 1)));
    Test.make ~name:"T7_fast_assignment_200ev"
      (Staged.stage (fun () -> Delay_assignment.solve_fast g200 ~xi:(q 4 1) <> None));
    Test.make ~name:"T7_max_ratio_200ev"
      (Staged.stage (fun () ->
           match Abc.max_relevant_ratio g200 with None -> "none" | Some r -> Rat.to_string r));
    Test.make ~name:"C1_eig_sync_n7_f2"
      (Staged.stage (fun () ->
           let behaviors = Array.make 7 Consensus.B_correct in
           behaviors.(6) <-
             Consensus.B_byzantine (fun ~round:_ ~dst -> Some [ ([], dst mod 2) ]);
           let inputs = [| 1; 0; 1; 0; 1; 0; 1 |] in
           let algo = Consensus.Eig.algo ~f:2 ~value:(fun p -> inputs.(p)) in
           List.length (Consensus.run_synchronous ~nprocs:7 ~behaviors ~algo ~nrounds:3)));
    Test.make ~name:"Z1_fuzz_case_eval_150ev"
      (Staged.stage
         (let case =
            {
              Fuzz.Gen.c_seed = 11;
              c_nprocs = 4;
              c_faults = Array.make 4 Sim.Correct;
              c_xi = q 2 1;
              c_sched = Fuzz.Gen.S_theta { tau_minus = q 1 1; tau_plus = q 3 2 };
              c_workload = Fuzz.Gen.W_clock;
              c_max_events = 150;
              c_plan = [];
              c_boundary = false;
              c_schedule = [];
            }
          in
          fun () -> List.length (Fuzz.Oracle.evaluate Fuzz.Oracle.registry case)));
  ]

let run_benchmarks () =
  let open Bechamel in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:500 ~quota:(Time.second 0.25) ~kde:(Some 500) () in
  pr "@.==== Bechamel timings (monotonic clock) ====@.";
  List.iter
    (fun test ->
      let results = Benchmark.all cfg [ instance ] test in
      Hashtbl.iter
        (fun name raw ->
          let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
          let est = Analyze.one ols instance raw in
          match Analyze.OLS.estimates est with
          | Some [ t ] -> pr "  %-34s %12.1f ns/run@." name t
          | _ -> pr "  %-34s (no estimate)@." name)
        results)
    (bench_tests ())

(* ------------------------------------------------------------------ *)
(* Pool scaling series: the same fuzz campaign at jobs=1 and jobs=J,
   byte-compared, timed, and recorded as a JSON series so the perf
   trajectory of the parallel runner has data across PRs. *)

type pool_point = {
  pp_jobs : int;
  pp_wall : float;
  pp_case_wall_total : float;
  pp_case_wall_max : float;
  pp_alloc_words : float;
}

let pool_point ~jobs ~seed ~cases =
  let t0 = Pool.now () in
  let o = Fuzz.Campaign.run ~shrink:false ~cases ~seed ~jobs () in
  let wall = Pool.now () -. t0 in
  let c = o.Fuzz.Campaign.cp_cost in
  ( o,
    {
      pp_jobs = jobs;
      pp_wall = wall;
      pp_case_wall_total =
        Array.fold_left ( +. ) 0.0 c.Fuzz.Campaign.ct_case_wall;
      pp_case_wall_max =
        Array.fold_left max 0.0 c.Fuzz.Campaign.ct_case_wall;
      pp_alloc_words = Array.fold_left ( +. ) 0.0 c.Fuzz.Campaign.ct_case_alloc;
    } )

let pool_json ?note ~seed ~cases ~identical ~speedup points =
  let buf = Buffer.create 1024 in
  Printf.bprintf buf
    "{\n  \"bench\": \"pool_campaign\",\n  \"seed\": %d,\n  \"cases\": %d,\n\
    \  \"cores\": %d,\n  \"identical_reports\": %b,\n  \"speedup\": %.3f,\n"
    seed cases (Pool.recommended_jobs ()) identical speedup;
  (match note with
  | None -> ()
  | Some n -> Printf.bprintf buf "  \"note\": %S,\n" n);
  Buffer.add_string buf "  \"series\": [\n";
  List.iteri
    (fun i p ->
      Printf.bprintf buf
        "    {\"jobs\": %d, \"wall_s\": %.3f, \"case_wall_total_s\": %.3f, \
         \"case_wall_max_s\": %.4f, \"alloc_mwords\": %.1f}%s\n"
        p.pp_jobs p.pp_wall p.pp_case_wall_total p.pp_case_wall_max
        (p.pp_alloc_words /. 1e6)
        (if i = List.length points - 1 then "" else ","))
    points;
  Buffer.add_string buf "  ]\n}\n";
  Buffer.contents buf

let write_file out contents =
  let oc = open_out out in
  output_string oc contents;
  close_out oc

let run_pool_bench ~seed ~cases ~jobs ~out =
  let cores = Pool.recommended_jobs () in
  if cores < 2 then begin
    (* Single-core container: a multi-job run measures only scheduling
       noise, so record the serial point and say why the series is
       short rather than publishing a meaningless "speedup". *)
    Format.printf
      "pool campaign series: seed=%d cases=%d; 1 core available, skipping \
       jobs=%d run@."
      seed cases jobs;
    let _, p1 = pool_point ~jobs:1 ~seed ~cases in
    Format.printf "  jobs=1: %.2fs@." p1.pp_wall;
    let json =
      pool_json ~note:"single core available: multi-job run skipped" ~seed
        ~cases ~identical:true ~speedup:1.0 [ p1 ]
    in
    write_file out json;
    Format.printf "  series written to %s@." out
  end
  else begin
    Format.printf "pool campaign series: seed=%d cases=%d jobs=1 vs jobs=%d@."
      seed cases jobs;
    let o1, p1 = pool_point ~jobs:1 ~seed ~cases in
    Format.printf "  jobs=1: %.2fs@." p1.pp_wall;
    let oj, pj = pool_point ~jobs ~seed ~cases in
    Format.printf "  jobs=%d: %.2fs@." jobs pj.pp_wall;
    let identical = Fuzz.Report.render o1 = Fuzz.Report.render oj in
    let speedup = p1.pp_wall /. pj.pp_wall in
    Format.printf "  byte-identical reports: %b; speedup: %.2fx@." identical
      speedup;
    let json = pool_json ~seed ~cases ~identical ~speedup [ p1; pj ] in
    write_file out json;
    Format.printf "  series written to %s@." out;
    if not identical then begin
      Format.eprintf "error: parallel report diverged from the serial one@.";
      exit 1
    end
  end

(* ------------------------------------------------------------------ *)
(* Rat fast-path series: micro-benchmarks of the small-rational
   representation and the incremental admissibility checker, plus the
   end-to-end 100-case Z1 campaign measured against the recorded
   pre-fast-path baseline (same container, commit 291c93e). *)

let rat_baseline_wall_s = 26.191
let rat_baseline_alloc_mwords = 5045.33

let rat_micro_tests () =
  let open Bechamel in
  let a = q 355 113 and b = q 113 355 in
  let big =
    Rat.make
      (Bigint.of_string "123456789012345678901234567890")
      (Bigint.of_string "98765432109876543210987654321")
  in
  let rng = Random.State.make [| 1 |] in
  let g200 =
    Generate.random_execution rng ~nprocs:4 ~max_events:200 ~max_delay:3
      ~fanout:2
  in
  let checker = Abc_check.Checker.create g200 ~xi:(q 2 1) in
  ignore (Abc_check.Checker.is_admissible checker);
  [
    Test.make ~name:"rat_add_small" (Staged.stage (fun () -> Rat.add a b));
    Test.make ~name:"rat_mul_small" (Staged.stage (fun () -> Rat.mul a b));
    Test.make ~name:"rat_div_small" (Staged.stage (fun () -> Rat.div a b));
    Test.make ~name:"rat_compare_small"
      (Staged.stage (fun () -> Rat.compare a b));
    Test.make ~name:"rat_add_big" (Staged.stage (fun () -> Rat.add big b));
    Test.make ~name:"rat_mul_big" (Staged.stage (fun () -> Rat.mul big big));
    Test.make ~name:"check_scratch_200ev"
      (Staged.stage (fun () -> Abc_check.is_admissible g200 ~xi:(q 2 1)));
    Test.make ~name:"checker_query_200ev"
      (Staged.stage (fun () -> Abc_check.Checker.is_admissible checker));
    Test.make ~name:"checker_spec_roundtrip_200ev"
      (Staged.stage (fun () ->
           Abc_check.Checker.spec_begin checker;
           ignore (Abc_check.Checker.spec_add_event checker ~proc:0);
           let ok = Abc_check.Checker.spec_admissible checker in
           Abc_check.Checker.spec_abort checker;
           ok));
    Test.make ~name:"max_ratio_200ev"
      (Staged.stage (fun () -> Abc.max_relevant_ratio g200 <> None));
  ]

let measure_micro tests =
  let open Bechamel in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:500 ~quota:(Time.second 0.25) ~kde:(Some 500) () in
  List.concat_map
    (fun test ->
      let results = Benchmark.all cfg [ instance ] test in
      Hashtbl.fold
        (fun name raw acc ->
          let ols =
            Analyze.ols ~bootstrap:0 ~r_square:false
              ~predictors:[| Measure.run |]
          in
          let est = Analyze.one ols instance raw in
          match Analyze.OLS.estimates est with
          | Some [ t ] -> (name, t) :: acc
          | _ -> acc)
        results [])
    tests

let run_rat_bench ~out =
  Format.printf "rat fast-path series: 100-case Z1 campaign + micro@.";
  (* End-to-end first: the Bechamel runs leave a large major heap
     behind, which would tax the campaign's GC and skew the number
     that the baseline comparison hangs on. *)
  let alloc0 = Gc.allocated_bytes () in
  let t0 = Pool.now () in
  let o = Fuzz.Campaign.run ~shrink:false ~cases:100 ~seed:1 ~jobs:1 () in
  let wall = Pool.now () -. t0 in
  let alloc_mwords = (Gc.allocated_bytes () -. alloc0) /. 8.0 /. 1e6 in
  let failures = List.length o.Fuzz.Campaign.cp_failures in
  let micro = measure_micro (rat_micro_tests ()) in
  List.iter
    (fun (name, ns) -> Format.printf "  %-30s %12.1f ns/run@." name ns)
    micro;
  let speedup = rat_baseline_wall_s /. wall in
  let alloc_reduction = rat_baseline_alloc_mwords /. alloc_mwords in
  Format.printf
    "  campaign: %.3fs (baseline %.3fs, %.2fx), %.1f Mwords (baseline %.1f, \
     %.2fx), %d failures@."
    wall rat_baseline_wall_s speedup alloc_mwords rat_baseline_alloc_mwords
    alloc_reduction failures;
  let buf = Buffer.create 2048 in
  Printf.bprintf buf
    "{\n  \"bench\": \"rat_fastpath\",\n  \"campaign\": {\n    \"cases\": 100,\n\
    \    \"seed\": 1,\n    \"jobs\": 1,\n    \"wall_s\": %.3f,\n\
    \    \"alloc_mwords\": %.2f,\n    \"failures\": %d,\n\
    \    \"baseline_wall_s\": %.3f,\n    \"baseline_alloc_mwords\": %.2f,\n\
    \    \"speedup\": %.2f,\n    \"alloc_reduction\": %.2f\n  },\n\
    \  \"micro_ns_per_run\": [\n"
    wall alloc_mwords failures rat_baseline_wall_s rat_baseline_alloc_mwords
    speedup alloc_reduction;
  List.iteri
    (fun i (name, ns) ->
      Printf.bprintf buf "    {\"name\": %S, \"ns\": %.1f}%s\n" name ns
        (if i = List.length micro - 1 then "" else ","))
    micro;
  Buffer.add_string buf "  ]\n}\n";
  write_file out (Buffer.contents buf);
  Format.printf "  series written to %s@." out

(* ------------------------------------------------------------------ *)
(* Nemesis series: the 100-case Z1 campaign under the full fault
   palette (structured byzantine strategies, omission, recovery,
   message-level plans) against the pre-nemesis baseline (same
   container, commit 09ecc2e), plus the boundary campaign that must
   witness violations at n = 3f. *)

let byz_baseline_wall_s = 4.249
let byz_baseline_alloc_mwords = 302.48

let run_byz_bench ~out =
  Format.printf "nemesis series: 100-case Z1 campaign + n = 3f boundary campaign@.";
  let alloc0 = Gc.allocated_bytes () in
  let t0 = Pool.now () in
  let o = Fuzz.Campaign.run ~shrink:false ~cases:100 ~seed:1 ~jobs:1 () in
  let wall = Pool.now () -. t0 in
  let alloc_mwords = (Gc.allocated_bytes () -. alloc0) /. 8.0 /. 1e6 in
  let failures = List.length o.Fuzz.Campaign.cp_failures in
  let bt0 = Pool.now () in
  let ob = Fuzz.Campaign.run ~shrink:false ~boundary:true ~cases:50 ~seed:1 ~jobs:1 () in
  let bwall = Pool.now () -. bt0 in
  let fails_of name =
    match List.assoc_opt name ob.Fuzz.Campaign.cp_stats with
    | Some s -> s.Fuzz.Campaign.os_fail
    | None -> 0
  in
  let precision_w = fails_of "boundary-precision" in
  let agreement_w = fails_of "boundary-agreement" in
  let speedup = byz_baseline_wall_s /. wall in
  let alloc_ratio = byz_baseline_alloc_mwords /. alloc_mwords in
  Format.printf
    "  campaign: %.3fs (baseline %.3fs, %.2fx), %.1f Mwords (baseline %.1f, \
     %.2fx), %d failures@."
    wall byz_baseline_wall_s speedup alloc_mwords byz_baseline_alloc_mwords
    alloc_ratio failures;
  Format.printf
    "  boundary: %.3fs, %d precision witnesses, %d agreement witnesses over \
     %d cases@."
    bwall precision_w agreement_w ob.Fuzz.Campaign.cp_cases_run;
  let buf = Buffer.create 1024 in
  Printf.bprintf buf
    "{\n  \"bench\": \"byz_nemesis\",\n  \"campaign\": {\n    \"cases\": 100,\n\
    \    \"seed\": 1,\n    \"jobs\": 1,\n    \"wall_s\": %.3f,\n\
    \    \"alloc_mwords\": %.2f,\n    \"failures\": %d,\n\
    \    \"baseline_wall_s\": %.3f,\n    \"baseline_alloc_mwords\": %.2f,\n\
    \    \"relative_wall\": %.2f,\n    \"relative_alloc\": %.2f\n  },\n\
    \  \"boundary\": {\n    \"cases\": %d,\n    \"seed\": 1,\n\
    \    \"wall_s\": %.3f,\n    \"precision_witnesses\": %d,\n\
    \    \"agreement_witnesses\": %d\n  }\n}\n"
    wall alloc_mwords failures byz_baseline_wall_s byz_baseline_alloc_mwords
    speedup alloc_ratio ob.Fuzz.Campaign.cp_cases_run bwall precision_w
    agreement_w;
  write_file out (Buffer.contents buf);
  Format.printf "  series written to %s@." out;
  if failures <> 0 then begin
    Format.eprintf "error: positive campaign found violations@.";
    exit 1
  end;
  if precision_w = 0 || agreement_w = 0 then begin
    Format.eprintf "error: boundary campaign failed to witness both violation kinds@.";
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Argument parsing: no cmdliner here (the harness predates it and the
   grammar is three words); unknown flags fail loudly. *)

(* ------------------------------------------------------------------ *)
(* Model-checker benchmark: DPOR vs naive, incremental vs replay, on
   fixed exhaustively explorable boxes at two budgets -> BENCH_mc.json.
   Records states/sec, deliveries per execution (the replay
   amplification the incremental engine removes), the reduction ratio,
   the engine speedup and the cross-checks; exits 1 if any two
   configurations that must agree disagree, if DPOR fails to reduce,
   or if the incremental engine still re-simulates prefixes. *)

let mc_bench_box ~nprocs ~budget =
  {
    Fuzz.Gen.c_seed = 1;
    c_nprocs = nprocs;
    c_faults = Array.make nprocs Sim.Correct;
    c_xi = q 2 1;
    c_sched = Fuzz.Gen.S_async { max_delay = Rat.one };
    c_workload = Fuzz.Gen.W_clock;
    c_max_events = budget;
    c_plan = [];
    c_boundary = false;
    c_schedule = [];
  }

(* Stateless-checker baseline: the replay-from-scratch explorer as of
   commit 8a77dc8 (the last commit before the incremental engine),
   search only ([~oracles:[] ~dpor:true ~jobs:1]) on the same boxes,
   measured on this container as the min of five runs interleaved with
   the new build.  Same convention as [rat_baseline_wall_s] and
   [obs_baseline_wall_s]: the old code is gone from the tree, so the
   reduction the rewrite bought is checked against pinned numbers. *)
let mc_baseline_commit = "8a77dc8"
let mc_baseline_search_wall_s = [ (6, 0.0104); (8, 0.1165); (10, 2.656) ]

(* CI floor for the pinned-baseline reduction at the deeper budget:
   the recorded value is ~3x, the gate is lenient against container
   load (wall-clock noise here is routinely +/-30%) *)
let mc_reduction_floor = 2.0

let run_mc_bench ~nprocs ~budget ~budget2 ~out =
  Format.printf "mc bench: n=%d budgets=%d,%d (clock, async box)@." nprocs
    budget budget2;
  let point ~budget ~dpor ~engine ~tt =
    let case = mc_bench_box ~nprocs ~budget in
    let t0 = Pool.now () in
    let o = Mc.Driver.run ~dpor ~engine ~tt ~jobs:1 case in
    let wall = Pool.now () -. t0 in
    let dpe =
      float_of_int o.Mc.Driver.mc_deliveries
      /. float_of_int (max 1 o.Mc.Driver.mc_executions)
    in
    Format.printf
      "  e=%d %-6s %-11s %6d executions, %3d classes, %8d deliveries \
       (%5.2f/exec), %.3fs@."
      budget
      (if dpor then "dpor" else if tt then "naive+tt" else "naive")
      (match engine with
      | Mc.Explore.Incremental -> "incremental"
      | Mc.Explore.Replay -> "replay")
      o.Mc.Driver.mc_executions
      (List.length o.Mc.Driver.mc_classes)
      o.Mc.Driver.mc_deliveries dpe wall;
    (budget, dpor, engine, tt, o, wall)
  in
  (* the same class list must come out of every configuration that is
     supposed to agree: engines byte-identically (keys, representative
     schedules, verdicts), and naive+tt against the exhaustive naive *)
  let signature (o : Mc.Driver.outcome) =
    ( List.map
        (fun (c : Mc.Explore.class_rec) ->
          (c.Mc.Explore.cl_key, c.Mc.Explore.cl_choices))
        o.Mc.Driver.mc_classes,
      Mc.Mc_report.render_verdicts o )
  in
  let failures = ref 0 in
  let require cond msg =
    if not cond then begin
      Format.eprintf "error: %s@." msg;
      incr failures
    end
  in
  let check_budget ~budget ~exhaustive =
    let inc =
      point ~budget ~dpor:true ~engine:Mc.Explore.Incremental ~tt:true
    in
    let rep = point ~budget ~dpor:true ~engine:Mc.Explore.Replay ~tt:true in
    let ntt =
      point ~budget ~dpor:false ~engine:Mc.Explore.Incremental ~tt:true
    in
    let _, _, _, _, oi, wi = inc and _, _, _, _, orp, wr = rep in
    let _, _, _, _, ont, _ = ntt in
    require
      (signature oi = signature orp)
      (Printf.sprintf "e=%d: incremental and replay engines disagree" budget);
    let dpe =
      float_of_int oi.Mc.Driver.mc_deliveries
      /. float_of_int (max 1 oi.Mc.Driver.mc_executions)
    in
    require
      (dpe <= 1.5 *. float_of_int budget)
      (Printf.sprintf
         "e=%d: incremental engine still replays (%.2f deliveries/exec > \
          1.5x budget)"
         budget dpe);
    let speedup = wr /. wi in
    Format.printf "  e=%d incremental speedup over replay: %.2fx (full battery)@."
      budget speedup;
    let naive =
      if exhaustive then begin
        let full =
          point ~budget ~dpor:false ~engine:Mc.Explore.Incremental ~tt:false
        in
        let _, _, _, _, ofl, _ = full in
        require
          (signature ont = signature ofl)
          (Printf.sprintf "e=%d: the transposition table lost classes" budget);
        require
          (Mc.Mc_report.render_verdicts oi = Mc.Mc_report.render_verdicts ofl)
          (Printf.sprintf "e=%d: dpor and naive verdicts disagree" budget);
        require
          (float_of_int ofl.Mc.Driver.mc_executions
          > float_of_int oi.Mc.Driver.mc_executions)
          (Printf.sprintf "e=%d: dpor failed to reduce" budget);
        [ full ]
      end
      else begin
        (* at the bigger budget the exhaustive naive run is too slow to
           repeat on every bench; table-pruned naive stands in, checked
           against dpor's class keys (both are sound reductions) *)
        require
          (List.map
             (fun (c : Mc.Explore.class_rec) -> c.Mc.Explore.cl_key)
             ont.Mc.Driver.mc_classes
          = List.map
              (fun (c : Mc.Explore.class_rec) -> c.Mc.Explore.cl_key)
              oi.Mc.Driver.mc_classes)
          (Printf.sprintf "e=%d: naive+tt and dpor class keys differ" budget);
        []
      end
    in
    ((inc, speedup), ([ inc; rep; ntt ] @ naive))
  in
  let (inc1, _speed1), pts1 = check_budget ~budget ~exhaustive:true in
  let (_inc2, _speed2), pts2 = check_budget ~budget:budget2 ~exhaustive:false in
  let points = pts1 @ pts2 in
  (* Search-only walls (oracle battery off), min of five: the engine
     comparison and the pinned-baseline reduction are measured on the
     search itself — the thing the engine rewrite changes — with the
     oracle battery's per-class cost out of the frame. *)
  let search_wall ~budget ~engine =
    let case = mc_bench_box ~nprocs ~budget in
    let best = ref infinity in
    for _ = 1 to 5 do
      let t0 = Pool.now () in
      ignore (Mc.Driver.run ~oracles:[] ~dpor:true ~engine ~jobs:1 case);
      best := min !best (Pool.now () -. t0)
    done;
    !best
  in
  let search =
    List.map
      (fun b ->
        let wi = search_wall ~budget:b ~engine:Mc.Explore.Incremental in
        let wr = search_wall ~budget:b ~engine:Mc.Explore.Replay in
        let base = List.assoc_opt b mc_baseline_search_wall_s in
        let red = Option.map (fun w -> w /. wi) base in
        Format.printf
          "  e=%d search: incremental %.4fs, replay %.4fs (%.2fx)%s@." b wi wr
          (wr /. wi)
          (match red with
          | Some r ->
              Printf.sprintf ", %.2fx vs stateless checker @%s" r
                mc_baseline_commit
          | None -> "");
        (b, wi, wr, red))
      [ budget; budget2 ]
  in
  List.iter
    (fun (b, wi, wr, red) ->
      require
        (wr /. wi >= 1.5)
        (Printf.sprintf
           "e=%d: incremental engine not clearly faster than replay on the \
            search (%.4fs vs %.4fs)"
           b wi wr);
      match red with
      | Some r when b = budget2 ->
          require (r >= mc_reduction_floor)
            (Printf.sprintf
               "e=%d: search reduction vs the stateless checker fell to \
                %.2fx (floor %.1fx)"
               b r mc_reduction_floor)
      | _ -> ())
    search;
  let _, _, _, _, od, _ = inc1 in
  (* compat fields against the exhaustive naive baseline at the small
     budget, as the pre-engine bench recorded them *)
  let ratio =
    match
      List.find_opt (fun (_, dpor, _, tt, _, _) -> (not dpor) && not tt) pts1
    with
    | Some (_, _, _, _, ofl, _) ->
        float_of_int ofl.Mc.Driver.mc_executions
        /. float_of_int od.Mc.Driver.mc_executions
    | None -> 1.0
  in
  Format.printf "  reduction ratio at e=%d: %.2fx@." budget ratio;
  let buf = Buffer.create 1024 in
  Printf.bprintf buf "{\n";
  Printf.bprintf buf "  \"bench\": \"mc\",\n";
  Printf.bprintf buf "  \"box\": %S,\n"
    (Fuzz.Replay.to_string (mc_bench_box ~nprocs ~budget));
  Printf.bprintf buf "  \"verdicts_agree\": %b,\n" (!failures = 0);
  Printf.bprintf buf "  \"reduction_ratio\": %.4f,\n" ratio;
  (match search with
  | [ (_, w1, r1, _); (_, w2, r2, _) ] ->
      Printf.bprintf buf
        "  \"speedup_vs_replay\": { \"e%d\": %.2f, \"e%d\": %.2f },\n" budget
        (r1 /. w1) budget2 (r2 /. w2)
  | _ -> ());
  Printf.bprintf buf "  \"search\": [\n";
  let ns = List.length search in
  List.iteri
    (fun i (b, wi, wr, _) ->
      Printf.bprintf buf
        "    { \"budget\": %d, \"incremental_wall_s\": %.4f, \
         \"replay_wall_s\": %.4f, \"speedup\": %.2f }%s\n"
        b wi wr (wr /. wi)
        (if i = ns - 1 then "" else ","))
    search;
  Printf.bprintf buf "  ],\n";
  Printf.bprintf buf "  \"baseline\": { \"commit\": %S, \"wall_s\": { %s }, \
                      \"reduction\": { %s } },\n"
    mc_baseline_commit
    (String.concat ", "
       (List.filter_map
          (fun (b, _, _, _) ->
            Option.map
              (fun w -> Printf.sprintf "\"e%d\": %.4f" b w)
              (List.assoc_opt b mc_baseline_search_wall_s))
          search))
    (String.concat ", "
       (List.filter_map
          (fun (b, _, _, red) ->
            Option.map (fun r -> Printf.sprintf "\"e%d\": %.2f" b r) red)
          search));
  Printf.bprintf buf "  \"series\": [\n";
  let n = List.length points in
  List.iteri
    (fun i (b, dpor, engine, tt, (o : Mc.Driver.outcome), wall) ->
      let dpe =
        float_of_int o.Mc.Driver.mc_deliveries
        /. float_of_int (max 1 o.Mc.Driver.mc_executions)
      in
      Printf.bprintf buf
        "    { \"budget\": %d, \"mode\": %S, \"engine\": %S, \"tt\": %b, \
         \"executions\": %d, \"classes\": %d, \"sleep_blocked\": %d, \
         \"deliveries\": %d, \"deliveries_per_exec\": %.2f, \
         \"replay_overhead\": %.2f, \"undos\": %d, \"tt_hits\": %d, \
         \"wall_s\": %.4f, \"states_per_s\": %.1f }%s\n"
        b
        (if dpor then "dpor" else "naive")
        (match engine with
        | Mc.Explore.Incremental -> "incremental"
        | Mc.Explore.Replay -> "replay")
        tt o.Mc.Driver.mc_executions
        (List.length o.Mc.Driver.mc_classes)
        o.Mc.Driver.mc_sleep_blocked o.Mc.Driver.mc_deliveries dpe
        (dpe /. float_of_int b)
        o.Mc.Driver.mc_undos o.Mc.Driver.mc_tt_hits wall
        (float_of_int o.Mc.Driver.mc_executions /. wall)
        (if i = n - 1 then "" else ","))
    points;
  Printf.bprintf buf "  ]\n}\n";
  write_file out (Buffer.contents buf);
  Format.printf "  written to %s@." out;
  if !failures <> 0 then exit 1

(* ------------------------------------------------------------------ *)
(* Observability overhead: the 100-case Z1 campaign with the tracing
   hooks compiled in but disabled, against the pre-instrumentation
   baseline recorded on this container (commit f951333, min of three
   runs).  The bar is < 3% wall overhead: every instrumentation site
   is guarded by one Atomic.t read and allocates nothing when off.
   Run-to-run noise here is the same order as the bar (~2%), so both
   sides of the comparison are min-of-three.  Also records the
   enabled-mode run (events, digest, cost) and per-emit micro costs. *)

let obs_baseline_wall_s = 4.787
let obs_baseline_alloc_mwords = 307.0
let obs_overhead_budget_pct = 3.0

let run_obs_bench ~out =
  Format.printf
    "obs series: 100-case Z1 campaign, tracing disabled vs enabled@.";
  let campaign () =
    let alloc0 = Gc.allocated_bytes () in
    let t0 = Pool.now () in
    let o = Fuzz.Campaign.run ~shrink:false ~cases:100 ~seed:1 ~jobs:1 () in
    let wall = Pool.now () -. t0 in
    let alloc_mwords = (Gc.allocated_bytes () -. alloc0) /. 8.0 /. 1e6 in
    (o, wall, alloc_mwords)
  in
  let runs = List.init 3 (fun _ -> campaign ()) in
  let dis_wall =
    List.fold_left (fun acc (_, w, _) -> min acc w) infinity runs
  in
  let dis_alloc =
    List.fold_left (fun acc (_, _, a) -> min acc a) infinity runs
  in
  let overhead_pct = ((dis_wall /. obs_baseline_wall_s) -. 1.0) *. 100.0 in
  Format.printf
    "  disabled: %.3fs min-of-3 (baseline %.3fs, %+.2f%% overhead), %.1f \
     Mwords (baseline %.1f)@."
    dis_wall obs_baseline_wall_s overhead_pct dis_alloc
    obs_baseline_alloc_mwords;
  let (_, en_wall, en_alloc), trace = Obs.capture campaign in
  let events = Array.length trace.Obs.t_events in
  let dg = Obs.digest trace in
  Format.printf
    "  enabled:  %.3fs, %.1f Mwords, %d events (%d dropped), digest %s@."
    en_wall en_alloc events trace.Obs.t_dropped dg;
  (* Per-emit micro costs, hand-timed (the quantities are far apart:
     the disabled site is one atomic load, the enabled one allocates
     an event record). *)
  let ns_per n f =
    let t0 = Pool.now () in
    for _ = 1 to n do
      f ()
    done;
    (Pool.now () -. t0) /. float_of_int n *. 1e9
  in
  let micro_disabled_ns =
    ns_per 10_000_000 (fun () ->
        if Obs.on () then Obs.instant "bench" "x" [ ("i", Obs.I 1) ])
  in
  Obs.start ~capacity:(1 lsl 16) ();
  let micro_enabled_ns =
    ns_per 1_000_000 (fun () ->
        if Obs.on () then Obs.instant "bench" "x" [ ("i", Obs.I 1) ])
  in
  ignore (Obs.drain ());
  Format.printf "  per-site: %.2f ns disabled, %.1f ns enabled@."
    micro_disabled_ns micro_enabled_ns;
  let buf = Buffer.create 1024 in
  Printf.bprintf buf
    "{\n\
    \  \"bench\": \"obs\",\n\
    \  \"campaign\": {\"cases\": 100, \"seed\": 1, \"jobs\": 1},\n\
    \  \"disabled\": {\n\
    \    \"wall_s_min3\": %.3f,\n\
    \    \"alloc_mwords_min3\": %.1f,\n\
    \    \"baseline_wall_s\": %.3f,\n\
    \    \"baseline_alloc_mwords\": %.1f,\n\
    \    \"overhead_pct\": %.2f,\n\
    \    \"budget_pct\": %.1f\n\
    \  },\n\
    \  \"enabled\": {\n\
    \    \"wall_s\": %.3f,\n\
    \    \"alloc_mwords\": %.1f,\n\
    \    \"events\": %d,\n\
    \    \"dropped\": %d,\n\
    \    \"digest\": %S\n\
    \  },\n\
    \  \"per_site_ns\": {\"disabled\": %.2f, \"enabled\": %.1f}\n\
     }\n"
    dis_wall dis_alloc obs_baseline_wall_s obs_baseline_alloc_mwords
    overhead_pct obs_overhead_budget_pct en_wall en_alloc events
    trace.Obs.t_dropped dg micro_disabled_ns micro_enabled_ns;
  write_file out (Buffer.contents buf);
  Format.printf "  series written to %s@." out;
  if overhead_pct >= obs_overhead_budget_pct then begin
    Format.eprintf "error: disabled-tracing overhead %.2f%% >= %.1f%%@."
      overhead_pct obs_overhead_budget_pct;
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Dist series: the same campaign serially, sharded across worker
   subprocesses, and sharded under a nemesis that kills one worker and
   corrupts another's stream.  The number that matters is boolean —
   all three reports byte-identical — with the walls recorded so a
   dispatch-overhead regression is visible in the series. *)

let dist_nemesis_spec = "kill:0@1,corrupt:1@1"

let run_dist_bench ~cases ~seed ~shards ~out =
  Format.printf
    "dist series: serial vs %d-shard subprocess campaign, cases=%d seed=%d@."
    shards cases seed;
  let time f =
    let t0 = Pool.now () in
    let r = f () in
    (r, Pool.now () -. t0)
  in
  let serial, serial_wall =
    time (fun () ->
        Fuzz.Campaign.run ~oracles:Fuzz.Oracle.registry ~shrink:true ~jobs:1
          ~cases ~seed ())
  in
  let serial_r = Fuzz.Report.render serial in
  Format.printf "  serial:            %.2fs@." serial_wall;
  let shard_run ~nemesis =
    let cfg = Dist.Supervisor.make_config ~nemesis ~shards () in
    time (fun () ->
        Dist.Supervisor.run_fuzz ~quiet:true cfg ~seed ~cases ~boundary:false
          ~shrink:true ~oracles:None ())
  in
  let sharded, sharded_wall = shard_run ~nemesis:Dist.Nemesis.none in
  let identical = Fuzz.Report.render sharded = serial_r in
  Format.printf "  %d shards:          %.2fs, byte-identical: %b@." shards
    sharded_wall identical;
  let nemesis =
    match Dist.Nemesis.parse dist_nemesis_spec with
    | Ok n -> n
    | Error e -> failwith e
  in
  let nem, nem_wall = shard_run ~nemesis in
  let nem_identical = Fuzz.Report.render nem = serial_r in
  Format.printf "  %d shards + nemesis: %.2fs, byte-identical: %b@." shards
    nem_wall nem_identical;
  let buf = Buffer.create 512 in
  Printf.bprintf buf
    "{\n\
    \  \"bench\": \"dist\",\n\
    \  \"campaign\": {\"cases\": %d, \"seed\": %d, \"shards\": %d},\n\
    \  \"serial_wall_s\": %.3f,\n\
    \  \"sharded_wall_s\": %.3f,\n\
    \  \"nemesis\": %S,\n\
    \  \"nemesis_wall_s\": %.3f,\n\
    \  \"identical\": %b,\n\
    \  \"nemesis_identical\": %b\n\
     }\n"
    cases seed shards serial_wall sharded_wall dist_nemesis_spec nem_wall
    identical nem_identical;
  write_file out (Buffer.contents buf);
  Format.printf "  series written to %s@." out;
  if not (identical && nem_identical) then begin
    Format.eprintf "error: sharded report diverged from the serial one@.";
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* net: transport series.  Raw framing throughput over each byte
   stream the shard protocol can ride (pipe pair, Unix-domain socket,
   localhost TCP), then the same small campaign run over each
   transport with per-unit round-trip wall — and the only number that
   gates: all reports byte-identical to the serial run. *)

let net_frame_count = 20_000

(* frames/sec through one transport: a writer domain pushes
   [net_frame_count] heartbeat frames in batches, the main domain
   parses them back out of the stream. *)
let frames_per_sec mk =
  let wr, rd, cleanup = mk () in
  let one = Dist.Frame.encode Dist.Frame.M_heartbeat in
  let batch = String.concat "" (List.init 100 (fun _ -> one)) in
  let t0 = Pool.now () in
  let writer =
    Domain.spawn (fun () ->
        for _ = 1 to net_frame_count / 100 do
          Net.Transport.write wr batch
        done)
  in
  let p = Dist.Frame.parser_create () in
  let buf = Bytes.create 65536 in
  let got = ref 0 in
  while !got < net_frame_count do
    let n = Net.Transport.read rd buf 0 65536 in
    if n = 0 then failwith "net bench: unexpected EOF";
    Dist.Frame.feed p buf n;
    let rec drain () =
      match Dist.Frame.next p with
      | Ok (Some _) ->
          incr got;
          drain ()
      | Ok None -> ()
      | Error e -> failwith ("net bench: " ^ e)
    in
    drain ()
  done;
  Domain.join writer;
  let wall = Pool.now () -. t0 in
  cleanup ();
  float_of_int net_frame_count /. wall

let mk_pipe_wire () =
  let r, w = Unix.pipe () in
  let t = Net.Transport.of_pipe ~read_fd:r ~write_fd:w in
  (t, t, fun () -> Net.Transport.close t)

let mk_unix_wire () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let ta = Net.Transport.of_fd a ~peer:"bench-a" in
  let tb = Net.Transport.of_fd b ~peer:"bench-b" in
  ( ta,
    tb,
    fun () ->
      Net.Transport.close ta;
      Net.Transport.close tb )

let mk_tcp_wire () =
  let l =
    match Net.Transport.listen (Net.Transport.Tcp ("127.0.0.1", 0)) with
    | Ok l -> l
    | Error e -> failwith e
  in
  let c =
    match Net.Transport.connect (Net.Transport.bound_addr l) with
    | Ok c -> c
    | Error e -> failwith e
  in
  let s =
    match Net.Transport.accept l with Ok s -> s | Error e -> failwith e
  in
  Net.Transport.close_listener l;
  ( c,
    s,
    fun () ->
      Net.Transport.close c;
      Net.Transport.close s )

(* a free localhost port: bind 0, read it back, release it *)
let free_tcp_port () =
  match Net.Transport.listen (Net.Transport.Tcp ("127.0.0.1", 0)) with
  | Error e -> failwith e
  | Ok l -> (
      let a = Net.Transport.bound_addr l in
      Net.Transport.close_listener l;
      match a with Net.Transport.Tcp (_, p) -> p | _ -> assert false)

let spawn_serve_worker ~id ~addr =
  let binding =
    Dist.Worker.env_binding ~id ~mode:Dist.Worker.Listen ~addr
      ~nemesis:Dist.Nemesis.none ~once:true ()
  in
  let env = Array.append (Unix.environment ()) [| binding |] in
  let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0o644 in
  let pid =
    Unix.create_process_env Sys.executable_name
      [| Sys.executable_name |]
      env Unix.stdin null null
  in
  Unix.close null;
  pid

let run_net_bench ~cases ~seed ~out =
  Format.printf
    "net series: framing throughput + campaign RTT per transport, cases=%d \
     seed=%d@."
    cases seed;
  let fps_pipe = frames_per_sec mk_pipe_wire in
  let fps_unix = frames_per_sec mk_unix_wire in
  let fps_tcp = frames_per_sec mk_tcp_wire in
  Format.printf
    "  frames/sec:        pipe %.0f, unix-socket %.0f, localhost tcp %.0f@."
    fps_pipe fps_unix fps_tcp;
  let time f =
    let t0 = Pool.now () in
    let r = f () in
    (r, Pool.now () -. t0)
  in
  let serial_r =
    Fuzz.Report.render
      (Fuzz.Campaign.run ~oracles:Fuzz.Oracle.registry ~shrink:true ~jobs:1
         ~cases ~seed ())
  in
  let nunits = (cases + 15) / 16 in
  let campaign ?(endpoints = []) () =
    let cfg = Dist.Supervisor.make_config ~shards:2 ~endpoints () in
    let report, wall =
      time (fun () ->
          Dist.Supervisor.run_fuzz ~quiet:true cfg ~seed ~cases
            ~boundary:false ~shrink:true ~oracles:None ())
    in
    (Fuzz.Report.render report = serial_r, wall /. float_of_int nunits)
  in
  let over_serve_fleet addrs k =
    let pids =
      List.mapi (fun i addr -> spawn_serve_worker ~id:(i + 1) ~addr) addrs
    in
    Fun.protect
      ~finally:(fun () ->
        List.iter
          (fun pid ->
            (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
            try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
          pids)
      k
  in
  let pipe_ok, pipe_rtt = campaign () in
  Format.printf "  pipe workers:      %.1f ms/unit, identical: %b@."
    (pipe_rtt *. 1e3) pipe_ok;
  let sock_path i =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "abc_bench_net_%d_%d.sock" (Unix.getpid ()) i)
  in
  let unix_addrs = [ sock_path 1; sock_path 2 ] in
  List.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) unix_addrs;
  let unix_eps =
    List.map (fun p -> Net.Transport.Unix_sock p) unix_addrs
  in
  let unix_ok, unix_rtt =
    over_serve_fleet unix_eps (fun () ->
        campaign ~endpoints:(List.map (fun a -> (a, 1)) unix_eps) ())
  in
  List.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) unix_addrs;
  Format.printf "  unix-socket workers: %.1f ms/unit, identical: %b@."
    (unix_rtt *. 1e3) unix_ok;
  let tcp_eps =
    [
      Net.Transport.Tcp ("127.0.0.1", free_tcp_port ());
      Net.Transport.Tcp ("127.0.0.1", free_tcp_port ());
    ]
  in
  let tcp_ok, tcp_rtt =
    over_serve_fleet tcp_eps (fun () ->
        campaign ~endpoints:(List.map (fun a -> (a, 1)) tcp_eps) ())
  in
  Format.printf "  tcp workers:       %.1f ms/unit, identical: %b@."
    (tcp_rtt *. 1e3) tcp_ok;
  let buf = Buffer.create 512 in
  Printf.bprintf buf
    "{\n\
    \  \"bench\": \"net\",\n\
    \  \"campaign\": {\"cases\": %d, \"seed\": %d, \"shards\": 2, \"units\": \
     %d},\n\
    \  \"frames_per_sec\": {\"pipe\": %.0f, \"unix\": %.0f, \"tcp\": %.0f},\n\
    \  \"unit_rtt_ms\": {\"pipe\": %.2f, \"unix\": %.2f, \"tcp\": %.2f},\n\
    \  \"identical\": {\"pipe\": %b, \"unix\": %b, \"tcp\": %b}\n\
     }\n"
    cases seed nunits fps_pipe fps_unix fps_tcp (pipe_rtt *. 1e3)
    (unix_rtt *. 1e3) (tcp_rtt *. 1e3) pipe_ok unix_ok tcp_ok;
  write_file out (Buffer.contents buf);
  Format.printf "  series written to %s@." out;
  if not (pipe_ok && unix_ok && tcp_ok) then begin
    Format.eprintf
      "error: a socket-sharded report diverged from the serial one@.";
    exit 1
  end

let usage () =
  prerr_endline
    "usage: main.exe [reports [SECTION...] [-j N]] | [pool [--cases N] \
     [--jobs N] [--seed N] [--out FILE]] | [rat [--out FILE]] | [byz [--out \
     FILE]] | [mc [--procs N] [--budget B] [--out FILE]] | [obs [--out \
     FILE]] | [dist [--cases N] [--seed N] [--shards N] [--out FILE]] | [net \
     [--cases N] [--seed N] [--out FILE]]";
  exit 2

let int_arg name = function
  | v :: rest -> (
      match int_of_string_opt v with
      | Some i -> (i, rest)
      | None ->
          Format.eprintf "error: %s expects an integer, got %S@." name v;
          exit 2)
  | [] ->
      Format.eprintf "error: %s expects an argument@." name;
      exit 2

let () =
  (* The dist supervisor re-executes whatever binary spawned it as its
     workers; this makes the bench harness self-hosting too. *)
  Dist.Worker.maybe_run ();
  match Array.to_list Sys.argv with
  | _ :: "reports" :: rest ->
      let rec go only jobs = function
        | [] -> run_reports ~jobs ~only:(List.rev only) ()
        | ("-j" | "--jobs") :: rest ->
            let j, rest = int_arg "--jobs" rest in
            go only (max 1 j) rest
        | id :: rest when String.length id > 0 && id.[0] <> '-' ->
            go (id :: only) jobs rest
        | _ -> usage ()
      in
      go [] 1 rest
  | _ :: "pool" :: rest ->
      let rec go ~cases ~jobs ~seed ~out = function
        | [] -> run_pool_bench ~seed ~cases ~jobs ~out
        | "--cases" :: rest ->
            let cases, rest = int_arg "--cases" rest in
            go ~cases ~jobs ~seed ~out rest
        | ("-j" | "--jobs") :: rest ->
            let jobs, rest = int_arg "--jobs" rest in
            go ~cases ~jobs:(max 1 jobs) ~seed ~out rest
        | "--seed" :: rest ->
            let seed, rest = int_arg "--seed" rest in
            go ~cases ~jobs ~seed ~out rest
        | "--out" :: file :: rest -> go ~cases ~jobs ~seed ~out:file rest
        | _ -> usage ()
      in
      go ~cases:200 ~jobs:(max 2 (Pool.recommended_jobs ())) ~seed:1
        ~out:"BENCH_pool.json" rest
  | _ :: "rat" :: rest ->
      let rec go ~out = function
        | [] -> run_rat_bench ~out
        | "--out" :: file :: rest -> go ~out:file rest
        | _ -> usage ()
      in
      go ~out:"BENCH_rat.json" rest
  | _ :: "byz" :: rest ->
      let rec go ~out = function
        | [] -> run_byz_bench ~out
        | "--out" :: file :: rest -> go ~out:file rest
        | _ -> usage ()
      in
      go ~out:"BENCH_byz.json" rest
  | _ :: "mc" :: rest ->
      let rec go ~nprocs ~budget ~budget2 ~out = function
        | [] -> run_mc_bench ~nprocs ~budget ~budget2 ~out
        | "--procs" :: rest ->
            let nprocs, rest = int_arg "--procs" rest in
            go ~nprocs ~budget ~budget2 ~out rest
        | "--budget" :: rest ->
            let budget, rest = int_arg "--budget" rest in
            go ~nprocs ~budget ~budget2 ~out rest
        | "--budget2" :: rest ->
            let budget2, rest = int_arg "--budget2" rest in
            go ~nprocs ~budget ~budget2 ~out rest
        | "--out" :: file :: rest -> go ~nprocs ~budget ~budget2 ~out:file rest
        | _ -> usage ()
      in
      go ~nprocs:3 ~budget:6 ~budget2:8 ~out:"BENCH_mc.json" rest
  | _ :: "obs" :: rest ->
      let rec go ~out = function
        | [] -> run_obs_bench ~out
        | "--out" :: file :: rest -> go ~out:file rest
        | _ -> usage ()
      in
      go ~out:"BENCH_obs.json" rest
  | _ :: "dist" :: rest ->
      let rec go ~cases ~seed ~shards ~out = function
        | [] -> run_dist_bench ~cases ~seed ~shards ~out
        | "--cases" :: rest ->
            let cases, rest = int_arg "--cases" rest in
            go ~cases ~seed ~shards ~out rest
        | "--seed" :: rest ->
            let seed, rest = int_arg "--seed" rest in
            go ~cases ~seed ~shards ~out rest
        | "--shards" :: rest ->
            let shards, rest = int_arg "--shards" rest in
            go ~cases ~seed ~shards:(max 1 shards) ~out rest
        | "--out" :: file :: rest -> go ~cases ~seed ~shards ~out:file rest
        | _ -> usage ()
      in
      go ~cases:120 ~seed:1 ~shards:4 ~out:"BENCH_dist.json" rest
  | _ :: "net" :: rest ->
      let rec go ~cases ~seed ~out = function
        | [] -> run_net_bench ~cases ~seed ~out
        | "--cases" :: rest ->
            let cases, rest = int_arg "--cases" rest in
            go ~cases ~seed ~out rest
        | "--seed" :: rest ->
            let seed, rest = int_arg "--seed" rest in
            go ~cases ~seed ~out rest
        | "--out" :: file :: rest -> go ~cases ~seed ~out:file rest
        | _ -> usage ()
      in
      go ~cases:120 ~seed:1 ~out:"BENCH_net.json" rest
  | [ _ ] ->
      run_reports ();
      run_benchmarks ()
  | _ -> usage ()
