(* Benchmark & experiment harness.

   Regenerates every figure and theorem-bound of the paper (there are
   no measurement tables; the evaluation artifacts are the ten figures
   and the quantitative bounds of Theorems 1-7).  For each experiment
   id of DESIGN.md the harness prints the measured rows/series next to
   the paper's claim.  Timings live elsewhere: perfbench measures the
   benchmark's workloads, and the z1 entry point records the Z1
   campaign's wall, allocation and trace digest.

   Run with: dune exec bench/main.exe -- reports    (every report)
             dune exec bench/main.exe -- reports F1 F6 -j 4
                                        (selected sections, 4 workers)
             dune exec bench/main.exe -- z1 [--out FILE]
                                        (Z1 campaign record -> BENCH_z1.json)

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
          (fun (t : Digraph.traversal) -> t.edge.id = e)
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
        (Cyclespace.Vector.coeff s e);
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
    Pool.map ~jobs (Array.length sections) (fun i ->
        render_section (snd sections.(i)))
  in
  Format.print_flush ();
  Array.iter print_string rendered;
  pr "@.All experiment reports done.@.";
  Format.print_flush ()

(* ------------------------------------------------------------------ *)
(* Z1 record: the serial 100-case Z1 campaign (seed 1), once untraced
   and once under Obs.capture, written to BENCH_z1.json.  Exits 1 if
   either run finds a violation, or if disabled tracing costs 3% of
   the untraced wall.  That cost is estimated inside this binary, with
   no baseline from another build: the hand-timed cost of one disabled
   instrumentation site times the sites the traced run hit (its
   captured plus dropped events). *)

let z1_cases = 100
let z1_seed = 1
let z1_overhead_budget_pct = 3.0

let z1_campaign () =
  let alloc0 = Gc.allocated_bytes () in
  let t0 = Mclock.now () in
  let o = Fuzz.Campaign.run ~shrink:false ~cases:z1_cases ~seed:z1_seed ~jobs:1 () in
  let wall = Mclock.now () -. t0 in
  (List.length o.Fuzz.Campaign.cp_failures, wall, (Gc.allocated_bytes () -. alloc0) /. 8.0 /. 1e6)

(* ns per disabled site (one atomic load and a branch), averaged over
   10M iterations *)
let disabled_site_ns () =
  let n = 10_000_000 in
  let t0 = Mclock.now () in
  for _ = 1 to n do
    if Obs.on () then Obs.instant "bench" "x" [ ("i", Obs.I 1) ]
  done;
  (Mclock.now () -. t0) /. float_of_int n *. 1e9

let run_z1 ~out =
  Format.printf "z1: serial %d-case Z1 campaign, seed %d, untraced then traced@." z1_cases
    z1_seed;
  let failures, wall, alloc = z1_campaign () in
  Format.printf "  untraced: %.3fs, %.1f Mwords, %d failures@." wall alloc failures;
  let (t_failures, t_wall, t_alloc), trace = Obs.capture z1_campaign in
  let events = Array.length trace.Obs.t_events and dropped = trace.Obs.t_dropped in
  let digest = Obs.digest trace in
  Format.printf "  traced:   %.3fs, %.1f Mwords, %d failures, %d events (%d dropped), digest %s@."
    t_wall t_alloc t_failures events dropped digest;
  let site_ns = disabled_site_ns () in
  let overhead_pct = float_of_int (events + dropped) *. site_ns *. 1e-9 /. wall *. 100.0 in
  Format.printf "  disabled tracing: %.2f ns/site x %d sites = %.4f%% of the untraced wall@."
    site_ns (events + dropped) overhead_pct;
  let oc = open_out out in
  Printf.fprintf oc
    "{\n\
    \  \"bench\": \"z1\",\n\
    \  \"campaign\": {\"cases\": %d, \"seed\": %d, \"jobs\": 1, \"shrink\": false},\n\
    \  \"untraced\": {\"wall_s\": %.3f, \"alloc_mwords\": %.1f, \"failures\": %d},\n\
    \  \"traced\": {\"wall_s\": %.3f, \"alloc_mwords\": %.1f, \"failures\": %d, \
     \"events\": %d, \"dropped\": %d, \"digest\": %S},\n\
    \  \"disabled_site_ns\": %.2f,\n\
    \  \"overhead_pct\": %.4f,\n\
    \  \"budget_pct\": %.1f\n\
     }\n"
    z1_cases z1_seed wall alloc failures t_wall t_alloc t_failures events dropped digest
    site_ns overhead_pct z1_overhead_budget_pct;
  close_out oc;
  Format.printf "  written to %s@." out;
  if failures + t_failures <> 0 then begin
    Format.eprintf "error: the Z1 campaign found violations@.";
    exit 1
  end;
  if overhead_pct >= z1_overhead_budget_pct then begin
    Format.eprintf "error: disabled-tracing overhead %.4f%% >= %.1f%%@." overhead_pct
      z1_overhead_budget_pct;
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Argument parsing: no cmdliner here (the harness predates it and the
   grammar is a few words); unknown flags fail loudly. *)

let usage () =
  prerr_endline "usage: main.exe reports [SECTION...] [-j N] | z1 [--out FILE]";
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
  | _ :: "z1" :: rest ->
      let rec go ~out = function
        | [] -> run_z1 ~out
        | "--out" :: file :: rest -> go ~out:file rest
        | _ -> usage ()
      in
      go ~out:"BENCH_z1.json" rest
  | _ -> usage ()
