(* Tests for Algorithm 1 (clock synchronization): Theorems 1-4 and
   Lemma 4, under Θ and targeted schedulers, with crash and Byzantine
   faults. *)

open Core

let xi a b = Rat.of_ints a b
let q = Rat.of_ints

let run ?(seed = 7) ?(nprocs = 4) ?(f = 1) ?(max_events = 400)
    ?(faults = None) ?(byz = None) ?(tau = (1, 2)) () =
  let rng = Random.State.make [| seed |] in
  let tau_minus, tau_plus = tau in
  let scheduler =
    Sim.theta_scheduler ~rng ~tau_minus:(q tau_minus 1) ~tau_plus:(q tau_plus 1) ()
  in
  let faults =
    match faults with Some fs -> fs | None -> Array.make nprocs Sim.Correct
  in
  let cfg =
    Sim.make_config ?byzantine:byz ~nprocs ~algorithm:(Clock_sync.algorithm ~f) ~faults
      ~scheduler ~max_events ()
  in
  Sim.run cfg

let correct_of faults =
  List.filter (fun p -> faults.(p) = Sim.Correct) (List.init (Array.length faults) Fun.id)

let unit_tests =
  [
    Alcotest.test_case "thm1: progress, fault-free n=4" `Quick (fun () ->
        let result = run () in
        Array.iter
          (fun st ->
            Alcotest.(check bool) "clock grew" true (Clock_sync.clock st > 5))
          result.Sim.final_states);
    Alcotest.test_case "thm1: progress with f=1 crash, n=4" `Quick (fun () ->
        let faults = [| Sim.Correct; Sim.Correct; Sim.Correct; Sim.Crash 3 |] in
        let result = run ~faults:(Some faults) () in
        List.iter
          (fun p ->
            Alcotest.(check bool) "correct clock grew" true
              (Clock_sync.clock result.Sim.final_states.(p) > 5))
          (correct_of faults));
    Alcotest.test_case "thm1: progress with f=1 byzantine rusher, n=4" `Quick (fun () ->
        let faults = [| Sim.Correct; Sim.Correct; Sim.Correct; Sim.Byzantine "rush" |] in
        let result =
          run ~faults:(Some faults) ~byz:(Some (fun _ -> Clock_sync.byzantine_rusher ~ahead:7)) ()
        in
        List.iter
          (fun p ->
            Alcotest.(check bool) "correct clock grew" true
              (Clock_sync.clock result.Sim.final_states.(p) > 5))
          (correct_of faults));
    Alcotest.test_case "thm2: skew on cuts <= 2Xi (fault-free)" `Quick (fun () ->
        (* Θ scheduler with ratio 2; any Xi > 2 admits the execution *)
        let result = run ~max_events:250 () in
        let x = xi 5 2 in
        let input = { Clock_sync.result; correct = [ 0; 1; 2; 3 ]; xi = x } in
        let bound = Rat.floor_int (Rat.mul Rat.two x) in
        let skew = Clock_sync.max_skew_on_cuts input in
        Alcotest.(check bool)
          (Printf.sprintf "skew %d <= %d" skew bound)
          true (skew <= bound));
    Alcotest.test_case "thm2: skew bound with byzantine rusher" `Quick (fun () ->
        let faults = [| Sim.Correct; Sim.Correct; Sim.Correct; Sim.Byzantine "rush" |] in
        let result =
          run ~faults:(Some faults) ~max_events:250
            ~byz:(Some (fun _ -> Clock_sync.byzantine_rusher ~ahead:9)) ()
        in
        let x = xi 5 2 in
        let input = { Clock_sync.result; correct = [ 0; 1; 2 ]; xi = x } in
        let skew = Clock_sync.max_skew_on_cuts input in
        Alcotest.(check bool) "skew <= 2Xi" true (skew <= Rat.floor_int (Rat.mul Rat.two x)));
    Alcotest.test_case "thm3: real-time skew <= 2Xi" `Quick (fun () ->
        let result = run ~max_events:250 () in
        let x = xi 5 2 in
        let input = { Clock_sync.result; correct = [ 0; 1; 2; 3 ]; xi = x } in
        let skew = Clock_sync.max_skew_realtime input in
        Alcotest.(check bool) "skew <= 2Xi" true (skew <= Rat.floor_int (Rat.mul Rat.two x)));
    Alcotest.test_case "the execution is ABC-admissible for Xi > Theta" `Quick (fun () ->
        let result = run ~max_events:200 () in
        Alcotest.(check bool) "admissible" true
          (Execgraph.Abc_check.is_admissible result.Sim.graph ~xi:(xi 5 2)));
    Alcotest.test_case "lemma 4: causal cone holds" `Quick (fun () ->
        let result = run ~max_events:250 () in
        let input = { Clock_sync.result; correct = [ 0; 1; 2; 3 ]; xi = xi 5 2 } in
        let checked, violations = Clock_sync.causal_cone_violations input in
        Alcotest.(check bool) "nontrivial" true (checked > 0);
        Alcotest.(check int) "no violations" 0 (List.length violations));
    Alcotest.test_case "lemma 4: causal cone with crash + byzantine mix" `Quick (fun () ->
        let faults =
          [| Sim.Correct; Sim.Correct; Sim.Correct; Sim.Correct; Sim.Correct; Sim.Crash 10; Sim.Byzantine "rush" |]
        in
        let result =
          run ~nprocs:7 ~f:2 ~faults:(Some faults) ~max_events:500
            ~byz:(Some (fun _ -> Clock_sync.byzantine_rusher ~ahead:5)) ()
        in
        let input =
          { Clock_sync.result; correct = [ 0; 1; 2; 3; 4 ]; xi = xi 5 2 }
        in
        let checked, violations = Clock_sync.causal_cone_violations input in
        Alcotest.(check bool) "nontrivial" true (checked > 0);
        Alcotest.(check int) "no violations" 0 (List.length violations));
    Alcotest.test_case "thm4: bounded progress rho = 4Xi+1" `Quick (fun () ->
        let result = run ~max_events:220 () in
        let input = { Clock_sync.result; correct = [ 0; 1; 2; 3 ]; xi = xi 5 2 } in
        let checked, violations = Clock_sync.bounded_progress_violations input in
        Alcotest.(check bool) "nontrivial" true (checked > 0);
        Alcotest.(check int) "no violations" 0 (List.length violations));
  ]

let prop name count arb f = QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb f)

let arb_seed = QCheck.make ~print:string_of_int QCheck.Gen.(int_range 0 100000)

let property_tests =
  [
    prop "thm2 skew bound across seeds and fault mixes" 15 arb_seed (fun seed ->
        let faults =
          match seed mod 3 with
          | 0 -> [| Sim.Correct; Sim.Correct; Sim.Correct; Sim.Correct |]
          | 1 -> [| Sim.Correct; Sim.Correct; Sim.Correct; Sim.Crash (seed mod 7) |]
          | _ -> [| Sim.Correct; Sim.Correct; Sim.Correct; Sim.Byzantine "rush" |]
        in
        let byz =
          if Array.exists (function Sim.Byzantine _ -> true | _ -> false) faults then
            Some (fun _ -> Clock_sync.byzantine_rusher ~ahead:(1 + (seed mod 6)))
          else None
        in
        let result = run ~seed ~faults:(Some faults) ~byz ~max_events:200 () in
        let correct = correct_of faults in
        let x = xi 5 2 in
        let input = { Clock_sync.result; correct; xi = x } in
        Clock_sync.max_skew_on_cuts input <= Rat.floor_int (Rat.mul Rat.two x));
    prop "lemma 4 across seeds" 10 arb_seed (fun seed ->
        let result = run ~seed ~max_events:180 () in
        let input = { Clock_sync.result; correct = [ 0; 1; 2; 3 ]; xi = xi 5 2 } in
        snd (Clock_sync.causal_cone_violations input) = []);
  ]

(* ------------------------------------------------------------------ *)
(* The one-pass Theorem 2 skew against the closure-based reference *)

let check_skews label result ~correct =
  let input = { Clock_sync.result; correct; xi = xi 2 1 } in
  Alcotest.(check int) label
    (Clock_sync.max_skew_on_cuts_reference input)
    (Clock_sync.max_skew_on_cuts input)

(* Run every clock case the generator draws for seeds [0, seeds), its
   budget capped at [cap] so the quadratic reference stays cheap, and
   compare the two skews; returns the scheduler families, fault kinds
   and plans the sample covered. *)
let generated_skews ~generate ~seeds ~cap =
  let covered = ref [] in
  let note k = if not (List.mem k !covered) then covered := k :: !covered in
  for seed = 0 to seeds - 1 do
    let c = generate ~seed in
    if c.Fuzz.Gen.c_workload = Fuzz.Gen.W_clock then begin
      note (Fuzz.Gen.family_name c.Fuzz.Gen.c_sched);
      Array.iter
        (function
          | Sim.Crash _ -> note "crash"
          | Sim.Receive_omission _ -> note "receive-omission"
          | Sim.Recover _ -> note "recover"
          | Sim.Byzantine _ -> note "byzantine"
          | _ -> ())
        c.Fuzz.Gen.c_faults;
      if c.Fuzz.Gen.c_plan <> [] then note "plan";
      match
        Fuzz.Gen.run_case { c with Fuzz.Gen.c_max_events = min cap c.Fuzz.Gen.c_max_events }
      with
      | Fuzz.Gen.R_clock result ->
          check_skews (Printf.sprintf "seed %d" seed) result ~correct:(Fuzz.Gen.correct_procs c)
      | _ -> Alcotest.fail "a clock case ran another workload"
    end
  done;
  !covered

(* Algorithm 1 on [n] processes under the given faults (byzantine ones
   drawn from the nemesis palette), replayed from a random choice
   sequence under a budget that may end the run before every wake-up. *)
let short_scheduled_run st =
  let n = 1 + Random.State.int st 5 in
  let f = (n - 1) / 3 in
  let faults =
    Array.init n (fun _ ->
        match Random.State.int st 8 with
        | 0 -> Sim.Crash (Random.State.int st 4)
        | 1 -> Sim.Receive_omission (1 + Random.State.int st 3)
        | 2 -> Sim.Recover (Random.State.int st 3, 1 + Random.State.int st 3)
        | 3 -> Byz.fault (List.nth Byz.palette (Random.State.int st (List.length Byz.palette)))
        | _ -> Sim.Correct)
  in
  let cfg =
    Sim.make_config
      ~byzantine:(fun p ->
        Byz.clock ~f (Option.value (Byz.of_fault faults.(p)) ~default:Byz.Silent))
      ~nprocs:n ~algorithm:(Clock_sync.algorithm ~f) ~faults
      ~scheduler:(Sim.constant_scheduler Rat.one)
      ~max_events:(Random.State.int st (4 * n))
      ()
  in
  let choices = Array.init (Random.State.int st 12) (fun _ -> Random.State.int st 6) in
  (Sim.run_scheduled cfg ~choices, correct_of faults)

let differential_tests =
  [
    Alcotest.test_case "one-pass skew = reference on generated clock cases" `Quick
      (fun () ->
        let covered = generated_skews ~generate:Fuzz.Gen.generate ~seeds:240 ~cap:150 in
        List.iter
          (fun k -> Alcotest.(check bool) ("the sample covers " ^ k) true (List.mem k covered))
          [
            "theta"; "async"; "growing"; "etheta"; "targeted"; "defer"; "crash";
            "receive-omission"; "recover"; "byzantine"; "plan";
          ]);
    Alcotest.test_case "one-pass skew = reference on boundary clock cases" `Quick
      (fun () ->
        let covered =
          generated_skews ~generate:Fuzz.Gen.generate_boundary ~seeds:40 ~cap:max_int
        in
        Alcotest.(check bool) "the sample has deferring clock cases" true
          (List.mem "defer" covered));
    Alcotest.test_case "one-pass skew = reference with one correct process and none" `Quick
      (fun () ->
        let result = run ~max_events:120 () in
        check_skews "one correct process" result ~correct:[ 2 ];
        check_skews "no correct process" result ~correct:[];
        Alcotest.(check int) "one correct process has no skew" 0
          (Clock_sync.max_skew_on_cuts { Clock_sync.result; correct = [ 2 ]; xi = xi 2 1 }));
    prop "one-pass skew = reference on scheduled runs cut short" 300 arb_seed (fun seed ->
        let result, correct = short_scheduled_run (Random.State.make [| seed |]) in
        let input = { Clock_sync.result; correct; xi = xi 2 1 } in
        Clock_sync.max_skew_on_cuts input = Clock_sync.max_skew_on_cuts_reference input);
  ]

let suite = unit_tests @ property_tests @ differential_tests
