(* Snapshot/undo correctness for Sim.Session — the contract the
   incremental exploration engine stands on.

   The qcheck property drives a recording session through a random
   interleaving of deliveries, snapshots and undos (choices random,
   undo depth random) and demands that the observable state — ready
   list with every info field, delivered/envelope counters, finished
   flag, and finally the terminal execution's faithful graph — is
   byte-identical to a fresh session that replays only the surviving
   choice stack.  Cases come from the fuzzer's full nemesis palette,
   so crashes, recovery, omission, byzantine strategies and fault
   plans are all under the journal.

   The unit tests pin the edges the property reaches rarely: undo
   across a crash boundary and across plan-level drops/misdirects,
   undo at every depth of walks past receive-omission, recovery and
   send-omission thresholds, undo out of a stop_when halt and from a
   budget-cut terminal, and the two misuse raises.  Terminal checks
   compare the whole result the oracles see: the graph, the trace and
   the delivered/posted/dropped/undelivered counters. *)

open Fuzz

let q = Rat.of_ints

let box ?(faults = [| Sim.Correct; Sim.Correct; Sim.Correct |]) ?(plan = [])
    ?(budget = 10) () =
  {
    Gen.c_seed = 1;
    c_nprocs = Array.length faults;
    c_faults = faults;
    c_xi = q 2 1;
    c_sched = Gen.S_async { max_delay = Rat.one };
    c_workload = Gen.W_clock;
    c_max_events = budget;
    c_plan = plan;
    c_boundary = false;
    c_schedule = [];
  }

let graph_dump g = Format.asprintf "%a" Execgraph.Graph.pp g

(* one trace entry: receiver, sender, time, faithful id, and "!" when
   the receiver did not process it *)
let entry_dump (te : _ Sim.trace_entry) =
  Printf.sprintf "%d<%d@%s%s%s" te.Sim.tr_proc te.Sim.tr_sender (Rat.to_string te.Sim.tr_time)
    (match te.Sim.tr_faithful_id with None -> "" | Some id -> Printf.sprintf "#%d" id)
    (if te.Sim.tr_processed then "" else "!")

(* the execution so far as the oracle battery sees it: the graph, the
   trace and the result's message counters *)
let run_dump (run : Gen.run) =
  let dump (r : (_, _) Sim.result) =
    Printf.sprintf "delivered=%d posted=%d dropped=%d undelivered=%d\nfaithful:\n%s\ntrace:\n%s"
      r.Sim.delivered r.Sim.posted r.Sim.dropped r.Sim.undelivered (graph_dump r.Sim.graph)
      (String.concat " " (Array.to_list (Array.map entry_dump r.Sim.trace)))
  in
  match run with
  | Gen.R_clock r -> dump r
  | Gen.R_lockstep r -> dump r
  | Gen.R_consensus (r, _) -> dump r

(* everything an explorer can see of a session, rendered *)
let observe (s : Gen.mc_session) =
  Printf.sprintf "delivered=%d envelopes=%d finished=%b ready=[%s]"
    (s.Gen.ms_delivered ()) (s.Gen.ms_envelopes ()) (s.Gen.ms_finished ())
    (String.concat ";"
       (List.map
          (fun (i : Sim.Session.info) ->
            Printf.sprintf "%d:%d>%d@%d%s%s" i.Sim.Session.i_env
              i.Sim.Session.i_sender i.Sim.Session.i_dst
              i.Sim.Session.i_posted_at
              (if i.Sim.Session.i_correct then "" else "!")
              (match i.Sim.Session.i_faithful_src with
              | None -> ""
              | Some v -> Printf.sprintf "^%d" v))
          (s.Gen.ms_ready ())))

(* replay [choices] (in delivery order) on a fresh session *)
let replay_fresh case choices =
  let s = Gen.open_session case in
  List.iter (fun c -> ignore (s.Gen.ms_deliver c)) choices;
  s

let check_matches_fresh name case choices (s : Gen.mc_session) =
  let fresh = replay_fresh case choices in
  Alcotest.(check string)
    (name ^ ": observable state matches a fresh replay")
    (observe fresh) (observe s)

(* drive both sessions to a maximal point the same way and compare the
   terminal executions *)
let check_terminal_matches_fresh name case choices (s : Gen.mc_session) =
  let fresh = replay_fresh case choices in
  let finish (t : Gen.mc_session) =
    while not (t.Gen.ms_finished ()) do
      ignore (t.Gen.ms_deliver 0)
    done;
    (t.Gen.ms_delivered (), run_dump (t.Gen.ms_run ()))
  in
  let dn, rn = finish s and df, rf = finish fresh in
  Alcotest.(check int) (name ^ ": terminal delivered count") df dn;
  Alcotest.(check string) (name ^ ": terminal graphs and counters") rf rn

let property_tests =
  let prop name count arb f =
    QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb f)
  in
  let arb =
    QCheck.make
      ~print:(fun (seed, ops) ->
        Printf.sprintf "seed=%d ops=[%s]" seed
          (String.concat ";" (List.map string_of_int ops)))
      QCheck.Gen.(pair (int_range 0 2000) (list_size (int_range 1 40) nat))
  in
  [
    prop "random step/snapshot/undo interleavings match a fresh replay" 150
      arb
      (fun (seed, ops) ->
        let case = Gen.generate ~seed in
        let s = Gen.open_session ~record:true case in
        let stack = ref [] in
        (* interpret each op against the live session: 0/1 deliver a
           random ready message, 2 undoes one delivery, 3 checks the
           logical time (the delivered count), 4 undoes a whole random
           suffix *)
        List.iter
          (fun op ->
            match op mod 5 with
            | 2 when !stack <> [] ->
                s.Gen.ms_undo ();
                stack := List.tl !stack
            | 3 ->
                if s.Gen.ms_delivered () <> List.length !stack then
                  QCheck.Test.fail_reportf
                    "delivered %d after %d surviving deliveries"
                    (s.Gen.ms_delivered ()) (List.length !stack)
            | 4 when !stack <> [] ->
                let k = 1 + (op mod List.length !stack) in
                for _ = 1 to k do
                  s.Gen.ms_undo ();
                  stack := List.tl !stack
                done
            | _ ->
                if not (s.Gen.ms_finished ()) then begin
                  let n = List.length (s.Gen.ms_ready ()) in
                  let c = op mod n in
                  ignore (s.Gen.ms_deliver c);
                  stack := c :: !stack
                end)
          ops;
        let choices = List.rev !stack in
        let fresh = replay_fresh case choices in
        if observe fresh <> observe s then
          QCheck.Test.fail_reportf
            "diverged from fresh replay of %s:\nlive:  %s\nfresh: %s"
            (Replay.to_string case) (observe s) (observe fresh);
        let rl = run_dump (s.Gen.ms_run ()) in
        let rf = run_dump (fresh.Gen.ms_run ()) in
        if rl <> rf then
          QCheck.Test.fail_reportf
            "execution diverged from fresh replay of %s:\nlive:\n%s\nfresh:\n%s"
            (Replay.to_string case) rl rf;
        true);
  ]

let unit_tests =
  [
    Alcotest.test_case "undo across crash, recovery and omission faults"
      `Quick (fun () ->
        (* n = 10 keeps n >= 3f + 1 with all three fault shapes live *)
        let faults = Array.make 10 Sim.Correct in
        faults.(1) <- Sim.Crash 1;
        faults.(4) <- Sim.Recover (1, 2);
        faults.(7) <- Sim.Receive_omission 2;
        let case = box ~faults ~budget:14 () in
        let s = Gen.open_session ~record:true case in
        (* walk in, roll everything back, walk the same path again:
           fault counters must rewind exactly with the states *)
        let choices = [ 0; 1; 0; 2; 1; 0 ] in
        List.iter (fun c -> ignore (s.Gen.ms_deliver c)) choices;
        let at_depth = observe s in
        for _ = 1 to List.length choices do
          s.Gen.ms_undo ()
        done;
        check_matches_fresh "rewound to the root" case [] s;
        List.iter (fun c -> ignore (s.Gen.ms_deliver c)) choices;
        Alcotest.(check string) "re-delivery reproduces the state" at_depth
          (observe s);
        check_terminal_matches_fresh "terminal after rewind" case choices s);
    Alcotest.test_case "undo across plan drops and misdirects" `Quick
      (fun () ->
        let case =
          box
            ~plan:[ (3, Sim.P_drop); (4, Sim.P_misdirect 0); (6, Sim.P_drop) ]
            ~budget:10 ()
        in
        let s = Gen.open_session ~record:true case in
        let choices = [ 0; 0; 1; 0 ] in
        List.iter (fun c -> ignore (s.Gen.ms_deliver c)) choices;
        s.Gen.ms_undo ();
        s.Gen.ms_undo ();
        check_matches_fresh "after undoing past planned faults" case [ 0; 0 ]
          s;
        check_terminal_matches_fresh "terminal with a plan" case [ 0; 0 ] s);
    Alcotest.test_case "undo at every depth past omission and recovery faults"
      `Quick (fun () ->
        (* the walk feeds p1 first, so its receive-omission count,
           recovery drops or omitted sends are journaled; then every
           suffix is undone and re-walked *)
        List.iter
          (fun (name, fault) ->
            let case =
              box ~faults:[| Sim.Correct; fault; Sim.Correct; Sim.Correct |]
                ~budget:16 ()
            in
            let s = Gen.open_session ~record:true case in
            let to_p1 () =
              let rec go i = function
                | [] -> 0
                | (r : Sim.Session.info) :: rest ->
                    if r.Sim.Session.i_dst = 1 && r.Sim.Session.i_posted_at >= 0
                    then i
                    else go (i + 1) rest
              in
              go 0 (s.Gen.ms_ready ())
            in
            let rev = ref [] in
            while not (s.Gen.ms_finished ()) do
              let c = to_p1 () in
              ignore (s.Gen.ms_deliver c);
              rev := c :: !rev
            done;
            let choices = List.rev !rev in
            let k = List.length choices in
            let whole = run_dump (s.Gen.ms_run ()) in
            Alcotest.(check string)
              (name ^ ": the walk matches a fresh replay")
              (run_dump ((replay_fresh case choices).Gen.ms_run ()))
              whole;
            for d = 1 to k do
              for _ = 1 to d do
                s.Gen.ms_undo ()
              done;
              let prefix = List.filteri (fun i _ -> i < k - d) choices in
              check_matches_fresh
                (Printf.sprintf "%s: %d undone" name d)
                case prefix s;
              List.iteri
                (fun i c -> if i >= k - d then ignore (s.Gen.ms_deliver c))
                choices;
              Alcotest.(check string)
                (Printf.sprintf "%s: %d undone and re-walked" name d)
                whole
                (run_dump (s.Gen.ms_run ()))
            done;
            check_terminal_matches_fresh name case choices s)
          [
            ("receive omission", Sim.Receive_omission 3);
            ("recovery", Sim.Recover (1, 2));
            ("send omission", Sim.Send_omission 1);
          ]);
    Alcotest.test_case "undo out of a stop_when halt" `Quick (fun () ->
        (* EIG on n = 2 halts once both processes decide, with messages
           pending and budget left *)
        let case =
          {
            (box ~faults:[| Sim.Correct; Sim.Correct |] ~budget:100 ()) with
            Gen.c_workload = Gen.W_consensus;
          }
        in
        let s = Gen.open_session ~record:true case in
        while not (s.Gen.ms_finished ()) do
          ignore (s.Gen.ms_deliver 0)
        done;
        let k = s.Gen.ms_delivered () in
        Alcotest.(check bool) "stop_when halted the run" true
          (k < 100 && s.Gen.ms_ready () <> []);
        s.Gen.ms_undo ();
        Alcotest.(check bool) "one undo reopens the execution" false
          (s.Gen.ms_finished ());
        let below = List.init (k - 1) (fun _ -> 0) in
        check_matches_fresh "below the halt" case below s;
        check_terminal_matches_fresh "halted again" case below s);
    Alcotest.test_case "undo from a budget-cut terminal" `Quick (fun () ->
        let case = box ~budget:4 () in
        let s = Gen.open_session ~record:true case in
        let steps = ref 0 in
        while not (s.Gen.ms_finished ()) do
          ignore (s.Gen.ms_deliver 0);
          incr steps
        done;
        Alcotest.(check int) "budget cut the execution" 4 !steps;
        s.Gen.ms_undo ();
        Alcotest.(check bool) "one undo reopens the execution" false
          (s.Gen.ms_finished ());
        check_matches_fresh "below the cut" case [ 0; 0; 0 ] s;
        (* delivering again re-reaches a maximal point *)
        check_terminal_matches_fresh "re-finished" case [ 0; 0; 0 ] s);
    Alcotest.test_case "undo with nothing recorded raises" `Quick (fun () ->
        let s = Gen.open_session ~record:true (box ()) in
        Alcotest.check_raises "empty journal"
          (Invalid_argument "Sim.Session.undo: nothing recorded to undo")
          (fun () -> s.Gen.ms_undo ()));
    Alcotest.test_case "undo on a non-recording session raises" `Quick
      (fun () ->
        let s = Gen.open_session (box ()) in
        ignore (s.Gen.ms_deliver 0);
        Alcotest.check_raises "no journal"
          (Invalid_argument "Sim.Session.undo: nothing recorded to undo")
          (fun () -> s.Gen.ms_undo ()));
  ]

let suite = unit_tests @ property_tests
