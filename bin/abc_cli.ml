(* abc — command-line laboratory for the ABC model reproduction.

   Subcommands:
     check      admissibility of a scenario / random execution graph
     threshold  exact max relevant-cycle ratio (inf of admissible Xi)
     assign     normalized delay assignment (Theorem 7)
     simulate   run Byzantine clock synchronization (Algorithm 1)
     consensus  run EIG consensus over lock-step rounds (Algorithm 2)
     detect     run the Fig. 3 failure detector
     omega      run the Omega leader-election construction

   Examples:
     abc check --scenario fig1 --xi 3/2
     abc check --scenario random --seed 7 --events 40 --xi 2
     abc assign --scenario fig3 --xi 9/4
     abc simulate --procs 7 --faulty 2 --events 800
     abc consensus --seed 3
*)

open Cmdliner
open Core
open Execgraph

let q = Rat.of_ints

(* ------------------------------------------------------------------ *)
(* Common arguments *)

let xi_conv =
  let parse s =
    match Rat.of_string s with
    | x when Rat.compare x Rat.one <= 0 ->
        Error (`Msg "Xi must be a rational > 1, e.g. 3/2 or 2")
    | x -> ( match Abc_check.xi_range_error x with Some e -> Error (`Msg e) | None -> Ok x)
    | exception _ -> Error (`Msg "cannot parse rational (use e.g. 3/2, 2, 1.5)")
  in
  Arg.conv (parse, fun fmt x -> Format.fprintf fmt "%s" (Rat.to_string x))

let xi_arg =
  Arg.(value & opt xi_conv (q 2 1) & info [ "xi" ] ~docv:"XI" ~doc:"Synchrony parameter \xce\x9e > 1 (rational).")

let seed_arg =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed.")

(* A count: cases, events, processes, faults.  A negative one is a
   usage error naming the option, raised before anything runs: past
   this point it would reach an Array.make or the pool's task count as
   an exception, or run an empty campaign or scenario. *)
let count_arg names ~default ~docv ~doc =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= 0 -> Ok n
    | Some _ -> Error (`Msg "must be >= 0")
    | None -> Error (`Msg (Printf.sprintf "invalid value '%s', expected an integer" s))
  in
  Arg.(value & opt (conv (parse, Format.pp_print_int)) default & info names ~docv ~doc)

let cases_arg ~default ~doc = count_arg [ "cases" ] ~default ~docv:"N" ~doc

let events_arg ~default =
  count_arg [ "events" ] ~default ~docv:"N" ~doc:"Receive-event budget."

let procs_arg ~default = count_arg [ "procs" ] ~default ~docv:"N" ~doc:"Number of processes."

let scenario_arg =
  let doc =
    "Scenario: fig1 (spanning relevant cycle), fig3 (late reply), fig4 (early reply), \
     fig8 (isolated slow message), fifo (Fig. 10 reordering), or random."
  in
  Arg.(value & opt string "fig1" & info [ "scenario" ] ~docv:"NAME" ~doc)

let build_scenario name ~seed ~events =
  match name with
  | "fig1" -> Ok (Scenarios.spanning_cycle ~k1:4 ~k2:5 ())
  | "fig3" -> Ok (Scenarios.timeout ~chain:4 ())
  | "fig4" -> Ok (Scenarios.timeout_early ~chain:4 ())
  | "fig8" -> Ok (Scenarios.isolated_slow ~exchanges:8 ())
  | "fifo" ->
      Ok (Fifo.build ~n_messages:3 ~chatter:4 ~reordered:(Some 0) ()).Fifo.graph
      |> fun g -> g
  | "random" ->
      let rng = Random.State.make [| seed |] in
      Ok (Generate.random_execution rng ~nprocs:4 ~max_events:events ~max_delay:3 ~fanout:2)
  | other -> Error (Printf.sprintf "unknown scenario %S" other)

(* ------------------------------------------------------------------ *)
(* check *)

let cmd_check =
  let run scenario xi seed events =
    match build_scenario scenario ~seed ~events with
    | Error e ->
        Format.eprintf "error: %s@." e;
        1
    | Ok g ->
        Format.printf "scenario %s: %d events, %d messages@." scenario
          (Graph.event_count g) (Graph.message_count g);
        (match Abc_check.check g ~xi with
        | Abc_check.Admissible ->
            Format.printf "admissible for Xi = %s@." (Rat.to_string xi)
        | Abc_check.Violation c ->
            Format.printf "VIOLATION at Xi = %s: relevant cycle with |Z-| = %d, |Z+| = %d (ratio %s)@."
              (Rat.to_string xi) c.Cycle.backward_messages c.Cycle.forward_messages
              (Rat.to_string (Cycle.ratio c)));
        0
  in
  let term = Term.(const run $ scenario_arg $ xi_arg $ seed_arg $ events_arg ~default:30) in
  Cmd.v (Cmd.info "check" ~doc:"Check ABC admissibility (Definition 4) of a scenario.") term

(* ------------------------------------------------------------------ *)
(* threshold *)

let cmd_threshold =
  let run scenario seed events =
    match build_scenario scenario ~seed ~events with
    | Error e ->
        Format.eprintf "error: %s@." e;
        1
    | Ok g ->
        Format.printf "max relevant-cycle ratio: %s@." (Abc.admissibility_threshold g);
        0
  in
  let term = Term.(const run $ scenario_arg $ seed_arg $ events_arg ~default:30) in
  Cmd.v
    (Cmd.info "threshold"
       ~doc:"Exact maximum relevant-cycle ratio (the infimum of admissible Xi).")
    term

(* ------------------------------------------------------------------ *)
(* assign *)

let cmd_assign =
  let run scenario xi seed events faithful =
    match build_scenario scenario ~seed ~events with
    | Error e ->
        Format.eprintf "error: %s@." e;
        1
    | Ok g ->
        if faithful then begin
          match Delay_assignment.solve_faithful g ~xi with
          | Delay_assignment.Assignment delays ->
              Format.printf "feasible (paper's Fig. 6 system); delays in (1, %s):@."
                (Rat.to_string xi);
              List.iter
                (fun (id, d) -> Format.printf "  message e%d: %s@." id (Rat.to_string d))
                delays;
              Format.printf "verified: %b@." (Delay_assignment.verify_faithful g ~xi delays);
              0
          | Delay_assignment.Farkas cert ->
              Format.printf "infeasible: Farkas certificate with y^T b = %s%s@."
                (Rat.to_string cert.Lp.y_b)
                (if cert.Lp.strict_involved then " (strict rows involved)" else "");
              0
        end
        else begin
          match Delay_assignment.solve_fast g ~xi with
          | Some a ->
              Format.printf "feasible; event times and delays (epsilon = %s):@."
                (Rat.to_string a.Delay_assignment.epsilon);
              List.iter
                (fun (id, d) -> Format.printf "  message e%d: tau = %s@." id (Rat.to_string d))
                a.Delay_assignment.delays;
              Format.printf "verified: %b@." (Delay_assignment.verify g ~xi a);
              0
          | None ->
              Format.printf "infeasible: the graph violates the ABC condition for Xi = %s@."
                (Rat.to_string xi);
              0
        end
  in
  let faithful =
    Arg.(value & flag & info [ "faithful" ] ~doc:"Use the paper's Fig. 6 linear system (exponential cycle enumeration) instead of the fast potential solver.")
  in
  let term =
    Term.(const run $ scenario_arg $ xi_arg $ seed_arg $ events_arg ~default:20 $ faithful)
  in
  Cmd.v
    (Cmd.info "assign" ~doc:"Compute a normalized delay assignment (Theorem 7).")
    term

(* ------------------------------------------------------------------ *)
(* simulate *)

let cmd_simulate =
  let run procs f events seed xi =
    if procs < (3 * f) + 1 then begin
      Format.eprintf "error: need n >= 3f + 1 (got n = %d, f = %d)@." procs f;
      1
    end
    else if events < procs then begin
      (* every process must wake up once *)
      Format.eprintf "error: event budget %d below --procs %d@." events procs;
      1
    end
    else begin
      let rng = Random.State.make [| seed |] in
      let scheduler = Sim.theta_scheduler ~rng ~tau_minus:(q 1 1) ~tau_plus:(q 2 1) () in
      let faults = Array.make procs Sim.Correct in
      if f >= 1 then faults.(procs - 1) <- Sim.Byzantine "rush5";
      if f >= 2 then faults.(procs - 2) <- Sim.Crash 20;
      let byz =
        if f >= 1 then Some (fun _ -> Clock_sync.byzantine_rusher ~ahead:5) else None
      in
      let cfg =
        Sim.make_config ?byzantine:byz ~nprocs:procs
          ~algorithm:(Clock_sync.algorithm ~f) ~faults ~scheduler ~max_events:events ()
      in
      let r = Sim.run cfg in
      let correct =
        List.filter (fun p -> faults.(p) = Sim.Correct) (List.init procs Fun.id)
      in
      Format.printf "clock synchronization: n = %d, f = %d, %d events@." procs f r.Sim.delivered;
      Array.iteri
        (fun p st -> Format.printf "  p%d: C = %d@." p (Clock_sync.clock st))
        r.Sim.final_states;
      let input = { Clock_sync.result = r; correct; xi } in
      Format.printf "max skew on consistent cuts: %d (bound 2Xi = %d)@."
        (Clock_sync.max_skew_on_cuts input)
        (Rat.floor_int (Rat.mul Rat.two xi));
      let checked, violations = Clock_sync.causal_cone_violations input in
      Format.printf "Lemma 4 checks: %d, violations: %d@." checked (List.length violations);
      0
    end
  in
  let f_arg = count_arg [ "faulty"; "f" ] ~default:1 ~docv:"F" ~doc:"Fault budget." in
  let term =
    Term.(const run $ procs_arg ~default:4 $ f_arg $ events_arg ~default:400 $ seed_arg $ xi_arg)
  in
  Cmd.v (Cmd.info "simulate" ~doc:"Run Byzantine clock synchronization (Algorithm 1).") term

(* ------------------------------------------------------------------ *)
(* consensus *)

let cmd_consensus =
  let run seed xi =
    let inputs = [| 1; 1; 1; 0 |] in
    let rng = Random.State.make [| seed |] in
    let scheduler = Sim.theta_scheduler ~rng ~tau_minus:(q 1 1) ~tau_plus:(q 2 1) () in
    let algo = Consensus.Eig.algo ~f:1 ~value:(fun p -> inputs.(p)) in
    let byz =
      let real = Consensus.Eig.algo ~f:1 ~value:(fun _ -> 0) in
      Lockstep.algorithm ~f:1 ~xi
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
        ~algorithm:(Lockstep.algorithm ~f:1 ~xi algo)
        ~faults:[| Sim.Correct; Sim.Correct; Sim.Correct; Sim.Byzantine "forger" |]
        ~scheduler ~max_events:4000
        ~stop_when:(fun states ->
          List.for_all
            (fun p -> Consensus.Eig.decision (Lockstep.round_state states.(p)) <> None)
            [ 0; 1; 2 ])
        ()
    in
    let r = Sim.run cfg in
    Format.printf "EIG over lock-step rounds (n = 4, f = 1 Byzantine), %d events@."
      r.Sim.delivered;
    let decisions =
      List.map
        (fun p -> (p, Consensus.Eig.decision (Lockstep.round_state r.Sim.final_states.(p))))
        [ 0; 1; 2 ]
    in
    List.iter
      (fun (p, d) ->
        Format.printf "  p%d decides %s@." p
          (match d with Some v -> string_of_int v | None -> "-"))
      decisions;
    Format.printf "agreement + validity: %b@."
      (Consensus.check_agreement decisions ~inputs:[ 1; 1; 1 ]);
    0
  in
  let term = Term.(const run $ seed_arg $ xi_arg) in
  Cmd.v (Cmd.info "consensus" ~doc:"Run EIG Byzantine consensus over lock-step rounds.") term

(* ------------------------------------------------------------------ *)
(* detect *)

let cmd_detect =
  let run seed xi crash =
    let rng = Random.State.make [| seed |] in
    let scheduler = Sim.theta_scheduler ~rng ~tau_minus:(q 2 1) ~tau_plus:(q 3 1) () in
    let faults = Array.make 4 Sim.Correct in
    if crash then faults.(3) <- Sim.Crash 1;
    let cfg =
      Sim.make_config ~nprocs:4
        ~algorithm:(Failure_detector.algorithm ~xi ~rounds:3)
        ~faults ~scheduler ~max_events:500 ()
    in
    let r = Sim.run cfg in
    let crashed = if crash then [ 3 ] else [] in
    let false_susp, missed = Failure_detector.accuracy r ~crashed in
    Format.printf "Fig. 3 failure detector (Xi = %s, chain length %d), %d events@."
      (Rat.to_string xi)
      (Rat.ceil_int (Rat.mul Rat.two xi))
      r.Sim.delivered;
    Format.printf "suspects: [%s]@."
      (String.concat "; " (List.map string_of_int (Failure_detector.suspects r.Sim.final_states.(0))));
    Format.printf "false suspicions: %d, missed crashes: %d@." (List.length false_susp)
      (List.length missed);
    0
  in
  let crash = Arg.(value & flag & info [ "crash" ] ~doc:"Crash process 3 at its first step.") in
  let term = Term.(const run $ seed_arg $ xi_arg $ crash) in
  Cmd.v (Cmd.info "detect" ~doc:"Run the Fig. 3 \xce\x9e-timeout failure detector.") term

(* ------------------------------------------------------------------ *)
(* omega *)

let cmd_omega =
  let run seed xi crash0 =
    let rng = Random.State.make [| seed |] in
    let scheduler = Sim.theta_scheduler ~rng ~tau_minus:(q 1 1) ~tau_plus:(q 2 1) () in
    let faults = Array.make 4 Sim.Correct in
    if crash0 then faults.(0) <- Sim.Crash 2;
    let cfg =
      Sim.make_config ~nprocs:4 ~algorithm:(Omega.algorithm ~f:1 ~xi) ~faults ~scheduler
        ~max_events:500 ()
    in
    let r = Sim.run cfg in
    let correct =
      List.filter (fun p -> faults.(p) = Sim.Correct) (List.init 4 Fun.id)
    in
    let leaders, expected, agree = Omega.converged r ~correct in
    Format.printf "Omega leader election (Xi = %s)%s:@." (Rat.to_string xi)
      (if crash0 then ", process 0 crashed" else "");
    List.iter (fun (p, l) -> Format.printf "  p%d trusts p%d@." p l) leaders;
    Format.printf "converged to the smallest correct id (%d): %b@." expected agree;
    0
  in
  let crash0 = Arg.(value & flag & info [ "crash0" ] ~doc:"Crash process 0 early.") in
  let term = Term.(const run $ seed_arg $ xi_arg $ crash0) in
  Cmd.v (Cmd.info "omega" ~doc:"Run the Omega leader-election construction.") term

(* ------------------------------------------------------------------ *)
(* Network provisioning arguments (shared by fuzz/mc --shards) *)

let workers_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "workers" ] ~docv:"EPS"
        ~doc:
          "Comma-separated socket-worker endpoints for $(b,--shards), e.g. \
           $(b,10.0.0.2:7001*4,unix:/tmp/w.sock).  Each endpoint (started \
           with $(b,abc serve --listen)) is dialed and dealt units; an \
           optional $(b,*WEIGHT) suffix declares capacity (bigger boxes are \
           offered work first — wall-clock only, the report is identical).")

let listen_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "listen" ] ~docv:"ADDR"
        ~doc:
          "Accept self-registering workers ($(b,abc serve --connect ADDR)) \
           on this address for the duration of the sharded run.")

let connect_timeout_arg =
  Arg.(
    value & opt float 5.0
    & info [ "connect-timeout" ] ~docv:"SECS"
        ~doc:"Deadline for each worker-endpoint dial.")

let max_frame_arg =
  Arg.(
    value & opt int Dist.Frame.max_payload
    & info [ "max-frame" ] ~docv:"BYTES"
        ~doc:
          "Reject any protocol frame whose length prefix exceeds this many \
           bytes — checked $(i,before) allocating the payload; the offending \
           worker is quarantined and its shard named in the diagnostic.")

(* Parse/validate the net options; [Ok (endpoints, listen)] feeds
   straight into {!Dist.Supervisor.make_config}. *)
let parse_net_opts ~shards ~workers ~listen ~max_frame :
    ((Net.Transport.addr * int) list * Net.Transport.addr option, string) result
    =
  let ( let* ) = Result.bind in
  let* () =
    if shards < 0 then Error "--shards must be >= 0 (0 runs in-process)"
    else if shards = 0 && (workers <> None || listen <> None) then
      Error "--workers/--listen only apply to sharded runs (--shards N)"
    else Ok ()
  in
  let* () =
    if max_frame < 1 then Error "--max-frame must be >= 1" else Ok ()
  in
  let* endpoints =
    match workers with
    | None -> Ok []
    | Some s -> Net.Registry.parse_workers s
  in
  let* listen =
    match listen with
    | None -> Ok None
    | Some s -> Result.map Option.some (Net.Transport.addr_of_string s)
  in
  Ok (endpoints, listen)

(* ------------------------------------------------------------------ *)
(* fuzz *)

let list_oracle_registry () =
  List.iter
    (fun (o : Fuzz.Oracle.t) ->
      Format.printf "%-18s %s@." o.Fuzz.Oracle.name o.Fuzz.Oracle.theorem)
    Fuzz.Oracle.registry

let cmd_fuzz =
  let run cases seed time_budget replay emit no_shrink oracle_spec jobs timing
      boundary expect_violations shards checkpoint resume_from nemesis_spec
      heartbeat workers listen connect_timeout max_frame =
    let oracle_selection =
      match oracle_spec with
      | None -> Ok None
      | Some "list" -> Ok (Some [])
      | Some names -> (
          match Fuzz.Oracle.select names with
          | Ok os -> Ok (Some os)
          | Error e -> Error e)
    in
    match (oracle_selection, oracle_spec) with
    | Error e, _ ->
        Format.eprintf "error: %s@." e;
        1
    | Ok _, Some "list" ->
        list_oracle_registry ();
        0
    | Ok selection, _ -> (
      let oracles =
        match selection with None -> Fuzz.Oracle.registry | Some os -> os
      in
      match (replay, emit) with
      | Some line, _ -> (
          match Fuzz.Replay.replay ~oracles line with
          | Error e ->
              Format.eprintf "error: %s@." e;
              1
          | Ok (case, results) ->
              Format.printf "replaying %s@." (Fuzz.Replay.to_string case);
              print_string (Fuzz.Report.render_outcomes results);
              if Fuzz.Oracle.failures results = [] then 0 else 1)
      | None, Some s ->
          (* print the serialized case a seed generates, for hand editing *)
          let gen =
            if boundary then Fuzz.Gen.generate_boundary else Fuzz.Gen.generate
          in
          print_endline (Fuzz.Replay.to_string (gen ~seed:s));
          0
      | None, None -> (
          let report outcome =
            print_string (Fuzz.Report.render outcome);
            (* stderr, not stdout: the report stays byte-deterministic *)
            if timing then prerr_string (Fuzz.Report.render_cost outcome);
            if expect_violations then
              (* negative mode: the campaign must WITNESS violations — at
                 the boundary, every boundary oracle must have failed at
                 least once *)
              let is_boundary_oracle n =
                String.length n >= 9 && String.sub n 0 9 = "boundary-"
              in
              let witnessed =
                outcome.Fuzz.Campaign.cp_failures <> []
                && List.for_all
                     (fun (n, s) ->
                       (not (boundary && is_boundary_oracle n))
                       || s.Fuzz.Campaign.os_fail > 0)
                     outcome.Fuzz.Campaign.cp_stats
              in
              if witnessed then 0 else 1
            else if outcome.Fuzz.Campaign.cp_failures = [] then 0
            else 1
          in
          if shards > 0 then
            (* sharded: worker subprocesses, supervised; the report is
               byte-identical to the serial one whatever the shard
               count, worker deaths, or retry history *)
            if time_budget > 0.0 then begin
              Format.eprintf
                "error: --shards needs a fixed case count, not --time-budget \
                 (the unit partition must be deterministic)@.";
              1
            end
            else if checkpoint <> None && resume_from <> None then begin
              Format.eprintf
                "error: --checkpoint starts a fresh journal, --resume \
                 continues one; pick one@.";
              1
            end
            else
              let nemesis =
                match nemesis_spec with
                | None -> Ok Dist.Nemesis.none
                | Some s -> Dist.Nemesis.parse s
              in
              match nemesis with
              | Error e ->
                  Format.eprintf "error: %s@." e;
                  1
              | Ok nemesis -> (
                  match
                    parse_net_opts ~shards ~workers ~listen ~max_frame
                  with
                  | Error e ->
                      Format.eprintf "error: %s@." e;
                      1
                  | Ok (endpoints, listen) -> (
                  let checkpoint, resume =
                    match resume_from with
                    | Some f -> (Some f, true)
                    | None -> (checkpoint, false)
                  in
                  match
                    Dist.Supervisor.make_config ~shards ~heartbeat ?checkpoint
                      ~resume ~nemesis ~endpoints ?listen ~connect_timeout
                      ~max_frame ()
                  with
                  | exception Invalid_argument e ->
                      Format.eprintf "error: %s@." e;
                      1
                  | cfg -> (
                  match
                    Dist.Supervisor.run_fuzz cfg ~seed ~cases ~boundary
                      ~shrink:(not no_shrink) ~oracles:oracle_spec ()
                  with
                  | outcome -> report outcome
                  | exception Dist.Nemesis.Supervisor_killed n ->
                      Format.eprintf
                        "abc fuzz: supervisor killed by nemesis after %d \
                         merged units (checkpoint is durable; --resume \
                         continues)@."
                        n;
                      3
                  | exception Dist.Supervisor.Dist_error e ->
                      Format.eprintf "error: %s@." e;
                      1)))
          else
            match parse_net_opts ~shards ~workers ~listen ~max_frame with
            | Error e ->
                Format.eprintf "error: %s@." e;
                1
            | Ok _ ->
                let time_budget =
                  if time_budget > 0.0 then Some time_budget else None
                in
                let jobs = if jobs > 0 then Some jobs else None in
                report
                  (Fuzz.Campaign.run ~oracles ~shrink:(not no_shrink) ~boundary
                     ?time_budget ?jobs ~cases ~seed ())))
  in
  let cases = cases_arg ~default:100 ~doc:"Number of cases to run." in
  let time_budget =
    Arg.(
      value & opt float 0.0
      & info [ "time-budget" ] ~docv:"SECS"
          ~doc:"Stop the campaign after this much CPU time (0 = no budget).")
  in
  let replay =
    Arg.(
      value & opt (some string) None
      & info [ "replay" ] ~docv:"CASE" ~doc:"Re-run one serialized case and re-check it.")
  in
  let emit =
    Arg.(
      value & opt (some int) None
      & info [ "emit" ] ~docv:"SEED" ~doc:"Print the case a seed generates, then exit.")
  in
  let no_shrink =
    Arg.(value & flag & info [ "no-shrink" ] ~doc:"Report failures without shrinking them.")
  in
  let oracle_spec =
    Arg.(
      value
      & opt ~vopt:(Some "list") (some string) None
      & info [ "oracles" ] ~docv:"NAMES"
          ~doc:
            "Bare $(b,--oracles) lists the theorem oracles and exits.  With a \
             comma-separated value ($(b,--oracles=clock-progress,assign)), run \
             only the named oracles; an unknown name is an error that lists \
             the valid ones.")
  in
  let jobs =
    Arg.(
      value & opt int 0
      & info [ "jobs"; "j" ] ~docv:"N"
          ~doc:
            "Worker domains for the campaign (0 = one per recommended core). \
             The report is byte-identical whatever N; $(b,--jobs 1) runs the \
             historical serial loop.")
  in
  let timing =
    Arg.(
      value & flag
      & info [ "timing" ]
          ~doc:
            "Print the campaign's wall-time/allocation cost block to stderr \
             (nondeterministic, hence never part of the report).")
  in
  let boundary =
    Arg.(
      value & flag
      & info [ "boundary" ]
          ~doc:
            "Sample resilience-boundary cases (n = 3f with an equivocator) \
             instead of positive ones.  The boundary oracles are expected to \
             witness violations of the paper's n >= 3f+1 bounds.")
  in
  let expect_violations =
    Arg.(
      value & flag
      & info [ "expect-violations" ]
          ~doc:
            "Invert the exit-code convention: succeed iff the campaign \
             witnessed violations (with $(b,--boundary), iff every boundary \
             oracle failed at least once).")
  in
  let shards =
    Arg.(
      value & opt int 0
      & info [ "shards" ] ~docv:"N"
          ~doc:
            "Run the campaign on N supervised worker subprocesses (0 = \
             in-process).  The report is byte-identical to the serial one for \
             any N, including across worker crashes and retries.")
  in
  let checkpoint =
    Arg.(
      value & opt (some string) None
      & info [ "checkpoint" ] ~docv:"FILE"
          ~doc:
            "Write-ahead journal for $(b,--shards): every merged unit is \
             appended (CRC'd, fsync'd) before it counts, so a killed \
             supervisor can $(b,--resume).")
  in
  let resume_from =
    Arg.(
      value & opt (some string) None
      & info [ "resume" ] ~docv:"FILE"
          ~doc:
            "Resume a sharded campaign from its checkpoint journal: completed \
             units are adopted after validation, the rest re-run, and the \
             final report is identical to an uninterrupted run.")
  in
  let nemesis_spec =
    Arg.(
      value & opt (some string) None
      & info [ "nemesis" ] ~docv:"PLAN"
          ~doc:
            "Harness-nemesis fault plan for $(b,--shards), e.g. \
             $(b,kill:0@2,stall:1@1,skill@3): kill/stall/corrupt/trunc/dup/flip \
             a worker at a deterministic shard boundary, or kill the \
             supervisor itself after its S-th merged unit.")
  in
  let heartbeat =
    Arg.(
      value & opt float 30.0
      & info [ "heartbeat" ] ~docv:"SECS"
          ~doc:
            "Silence tolerance for $(b,--shards): a worker holding a unit \
             that sends nothing for this long is killed and its unit \
             re-dispatched.")
  in
  let term =
    Term.(
      const run $ cases $ seed_arg $ time_budget $ replay $ emit $ no_shrink
      $ oracle_spec $ jobs $ timing $ boundary $ expect_violations $ shards
      $ checkpoint $ resume_from $ nemesis_spec $ heartbeat $ workers_arg
      $ listen_arg $ connect_timeout_arg $ max_frame_arg)
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Property-based adversarial fuzzing: random schedulers and fault vectors \
          checked against the paper's theorem oracles, with shrinking and \
          deterministic replay.")
    term

(* ------------------------------------------------------------------ *)
(* mc *)

let cmd_mc =
  let run procs xi budget workload faults boundary seed jobs frontier no_dpor
      engine no_tt cross_check stats shards workers listen connect_timeout
      max_frame =
    let ( let* ) r f =
      match r with
      | Error e ->
          Format.eprintf "error: %s@." e;
          1
      | Ok v -> f v
    in
    let* workload =
      match workload with
      | "clock" -> Ok Fuzz.Gen.W_clock
      | "lockstep" -> Ok Fuzz.Gen.W_lockstep
      | "eig" -> Ok Fuzz.Gen.W_consensus
      | w -> Error (Printf.sprintf "unknown workload %S (clock, lockstep, eig)" w)
    in
    let* faults =
      match faults with
      | None -> Ok (Array.make procs Sim.Correct)
      | Some s ->
          let toks = if s = "" then [] else String.split_on_char ',' s in
          let rec go acc = function
            | [] -> Ok (Array.of_list (List.rev acc))
            | t :: rest -> (
                match Sim.fault_of_string t with
                | Some f -> go (f :: acc) rest
                | None -> Error (Printf.sprintf "bad fault %S" t))
          in
          go [] toks
    in
    let* () =
      if budget > Mc.Schedule.max_budget then
        Error
          (Printf.sprintf "budget %d above the mc cap %d (HB masks are one int)"
             budget Mc.Schedule.max_budget)
      else Ok ()
    in
    let* case =
      Fuzz.Gen.validate
        {
          Fuzz.Gen.c_seed = seed;
          c_nprocs = procs;
          c_faults = faults;
          c_xi = xi;
          c_sched = Fuzz.Gen.S_async { max_delay = Rat.one };
          c_workload = workload;
          c_max_events = budget;
          c_plan = [];
          c_boundary = boundary;
          c_schedule = [];
        }
    in
    let* engine =
      match engine with
      | "incremental" -> Ok Mc.Explore.Incremental
      | "replay" -> Ok Mc.Explore.Replay
      | e -> Error (Printf.sprintf "unknown engine %S (replay, incremental)" e)
    in
    let jobs = if jobs > 0 then Some jobs else None in
    let tt = not no_tt in
    let dpor = not no_dpor in
    let* outcome =
      if shards > 0 then
        (* frontier tasks sharded across workers (sockets or
           subprocesses); the merge is the same pure function, so the
           report is byte-identical *)
        match parse_net_opts ~shards ~workers ~listen ~max_frame with
        | Error e -> Error e
        | Ok (endpoints, listen) -> (
        match
          Dist.Supervisor.run_mc
            (Dist.Supervisor.make_config ~shards ~endpoints ?listen
               ~connect_timeout ~max_frame ())
            ~dpor
            ~incremental:(engine = Mc.Explore.Incremental) ~tt ~frontier case
        with
        | o -> Ok o
        | exception (Dist.Supervisor.Dist_error e | Invalid_argument e) -> Error e)
      else (
        match parse_net_opts ~shards ~workers ~listen ~max_frame with
        | Error e -> Error e
        | Ok _ -> Ok (Mc.Driver.run ~dpor ~engine ~tt ~frontier ?jobs case))
    in
    print_string (Mc.Mc_report.render ~stats outcome);
    let ok = ref (outcome.Mc.Driver.mc_violations = []) in
    if cross_check then begin
      (* engine cross-check: the other engine must reproduce the class
         list byte-for-byte — keys, representative schedules, verdicts
         and repro lines (the engine is invisible in every output) *)
      let other, other_name =
        match engine with
        | Mc.Explore.Incremental -> (Mc.Explore.Replay, "replay")
        | Mc.Explore.Replay -> (Mc.Explore.Incremental, "incremental")
      in
      let o2 = Mc.Driver.run ~dpor ~engine:other ~tt ~frontier ?jobs case in
      let signature (o : Mc.Driver.outcome) =
        ( List.map
            (fun (c : Mc.Explore.class_rec) ->
              (c.Mc.Explore.cl_key, c.Mc.Explore.cl_choices))
            o.Mc.Driver.mc_classes,
          Mc.Mc_report.render_verdicts o,
          List.map
            (fun (v : Mc.Driver.violation) ->
              ( Fuzz.Replay.to_string v.Mc.Driver.vi_case,
                Fuzz.Replay.to_string v.Mc.Driver.vi_shrunk ))
            o.Mc.Driver.mc_violations )
      in
      if signature outcome = signature o2 then
        Format.printf
          "cross-check: %s engine agrees (%d classes, %d executions)@."
          other_name
          (List.length o2.Mc.Driver.mc_classes)
          o2.Mc.Driver.mc_executions
      else begin
        Format.printf "cross-check: ENGINE MISMATCH (%s vs %s)@."
          (match engine with
          | Mc.Explore.Incremental -> "incremental"
          | Mc.Explore.Replay -> "replay")
          other_name;
        ok := false
      end
    end;
    if cross_check && dpor then begin
      let naive = Mc.Driver.run ~dpor:false ~engine ~tt ~frontier ?jobs case in
      let rv = Mc.Mc_report.render_verdicts outcome in
      let rn = Mc.Mc_report.render_verdicts naive in
      if rv = rn then
        Format.printf
          "cross-check: naive search agrees (%d classes; %d dpor vs %d naive \
           executions)@."
          (List.length naive.Mc.Driver.mc_classes)
          outcome.Mc.Driver.mc_executions naive.Mc.Driver.mc_executions
      else begin
        Format.printf "cross-check: MISMATCH@.--- dpor ---@.%s--- naive ---@.%s"
          rv rn;
        ok := false
      end
    end;
    if !ok then 0 else 1
  in
  let budget =
    Arg.(
      value & opt int 8
      & info [ "budget" ] ~docv:"B"
          ~doc:"Receive-event budget bounding the exploration depth (max 62).")
  in
  let workload =
    Arg.(
      value & opt string "clock"
      & info [ "workload" ] ~docv:"W" ~doc:"Workload: clock, lockstep or eig.")
  in
  let faults =
    Arg.(
      value & opt (some string) None
      & info [ "faults" ] ~docv:"F0,F1,..."
          ~doc:
            "Per-process fault vector in replay-line syntax (e.g. \
             $(b,C,C,C,X2)); default all-correct.")
  in
  let boundary =
    Arg.(
      value & flag
      & info [ "boundary" ]
          ~doc:
            "Accept a resilience-boundary box (n = 3f with an equivocator); \
             the boundary oracles then witness bound violations as failures.")
  in
  let jobs =
    Arg.(
      value & opt int 0
      & info [ "jobs"; "j" ] ~docv:"N"
          ~doc:
            "Worker domains sharing the frontier tasks (0 = one per \
             recommended core).  The report is byte-identical whatever N.")
  in
  let frontier =
    Arg.(
      value & opt int 2
      & info [ "frontier" ] ~docv:"D"
          ~doc:
            "Frontier depth: prefixes of this length are expanded naively and \
             explored as independent tasks with DPOR below.")
  in
  let no_dpor =
    Arg.(
      value & flag
      & info [ "no-dpor" ]
          ~doc:
            "Disable partial-order reduction and sleep sets: enumerate every \
             interleaving (the exhaustiveness baseline).")
  in
  let engine =
    Arg.(
      value & opt string "incremental"
      & info [ "engine" ] ~docv:"E"
          ~doc:
            "Exploration engine: $(b,incremental) walks the tree on one live \
             session with snapshot/undo; $(b,replay) re-executes each prefix \
             from scratch.  Both produce byte-identical output.")
  in
  let no_tt =
    Arg.(
      value & flag
      & info [ "no-tt" ]
          ~doc:
            "Disable the canonical-state transposition table (only active \
             with $(b,--no-dpor); sleep sets make it unsound).")
  in
  let cross_check =
    Arg.(
      value & flag
      & info [ "cross-check" ]
          ~doc:
            "Re-explore with the other engine and (under DPOR) without \
             reduction, requiring byte-identical classes and verdicts.")
  in
  let stats =
    Arg.(
      value & flag
      & info [ "stats" ] ~doc:"Include replay-amplification statistics in the report.")
  in
  let shards =
    Arg.(
      value & opt int 0
      & info [ "shards" ] ~docv:"N"
          ~doc:
            "Explore the frontier tasks on N supervised worker subprocesses \
             (0 = in-process).  The report is byte-identical whatever N.")
  in
  let term =
    Term.(
      const run $ procs_arg ~default:3 $ xi_arg $ budget $ workload $ faults
      $ boundary $ seed_arg $ jobs $ frontier $ no_dpor $ engine $ no_tt
      $ cross_check $ stats $ shards $ workers_arg $ listen_arg
      $ connect_timeout_arg $ max_frame_arg)
  in
  Cmd.v
    (Cmd.info "mc"
       ~doc:
         "Exhaustive bounded model checking: every message-delivery ordering \
          of a box up to the event budget, reduced by DPOR with sleep sets, \
          each equivalence class checked against the theorem oracles.")
    term

(* ------------------------------------------------------------------ *)
(* trace *)

let cmd_trace =
  let run replay mc cases seed jobs procs budget out format filters no_wall
      digest_only =
    let ( let* ) r f =
      match r with
      | Error e ->
          Format.eprintf "error: %s@." e;
          1
      | Ok v -> f v
    in
    let* format =
      match format with
      | "jsonl" -> Ok `Jsonl
      | "chrome" -> Ok `Chrome
      | f -> Error (Printf.sprintf "unknown format %S (jsonl, chrome)" f)
    in
    let* cats =
      match filters with
      | None -> Ok None
      | Some s ->
          let toks = if s = "" then [] else String.split_on_char ',' s in
          let valid = [ "sim"; "fuzz"; "mc"; "pool"; "dist"; "net" ] in
          if toks <> [] && List.for_all (fun t -> List.mem t valid) toks then
            Ok (Some toks)
          else
            Error
              "bad --filter (comma-separated subset of \
               sim,fuzz,mc,pool,dist,net)"
    in
    let* () =
      if replay <> None && mc then
        Error "--replay and --mc are mutually exclusive"
      else Ok ()
    in
    let jobs = if jobs > 0 then jobs else 1 in
    let body () =
      match replay with
      | Some line ->
          (* scope 0: a single replayed case is one deterministic unit
             of work, so its whole event stream enters the digest *)
          Obs.with_scope 0 (fun () ->
              match Fuzz.Replay.replay ~oracles:Fuzz.Oracle.registry line with
              | Error e -> Error e
              | Ok (_case, _results) -> Ok ())
      | None ->
          if mc then
            if budget > Mc.Schedule.max_budget then
              Error
                (Printf.sprintf "budget %d above the mc cap %d" budget
                   Mc.Schedule.max_budget)
            else
              let case =
                {
                  Fuzz.Gen.c_seed = seed;
                  c_nprocs = procs;
                  c_faults = Array.make procs Sim.Correct;
                  c_xi = q 2 1;
                  c_sched = Fuzz.Gen.S_async { max_delay = Rat.one };
                  c_workload = Fuzz.Gen.W_clock;
                  c_max_events = budget;
                  c_plan = [];
                  c_boundary = false;
                  c_schedule = [];
                }
              in
              (match Fuzz.Gen.validate case with
              | Error e -> Error e
              | Ok case ->
                  ignore (Mc.Driver.run ~jobs case);
                  Ok ())
          else begin
            ignore (Fuzz.Campaign.run ~shrink:false ~cases ~jobs ~seed ());
            Ok ()
          end
    in
    let res, trace = Obs.capture body in
    let* () = res in
    let trace =
      match cats with None -> trace | Some cats -> Obs.filter ~cats trace
    in
    let dg = Obs.digest trace in
    if digest_only then begin
      print_endline dg;
      0
    end
    else begin
      let buf = Buffer.create 65536 in
      (match format with
      | `Jsonl ->
          Obs.to_jsonl ~wall:(not no_wall) buf trace;
          Printf.bprintf buf "{\"digest\":%S,\"events\":%d,\"dropped\":%d}\n" dg
            (Array.length trace.Obs.t_events)
            trace.Obs.t_dropped
      | `Chrome -> Obs.to_chrome ~wall:(not no_wall) buf trace);
      (match out with
      | "-" -> print_string (Buffer.contents buf)
      | file ->
          let oc = open_out file in
          output_string oc (Buffer.contents buf);
          close_out oc;
          Format.eprintf "trace written to %s (digest %s)@." file dg);
      0
    end
  in
  let replay =
    Arg.(
      value & opt (some string) None
      & info [ "replay" ] ~docv:"CASE"
          ~doc:"Trace the replay of one serialized fuzz case.")
  in
  let mc =
    Arg.(
      value & flag
      & info [ "mc" ]
          ~doc:
            "Trace a model-checker run on an all-correct async clock box \
             ($(b,--procs), $(b,--budget), $(b,--jobs)).")
  in
  let cases =
    cases_arg ~default:10 ~doc:"Campaign mode (the default): number of cases to trace."
  in
  let jobs =
    Arg.(
      value & opt int 1
      & info [ "jobs"; "j" ] ~docv:"N"
          ~doc:
            "Worker domains.  The trace digest is identical whatever N; only \
             ambient events (pool scheduling) differ.")
  in
  let out =
    Arg.(
      value & opt string "-"
      & info [ "out" ] ~docv:"FILE" ~doc:"Output file ($(b,-) = stdout).")
  in
  let format =
    Arg.(
      value & opt string "jsonl"
      & info [ "format" ] ~docv:"F"
          ~doc:"Sink format: $(b,jsonl) or $(b,chrome) (trace_event JSON).")
  in
  let filters =
    Arg.(
      value & opt (some string) None
      & info [ "filter" ] ~docv:"CATS"
          ~doc:
            "Keep only these event categories (comma-separated subset of \
             sim,fuzz,mc,pool,dist,net).  The digest is computed on the \
             filtered stream.")
  in
  let no_wall =
    Arg.(
      value & flag
      & info [ "no-wall" ]
          ~doc:
            "Scrub the nondeterministic wall-clock and domain fields; the \
             JSONL output is then byte-deterministic (what golden tests pin).")
  in
  let digest_only =
    Arg.(
      value & flag
      & info [ "digest-only" ] ~doc:"Print only the trace digest, no events.")
  in
  let term =
    Term.(
      const run $ replay $ mc $ cases $ seed_arg $ jobs $ procs_arg ~default:3
      $ Arg.(
          value & opt int 6
          & info [ "budget" ] ~docv:"B" ~doc:"Event budget for $(b,--mc).")
      $ out $ format $ filters $ no_wall $ digest_only)
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Structured tracing of a fuzz campaign, a case replay, or a \
          model-checker run: JSONL or Chrome trace_event output with a \
          deterministic (jobs-invariant) trace digest.")
    term

(* ------------------------------------------------------------------ *)
(* serve *)

let cmd_serve =
  let run listen connect id nemesis max_frame once =
    let fail msg =
      Format.eprintf "error: %s@." msg;
      1
    in
    let ( let* ) r k = match r with Error e -> fail e | Ok v -> k v in
    let* mode, addr =
      match (listen, connect) with
      | None, None -> Ok (Dist.Worker.Pipe, None)
      | Some a, None -> Ok (Dist.Worker.Listen, Some a)
      | None, Some a -> Ok (Dist.Worker.Connect, Some a)
      | Some _, Some _ -> Error "serve takes at most one of --listen ADDR or --connect ADDR"
    in
    let* addr =
      match addr with
      | None -> Ok None
      | Some a -> Result.map Option.some (Net.Transport.addr_of_string a)
    in
    let* nemesis =
      match nemesis with
      | None -> Ok Dist.Nemesis.none
      | Some s -> Dist.Nemesis.parse s
    in
    if max_frame < 1 then fail "--max-frame must be >= 1"
    else Dist.Worker.run { Dist.Worker.id; mode; addr; nemesis; max_frame; once }
  in
  let listen =
    Arg.(
      value
      & opt (some string) None
      & info [ "listen" ] ~docv:"ADDR"
          ~doc:
            "Bind $(i,ADDR) ($(b,HOST:PORT) or $(b,unix:PATH)) and serve one \
             campaign connection at a time; the supervisor reaches this \
             worker via $(b,--workers ADDR).")
  in
  let connect =
    Arg.(
      value
      & opt (some string) None
      & info [ "connect" ] ~docv:"ADDR"
          ~doc:
            "Dial a supervisor running with $(b,--listen ADDR) and \
             self-register as a worker, redialing with jittered backoff if \
             the connection drops before the campaign ends.")
  in
  let id =
    Arg.(
      value & opt int 0
      & info [ "id" ] ~docv:"N"
          ~doc:"Worker id (names this worker in nemesis plans).")
  in
  let nemesis =
    Arg.(
      value
      & opt (some string) None
      & info [ "nemesis" ] ~docv:"PLAN"
          ~doc:
            "Fault plan this worker injects on itself, including the network \
             faults $(b,nrefuse)/$(b,ndrop)/$(b,npartial)/$(b,ndup) (see \
             $(b,abc fuzz --nemesis)).")
  in
  let max_frame =
    Arg.(
      value & opt int Dist.Frame.max_payload
      & info [ "max-frame" ] ~docv:"BYTES"
          ~doc:"Reject frames whose length prefix exceeds this many bytes.")
  in
  let once =
    Arg.(
      value & flag
      & info [ "once" ]
          ~doc:"Exit after the first campaign ends instead of serving forever.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Shard worker (normally spawned by $(b,--shards), not by hand): \
          speaks the length-prefixed CRC'd frame protocol — spec, unit \
          requests in; heartbeats and unit results out — on stdin/stdout, \
          or for multi-machine campaigns over TCP or Unix-domain sockets, \
          either listening for a supervisor ($(b,--listen)) or \
          self-registering with one ($(b,--connect)).")
    Term.(const run $ listen $ connect $ id $ nemesis $ max_frame $ once)

(* ------------------------------------------------------------------ *)

let () =
  (* re-executed as a shard worker?  enter the loop, never return *)
  Dist.Worker.maybe_run ();
  let doc = "laboratory for the Asynchronous Bounded-Cycle model reproduction" in
  let info = Cmd.info "abc" ~version:"1.0.0" ~doc in
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  exit
    (Cmd.eval'
       (Cmd.group ~default info
          [ cmd_check; cmd_threshold; cmd_assign; cmd_simulate; cmd_consensus; cmd_detect; cmd_omega; cmd_fuzz; cmd_mc; cmd_trace; cmd_serve ]))
