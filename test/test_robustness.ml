(* Error-path and robustness tests: invalid inputs must fail loudly and
   precisely, and the parametric scenario sweeps must match their
   closed-form ratios. *)

open Execgraph

let q = Rat.of_ints

(* A chatty echo algorithm for exercising the fault machinery: the
   wake-up broadcasts 0, and every received value below 2 is
   re-broadcast incremented, so runs generate a steady message flow
   until [max_events] cuts them off. *)
let chatter : (int, int) Sim.algorithm =
  let broadcast ~self ~nprocs v =
    List.filter_map
      (fun dst -> if dst = self then None else Some { Sim.dst; payload = v })
      (List.init nprocs Fun.id)
  in
  {
    init = (fun ~self ~nprocs -> (0, broadcast ~self ~nprocs 0));
    step =
      (fun ~self ~nprocs st ~sender:_ v ->
        (st + 1, if v < 2 then broadcast ~self ~nprocs (v + 1) else []));
  }

let raises_invalid name f =
  Alcotest.(check bool) name true
    (match f () with
    | exception Invalid_argument _ -> true
    | exception Division_by_zero -> true
    | _ -> false)

let unit_tests =
  [
    Alcotest.test_case "bigint: malformed strings rejected" `Quick (fun () ->
        List.iter
          (fun s -> raises_invalid s (fun () -> Bigint.of_string s))
          [ ""; "abc"; "1.5"; "--3"; "-" ];
        raises_invalid "pow negative" (fun () -> Bigint.pow Bigint.two (-1));
        raises_invalid "shift negative" (fun () -> Bigint.shift_left Bigint.one (-1));
        raises_invalid "div by zero" (fun () -> Bigint.div Bigint.one Bigint.zero);
        raises_invalid "of_float nan" (fun () -> Bigint.of_float_floor Float.nan));
    Alcotest.test_case "rat: zero denominators and inverses rejected" `Quick (fun () ->
        raises_invalid "of_ints 1 0" (fun () -> Rat.of_ints 1 0);
        raises_invalid "inv 0" (fun () -> Rat.inv Rat.zero);
        raises_invalid "div by 0" (fun () -> Rat.div Rat.one Rat.zero));
    Alcotest.test_case "digraph: out-of-range edges rejected" `Quick (fun () ->
        let g = Digraph.create 2 in
        raises_invalid "src out of range" (fun () -> Digraph.add_edge g ~src:5 ~dst:0);
        raises_invalid "dst out of range" (fun () -> Digraph.add_edge g ~src:0 ~dst:(-1));
        raises_invalid "edge index" (fun () -> Digraph.edge g 0));
    Alcotest.test_case "execgraph: invalid construction rejected" `Quick (fun () ->
        let g = Graph.create ~nprocs:2 in
        raises_invalid "bad process" (fun () -> Graph.add_event g ~proc:7);
        raises_invalid "bad event ids" (fun () -> Graph.add_message g ~src:0 ~dst:1);
        raises_invalid "event out of range" (fun () -> Graph.event g 0));
    Alcotest.test_case "abc checker: Xi <= 1 rejected" `Quick (fun () ->
        let g = Graph.create ~nprocs:1 in
        ignore (Graph.add_event g ~proc:0);
        raises_invalid "Xi = 1" (fun () -> Abc_check.is_admissible g ~xi:Rat.one);
        raises_invalid "Xi = 1/2" (fun () -> Abc_check.is_admissible g ~xi:(q 1 2)));
    Alcotest.test_case "scenario builders validate their parameters" `Quick (fun () ->
        raises_invalid "spanning k1=0" (fun () -> Core.Scenarios.spanning_cycle ~k1:0 ~k2:3 ());
        raises_invalid "timeout odd chain" (fun () -> Core.Scenarios.timeout ~chain:3 ());
        raises_invalid "timeout chain 0" (fun () -> Core.Scenarios.timeout ~chain:0 ()));
    Alcotest.test_case "lockstep schedules validate" `Quick (fun () ->
        raises_invalid "uniform 0" (fun () -> Core.Lockstep.uniform_schedule 0);
        raises_invalid "doubling 0" (fun () -> Core.Lockstep.doubling_schedule 0));
    Alcotest.test_case "sim config validation" `Quick (fun () ->
        let algo : (unit, unit) Sim.algorithm =
          {
            init = (fun ~self:_ ~nprocs:_ -> ((), []));
            step = (fun ~self:_ ~nprocs:_ () ~sender:_ () -> ((), []));
          }
        in
        raises_invalid "fault array size" (fun () ->
            Sim.make_config ~nprocs:3 ~algorithm:algo ~faults:[| Sim.Correct |]
              ~scheduler:(Sim.constant_scheduler Rat.one) ~max_events:10 ());
        raises_invalid "byzantine without algorithm" (fun () ->
            Sim.make_config ~nprocs:1 ~algorithm:algo ~faults:[| Sim.Byzantine "" |]
              ~scheduler:(Sim.constant_scheduler Rat.one) ~max_events:10 ());
        raises_invalid "bad strategy name" (fun () ->
            Sim.make_config ~nprocs:1 ~algorithm:algo
              ~byzantine:(fun _ -> algo)
              ~faults:[| Sim.Byzantine "E Q" |]
              ~scheduler:(Sim.constant_scheduler Rat.one) ~max_events:10 ());
        raises_invalid "receive-omission j = 0" (fun () ->
            Sim.make_config ~nprocs:1 ~algorithm:algo
              ~faults:[| Sim.Receive_omission 0 |]
              ~scheduler:(Sim.constant_scheduler Rat.one) ~max_events:10 ());
        raises_invalid "recover k_up = 0" (fun () ->
            Sim.make_config ~nprocs:1 ~algorithm:algo
              ~faults:[| Sim.Recover (2, 0) |]
              ~scheduler:(Sim.constant_scheduler Rat.one) ~max_events:10 ());
        raises_invalid "plan: negative index" (fun () ->
            Sim.make_config ~nprocs:1 ~algorithm:algo ~plan:[ (-1, Sim.P_drop) ]
              ~faults:[| Sim.Correct |]
              ~scheduler:(Sim.constant_scheduler Rat.one) ~max_events:10 ());
        raises_invalid "plan: misdirect out of range" (fun () ->
            Sim.make_config ~nprocs:2 ~algorithm:algo
              ~plan:[ (0, Sim.P_misdirect 5) ]
              ~faults:[| Sim.Correct; Sim.Correct |]
              ~scheduler:(Sim.constant_scheduler Rat.one) ~max_events:10 ()));
    Alcotest.test_case "Crash 0 crashes before the wake-up" `Quick (fun () ->
        (* Pinned boundary semantics: a [Crash 0] process never takes
           its wake-up step, so its broadcast is lost and it owns no
           faithful-graph node — but its state is still the one [init]
           computes. *)
        let r =
          Sim.run
            (Sim.make_config ~nprocs:3 ~algorithm:chatter
               ~faults:[| Sim.Crash 0; Sim.Correct; Sim.Correct |]
               ~scheduler:(Sim.constant_scheduler Rat.one) ~max_events:60 ())
        in
        for i = 0 to Graph.event_count r.Sim.graph - 1 do
          Alcotest.(check bool) "no faithful node at p0" true
            ((Graph.event r.Sim.graph i).Event.proc <> 0)
        done;
        Array.iter
          (fun te ->
            Alcotest.(check bool) "no message from p0 delivered" true
              (te.Sim.tr_sender <> 0))
          r.Sim.trace;
        Alcotest.(check int) "p0 keeps its initial state" 0 r.Sim.final_states.(0);
        Alcotest.(check bool) "survivors still run" true
          (r.Sim.final_states.(1) > 0 && r.Sim.final_states.(2) > 0));
    Alcotest.test_case "cycle ratio on non-relevant cycles rejected" `Quick (fun () ->
        let g = Graph.create ~nprocs:1 in
        let a = Graph.add_event g ~proc:0 in
        let b = Graph.add_event g ~proc:0 in
        ignore (Graph.add_message g ~src:a.Event.id ~dst:b.Event.id);
        match Cycle.enumerate g with
        | [ c ] -> raises_invalid "ratio of non-relevant" (fun () -> Cycle.ratio c)
        | _ -> Alcotest.fail "expected one cycle");
  ]

let prop name count arb f = QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb f)

let property_tests =
  [
    prop "spanning_cycle threshold is exactly k2/k1" 60
      (QCheck.pair (QCheck.int_range 1 6) (QCheck.int_range 1 7))
      (fun (k1, k2) ->
        (* qcheck's int_range shrinker can escape its bounds; clamp *)
        let k1 = max 1 k1 and k2 = max 1 k2 in
        let g = Core.Scenarios.spanning_cycle ~k1 ~k2 () in
        (* admissible iff Xi > k2/k1: probe both sides of the boundary *)
        let r = Rat.of_ints k2 k1 in
        let above = Rat.max (Rat.add r (q 1 100)) (q 101 100) in
        let ok_above = Abc_check.is_admissible g ~xi:above in
        let ok_at =
          if Rat.compare r Rat.one > 0 then not (Abc_check.is_admissible g ~xi:r) else true
        in
        ok_above && ok_at);
    prop "deferring adversary never breaks admissibility" 12
      (QCheck.int_range 0 1000)
      (fun seed ->
        let xi = q (2 + (seed mod 3)) 1 in
        let cfg =
          Sim.make_config ~nprocs:4
            ~algorithm:(Core.Clock_sync.algorithm ~f:1)
            ~faults:(Array.make 4 Sim.Correct)
            ~scheduler:(Sim.constant_scheduler Rat.one)
            ~max_events:(120 + (seed mod 60))
            ()
        in
        let r =
          Sim.run_deferring cfg ~xi ~victim:(fun ~sender ~dst:_ -> sender = seed mod 4)
        in
        Abc_check.is_admissible r.Sim.graph ~xi && Graph.is_dag r.Sim.graph);
    prop "message accounting holds under every fault variant" 60
      (QCheck.int_range 0 1_000_000)
      (fun seed ->
        let seed = abs seed in
        let fault =
          match seed mod 6 with
          | 0 -> Sim.Correct
          | 1 -> Sim.Crash (seed / 6 mod 4)
          | 2 -> Sim.Send_omission (seed / 6 mod 4)
          | 3 -> Sim.Receive_omission (1 + (seed / 6 mod 3))
          | 4 -> Sim.Recover (seed / 6 mod 3, 1 + (seed / 6 mod 3))
          | _ -> Sim.Byzantine "mute"
        in
        let faults = Array.make 4 Sim.Correct in
        faults.(seed mod 4) <- fault;
        let plan =
          match seed mod 5 with
          | 0 -> []
          | 1 -> [ (seed mod 7, Sim.P_drop) ]
          | 2 -> [ (seed mod 7, Sim.P_duplicate Rat.one) ]
          | 3 -> [ (seed mod 7, Sim.P_misdirect (seed mod 4)) ]
          | _ -> [ (seed mod 7, Sim.P_delay (q 3 2)) ]
        in
        let silent : (int, int) Sim.algorithm =
          { init = (fun ~self:_ ~nprocs:_ -> (0, [])); step = (fun ~self:_ ~nprocs:_ s ~sender:_ _ -> (s, [])) }
        in
        let r =
          Sim.run
            (Sim.make_config ~nprocs:4 ~algorithm:chatter
               ~byzantine:(fun _ -> silent) ~plan ~faults
               ~scheduler:(Sim.constant_scheduler Rat.one) ~max_events:80 ())
        in
        r.Sim.posted = r.Sim.delivered + r.Sim.undelivered + r.Sim.dropped);
    prop "extended fault wire forms round-trip" 120
      (QCheck.int_range 0 1_000_000)
      (fun seed ->
        let seed = abs seed in
        let fault =
          match seed mod 6 with
          | 0 -> Sim.Correct
          | 1 -> Sim.Crash (seed / 6 mod 12)
          | 2 -> Sim.Send_omission (seed / 6 mod 12)
          | 3 -> Sim.Receive_omission (1 + (seed / 6 mod 9))
          | 4 -> Sim.Recover (seed / 6 mod 9, 1 + (seed / 6 mod 9))
          | _ ->
              let names = [| ""; "eq"; "lag2"; "rush3"; "mim1"; "rnd7" |] in
              Sim.Byzantine names.(seed / 6 mod Array.length names)
        in
        Sim.fault_of_string (Sim.fault_to_string fault) = Some fault);
    prop "fault plans round-trip through the wire form" 120
      (QCheck.int_range 0 1_000_000)
      (fun seed ->
        let seed = abs seed in
        let mix i = (seed * 48271) + (i * 2654435761) land 0x3FFFFFFF in
        let action i =
          let s = abs (mix i) in
          match s mod 4 with
          | 0 -> Sim.P_drop
          | 1 -> Sim.P_duplicate (q (1 + (s / 4 mod 5)) (1 + (s / 16 mod 3)))
          | 2 -> Sim.P_misdirect (s / 4 mod 4)
          | _ -> Sim.P_delay (q (s / 4 mod 7) (1 + (s / 16 mod 4)))
        in
        let stride = 1 + (seed mod 3) in
        let plan =
          List.init (seed mod 5) (fun i -> ((i * stride) + (seed mod 4), action i))
        in
        Sim.plan_of_string (Sim.plan_to_string plan) = Some plan);
  ]

let malformed_wire_tests =
  [
    Alcotest.test_case "malformed fault plans rejected" `Quick (fun () ->
        List.iter
          (fun s ->
            Alcotest.(check bool) (Printf.sprintf "rejected %S" s) true
              (Sim.plan_of_string s = None))
          [
            "5";
            "5:";
            ":drop";
            "5:zap";
            "x:drop";
            "5:dl";
            "5:to";
            "5:toX";
            "5:dup";
            "5:dup1/0";
            "5:drop,5:dup1";
            "5:drop,";
            ",";
            "-1:drop";
          ]);
  ]

(* The CLI binary, built beside this test (see the test stanza's deps). *)
let abc_exe = Filename.concat (Filename.dirname Sys.executable_name) "../bin/abc_cli.exe"

(* Run abc with [args]; its exit code and stdout+stderr. *)
let run_abc args =
  let out, inp, err =
    Unix.open_process_args_full abc_exe (Array.of_list ("abc" :: args)) (Unix.environment ())
  in
  close_out inp;
  let text = In_channel.input_all out ^ In_channel.input_all err in
  match Unix.close_process_full (out, inp, err) with
  | Unix.WEXITED code -> (code, text)
  | _ -> Alcotest.failf "abc %s: killed by a signal" (String.concat " " args)

let cli_tests =
  [
    Alcotest.test_case "an out-of-range Xi is a usage error naming 2^30" `Quick (fun () ->
        if not (Sys.file_exists abc_exe) then Alcotest.failf "%s is not built" abc_exe;
        let contains = Util.contains in
        List.iter
          (fun (args, want) ->
            let code, text = run_abc args in
            let what = String.concat " " args in
            if code <> want then
              Alcotest.failf "abc %s exited %d, expected %d:\n%s" what code want text;
            if not (contains "2^30" text) then
              Alcotest.failf "abc %s does not name the bound:\n%s" what text;
            if contains "uncaught" text || contains "FAIL" text then
              Alcotest.failf "abc %s reached the checker:\n%s" what text)
          [
            (* the converter: cmdliner's usage-error exit, not 125 *)
            ([ "check"; "--xi"; "4294967297/2" ], 124);
            ([ "mc"; "--procs"; "3"; "--budget"; "4"; "--xi"; "4294967297/2" ], 124);
            ( [
                "fuzz";
                "--replay";
                "abc1;s=1;n=4;f=C,C,C,C;xi=4294967297/2;w=clock;d=theta:1:2;e=8";
              ],
              1 );
          ]);
    Alcotest.test_case "a negative --cases is a usage error naming --cases" `Quick (fun () ->
        if not (Sys.file_exists abc_exe) then Alcotest.failf "%s is not built" abc_exe;
        (* whether the pool path runs (and would raise) depends on the
           core count and the flags; the answer must not *)
        List.iter
          (fun args ->
            let code, text = run_abc args in
            let what = String.concat " " args in
            (* 125 is cmdliner's exit on an uncaught exception *)
            if code = 0 || code = 125 then
              Alcotest.failf "abc %s exited %d:\n%s" what code text;
            if not (Util.contains "--cases" text) then
              Alcotest.failf "abc %s does not name --cases:\n%s" what text;
            if Util.contains "uncaught" text then
              Alcotest.failf "abc %s crashed:\n%s" what text)
          [
            [ "fuzz"; "--cases=-3" ];
            [ "fuzz"; "--cases=-3"; "--jobs"; "1" ];
            [ "trace"; "--cases=-3"; "--jobs"; "2" ];
          ]);
    Alcotest.test_case "a negative count or a short budget is an error, not a crash" `Quick
      (fun () ->
        if not (Sys.file_exists abc_exe) then Alcotest.failf "%s is not built" abc_exe;
        (* unchecked, each of these exits 125 (Array.make or Sim.run
           raising) or 0 (an empty scenario or a negative fault budget
           running) *)
        List.iter
          (fun args ->
            let code, text = run_abc args in
            let what = String.concat " " args in
            if code = 0 || code = 125 then
              Alcotest.failf "abc %s exited %d:\n%s" what code text;
            if Util.contains "uncaught" text then
              Alcotest.failf "abc %s crashed:\n%s" what text)
          [
            [ "simulate"; "--events=3" ];
            [ "mc"; "--procs=-1" ];
            [ "trace"; "--mc"; "--procs=-1" ];
            [ "simulate"; "--procs=-1"; "-f-1" ];
            [ "simulate"; "--procs=-1"; "--faulty=-1" ];
            [ "check"; "--scenario"; "random"; "--events=-5" ];
            [ "threshold"; "--scenario"; "random"; "--events=-5" ];
            [ "assign"; "--scenario"; "random"; "--events=-5" ];
            [ "simulate"; "--faulty=-2" ];
          ]);
    Alcotest.test_case "a box over the explorer's caps is an error, not a crash" `Quick
      (fun () ->
        if not (Sys.file_exists abc_exe) then Alcotest.failf "%s is not built" abc_exe;
        (* over 61 pending messages at one node, or a budget over 62:
           Mc.Driver.run raises Invalid_argument, which escaped both
           subcommands as exit 125 *)
        List.iter
          (fun (args, cap) ->
            let code, text = run_abc args in
            let what = String.concat " " args in
            if code <> 1 || not (Util.contains "error:" text && Util.contains cap text) then
              Alcotest.failf "abc %s exited %d without naming %S:\n%s" what code cap text;
            if Util.contains "uncaught" text then
              Alcotest.failf "abc %s crashed:\n%s" what text)
          [
            ([ "mc"; "--procs"; "8"; "--budget"; "10"; "--jobs"; "1" ], "pending");
            ([ "mc"; "--procs"; "8"; "--budget"; "10"; "--cross-check"; "--jobs"; "1" ], "pending");
            ([ "trace"; "--mc"; "--procs"; "62"; "--budget"; "62" ], "pending");
            ([ "mc"; "--budget"; "63" ], "mc cap 62");
            ([ "trace"; "--mc"; "--budget"; "63" ], "mc cap 62");
          ]);
    Alcotest.test_case "shard-only fuzz options need --shards" `Quick (fun () ->
        if not (Sys.file_exists abc_exe) then Alcotest.failf "%s is not built" abc_exe;
        (* a journal, a resume and a fault plan exist only for sharded
           runs: without --shards the flag is refused, not ignored *)
        let journal =
          Filename.concat (Filename.get_temp_dir_name ())
            (Printf.sprintf "abc_robustness_%d.ckpt" (Unix.getpid ()))
        in
        if Sys.file_exists journal then Sys.remove journal;
        List.iter
          (fun (args, named) ->
            let code, text = run_abc ("fuzz" :: "--cases" :: "5" :: args) in
            let what = String.concat " " args in
            if code <> 1 || not (Util.contains "error:" text && Util.contains named text) then
              Alcotest.failf "abc fuzz %s exited %d without naming %S:\n%s" what code named text;
            if Util.contains "fuzz campaign" text then
              Alcotest.failf "abc fuzz %s ran a campaign:\n%s" what text)
          [
            ([ "--checkpoint"; journal ], "--checkpoint");
            ([ "--resume"; "/nonexistent" ], "--resume");
            ([ "--nemesis"; "kill:0@2" ], "--nemesis");
            (* malformed: rejected with or without --shards, before any
               worker is spawned *)
            ([ "--nemesis"; "garbage!!" ], "nemesis item");
            ([ "--nemesis"; "garbage!!"; "--shards"; "2" ], "nemesis item");
          ];
        if Sys.file_exists journal then begin
          Sys.remove journal;
          Alcotest.fail "abc fuzz --checkpoint without --shards created the journal"
        end);
    Alcotest.test_case "fuzz --replay and --emit refuse campaign options" `Quick (fun () ->
        if not (Sys.file_exists abc_exe) then Alcotest.failf "%s is not built" abc_exe;
        (* one case replayed or printed is no campaign: a shard option
           there is an error naming it, never silently dropped *)
        let journal =
          Filename.concat (Filename.get_temp_dir_name ())
            (Printf.sprintf "abc_robustness_single_%d.ckpt" (Unix.getpid ()))
        in
        if Sys.file_exists journal then Sys.remove journal;
        let code, line = run_abc [ "fuzz"; "--emit"; "3" ] in
        if code <> 0 then Alcotest.failf "abc fuzz --emit 3 exited %d:\n%s" code line;
        let line = String.trim line in
        List.iter
          (fun path ->
            List.iter
              (fun (args, named) ->
                let args = "fuzz" :: (path @ args) in
                let code, text = run_abc args in
                let what = String.concat " " args in
                if code <> 1 || not (Util.contains "error:" text && Util.contains named text)
                then Alcotest.failf "abc %s exited %d without naming %S:\n%s" what code named text;
                if Util.contains "replaying" text || Util.contains line text then
                  Alcotest.failf "abc %s replayed or printed the case:\n%s" what text)
              [
                ([ "--shards"; "2" ], "--shards");
                ([ "--checkpoint"; journal ], "--checkpoint");
                ([ "--resume"; "/nonexistent" ], "--resume");
                ([ "--nemesis"; "garbage!!" ], "--nemesis");
                ([ "--workers"; "nope" ], "--workers");
                ([ "--listen"; "127.0.0.1:1" ], "--listen");
                ([ "--shards"; "2"; "--nemesis"; "garbage!!"; "--checkpoint"; journal ], "--shards");
              ])
          [ [ "--replay"; line ]; [ "--emit"; "3" ] ];
        if Sys.file_exists journal then begin
          Sys.remove journal;
          Alcotest.fail "abc fuzz --replay or --emit with --checkpoint created the journal"
        end);
    Alcotest.test_case "retired options are usage errors" `Quick (fun () ->
        if not (Sys.file_exists abc_exe) then Alcotest.failf "%s is not built" abc_exe;
        List.iter
          (fun args ->
            let code, text = run_abc args in
            if code <> 124 then
              Alcotest.failf "abc %s exited %d, expected 124:\n%s" (String.concat " " args)
                code text)
          [ [ "mc"; "--engine"; "replay" ]; [ "fuzz"; "--time-budget"; "5" ] ]);
    Alcotest.test_case "mc --cross-check runs the replay engine" `Quick (fun () ->
        if not (Sys.file_exists abc_exe) then Alcotest.failf "%s is not built" abc_exe;
        (* the replay engine's only way in from the command line *)
        let args = [ "mc"; "--procs"; "3"; "--budget"; "5"; "--cross-check"; "--jobs"; "1" ] in
        let code, text = run_abc args in
        if code <> 0
           || not
                (Util.contains "cross-check: replay engine agrees (69 classes, 360 executions)"
                   text)
        then Alcotest.failf "abc %s exited %d:\n%s" (String.concat " " args) code text);
    Alcotest.test_case "the empty random scenario has a delay assignment" `Quick (fun () ->
        if not (Sys.file_exists abc_exe) then Alcotest.failf "%s is not built" abc_exe;
        (* abc check calls the 0-event graph admissible; assign must agree *)
        let args = [ "assign"; "--scenario"; "random"; "--events"; "0" ] in
        let code, text = run_abc args in
        if code <> 0 || Util.contains "infeasible" text
           || not (Util.contains "verified: true" text)
        then Alcotest.failf "abc %s exited %d:\n%s" (String.concat " " args) code text);
  ]

let suite = unit_tests @ malformed_wire_tests @ property_tests @ cli_tests
