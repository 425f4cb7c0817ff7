(* Tests for lib/dist: the frame protocol (CRC detection, incremental
   parsing), the write-ahead checkpoint journal (tail-drop recovery vs
   hard header errors, and a property over cut and flipped journals),
   unit results (the payload checksum survives encoding and a re-run;
   a payload of the other kind is refused), the nemesis spec grammar,
   the monotonic clock, and — with real worker subprocesses (this very
   test binary, re-executed via Dist.Worker.maybe_run) — the
   supervisor's determinism contract: sharded campaign reports
   byte-identical to serial ones under worker kills, corrupt frames,
   duplicate replies, divergent results, stalls, a dead worker binary
   (in-process fallback), a supervisor kill + --resume, a journal
   record filed under the wrong unit, and an endpoint speaking the old
   protocol.  A fallback whose every unit fails must name each failing
   unit. *)

open Fuzz

let prop name count arb f =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb f)

(* ------------------------------------------------------------------ *)
(* Frame protocol *)

let sample_msgs =
  [
    Dist.Frame.M_spec (String.make 300 'x');
    Dist.Frame.M_request { unit_id = 7; lo = 112; hi = 128 };
    Dist.Frame.M_heartbeat;
    Dist.Frame.M_done { unit_id = 3; blob = "some\x00binary\xffblob" };
    Dist.Frame.M_error { unit_id = 9; message = "it broke" };
    Dist.Frame.M_quit;
  ]

let frame_tests =
  [
    Alcotest.test_case "crc32 matches the IEEE reference vector" `Quick
      (fun () ->
        Alcotest.(check int32)
          "crc32(123456789)" 0xCBF43926l
          (Dist.Frame.crc32 "123456789" ~pos:0 ~len:9));
    Alcotest.test_case "all messages round-trip, fed byte by byte" `Quick
      (fun () ->
        let stream = String.concat "" (List.map Dist.Frame.encode sample_msgs) in
        let p = Dist.Frame.parser_create () in
        let got = ref [] in
        String.iter
          (fun c ->
            Dist.Frame.feed p (Bytes.make 1 c) 1;
            let rec drain () =
              match Dist.Frame.next p with
              | Ok (Some m) ->
                  got := m :: !got;
                  drain ()
              | Ok None -> ()
              | Error e -> Alcotest.failf "parser rejected clean stream: %s" e
            in
            drain ())
          stream;
        if List.rev !got <> sample_msgs then
          Alcotest.fail "byte-at-a-time parse differs from the input");
    Alcotest.test_case "a flipped payload byte is unrecoverable" `Quick
      (fun () ->
        let s = Bytes.of_string (Dist.Frame.encode (List.nth sample_msgs 3)) in
        let i = Bytes.length s - 3 in
        Bytes.set s i (Char.chr (Char.code (Bytes.get s i) lxor 0x40));
        let p = Dist.Frame.parser_create () in
        Dist.Frame.feed p s (Bytes.length s);
        match Dist.Frame.next p with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "corrupt frame accepted");
    Alcotest.test_case "a truncated frame just waits for more" `Quick
      (fun () ->
        let s = Dist.Frame.encode (List.hd sample_msgs) in
        let half = Bytes.of_string (String.sub s 0 (String.length s / 2)) in
        let p = Dist.Frame.parser_create () in
        Dist.Frame.feed p half (Bytes.length half);
        match Dist.Frame.next p with
        | Ok None -> ()
        | Ok (Some _) -> Alcotest.fail "half a frame parsed as a message"
        | Error e -> Alcotest.failf "half a frame treated as corrupt: %s" e);
  ]

(* ------------------------------------------------------------------ *)
(* Checkpoint journal *)

let fp_a = String.make 32 'a'
let fp_b = String.make 32 'b'

let with_tmp f =
  let path = Filename.temp_file "abc_dist_test" ".journal" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let fresh_journal path =
  let j = Dist.Checkpoint.create ~path ~fingerprint:fp_a in
  Dist.Checkpoint.append j ~unit_id:0 ~blob:"unit-zero";
  Dist.Checkpoint.append j ~unit_id:1 ~blob:"unit-one";
  Dist.Checkpoint.close j

let checkpoint_tests =
  [
    Alcotest.test_case "round-trip, reopen-append, last record wins" `Quick
      (fun () ->
        with_tmp (fun path ->
            fresh_journal path;
            let j =
              match Dist.Checkpoint.reopen ~path ~fingerprint:fp_a with
              | Ok j -> j
              | Error e -> Alcotest.failf "reopen failed: %s" e
            in
            Dist.Checkpoint.append j ~unit_id:0 ~blob:"unit-zero-rerun";
            Dist.Checkpoint.close j;
            match Dist.Checkpoint.load ~path ~fingerprint:fp_a with
            | Error e -> Alcotest.failf "load failed: %s" e
            | Ok records ->
                Alcotest.(check (list (pair int string)))
                  "append order"
                  [ (0, "unit-zero"); (1, "unit-one"); (0, "unit-zero-rerun") ]
                  records));
    Alcotest.test_case "a truncated tail is dropped, not fatal" `Quick
      (fun () ->
        with_tmp (fun path ->
            fresh_journal path;
            let s = read_file path in
            (* cut into the middle of the second record: the classic
               kill -9 mid-append shape *)
            write_file path (String.sub s 0 (String.length s - 5));
            match Dist.Checkpoint.load ~path ~fingerprint:fp_a with
            | Error e -> Alcotest.failf "truncated tail was fatal: %s" e
            | Ok records ->
                Alcotest.(check (list (pair int string)))
                  "valid prefix survives" [ (0, "unit-zero") ] records));
    Alcotest.test_case "a flipped CRC byte drops that record and after" `Quick
      (fun () ->
        with_tmp (fun path ->
            fresh_journal path;
            let s = Bytes.of_string (read_file path) in
            (* corrupt one payload byte of the FIRST record (it starts
               right after the 40-byte header + 8-byte record header) *)
            let i = Dist.Checkpoint.header_len + 8 + 2 in
            Bytes.set s i (Char.chr (Char.code (Bytes.get s i) lxor 1));
            write_file path (Bytes.to_string s);
            match Dist.Checkpoint.load ~path ~fingerprint:fp_a with
            | Error e -> Alcotest.failf "corrupt record was fatal: %s" e
            | Ok records ->
                Alcotest.(check (list (pair int string)))
                  "nothing after the damage" [] records));
    Alcotest.test_case "version mismatch is a hard error" `Quick (fun () ->
        with_tmp (fun path ->
            fresh_journal path;
            let s = Bytes.of_string (read_file path) in
            (* version 1: the format that marshalled (unit_id, blob) *)
            Bytes.set s 7 '\001';
            write_file path (Bytes.to_string s);
            match Dist.Checkpoint.load ~path ~fingerprint:fp_a with
            | Error e ->
                if not (String.length e > 0) then Alcotest.fail "empty error"
            | Ok _ -> Alcotest.fail "foreign version accepted"));
    Alcotest.test_case "bad magic is a hard error" `Quick (fun () ->
        with_tmp (fun path ->
            fresh_journal path;
            let s = Bytes.of_string (read_file path) in
            Bytes.set s 0 'X';
            write_file path (Bytes.to_string s);
            match Dist.Checkpoint.load ~path ~fingerprint:fp_a with
            | Error _ -> ()
            | Ok _ -> Alcotest.fail "non-journal accepted"));
    Alcotest.test_case "foreign fingerprint is a hard error" `Quick (fun () ->
        with_tmp (fun path ->
            fresh_journal path;
            match Dist.Checkpoint.load ~path ~fingerprint:fp_b with
            | Error e ->
                if not (String.length e > 0) then Alcotest.fail "empty error"
            | Ok _ -> Alcotest.fail "foreign campaign's journal accepted"));
    Alcotest.test_case "reopen re-verifies the fingerprint" `Quick (fun () ->
        with_tmp (fun path ->
            fresh_journal path;
            match Dist.Checkpoint.reopen ~path ~fingerprint:fp_b with
            | Error _ -> ()
            | Ok _ -> Alcotest.fail "reopened a foreign campaign's journal"));
    (* the journal is the one input a resumed run reads from disk: any
       damage past the header must cost records, never raise *)
    prop "Checkpoint.load: records round-trip; a cut or flip keeps a prefix" 200
      QCheck.(
        make
          ~print:(fun (rs, cut, (at, mask)) ->
            Printf.sprintf "records %s, cut %d, flip %d^%d"
              (String.concat "; " (List.map (fun (u, b) -> Printf.sprintf "%d:%S" u b) rs))
              cut at mask)
          Gen.(
            triple
              (list_size (int_bound 6)
                 (pair
                    (map2 (fun hi lo -> (hi lsl 16) lor lo) (int_bound 0xFFFF) (int_bound 0xFFFF))
                    (string_size ~gen:char (int_bound 40))))
              nat
              (pair nat (int_range 1 255))))
      (fun (records, cut, (at, mask)) ->
        with_tmp (fun path ->
            let j = Dist.Checkpoint.create ~path ~fingerprint:fp_a in
            List.iter (fun (unit_id, blob) -> Dist.Checkpoint.append j ~unit_id ~blob) records;
            Dist.Checkpoint.close j;
            let clean = read_file path in
            let body = String.length clean - Dist.Checkpoint.header_len in
            let loads_prefix bytes =
              write_file path bytes;
              match Dist.Checkpoint.load ~path ~fingerprint:fp_a with
              | Ok got -> got = List.filteri (fun i _ -> i < List.length got) records
              | Error e -> QCheck.Test.fail_reportf "load refused a damaged body: %s" e
              | exception e -> QCheck.Test.fail_reportf "load raised %s" (Printexc.to_string e)
            in
            let flipped =
              if body = 0 then clean
              else
                let i = Dist.Checkpoint.header_len + (at mod body) in
                String.mapi (fun k c -> if k = i then Char.chr (Char.code c lxor mask) else c) clean
            in
            Dist.Checkpoint.load ~path ~fingerprint:fp_a = Ok records
            && loads_prefix (String.sub clean 0 (String.length clean - (cut mod (body + 1))))
            && loads_prefix flipped));
  ]

(* ------------------------------------------------------------------ *)
(* Unit results *)

(* one shrinking boundary fuzz unit and one unit of the e = 6 clock box *)
let boundary_unit =
  Dist.Work.W_fuzz
    { wf_seed = 1; wf_cases = 16; wf_boundary = true; wf_shrink = true; wf_oracles = None }

let clock6_unit =
  Dist.Work.W_mc
    {
      wm_line = "abc1;s=1;n=3;f=C,C,C;xi=2;w=clock;d=async:1;e=6";
      wm_dpor = true;
      wm_tt = true;
      wm_frontier = 2;
    }

let exec_first ?(capture = false) spec =
  let lo, hi = (Dist.Work.units spec).(0) in
  Dist.Work.exec_unit spec ~unit_id:0 ~lo ~hi ~capture

let boundary_blob = lazy (exec_first boundary_unit)
let clock6_blob = lazy (exec_first clock6_unit)

let work_tests =
  [
    Alcotest.test_case "a unit's checksum survives the wire and a re-run" `Quick
      (fun () ->
        List.iter
          (fun (spec, b) ->
            let b = Lazy.force b in
            (match Dist.Work.decode_blob (Dist.Work.encode_blob b) with
            | Error e -> Alcotest.failf "decode_blob: %s" e
            | Ok d ->
                Alcotest.(check (result string string))
                  "checksum of the decoded payload" (Ok b.Dist.Work.b_checksum)
                  (Dist.Work.payload_checksum spec d.Dist.Work.b_payload));
            Alcotest.(check string)
              "checksum of a captured re-run" b.Dist.Work.b_checksum
              (exec_first ~capture:true spec).Dist.Work.b_checksum)
          [ (boundary_unit, boundary_blob); (clock6_unit, clock6_blob) ];
        match (Lazy.force boundary_blob).Dist.Work.b_payload with
        | Dist.Work.P_fuzz { fp_evals; _ } ->
            if
              not
                (Array.exists
                   (fun (ce : Campaign.case_eval) ->
                     List.exists
                       (fun (f : Campaign.failure) -> f.Campaign.fl_shrunk <> None)
                       ce.Campaign.ce_failures)
                   fp_evals)
            then Alcotest.fail "the boundary unit shrank nothing"
        | Dist.Work.P_mc _ -> Alcotest.fail "a fuzz spec gave an mc payload");
    Alcotest.test_case "a payload of the other kind is refused" `Quick (fun () ->
        let fuzz = (Lazy.force boundary_blob).Dist.Work.b_payload
        and mc = (Lazy.force clock6_blob).Dist.Work.b_payload in
        List.iter
          (fun (spec, p) ->
            match Dist.Work.payload_checksum spec p with
            | Error _ -> ()
            | Ok _ -> Alcotest.fail "checksummed a payload of the other kind")
          [ (boundary_unit, mc); (clock6_unit, fuzz) ];
        match Dist.Work.merge_fuzz boundary_unit ~cost_wall:0.0 ~shards:1 [| mc |] with
        | _ -> Alcotest.fail "merge_fuzz merged an mc payload"
        | exception Invalid_argument _ -> ());
  ]

(* ------------------------------------------------------------------ *)
(* Nemesis spec grammar *)

let nemesis_tests =
  [
    Alcotest.test_case "parse / to_string round-trip" `Quick (fun () ->
        let spec = "kill:0@2,stall:1@1,corrupt:2@3,dup:0@1,flip:3@1,skill@4" in
        match Dist.Nemesis.parse spec with
        | Error e -> Alcotest.failf "rejected: %s" e
        | Ok n ->
            Alcotest.(check string) "round-trip" spec (Dist.Nemesis.to_string n);
            Alcotest.(check bool) "not none" false (Dist.Nemesis.is_none n));
    Alcotest.test_case "fault_for keys on (worker, ordinal)" `Quick (fun () ->
        match Dist.Nemesis.parse "kill:1@2,corrupt:1@3" with
        | Error e -> Alcotest.failf "rejected: %s" e
        | Ok n ->
            let f w o = Dist.Nemesis.fault_for n ~worker:w ~ordinal:o in
            Alcotest.(check bool) "1@2 kill" true (f 1 2 = Some Dist.Nemesis.Kill);
            Alcotest.(check bool) "1@3 corrupt" true (f 1 3 = Some Dist.Nemesis.Corrupt);
            Alcotest.(check bool) "1@1 nothing" true (f 1 1 = None);
            Alcotest.(check bool) "0@2 nothing" true (f 0 2 = None));
    Alcotest.test_case "worker_spec extracts one worker's faults" `Quick
      (fun () ->
        match Dist.Nemesis.parse "kill:0@1,stall:1@2,skill@3" with
        | Error e -> Alcotest.failf "rejected: %s" e
        | Ok n ->
            Alcotest.(check string)
              "worker 1" "stall:1@2"
              (Dist.Nemesis.worker_spec n ~worker:1);
            Alcotest.(check string)
              "worker 5 has none" ""
              (Dist.Nemesis.worker_spec n ~worker:5));
    Alcotest.test_case "malformed specs are rejected" `Quick (fun () ->
        List.iter
          (fun bad ->
            match Dist.Nemesis.parse bad with
            | Error _ -> ()
            | Ok _ -> Alcotest.failf "accepted %S" bad)
          [ "kill:0"; "explode:0@1"; "kill:x@1"; "kill:0@0"; "skill@1,skill@2"; "@3" ]);
  ]

(* ------------------------------------------------------------------ *)
(* Monotonic clock *)

let mclock_tests =
  [
    Alcotest.test_case "now () advances and never goes back" `Quick (fun () ->
        (* regression: the first ratchet stored IEEE bit patterns in a
           63-bit OCaml int, which froze now () at its first value —
           every backoff deadline then lay forever in the future *)
        let t0 = Mclock.now () in
        let rec wait tries =
          if Mclock.now () > t0 then ()
          else if tries = 0 then Alcotest.fail "now () is frozen"
          else begin
            Unix.sleepf 0.002;
            wait (tries - 1)
          end
        in
        wait 100;
        let prev = ref (Mclock.now ()) in
        for _ = 1 to 1000 do
          let t = Mclock.now () in
          if t < !prev then Alcotest.fail "now () went backwards";
          prev := t
        done);
    Alcotest.test_case "epoch () is wall time" `Quick (fun () ->
        if Mclock.epoch () < 1.0e9 then Alcotest.fail "epoch () is not Unix time");
  ]

(* ------------------------------------------------------------------ *)
(* Supervisor: real worker subprocesses (this binary, re-executed) *)

let cases = 40 (* 3 units of 16: enough dispatches for the faults to land *)
let seed = 11

let serial_report =
  lazy
    (Report.render
       (Campaign.run ~oracles:Oracle.registry ~shrink:true ~jobs:1 ~cases ~seed ()))

let run_sharded ?checkpoint ?resume ?worker_exe ?respawn_budget ?heartbeat
    ?(nemesis = Dist.Nemesis.none) ~shards () =
  let cfg =
    Dist.Supervisor.make_config ?checkpoint
      ?resume:(Option.map (fun () -> true) resume)
      ?worker_exe ?respawn_budget ?heartbeat ~nemesis ~shards ()
  in
  Report.render
    (Dist.Supervisor.run_fuzz ~quiet:true cfg ~seed ~cases ~boundary:false
       ~shrink:true ~oracles:None ())

let check_identical name sharded =
  if sharded <> Lazy.force serial_report then
    Alcotest.failf "%s: sharded report differs from serial:\n%s" name sharded

let supervisor_tests =
  [
    Alcotest.test_case "sharded report identical to serial" `Slow (fun () ->
        check_identical "shards=2" (run_sharded ~shards:2 ()));
    Alcotest.test_case "identical under kill/corrupt/dup/flip nemeses" `Slow
      (fun () ->
        List.iter
          (fun spec ->
            match Dist.Nemesis.parse spec with
            | Error e -> Alcotest.failf "bad spec %s: %s" spec e
            | Ok nemesis ->
                check_identical spec (run_sharded ~shards:2 ~nemesis ()))
          [
            "kill:0@1";
            "corrupt:1@1";
            "dup:0@1";
            "flip:1@1";
            "trunc:0@2";
            "nrefuse:1@1";
            "ndrop:0@1";
            "npartial:1@1";
          ]);
    Alcotest.test_case "identical across a stall + heartbeat kill" `Slow
      (fun () ->
        match Dist.Nemesis.parse "stall:0@1" with
        | Error e -> Alcotest.failf "bad spec: %s" e
        | Ok nemesis ->
            check_identical "stall"
              (run_sharded ~shards:2 ~nemesis ~heartbeat:1.0 ()));
    Alcotest.test_case "dead worker binary degrades to in-process" `Slow
      (fun () ->
        check_identical "fallback"
          (run_sharded ~shards:2 ~worker_exe:"/nonexistent/abc-worker"
             ~respawn_budget:2 ()));
    Alcotest.test_case "in-process fallback names every failing unit" `Quick
      (fun () ->
        (* no respawn budget: the campaign goes straight to the
           in-process fallback, where an unknown oracle fails each of
           the 3 units; one failure must not mask the others *)
        let cfg = Dist.Supervisor.make_config ~respawn_budget:0 ~shards:2 () in
        match
          Dist.Supervisor.run_fuzz ~quiet:true cfg ~seed ~cases ~boundary:false
            ~shrink:true ~oracles:(Some "no-such-oracle") ()
        with
        | _ -> Alcotest.fail "a campaign with an unknown oracle produced a report"
        | exception Dist.Supervisor.Dist_error e ->
            List.iter
              (fun u ->
                if not (Util.contains (Printf.sprintf "unit %d: " u) e) then
                  Alcotest.failf "unit %d is not named in: %s" u e)
              [ 0; 1; 2 ]);
    Alcotest.test_case "twice-divergent shard is a named hard error" `Slow
      (fun () ->
        (* every worker flips every result: each flip quarantines its
           sender, and with enough respawn budget some unit's re-run
           diverges a second time — which must not be papered over by
           picking one of the two answers *)
        let nemesis =
          {
            Dist.Nemesis.worker_faults =
              List.concat_map
                (fun w ->
                  List.map (fun o -> (w, o, Dist.Nemesis.Flip)) [ 1; 2; 3; 4 ])
                [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9; 10; 11 ];
            supervisor_kill = None;
          }
        in
        match run_sharded ~shards:1 ~respawn_budget:10 ~nemesis () with
        | _ -> Alcotest.fail "divergent campaign produced a report"
        | exception Dist.Supervisor.Dist_error e ->
            let contains needle =
              let nh = String.length e and nn = String.length needle in
              let rec go i =
                i + nn <= nh && (String.sub e i nn = needle || go (i + 1))
              in
              go 0
            in
            if not (contains "shard " && contains "replay") then
              Alcotest.failf "uninformative divergence error: %s" e);
    Alcotest.test_case "supervisor kill then --resume reproduces the report"
      `Slow (fun () ->
        with_tmp (fun path ->
            (match Dist.Nemesis.parse "skill@1" with
            | Error e -> Alcotest.failf "bad spec: %s" e
            | Ok nemesis -> (
                match run_sharded ~shards:2 ~checkpoint:path ~nemesis () with
                | _ -> Alcotest.fail "nemesis failed to kill the supervisor"
                | exception Dist.Nemesis.Supervisor_killed 1 -> ()
                | exception Dist.Nemesis.Supervisor_killed n ->
                    Alcotest.failf "killed after %d units, wanted 1" n));
            check_identical "resume"
              (run_sharded ~shards:2 ~checkpoint:path ~resume:() ())));
    Alcotest.test_case "resume re-runs a record filed under the wrong unit" `Slow
      (fun () ->
        (* a complete journal whose unit-0 record carries unit 1's
           blob: both pass their CRCs and unit 1's checksum, so only
           the unit check keeps unit 1's cases out of unit 0's place *)
        with_tmp (fun path ->
            check_identical "checkpointed" (run_sharded ~shards:2 ~checkpoint:path ());
            let fingerprint =
              Dist.Work.fingerprint
                (Dist.Work.W_fuzz
                   {
                     wf_seed = seed;
                     wf_cases = cases;
                     wf_boundary = false;
                     wf_shrink = true;
                     wf_oracles = None;
                   })
            in
            let records =
              match Dist.Checkpoint.load ~path ~fingerprint with
              | Ok r -> r
              | Error e -> Alcotest.failf "load: %s" e
            in
            let unit1 = List.assoc 1 records in
            let j = Dist.Checkpoint.create ~path ~fingerprint in
            List.iter
              (fun (unit_id, blob) ->
                Dist.Checkpoint.append j ~unit_id ~blob:(if unit_id = 0 then unit1 else blob))
              records;
            Dist.Checkpoint.close j;
            check_identical "wrong-unit resume"
              (run_sharded ~shards:2 ~checkpoint:path ~resume:() ())));
    Alcotest.test_case "a worker of the old protocol is dealt no unit" `Slow (fun () ->
        (* one endpoint that greets with the version-1 hello and then
           only reads: the supervisor must never send it a request (a
           long-lived one would cost a dispatch attempt per connection)
           and must finish on the subprocess rung once it is killed *)
        let path = Filename.temp_file "abc_dist_old_worker" ".sock" in
        Sys.remove path;
        let l = Unix.socket PF_UNIX SOCK_STREAM 0 in
        Unix.bind l (ADDR_UNIX path);
        Unix.listen l 1;
        let requests = Atomic.make 0 in
        let old_worker =
          Thread.create
            (fun () ->
              let fd, _ = Unix.accept l in
              ignore (Unix.write_substring fd "ABCDIST-WORKER-1\n" 0 17);
              let p = Dist.Frame.parser_create () and buf = Bytes.create 4096 in
              let rec hold () =
                match Unix.read fd buf 0 4096 with
                | 0 | (exception _) -> ()
                | n ->
                    Dist.Frame.feed p buf n;
                    let rec drain () =
                      match Dist.Frame.next p with
                      | Ok (Some (Dist.Frame.M_request _)) ->
                          Atomic.incr requests;
                          drain ()
                      | Ok (Some _) -> drain ()
                      | Ok None | Error _ -> ()
                    in
                    drain ();
                    hold ()
              in
              hold ();
              Unix.close fd)
            ()
        in
        let cfg =
          Dist.Supervisor.make_config
            ~endpoints:[ (Net.Transport.Unix_sock path, 1) ]
            ~dial_budget:1 ~heartbeat:1.0 ~shards:2 ()
        in
        let report =
          Fun.protect
            ~finally:(fun () ->
              Thread.join old_worker;
              Unix.close l;
              Sys.remove path)
            (fun () ->
              Report.render
                (Dist.Supervisor.run_fuzz ~quiet:true cfg ~seed ~cases ~boundary:false
                   ~shrink:true ~oracles:None ()))
        in
        check_identical "old-protocol endpoint" report;
        Alcotest.(check int) "requests sent to the old worker" 0 (Atomic.get requests));
    Alcotest.test_case "sharded mc report identical to serial" `Slow (fun () ->
        let case =
          {
            Gen.c_seed = 1;
            c_nprocs = 3;
            c_faults = Array.make 3 Sim.Correct;
            c_xi = Rat.of_ints 2 1;
            c_sched = Gen.S_async { max_delay = Rat.one };
            c_workload = Gen.W_clock;
            c_max_events = 5;
            c_plan = [];
            c_boundary = false;
            c_schedule = [];
          }
        in
        let serial = Mc.Mc_report.render ~stats:false (Mc.Driver.run case) in
        let cfg = Dist.Supervisor.make_config ~shards:2 () in
        let sharded =
          Mc.Mc_report.render ~stats:false
            (Dist.Supervisor.run_mc ~quiet:true cfg ~dpor:true ~tt:true ~frontier:2 case)
        in
        Alcotest.(check string) "mc report" serial sharded);
    Alcotest.test_case "a worker beats while it computes a unit" `Slow
      (fun () ->
        (* the heartbeat is a thread on the worker's one domain, so it
           beats only when the computing thread yields the runtime:
           a unit of 4 frontier tasks of the e = 9 box (~2 s on a
           2-core box) must carry beats before its reply *)
        let spec =
          Dist.Work.W_mc
            {
              wm_line = "abc1;s=1;n=3;f=C,C,C;xi=2;w=clock;d=async:1;e=9";
              wm_dpor = true;
              wm_tt = false;
              wm_frontier = 2;
            }
        in
        let env =
          Array.append (Unix.environment ())
            [|
              Dist.Worker.env_binding ~id:0 ~mode:Dist.Worker.Pipe
                ~nemesis:Dist.Nemesis.none ();
            |]
        in
        let tr =
          match Net.Transport.spawn Sys.executable_name ~env with
          | Ok tr -> tr
          | Error e -> Alcotest.failf "spawn: %s" e
        in
        Fun.protect
          ~finally:(fun () -> Net.Transport.close tr)
          (fun () ->
            let deadline = Mclock.now () +. 60.0 in
            List.iter
              (fun m -> Net.Transport.write ~deadline tr (Dist.Frame.encode m))
              [
                Dist.Frame.M_spec (Dist.Work.canonical spec);
                Dist.Frame.M_request { unit_id = 0; lo = 0; hi = 4 };
              ];
            let p = Dist.Frame.parser_create ~await_hello:true () in
            let buf = Bytes.create 4096 in
            let rec beats_before_done n =
              match Dist.Frame.next p with
              | Ok (Some Dist.Frame.M_heartbeat) -> beats_before_done (n + 1)
              | Ok (Some (Dist.Frame.M_done _)) -> n
              | Ok (Some _) -> Alcotest.fail "unexpected frame"
              | Error e -> Alcotest.failf "corrupt stream: %s" e
              | Ok None -> (
                  match Net.Transport.read ~deadline tr buf 0 4096 with
                  | 0 -> Alcotest.fail "worker hung up before its reply"
                  | k ->
                      Dist.Frame.feed p buf k;
                      beats_before_done n)
            in
            if beats_before_done 0 = 0 then
              Alcotest.fail "no heartbeat while the worker computed"));
  ]

(* ------------------------------------------------------------------ *)
(* Malformed-input properties for the harness's text inputs: each
   parser gives a printed valid value back, and on random strings and
   edits of valid ones returns Ok or Error — it never raises. *)

(* the characters the grammars care about, and a few they never use *)
let nasty = ";=:@,*-+_./ \t\n\x00\xff0123456789abcdefiklmnoprstuxyz"
let nasty_char = QCheck.Gen.(map (String.get nasty) (int_bound (String.length nasty - 1)))

(* one edit: delete, insert, replace, truncate at, or repeat from [pos] *)
let edit s (kind, pos, c) =
  let n = String.length s in
  let i = if n = 0 then 0 else pos mod n in
  match kind mod 5 with
  | 0 when n > 0 -> String.sub s 0 i ^ String.sub s (i + 1) (n - i - 1)
  | 1 -> String.sub s 0 i ^ String.make 1 c ^ String.sub s i (n - i)
  | 2 when n > 0 -> String.mapi (fun j x -> if j = i then c else x) s
  | 3 -> String.sub s 0 i
  | _ -> s ^ String.sub s i (n - i)

let parser_prop name valid ~print ~parse =
  prop (name ^ " round-trips and never raises on malformed input") 200
    QCheck.(
      triple (make ~print valid)
        (make Gen.(list_size (int_range 1 4) (triple small_nat small_nat nasty_char)))
        (string_gen_of_size Gen.(int_bound 40) nasty_char))
    (fun (v, edits, junk) ->
      let text = print v in
      parse text = Ok v
      && List.for_all
           (fun m -> match parse m with Ok _ | Error _ -> true)
           (junk :: List.map (edit text) edits))

let word chars = QCheck.Gen.(string_size ~gen:(oneofl chars) (int_range 1 10))
let alnum = List.init 26 (fun i -> Char.chr (97 + i)) @ List.init 10 (fun i -> Char.chr (48 + i))

let addr_gen =
  QCheck.Gen.(
    oneof
      [
        map2 (fun h p -> Net.Transport.Tcp ("h" ^ h, p)) (word ('.' :: '-' :: alnum)) (int_range 1 65535);
        map (fun p -> Net.Transport.Unix_sock ("/" ^ p)) (word ('.' :: '_' :: '/' :: alnum));
      ])

let faults =
  Dist.Nemesis.[ Kill; Stall; Corrupt; Trunc; Dup; Flip; NRefuse; NDrop; NPartial; NDup ]

let worker_faults_gen ~worker =
  QCheck.Gen.(
    list_size (int_bound 4)
      (map3 (fun w s f -> (w, s, f)) worker (int_range 1 50) (oneofl faults)))

let spec_gen =
  QCheck.Gen.(
    oneof
      [
        (let+ wf_seed = int and+ wf_cases = nat and+ wf_boundary = bool and+ wf_shrink = bool
         and+ wf_oracles =
           opt (map (String.concat ",") (list_size (int_range 1 3) (oneofl (Oracle.oracle_names Oracle.registry))))
         in
         Dist.Work.W_fuzz { wf_seed; wf_cases; wf_boundary; wf_shrink; wf_oracles });
        (let+ s = nat and+ wm_dpor = bool and+ wm_tt = bool and+ wm_frontier = int in
         let wm_line = Replay.to_string { (Fuzz.Gen.generate ~seed:s) with Fuzz.Gen.c_schedule = [] } in
         Dist.Work.W_mc { wm_line; wm_dpor; wm_tt; wm_frontier });
      ])

let worker_cfg_gen =
  QCheck.Gen.(
    let* id = int_bound 1000 and* mode = oneofl Dist.Worker.[ Pipe; Listen; Connect ] in
    let+ addr = if mode = Dist.Worker.Pipe then pure None else map Option.some addr_gen
    and+ worker_faults = worker_faults_gen ~worker:(pure id)
    and+ max_frame = int_range 1 Dist.Frame.max_payload and+ once = bool in
    let nemesis = { Dist.Nemesis.worker_faults; supervisor_kill = None } in
    { Dist.Worker.id; mode; addr; nemesis; max_frame; once })

(* plain and boundary cases; a random sch= schedule rides along only
   where it is legal, since a deferring box rejects one by design *)
let replay_case_gen =
  QCheck.Gen.(
    let* seed = nat and* boundary = bool in
    let c = if boundary then Fuzz.Gen.generate_boundary ~seed else Fuzz.Gen.generate ~seed in
    match c.Fuzz.Gen.c_sched with
    | Fuzz.Gen.S_deferring _ -> pure c
    | _ ->
        let+ c_schedule = oneof [ pure []; list_size (int_range 1 12) small_nat ] in
        { c with Fuzz.Gen.c_schedule })

let input_tests =
  [
    parser_prop "Replay.of_string" replay_case_gen ~print:Replay.to_string
      ~parse:Replay.of_string;
    parser_prop "Work.spec_of_string" spec_gen ~print:Dist.Work.canonical
      ~parse:Dist.Work.spec_of_string;
    Alcotest.test_case "an mc spec with the retired engine= field is an Error" `Quick (fun () ->
        (* the spec format before the engine= field was dropped: a
           worker reads its spec from whatever connected, so an old
           peer's spec must come back as Error, never an exception *)
        let line = "abc1;s=1;n=3;f=C,C,C;xi=2;w=clock;d=async:1;e=5" in
        List.iter
          (fun engine ->
            let old =
              Printf.sprintf "mc;line=%s;dpor=true;engine=%s;tt=true;frontier=2;unit=4" line
                engine
            in
            match Dist.Work.spec_of_string old with
            | Error _ -> ()
            | Ok _ -> Alcotest.failf "accepted %S" old
            | exception e -> Alcotest.failf "%S raised %s" old (Printexc.to_string e))
          [ "replay"; "incremental" ]);
    parser_prop "Nemesis.parse"
      QCheck.Gen.(
        map2
          (fun worker_faults supervisor_kill -> { Dist.Nemesis.worker_faults; supervisor_kill })
          (worker_faults_gen ~worker:(int_bound 20))
          (opt (int_range 1 50)))
      ~print:Dist.Nemesis.to_string ~parse:Dist.Nemesis.parse;
    parser_prop "Registry.parse_workers"
      QCheck.Gen.(list_size (int_range 1 4) (pair addr_gen (int_range 1 1000)))
      ~print:(fun eps ->
        String.concat ","
          (List.map (fun (a, w) -> Printf.sprintf "%s*%d" (Net.Transport.addr_to_string a) w) eps))
      ~parse:Net.Registry.parse_workers;
    parser_prop "Transport.addr_of_string" addr_gen ~print:Net.Transport.addr_to_string
      ~parse:Net.Transport.addr_of_string;
    parser_prop "Worker.parse_env" worker_cfg_gen
      ~print:(fun (c : Dist.Worker.cfg) ->
        let b =
          Dist.Worker.env_binding ~id:c.id ~mode:c.mode ?addr:c.addr ~nemesis:c.nemesis
            ~max_frame:c.max_frame ~once:c.once ()
        in
        let k = String.length Dist.Worker.env_var + 1 in
        String.sub b k (String.length b - k))
      ~parse:Dist.Worker.parse_env;
  ]

let suite =
  frame_tests @ checkpoint_tests @ work_tests @ nemesis_tests @ mclock_tests
  @ supervisor_tests @ input_tests
