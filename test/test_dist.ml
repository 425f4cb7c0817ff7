(* Tests for lib/dist: the frame protocol (CRC detection, incremental
   parsing), the write-ahead checkpoint journal (tail-drop recovery vs
   hard header errors), the nemesis spec grammar, the monotonic clock,
   Pool.map_all_errors, and — with real worker subprocesses (this very
   test binary, re-executed via Dist.Worker.maybe_run) — the
   supervisor's determinism contract: sharded campaign reports
   byte-identical to serial ones under worker kills, corrupt frames,
   duplicate replies, divergent results, stalls, a dead worker binary
   (in-process fallback), and a supervisor kill + --resume.  Also the
   session-reuse shrinking equivalence (Fuzz.Shrink / Mc.Mc_shrink
   with and without Sched_walk produce identical results). *)

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
            Bytes.set s 7 '\002';
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
(* Pool.map_all_errors *)

let pool_tests =
  [
    Alcotest.test_case "map_all_errors: every task's fate, in order" `Quick
      (fun () ->
        let r =
          Pool.map_all_errors ~jobs:4 10 (fun i ->
              if i = 3 then failwith "three"
              else if i = 7 then failwith "seven"
              else i * i)
        in
        Alcotest.(check int) "length" 10 (Array.length r);
        Array.iteri
          (fun i res ->
            match (i, res) with
            | 3, Error (Failure m) -> Alcotest.(check string) "3" "three" m
            | 7, Error (Failure m) -> Alcotest.(check string) "7" "seven" m
            | _, Ok v -> Alcotest.(check int) "value" (i * i) v
            | _, Error e ->
                Alcotest.failf "index %d failed: %s" i (Printexc.to_string e))
          r);
    Alcotest.test_case "map_all_errors: clean run is all Ok" `Quick (fun () ->
        let r = Pool.map_all_errors ~jobs:2 5 (fun i -> i) in
        Array.iteri
          (fun i -> function
            | Ok v -> Alcotest.(check int) "value" i v
            | Error e -> Alcotest.failf "unexpected: %s" (Printexc.to_string e))
          r);
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
            (Dist.Supervisor.run_mc ~quiet:true cfg ~dpor:true
               ~incremental:true ~tt:true ~frontier:2 case)
        in
        Alcotest.(check string) "mc report" serial sharded);
  ]

(* ------------------------------------------------------------------ *)
(* Session-reuse shrinking equivalence (Sched_walk vs stateless) *)

(* A synthetic oracle whose verdict depends on the run, so shrinking
   actually exercises the evaluation path. *)
let syn_oracle =
  {
    Oracle.name = "syn-delivered";
    theorem = "test-only: fails when anything was delivered";
    check =
      (fun ctx ->
        if Gen.delivered_of_run ctx.Oracle.run >= 1 then Oracle.Fail "delivered"
        else Oracle.Pass);
  }

let witness_line =
  "abc1;s=1;n=3;f=C,C,Beq;xi=3/2;w=clock;d=async:1;e=20;b=1;sch=0.0.0.6.0.2.5.1.6.2.6.4.6.7.8.8.9.10.10.11"

let shrink_equivalence_tests =
  [
    prop "session-reuse shrinking = stateless shrinking" 12
      QCheck.(
        make
          Gen.(
            pair (int_range 0 5000)
              (list_size (int_range 1 30) (int_range 0 10))))
      (fun (s, sched) ->
        let case = Fuzz.Gen.generate ~seed:s in
        let case =
          { case with Gen.c_schedule = sched; c_max_events = min case.Gen.c_max_events 16 }
        in
        match Gen.validate case with
        | Error _ -> true (* not a valid box: nothing to compare *)
        | Ok case ->
            let sh reuse =
              Shrink.shrink ~session_reuse:reuse ~oracles:[ syn_oracle ]
                ~oracle:"syn-delivered" case
            in
            let a = sh true and b = sh false in
            if
              Replay.to_string a.Shrink.shrunk <> Replay.to_string b.Shrink.shrunk
              || a.Shrink.steps <> b.Shrink.steps
              || a.Shrink.evaluations <> b.Shrink.evaluations
            then
              QCheck.Test.fail_reportf
                "paths diverge on %s:@.reuse %s (%d steps, %d evals)@.fresh %s \
                 (%d steps, %d evals)"
                (Replay.to_string case)
                (Replay.to_string a.Shrink.shrunk)
                a.Shrink.steps a.Shrink.evaluations
                (Replay.to_string b.Shrink.shrunk)
                b.Shrink.steps b.Shrink.evaluations
            else true);
    Alcotest.test_case "mc witness shrinks identically both ways" `Quick
      (fun () ->
        match Replay.of_string witness_line with
        | Error e -> Alcotest.failf "witness rejected: %s" e
        | Ok c ->
            let sh reuse =
              Mc.Mc_shrink.shrink ~session_reuse:reuse ~oracles:Oracle.registry
                ~oracle:"boundary-precision" c
            in
            Alcotest.(check string)
              "same shrunk schedule"
              (Replay.to_string (sh true))
              (Replay.to_string (sh false)));
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
        (let+ s = nat and+ wm_dpor = bool and+ wm_incremental = bool and+ wm_tt = bool and+ wm_frontier = int in
         let wm_line = Replay.to_string { (Fuzz.Gen.generate ~seed:s) with Fuzz.Gen.c_schedule = [] } in
         Dist.Work.W_mc { wm_line; wm_dpor; wm_incremental; wm_tt; wm_frontier });
      ])

let worker_cfg_gen =
  QCheck.Gen.(
    let* id = int_bound 1000 and* mode = oneofl Dist.Worker.[ Pipe; Listen; Connect ] in
    let+ addr = if mode = Dist.Worker.Pipe then pure None else map Option.some addr_gen
    and+ worker_faults = worker_faults_gen ~worker:(pure id)
    and+ max_frame = int_range 1 Dist.Frame.max_payload and+ once = bool in
    let nemesis = { Dist.Nemesis.worker_faults; supervisor_kill = None } in
    { Dist.Worker.id; mode; addr; nemesis; max_frame; once })

let input_tests =
  [
    parser_prop "Work.spec_of_string" spec_gen ~print:Dist.Work.canonical
      ~parse:Dist.Work.spec_of_string;
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
  frame_tests @ checkpoint_tests @ nemesis_tests @ mclock_tests @ pool_tests
  @ supervisor_tests @ shrink_equivalence_tests @ input_tests
