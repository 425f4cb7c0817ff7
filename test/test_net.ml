(* Tests for lib/net and the socket-provisioned supervisor: address
   grammar, deadline-bounded transports (pipe, Unix-domain, TCP with
   kernel-assigned ports), the endpoint registry's health machine and
   capacity-weighted dealing, the --max-frame cap at its exact
   boundary, a qcheck fuzz of the frame decoder over real pipe and
   socket byte streams (truncation, bit flips, garbage preambles must
   round-trip or fail typed — never crash or hang), and — with real
   [abc serve] worker subprocesses (this very test binary, re-executed
   via Dist.Worker.maybe_run) — the determinism contract over sockets:
   campaigns stay byte-identical to serial under every network
   nemesis, across a forced re-lease, down the degradation ladder
   (dead endpoints -> subprocess workers -> in-process pool), and
   through a --resume mixed with --workers, which must re-verify the
   campaign fingerprint. *)

open Fuzz

let prop name count arb f =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb f)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

(* ------------------------------------------------------------------ *)
(* Address grammar *)

let addr_tests =
  [
    Alcotest.test_case "addr strings round-trip" `Quick (fun () ->
        List.iter
          (fun (s, a) ->
            (match Net.Transport.addr_of_string s with
            | Ok got when got = a -> ()
            | Ok _ -> Alcotest.failf "%S parsed to the wrong address" s
            | Error e -> Alcotest.failf "%S rejected: %s" s e);
            Alcotest.(check string) "to_string" s (Net.Transport.addr_to_string a))
          [
            ("127.0.0.1:7001", Net.Transport.Tcp ("127.0.0.1", 7001));
            ("worker-3:65535", Net.Transport.Tcp ("worker-3", 65535));
            ("unix:/tmp/w.sock", Net.Transport.Unix_sock "/tmp/w.sock");
          ]);
    Alcotest.test_case "junk addresses are rejected" `Quick (fun () ->
        List.iter
          (fun bad ->
            match Net.Transport.addr_of_string bad with
            | Error _ -> ()
            | Ok _ -> Alcotest.failf "accepted %S" bad)
          [ ""; "nohost"; ":7001"; "h:0"; "h:65536"; "h:port"; "unix:" ]);
  ]

(* ------------------------------------------------------------------ *)
(* Transports: pipe, Unix-domain, TCP *)

let fresh_sock_path () =
  let p = Filename.temp_file "abc_net" ".sock" in
  (try Sys.remove p with Sys_error _ -> ());
  p

let transport_tests =
  [
    Alcotest.test_case "pipe transport round-trips both directions" `Quick
      (fun () ->
        let r1, w1 = Unix.pipe () and r2, w2 = Unix.pipe () in
        let a = Net.Transport.of_pipe ~read_fd:r1 ~write_fd:w2 in
        let b = Net.Transport.of_pipe ~read_fd:r2 ~write_fd:w1 in
        let deadline = Mclock.now () +. 5.0 in
        Net.Transport.write ~deadline a "ping";
        let buf = Bytes.create 16 in
        let n = Net.Transport.read ~deadline b buf 0 16 in
        Alcotest.(check string) "a->b" "ping" (Bytes.sub_string buf 0 n);
        Net.Transport.write ~deadline b "pong";
        let n = Net.Transport.read ~deadline a buf 0 16 in
        Alcotest.(check string) "b->a" "pong" (Bytes.sub_string buf 0 n);
        Net.Transport.close a;
        Net.Transport.close a;
        (* idempotent *)
        Net.Transport.close b);
    Alcotest.test_case "tcp: port 0 resolves, connect/accept round-trip"
      `Quick (fun () ->
        let l =
          match Net.Transport.listen (Net.Transport.Tcp ("127.0.0.1", 0)) with
          | Ok l -> l
          | Error e -> Alcotest.failf "listen: %s" e
        in
        (match Net.Transport.bound_addr l with
        | Net.Transport.Tcp (_, p) when p > 0 -> ()
        | a ->
            Alcotest.failf "port 0 did not resolve: %s"
              (Net.Transport.addr_to_string a));
        let deadline = Mclock.now () +. 5.0 in
        let c =
          match Net.Transport.connect ~deadline (Net.Transport.bound_addr l) with
          | Ok c -> c
          | Error e -> Alcotest.failf "connect: %s" e
        in
        let s =
          match Net.Transport.accept ~deadline l with
          | Ok s -> s
          | Error e -> Alcotest.failf "accept: %s" e
        in
        Net.Transport.write ~deadline c "hello over tcp";
        let buf = Bytes.create 64 in
        let n = Net.Transport.read ~deadline s buf 0 64 in
        Alcotest.(check string) "payload" "hello over tcp"
          (Bytes.sub_string buf 0 n);
        (* a read with nothing inbound must raise Timeout, quickly *)
        (match Net.Transport.read ~deadline:(Mclock.now () +. 0.05) c buf 0 8 with
        | _ -> Alcotest.fail "read past the deadline returned"
        | exception Net.Transport.Timeout _ -> ());
        Net.Transport.close c;
        Net.Transport.close s;
        Net.Transport.close_listener l);
    Alcotest.test_case "unix-domain listener accepts and serves" `Quick
      (fun () ->
        let path = fresh_sock_path () in
        let addr = Net.Transport.Unix_sock path in
        let l =
          match Net.Transport.listen addr with
          | Ok l -> l
          | Error e -> Alcotest.failf "listen: %s" e
        in
        let deadline = Mclock.now () +. 5.0 in
        let c =
          match Net.Transport.connect ~deadline addr with
          | Ok c -> c
          | Error e -> Alcotest.failf "connect: %s" e
        in
        let s =
          match Net.Transport.accept ~deadline l with
          | Ok s -> s
          | Error e -> Alcotest.failf "accept: %s" e
        in
        Net.Transport.write ~deadline s "from the listener";
        let buf = Bytes.create 64 in
        let n = Net.Transport.read ~deadline c buf 0 64 in
        Alcotest.(check string) "payload" "from the listener"
          (Bytes.sub_string buf 0 n);
        Net.Transport.close c;
        Net.Transport.close s;
        Net.Transport.close_listener l;
        try Sys.remove path with Sys_error _ -> ());
    Alcotest.test_case "connecting to a dead endpoint is an Error" `Quick
      (fun () ->
        let deadline = Mclock.now () +. 1.0 in
        (match
           Net.Transport.connect ~deadline
             (Net.Transport.Unix_sock "/tmp/abc_net_no_such_socket.sock")
         with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "connected to a nonexistent unix socket");
        match
          Net.Transport.connect ~deadline (Net.Transport.Tcp ("127.0.0.1", 1))
        with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "connected to a closed tcp port");
  ]

(* ------------------------------------------------------------------ *)
(* Endpoint registry: health machine, leases, weighted dealing *)

let registry_tests =
  [
    Alcotest.test_case "parse_workers: weights and rejects" `Quick (fun () ->
        (match Net.Registry.parse_workers "127.0.0.1:7001,10.0.0.2:7002*4,unix:/tmp/w.sock*2" with
        | Error e -> Alcotest.failf "rejected: %s" e
        | Ok eps ->
            Alcotest.(check (list (pair string int)))
              "addr*weight"
              [ ("127.0.0.1:7001", 1); ("10.0.0.2:7002", 4); ("unix:/tmp/w.sock", 2) ]
              (List.map (fun (a, w) -> (Net.Transport.addr_to_string a, w)) eps));
        List.iter
          (fun bad ->
            match Net.Registry.parse_workers bad with
            | Error _ -> ()
            | Ok _ -> Alcotest.failf "accepted %S" bad)
          [ ""; ","; "h:0"; "h:7001*x"; "h:7001*0" ]);
    Alcotest.test_case "health machine: lease handback and budget to Dead"
      `Quick (fun () ->
        let reg =
          Net.Registry.make ~budget:2
            [
              (Net.Transport.Tcp ("127.0.0.1", 7001), 1);
              (Net.Transport.Unix_sock "/tmp/w.sock", 3);
            ]
        in
        let e0 = Net.Registry.get reg 0 and e1 = Net.Registry.get reg 1 in
        let now = Mclock.now () in
        Alcotest.(check int) "both due" 2 (List.length (Net.Registry.due reg ~now));
        Net.Registry.dialing e0;
        Net.Registry.mark_ready e0;
        Net.Registry.dialing e1;
        Net.Registry.mark_ready e1;
        (* dealing is weight-descending: the *3 box is offered first *)
        Alcotest.(check (list int))
          "deal order" [ 1; 0 ]
          (List.map
             (fun e -> e.Net.Registry.ep_id)
             (Net.Registry.deal_order reg));
        Net.Registry.lease e0 ~unit_id:5;
        (* the death of a leased endpoint hands exactly its unit back *)
        Alcotest.(check int) "lease handed back" 5
          (Net.Registry.mark_lost e0 ~why:"test");
        Alcotest.(check bool) "suspect, not dead" true
          (e0.Net.Registry.ep_health = Net.Registry.Suspect);
        (* backoff gates the redial: not due now, due after the gate *)
        Alcotest.(check (list int))
          "backoff holds it" []
          (List.map (fun e -> e.Net.Registry.ep_id)
             (Net.Registry.due reg ~now:(Mclock.now ())));
        Alcotest.(check (list int))
          "due after backoff" [ 0 ]
          (List.map (fun e -> e.Net.Registry.ep_id)
             (Net.Registry.due reg ~now:(Mclock.now () +. 60.0)));
        Net.Registry.dialing e0;
        Alcotest.(check int) "idle loss leases nothing" (-1)
          (Net.Registry.mark_lost e0 ~why:"test");
        Alcotest.(check bool) "budget spent: dead" true
          (e0.Net.Registry.ep_health = Net.Registry.Dead);
        Alcotest.(check bool) "fleet still alive via e1" true
          (Net.Registry.alive reg);
        ignore (Net.Registry.mark_lost e1 ~why:"test");
        Net.Registry.dialing e1;
        ignore (Net.Registry.mark_lost e1 ~why:"test");
        Alcotest.(check bool) "all budgets spent: fleet dead" false
          (Net.Registry.alive reg));
  ]

(* ------------------------------------------------------------------ *)
(* --max-frame: the cap must reject at the exact boundary, before any
   payload allocation *)

let sample_msgs =
  [
    Dist.Frame.M_spec (String.make 300 'x');
    Dist.Frame.M_request { unit_id = 7; lo = 112; hi = 128 };
    Dist.Frame.M_heartbeat;
    Dist.Frame.M_done { unit_id = 3; blob = "some\x00binary\xffblob" };
    Dist.Frame.M_error { unit_id = 9; message = "it broke" };
    Dist.Frame.M_quit;
  ]

(* the frame header is 2 magic + 1 type + 4 length + 4 crc bytes *)
let header_bytes = 11

let max_frame_tests =
  [
    Alcotest.test_case "parser accepts at the cap, rejects one past it"
      `Quick (fun () ->
        let msg = List.hd sample_msgs in
        let enc = Dist.Frame.encode msg in
        let wire_len = String.length enc - header_bytes in
        let p = Dist.Frame.parser_create ~max_payload:wire_len () in
        Dist.Frame.feed p (Bytes.of_string enc) (String.length enc);
        (match Dist.Frame.next p with
        | Ok (Some m) when m = msg -> ()
        | Ok _ -> Alcotest.fail "frame at the cap did not parse"
        | Error e -> Alcotest.failf "frame at the cap rejected: %s" e);
        let p = Dist.Frame.parser_create ~max_payload:(wire_len - 1) () in
        Dist.Frame.feed p (Bytes.of_string enc) (String.length enc);
        match Dist.Frame.next p with
        | Error e when contains e "cap" -> ()
        | Error e -> Alcotest.failf "oversize error does not name the cap: %s" e
        | Ok _ -> Alcotest.fail "frame one past the cap accepted");
    Alcotest.test_case "a huge length prefix is rejected from the header alone"
      `Quick (fun () ->
        (* 2 GiB claimed, no payload sent: the parser must error out of
           the 11 header bytes without waiting for (or allocating) the
           claimed payload *)
        let b = Buffer.create header_bytes in
        Buffer.add_string b "AB\001";
        Buffer.add_char b '\x7f';
        Buffer.add_string b "\xff\xff\xf0";
        Buffer.add_string b "\000\000\000\000";
        let hdr = Buffer.contents b in
        let p = Dist.Frame.parser_create ~max_payload:1024 () in
        Dist.Frame.feed p (Bytes.of_string hdr) (String.length hdr);
        (match Dist.Frame.next p with
        | Error e when contains e "cap" -> ()
        | Error e -> Alcotest.failf "wrong error: %s" e
        | Ok _ -> Alcotest.fail "2 GiB length prefix accepted");
        (* and a stdio worker started with the same cap (this binary,
           re-executed) exits after its hello without replying *)
        let env =
          Array.append (Unix.environment ())
            [|
              Dist.Worker.env_binding ~id:0 ~mode:Dist.Worker.Pipe
                ~nemesis:Dist.Nemesis.none ~max_frame:1024 ();
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
            let deadline = Mclock.now () +. 10.0 in
            Net.Transport.write ~deadline tr hdr;
            let p = Dist.Frame.parser_create ~await_hello:true () in
            let buf = Bytes.create 4096 in
            let rec drain () =
              match Net.Transport.read ~deadline tr buf 0 4096 with
              | 0 -> ()
              | n ->
                  Dist.Frame.feed p buf n;
                  drain ()
            in
            drain ();
            let rec replies () =
              match Dist.Frame.next p with
              | Ok (Some Dist.Frame.M_heartbeat) -> replies ()
              | Ok None -> ()
              | Ok (Some _) -> Alcotest.fail "worker replied to a 2 GiB prefix"
              | Error e -> Alcotest.failf "worker wrote a corrupt stream: %s" e
            in
            replies ();
            if Dist.Frame.awaiting_hello p then
              Alcotest.fail "worker exited without its hello"));
    Alcotest.test_case "a non-positive cap is rejected up front" `Quick
      (fun () ->
        (match Dist.Frame.parser_create ~max_payload:0 () with
        | _ -> Alcotest.fail "cap 0 accepted"
        | exception Invalid_argument _ -> ());
        (* every other out-of-range number is rejected too, with a
           message naming its flag *)
        List.iter
          (fun (flag, make) ->
            match make () with
            | _ -> Alcotest.failf "make_config accepted a bad %s" flag
            | exception Invalid_argument e ->
                if not (contains e flag) then
                  Alcotest.failf "error does not name %s: %s" flag e)
          [
            ("--max-frame", fun () -> Dist.Supervisor.make_config ~shards:1 ~max_frame:0 ());
            ("--shards", fun () -> Dist.Supervisor.make_config ~shards:(-3) ());
            ("--heartbeat", fun () -> Dist.Supervisor.make_config ~shards:1 ~heartbeat:0.0 ());
            ("--heartbeat", fun () -> Dist.Supervisor.make_config ~shards:1 ~heartbeat:(-1.0) ());
            ("--heartbeat", fun () -> Dist.Supervisor.make_config ~shards:1 ~heartbeat:Float.nan ());
            ("--connect-timeout", fun () ->
              Dist.Supervisor.make_config ~shards:1 ~connect_timeout:0.0 ());
          ];
        match Dist.Worker.parse_env "id=1;mode=pipe;mf=junk" with
        | Ok _ -> Alcotest.fail "worker env accepted mf=junk"
        | Error e -> if not (contains e "mf=") then Alcotest.failf "error does not name mf=: %s" e);
  ]

(* ------------------------------------------------------------------ *)
(* Frame-decoder fuzz over real transports.  Whatever the wire
   delivers — clean frames, a truncated stream, a flipped bit, a
   garbage preamble — the decoder must terminate with either the
   original messages, a typed Error, or a clean "waiting for more";
   never an exception and never an unbounded wait. *)

type wire = { wr : Net.Transport.t; rd : Net.Transport.t; fds : Unix.file_descr list }

let make_wire = function
  | `Pipe ->
      let r, w = Unix.pipe () in
      let t = Net.Transport.of_pipe ~read_fd:r ~write_fd:w in
      { wr = t; rd = t; fds = [] }
  | `Sock ->
      let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      {
        wr = Net.Transport.of_fd a ~peer:"fuzz-a";
        rd = Net.Transport.of_fd b ~peer:"fuzz-b";
        fds = [];
      }

let close_wire wi =
  Net.Transport.close wi.wr;
  Net.Transport.close wi.rd;
  List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) wi.fds

(* Pump [data] through [transport], feeding the decoder as bytes
   arrive; returns the parsed messages and the first error, if any. *)
let decode_over transport ~await_hello data =
  let wi = make_wire transport in
  Fun.protect
    ~finally:(fun () -> close_wire wi)
    (fun () ->
      let deadline = Mclock.now () +. 10.0 in
      if data <> "" then Net.Transport.write ~deadline wi.wr data;
      let p = Dist.Frame.parser_create ~await_hello () in
      let buf = Bytes.create 4096 in
      let got = ref [] and err = ref None in
      let rec drain () =
        match Dist.Frame.next p with
        | Ok (Some m) ->
            got := m :: !got;
            drain ()
        | Ok None -> ()
        | Error e -> if !err = None then err := Some e
      in
      let rec pump remaining =
        if remaining > 0 && !err = None then begin
          let n =
            Net.Transport.read ~deadline wi.rd buf 0 (min 4096 remaining)
          in
          if n = 0 then Alcotest.fail "unexpected EOF inside the fuzz stream";
          Dist.Frame.feed p buf n;
          drain ();
          pump (remaining - n)
        end
      in
      pump (String.length data);
      drain ();
      (List.rev !got, !err))

let fuzz_arb =
  QCheck.(
    quad
      (list_of_size Gen.(int_range 1 4) (int_bound (List.length sample_msgs - 1)))
      (int_bound 3) (* 0 clean | 1 truncate | 2 flip | 3 garbage preamble *)
      small_nat small_nat)

let frame_fuzz_tests =
  [
    prop "mutated frame streams never crash the decoder (pipe + socket)" 60
      fuzz_arb
      (fun (idxs, kind, pos, byte) ->
        let msgs = List.map (List.nth sample_msgs) idxs in
        let clean = String.concat "" (List.map Dist.Frame.encode msgs) in
        let len = String.length clean in
        let await_hello = kind = 3 in
        let data =
          match kind with
          | 0 -> clean
          | 1 -> String.sub clean 0 (pos mod (len + 1))
          | 2 ->
              let b = Bytes.of_string clean in
              let i = pos mod len in
              Bytes.set b i
                (Char.chr (Char.code (Bytes.get b i) lxor (1 + (byte mod 255))));
              Bytes.to_string b
          | _ ->
              (* garbage before the preamble: an await_hello parser
                 must skip it and still deliver every message *)
              String.init
                (1 + (byte mod 48))
                (fun i -> Char.chr ((pos + (i * 7)) land 0xff))
              ^ Dist.Frame.hello ^ clean
        in
        List.for_all
          (fun transport ->
            let got, err = decode_over transport ~await_hello data in
            match kind with
            | 0 | 3 ->
                (* a clean stream round-trips exactly *)
                err = None && got = msgs
            | 1 ->
                (* a prefix of a valid stream parses a prefix and then
                   waits: truncation is never an error *)
                err = None
                && List.length got <= List.length msgs
                && got = List.filteri (fun i _ -> i < List.length got) msgs
            | _ ->
                (* a flipped byte ends in a typed error or a stalled
                   parse — and never yields the full clean sequence *)
                got <> msgs || err <> None)
          [ `Pipe; `Sock ])
  ]

(* ------------------------------------------------------------------ *)
(* Socket campaigns: real [abc serve] subprocesses (this binary,
   re-executed through Dist.Worker.maybe_run).  The contract under
   test is the ISSUE's: byte-identical reports for any endpoint set,
   disconnect history, and lease reassignment. *)

let cases = 40 (* 3 units of 16: enough dispatches for the faults to land *)
let seed = 11

let serial_report =
  lazy
    (Report.render
       (Campaign.run ~oracles:Oracle.registry ~shrink:true ~jobs:1 ~cases ~seed ()))

let run_net ?checkpoint ?resume ?worker_exe ?respawn_budget ?heartbeat
    ?(nemesis = Dist.Nemesis.none) ?(endpoints = []) ?listen ?dial_budget
    ?max_frame ?(seed = seed) ~shards () =
  let cfg =
    Dist.Supervisor.make_config ?checkpoint
      ?resume:(Option.map (fun () -> true) resume)
      ?worker_exe ?respawn_budget ?heartbeat ~nemesis ~endpoints ?listen
      ?dial_budget ?max_frame ~connect_timeout:1.0 ~shards ()
  in
  Report.render
    (Dist.Supervisor.run_fuzz ~quiet:true cfg ~seed ~cases ~boundary:false
       ~shrink:true ~oracles:None ())

let check_identical name sharded =
  if sharded <> Lazy.force serial_report then
    Alcotest.failf "%s: sharded report differs from serial:\n%s" name sharded

let spawn_serve ~id ~mode ~addr ?(nemesis = Dist.Nemesis.none) ?(once = true)
    () =
  let binding = Dist.Worker.env_binding ~id ~mode ~addr ~nemesis ~once () in
  let env = Array.append (Unix.environment ()) [| binding |] in
  let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0o644 in
  let pid =
    Unix.create_process_env Sys.executable_name
      [| Sys.executable_name |]
      env Unix.stdin null null
  in
  Unix.close null;
  pid

let reap_serve pids =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
    pids

let nem spec =
  match Dist.Nemesis.parse spec with
  | Ok n -> n
  | Error e -> Alcotest.failf "bad nemesis spec %s: %s" spec e

(* Listen-mode fleet: workers bind unix sockets, the supervisor dials
   them through the registry (--workers). *)
let with_listen_fleet ?nemesis k =
  let p1 = fresh_sock_path () and p2 = fresh_sock_path () in
  let a1 = Net.Transport.Unix_sock p1 and a2 = Net.Transport.Unix_sock p2 in
  let nemesis = Option.value nemesis ~default:Dist.Nemesis.none in
  let pids =
    [
      spawn_serve ~id:1 ~mode:Dist.Worker.Listen ~addr:a1 ~nemesis ();
      spawn_serve ~id:2 ~mode:Dist.Worker.Listen ~addr:a2 ~nemesis ();
    ]
  in
  Fun.protect
    ~finally:(fun () ->
      reap_serve pids;
      List.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) [ p1; p2 ])
    (fun () -> k [ (a1, 1); (a2, 1) ])

(* Connect-mode fleet: the supervisor listens on a unix socket and the
   workers dial in and self-register (abc serve --connect). *)
let with_connect_fleet ?nemesis k =
  let sup = fresh_sock_path () in
  let addr = Net.Transport.Unix_sock sup in
  let nemesis = Option.value nemesis ~default:Dist.Nemesis.none in
  let pids =
    [
      spawn_serve ~id:1 ~mode:Dist.Worker.Connect ~addr ~nemesis ();
      spawn_serve ~id:2 ~mode:Dist.Worker.Connect ~addr ~nemesis ();
    ]
  in
  Fun.protect
    ~finally:(fun () ->
      reap_serve pids;
      try Sys.remove sup with Sys_error _ -> ())
    (fun () -> k addr)

let with_tmp f =
  let path = Filename.temp_file "abc_net_test" ".journal" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let campaign_tests =
  [
    Alcotest.test_case "campaign over dialed unix-socket workers is identical"
      `Slow (fun () ->
        with_listen_fleet (fun endpoints ->
            check_identical "dialed sockets"
              (run_net ~shards:2 ~endpoints ())));
    Alcotest.test_case "identical under every network nemesis (self-registered)"
      `Slow (fun () ->
        List.iter
          (fun spec ->
            with_connect_fleet ~nemesis:(nem spec) (fun addr ->
                check_identical spec
                  (run_net ~shards:2 ~listen:addr ~heartbeat:2.0 ())))
          [
            "nrefuse:1@1";
            "ndrop:1@2";
            "npartial:1@1";
            "ndup:1@2";
            "corrupt:1@1";
            "trunc:1@2";
            "dup:1@1";
            "flip:1@2";
            "kill:1@1";
          ]);
    Alcotest.test_case "stalled socket worker: heartbeat kill, unit re-leased"
      `Slow (fun () ->
        (* worker 1 stalls on its second unit; the supervisor's
           heartbeat kills the connection, the registry hands the
           leased unit back, and worker 2 finishes it — the report
           must not show any of that *)
        with_listen_fleet ~nemesis:(nem "stall:1@2") (fun endpoints ->
            check_identical "re-lease"
              (run_net ~shards:2 ~endpoints ~heartbeat:1.0 ~dial_budget:2 ())));
    Alcotest.test_case "ladder: dead sockets -> subprocess -> in-process"
      `Slow (fun () ->
        let dead =
          [
            (Net.Transport.Unix_sock "/tmp/abc_net_dead_a.sock", 1);
            (Net.Transport.Unix_sock "/tmp/abc_net_dead_b.sock", 1);
          ]
        in
        (* rung 2: every endpoint dead, subprocess pipe workers take over *)
        check_identical "rung subprocess"
          (run_net ~shards:2 ~endpoints:dead ~dial_budget:1 ());
        (* rung 3: endpoints dead AND the worker binary gone: the
           supervisor finishes in-process *)
        check_identical "rung in-process"
          (run_net ~shards:2 ~endpoints:dead ~dial_budget:1
             ~worker_exe:"/nonexistent/abc-worker" ~respawn_budget:2 ()));
    Alcotest.test_case "--resume with --workers re-verifies the fingerprint"
      `Slow (fun () ->
        with_tmp (fun path ->
            (* leave a half-finished journal behind a supervisor kill *)
            (match
               run_net ~shards:2 ~checkpoint:path ~nemesis:(nem "skill@1") ()
             with
            | _ -> Alcotest.fail "nemesis failed to kill the supervisor"
            | exception Dist.Nemesis.Supervisor_killed 1 -> ()
            | exception Dist.Nemesis.Supervisor_killed n ->
                Alcotest.failf "killed after %d units, wanted 1" n);
            with_listen_fleet (fun endpoints ->
                (* a different campaign spec must be refused before any
                   socket worker sees a unit *)
                (match
                   run_net ~shards:2 ~checkpoint:path ~resume:() ~seed:12
                     ~endpoints ()
                 with
                | _ -> Alcotest.fail "foreign fingerprint resumed over sockets"
                | exception Dist.Supervisor.Dist_error e ->
                    if not (contains e "fingerprint") then
                      Alcotest.failf "error does not name the fingerprint: %s" e);
                (* the matching spec resumes over the socket fleet *)
                check_identical "resume over sockets"
                  (run_net ~shards:2 ~checkpoint:path ~resume:() ~endpoints ()))));
  ]

let suite =
  addr_tests @ transport_tests @ registry_tests @ max_frame_tests
  @ frame_fuzz_tests @ campaign_tests
