(** Shard worker: the one request loop every worker runs.

    A worker speaks the {!Frame} protocol over one {!Net.Transport}
    stream: it writes the {!Frame.hello} handshake, reads an [M_spec]
    (the campaign as {!Work.canonical} text) and then [M_request]s
    naming unit ranges, executes each unit with {!Work.exec_unit} (Obs
    capture on, so the reply carries the per-shard trace digest) and
    answers with [M_done] until [M_quit] or EOF.  A background thread
    emits [M_heartbeat] frames every {!heartbeat_interval} seconds so
    the supervisor can tell "computing a long unit" from "stalled":
    the beat keeps going {e during} computation, and the stall nemesis
    silences it.  It is a thread, not a domain: every minor collection
    stops all of a process's domains, so a sleeping second domain
    would make each of the worker's collections wait for it to be
    scheduled, a cost that grows with the allocation rate and varies
    with the host's load.  A worker runs on one domain, and the beat
    gets the runtime when the computing thread yields it at its next
    tick (every 50 ms), so a beat may come that much late.

    The stream comes in three shapes ({!mode}):

    - [Pipe]: stdin/stdout of a child the supervisor spawned
      ({!Net.Transport.spawn}), or [abc serve] with no address.  One
      connection; the process exits when it ends.
    - [Listen] ([abc serve --listen ADDR]): bind and serve one
      supervisor connection at a time, going back to accepting when
      it ends, so one long-lived process can serve many campaigns.
    - [Connect] ([abc serve --connect ADDR]): dial a supervisor
      running with [--listen] and self-register; if the connection
      drops before [M_quit], redial after {!Net.Backoff.delay}, until
      the dial budget is spent.

    Workers are not a separate binary but {e this} binary re-executed
    with [ABC_DIST_WORKER] in the environment: {!maybe_run} at the top
    of an entry point turns any host executable (the CLI, the test
    runner, the benches) into its own worker, which is what lets the
    supervisor default to [Sys.executable_name] and keeps the protocol
    version trivially in lockstep with the spawner.

    Every nemesis fault a worker can inject ({!Nemesis.fault}) lives
    here, keyed on (worker id, unit or connection ordinal) — fully
    deterministic, no clocks involved.  Ordinals are lifetime totals
    of the process, shared across reconnects. *)

module Transport = Net.Transport

let heartbeat_interval = 0.25

let env_var = "ABC_DIST_WORKER"

type mode = Pipe | Listen | Connect

type cfg = {
  id : int;
  mode : mode;
  addr : Transport.addr option;  (** [None] exactly for [Pipe] *)
  nemesis : Nemesis.t;
  max_frame : int;  (** payload cap on incoming frames *)
  once : bool;  (** exit after the first peer-ended connection *)
}

let say fmt = Printf.ksprintf (fun s -> Printf.eprintf "worker: %s\n%!" s) fmt

let kill_self () = Unix.kill (Unix.getpid ()) Sys.sigkill

(* {!Obs.capture} is process-global (one start/drain pair at a time),
   so unit executions must never overlap within a process — a worker
   serving a duplicate registration (ndup) holds two connections, and
   an interleaved capture would corrupt both shard digests. *)
let exec_lock = Mutex.create ()

(* The encoded reply for one unit.  A raising unit becomes [M_error]
   (the worker itself stays up); [flip] corrupts the payload checksum,
   the divergent-shard nemesis. *)
let exec_reply (sp : Work.spec) ~unit_id ~lo ~hi ~flip =
  Frame.encode
    (Mutex.protect exec_lock (fun () ->
         match Work.exec_unit sp ~unit_id ~lo ~hi ~capture:true with
         | exception e -> Frame.M_error { unit_id; message = Printexc.to_string e }
         | blob ->
             let blob =
               if flip then
                 { blob with Work.b_checksum = Digest.to_hex (Digest.string "divergent") }
               else blob
             in
             Frame.M_done { unit_id; blob = Work.encode_blob blob }))

(* How a connection ended, which decides what happens next. *)
type conn_end =
  | C_quit  (** supervisor said [M_quit]: the campaign is over *)
  | C_peer  (** EOF, corruption or a protocol violation *)
  | C_self  (** we hung up on purpose (nrefuse, ndrop): the peer retries *)

(* Serve one established connection.  [ordinal] is the process-wide
   unit counter; [redial] opens the ndup duplicate registration. *)
let serve_conn (cfg : cfg) ~ordinal ~redial (tr : Transport.t) : conn_end =
  (* frames from the request loop and the heartbeat thread share the
     stream, so one mutex keeps each whole; a failed write surfaces
     as EOF on the next read *)
  let lock = Mutex.create () in
  let send s = try Mutex.protect lock (fun () -> Transport.write tr s) with _ -> () in
  send Frame.hello;
  let alive = Atomic.make true and beating = Atomic.make true in
  let hb =
    Thread.create
      (fun () ->
        while Atomic.get alive do
          Unix.sleepf heartbeat_interval;
          if Atomic.get alive && Atomic.get beating then
            send (Frame.encode Frame.M_heartbeat)
        done)
      ()
  in
  let finish res =
    Atomic.set alive false;
    Thread.join hb;
    Transport.close tr;
    res
  in
  let p = Frame.parser_create ~max_payload:cfg.max_frame () in
  let buf = Bytes.create 65536 in
  let rec next () =
    match Frame.next p with
    | Ok (Some m) -> Some m
    | Error _ -> None
    | Ok None -> (
        match Transport.read tr buf 0 (Bytes.length buf) with
        | 0 | (exception _) -> None
        | n ->
            Frame.feed p buf n;
            next ())
  in
  let rec loop spec =
    match (next (), spec) with
    | Some Frame.M_quit, _ -> finish C_quit
    | Some (Frame.M_spec s), _ -> (
        match Work.spec_of_string s with
        | Ok sp -> loop (Some sp)
        | Error _ -> finish C_peer)
    | Some (Frame.M_request { unit_id; lo; hi }), Some sp -> (
        let ordinal = Atomic.fetch_and_add ordinal 1 + 1 in
        match Nemesis.fault_for cfg.nemesis ~worker:cfg.id ~ordinal with
        | Some Nemesis.Stall ->
            (* alive but silent, holding the unit: the heartbeat
               timeout is the only way the supervisor gets it back *)
            Atomic.set beating false;
            while true do
              Unix.sleepf 3600.0
            done;
            assert false
        | Some Nemesis.Trunc ->
            send Frame.truncated;
            kill_self ();
            assert false
        | Some Nemesis.Corrupt ->
            (* a well-framed-looking reply whose CRC cannot match: the
               supervisor must abandon this stream *)
            send Frame.garbage;
            loop spec
        | fault -> (
            let reply =
              exec_reply sp ~unit_id ~lo ~hi ~flip:(fault = Some Nemesis.Flip)
            in
            match fault with
            | Some Nemesis.NDrop ->
                (* half the reply, then hang up: the mid-frame
                   disconnect *)
                send (String.sub reply 0 (String.length reply / 2));
                finish C_self
            | Some Nemesis.NPartial ->
                (* the header dribbled out a byte at a time: the
                   supervisor must reassemble frames across reads *)
                for i = 0 to 10 do
                  send (String.sub reply i 1);
                  Unix.sleepf 0.002
                done;
                send (String.sub reply 11 (String.length reply - 11));
                loop spec
            | _ ->
                send reply;
                (match fault with
                | Some Nemesis.Dup -> send reply (* the late duplicate *)
                | Some Nemesis.Kill -> kill_self () (* at the shard boundary *)
                | Some Nemesis.NDup -> redial ()
                | _ -> ());
                loop spec))
    | _ ->
        (* EOF, a corrupt stream, a request before the spec, or a
           frame only a worker sends *)
        finish C_peer
  in
  loop None

let redial_budget = 30

let run (cfg : cfg) : 'a =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let ordinal = Atomic.make 0 and conns = ref 0 in
  (* nrefuse slams the K-th connection shut before the handshake *)
  let serve ~redial tr =
    incr conns;
    if Nemesis.conn_fault_for cfg.nemesis ~worker:cfg.id ~conn:!conns then begin
      Transport.close tr;
      C_self
    end
    else serve_conn cfg ~ordinal ~redial tr
  in
  match (cfg.mode, cfg.addr) with
  | Pipe, _ ->
      (* stdout IS the frame channel: claim the fd, then repoint fd 1
         at stderr so a stray print from the host binary (a
         test-harness banner, a debug printf in an oracle) cannot tear
         a frame.  Whatever the host had buffered on the stdout
         channel flushes to stderr after the repoint instead of
         landing between frames. *)
      let out = Unix.dup ~cloexec:true Unix.stdout in
      Unix.dup2 Unix.stderr Unix.stdout;
      ignore (serve ~redial:ignore (Transport.of_pipe ~read_fd:Unix.stdin ~write_fd:out));
      exit 0
  | Listen, Some addr -> (
      match Transport.listen addr with
      | Error e ->
          say "%s" e;
          exit 2
      | Ok l ->
          say "listening on %s (worker %d)"
            (Transport.addr_to_string (Transport.bound_addr l))
            cfg.id;
          let rec accept_loop () =
            match Transport.accept l with
            | Error e ->
                say "accept: %s" e;
                accept_loop ()
            | Ok tr -> (
                match serve ~redial:ignore tr with
                | (C_quit | C_peer) when cfg.once ->
                    Transport.close_listener l;
                    exit 0
                | _ -> accept_loop ())
          in
          accept_loop ())
  | Connect, Some addr ->
      (* ndup: dial once more and serve the duplicate registration in
         a fresh thread, on the same unit ordinals *)
      let dup () =
        match Transport.connect addr with
        | Error e -> say "ndup redial failed: %s" e
        | Ok tr ->
            ignore (Thread.create (fun () -> serve_conn cfg ~ordinal ~redial:ignore tr) ())
      in
      let rec dial_loop attempt =
        if attempt > redial_budget then begin
          say "supervisor unreachable after %d dials, giving up" redial_budget;
          exit 2
        end;
        match
          match Transport.connect addr with
          | Error e ->
              say "dial %s: %s (attempt %d)" (Transport.addr_to_string addr) e attempt;
              C_self
          | Ok tr -> serve ~redial:dup tr
        with
        | C_quit -> exit 0
        | C_peer when cfg.once -> exit 0
        | C_peer | C_self ->
            (* our own hangups expect the reconnect even under --once *)
            Unix.sleepf (Net.Backoff.delay ~key:cfg.id ~attempt);
            dial_loop (attempt + 1)
      in
      dial_loop 1
  | (Listen | Connect), None -> invalid_arg "Worker.run: listen/connect needs an address"

(* ------------------------------------------------------------------ *)
(* The environment binding *)

let modes = [ ("pipe", Pipe); ("listen", Listen); ("connect", Connect) ]

(** The [ABC_DIST_WORKER=…] binding that makes a re-executed binary
    this worker, e.g. [id=1;mode=listen;addr=unix:/tmp/w.sock;nem=ndrop:1@2;mf=4096;once=1].
    Only worker [id]'s own faults travel. *)
let env_binding ~id ~mode ?addr ~(nemesis : Nemesis.t)
    ?(max_frame = Frame.max_payload) ?(once = false) () =
  let b = Buffer.create 64 in
  Printf.bprintf b "%s=id=%d;mode=%s" env_var id
    (fst (List.find (fun (_, m) -> m = mode) modes));
  Option.iter (fun a -> Printf.bprintf b ";addr=%s" (Transport.addr_to_string a)) addr;
  let nem = Nemesis.worker_spec nemesis ~worker:id in
  if nem <> "" then Printf.bprintf b ";nem=%s" nem;
  if max_frame <> Frame.max_payload then Printf.bprintf b ";mf=%d" max_frame;
  if once then Buffer.add_string b ";once=1";
  Buffer.contents b

(** Parse the value of an {!env_binding}. *)
let parse_env (s : string) : (cfg, string) result =
  let fields =
    String.split_on_char ';' s |> List.map String.trim
    |> List.filter (fun x -> x <> "")
  in
  let find k =
    List.find_map
      (fun f ->
        match String.index_opt f '=' with
        | Some i when String.sub f 0 i = k ->
            Some (String.sub f (i + 1) (String.length f - i - 1))
        | _ -> None)
      fields
  in
  let ( let* ) = Result.bind in
  let tag r = Result.map_error (fun e -> env_var ^ ": " ^ e) r in
  let* id = tag (Option.to_result ~none:"missing or bad id=" (Option.bind (find "id") int_of_string_opt)) in
  let* mode =
    tag (Option.to_result ~none:"mode= must be pipe, listen or connect"
      (Option.bind (find "mode") (fun m -> List.assoc_opt m modes)))
  in
  let* addr =
    match (mode, find "addr") with
    | Pipe, None -> Ok None
    | Pipe, Some _ -> tag (Error "mode=pipe takes no addr=")
    | _, None -> tag (Error "mode=listen and mode=connect need addr=")
    | _, Some a -> tag (Result.map Option.some (Transport.addr_of_string a))
  in
  let* max_frame =
    match find "mf" with
    | None -> Ok Frame.max_payload
    | Some m -> (
        match int_of_string_opt m with
        | Some m when m >= 1 -> Ok m
        | _ -> tag (Error (Printf.sprintf "mf= (--max-frame) must be an int >= 1, got %S" m)))
  in
  let* nemesis =
    match find "nem" with
    | None | Some "" -> Ok Nemesis.none
    | Some n -> tag (Nemesis.parse n)
  in
  Ok { id; mode; addr; nemesis; max_frame; once = find "once" = Some "1" }

(** Call first thing in any binary that may serve as a worker: if
    [ABC_DIST_WORKER] is set, enter the worker loop and never return.
    A no-op otherwise. *)
let maybe_run () =
  match Sys.getenv_opt env_var with
  | None -> ()
  | Some s -> (
      match parse_env s with
      | Ok cfg -> run cfg
      | Error e ->
          prerr_endline ("worker: " ^ e);
          exit 2)
