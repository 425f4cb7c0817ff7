(** Fault-tolerant shard supervisor.

    Owns the whole life of a sharded run: partition the spec into
    {!Work.units}, provision workers, dispatch units lowest-id-first,
    validate every reply, retry what was lost, and hand back the unit
    results {e in unit order} — at which point the merge is the same
    pure function the serial path uses, so the report is
    byte-identical to a serial run no matter the worker topology,
    deaths, or retry history.

    Workers arrive on a three-rung {e degradation ladder}, each rung
    used only while the one above has nothing left to offer:

    + {e Socket workers} ([lib/net]): endpoints from [--workers] are
      dialed through a {!Net.Registry} (health machine, reconnect
      budget, jittered backoff), and a [--listen] address accepts
      {e self-registering} workers started with [abc serve].  Unit
      {e leases} tie in-flight units to endpoints so a death re-leases
      exactly what was lost.  Dealing is capacity-weighted
      ([host:port*4] is offered work before a [*1] peer) — weights
      shape wall-clock only, never output, because the merge consumes
      units in unit order.
    + {e Subprocess workers}: this very binary re-executed as a
      {!Worker} over a pipe pair ({!Net.Transport.spawn}), spawned
      only once no socket endpoint can come back.
    + {e In-process fallback}: a {!Pool} right here, when nothing can
      be spawned at all.

    All workers run the same {!Worker} loop behind a
    {!Net.Transport.t}; the origin only decides dealing order and
    which endpoint's health a loss updates.  Closing a spawned
    worker's transport kills and reaps it, and its death shows up as
    EOF once its last reply has been read.

    Robustness mechanisms, in the order they fire:

    - {e Heartbeat timeout}: a worker holding a unit (or one that
      never completed the handshake) silent longer than [heartbeat]
      seconds (monotonic clock — wall steps cannot fake a stall) is
      killed and its unit re-dispatched.
    - {e Crash / EOF / connection loss}: a dead worker's unit goes
      back to pending with {e bounded retry}: {!Net.Backoff} delays,
      at most {!max_attempts} dispatches per unit, then a hard error
      naming the unit.
    - {e Frame corruption}: a reply stream that breaks the {!Frame}
      contract — including a length prefix beyond [max_frame] — is
      unrecoverable; the worker is quarantined and its unit
      re-dispatched.
    - {e Result validation}: every reply's payload is re-checksummed
      by the supervisor ({!Work.payload_checksum}).  A mismatch
      quarantines the sender and re-runs the shard; a {e second}
      divergence on the same shard is a hard error naming the shard's
      replay line.  Duplicate replies are accepted iff checksum and
      digest agree with the recorded result.
    - {e Budgets}: socket endpoints get [dial_budget] connection
      attempts each; replacement subprocesses are spawned while the
      respawn budget lasts.
    - {e Write-ahead checkpoint}: with [checkpoint] set, each
      accepted unit is appended (CRC'd, fsync'd) to a {!Checkpoint}
      journal before counting as merged; [resume] reloads the valid
      prefix and re-runs only what is missing — and re-verifies the
      journal's campaign fingerprint at both load and reopen, so
      mixing [--resume] with a foreign [--workers] topology can never
      graft units from a different campaign. *)

exception Dist_error of string

type config = {
  cf_shards : int;
  cf_heartbeat : float;  (** seconds of silence before a kill *)
  cf_checkpoint : string option;
  cf_resume : bool;  (** load [cf_checkpoint] before running *)
  cf_nemesis : Nemesis.t;
  cf_worker_exe : string option;  (** default [Sys.executable_name] *)
  cf_respawn_budget : int;
  cf_endpoints : (Net.Transport.addr * int) list;
      (** socket workers to dial, with capacity weights *)
  cf_listen : Net.Transport.addr option;
      (** accept self-registering [abc serve --connect] workers here *)
  cf_connect_timeout : float;
  cf_max_frame : int;  (** payload cap enforced before allocation *)
  cf_dial_budget : int;  (** connect attempts per endpoint *)
}

(** Dispatches per unit before its loss is a hard error. *)
let max_attempts = 5

(** @raise Invalid_argument naming the CLI flag of a value out of
    range: [shards] < 1, [heartbeat] or [connect_timeout] not > 0
    (NaN included), [max_frame] < 1, or [resume] without a
    [checkpoint]. *)
let make_config ?(heartbeat = 30.0) ?checkpoint ?(resume = false)
    ?(nemesis = Nemesis.none) ?worker_exe ?respawn_budget
    ?(endpoints = []) ?listen ?(connect_timeout = 5.0)
    ?(max_frame = Frame.max_payload) ?dial_budget ~shards () : config =
  if shards < 1 then invalid_arg "--shards must be >= 1";
  if not (heartbeat > 0.0) then invalid_arg "--heartbeat must be > 0";
  if not (connect_timeout > 0.0) then invalid_arg "--connect-timeout must be > 0";
  if max_frame < 1 then invalid_arg "--max-frame must be >= 1";
  if resume && checkpoint = None then
    invalid_arg "--resume needs a checkpoint file";
  {
    cf_shards = shards;
    cf_heartbeat = heartbeat;
    cf_checkpoint = checkpoint;
    cf_resume = resume;
    cf_nemesis = nemesis;
    cf_worker_exe = worker_exe;
    cf_respawn_budget =
      (match respawn_budget with Some b -> max 0 b | None -> 2 * shards);
    cf_endpoints = endpoints;
    cf_listen = listen;
    cf_connect_timeout = connect_timeout;
    cf_max_frame = max_frame;
    cf_dial_budget =
      (match dial_budget with Some b -> max 1 b | None -> Net.Registry.default_budget);
  }

(* ------------------------------------------------------------------ *)

(** Where a worker connection came from — it decides dealing order
    and whose endpoint health to update on loss. *)
type origin =
  | O_proc  (** spawned subprocess *)
  | O_ep of int  (** dialed endpoint (registry index) *)
  | O_accepted  (** self-registered through [--listen] *)

type wrk = {
  w_id : int;
  w_origin : origin;
  w_tr : Net.Transport.t;
  w_parser : Frame.parser;
  mutable w_unit : int;  (** assigned unit id, [-1] when idle *)
  mutable w_last : float;  (** {!Mclock.now} of the last frame *)
  mutable w_dead : bool;
}

let is_socket = function O_proc -> false | O_ep _ | O_accepted -> true

type ustate = Pending | Running of int (* worker id *) | Completed

type ust = {
  u_id : int;
  u_lo : int;
  u_hi : int;
  mutable u_state : ustate;
  mutable u_attempts : int;
  mutable u_not_before : float;  (** backoff gate, {!Mclock.now} scale *)
  mutable u_blob : Work.blob option;
  mutable u_divergences : int;
}

let backoff (u : ust) = Net.Backoff.delay ~key:u.u_id ~attempt:u.u_attempts

let obs name args = if Obs.on () then Obs.instant "dist" name args

let say fmt = Printf.ksprintf (fun s -> Printf.eprintf "dist: %s\n%!" s) fmt

(* ------------------------------------------------------------------ *)

type state = {
  cfg : config;
  spec : Work.spec;
  units : ust array;
  reg : Net.Registry.t;  (** socket endpoints (may be empty) *)
  mutable listener : Net.Transport.listener option;
  mutable net_last : float;
      (** {!Mclock.now} of the last sign of socket-rung life *)
  mutable workers : wrk list;  (** live or not-yet-reaped *)
  mutable next_worker_id : int;
  mutable respawns_left : int;
  mutable merged : int;  (** units accepted this run (resume excluded) *)
  mutable journal : Checkpoint.t option;
  mutable quiet : bool;  (** suppress per-event stderr chatter *)
}

let pending_count st =
  Array.fold_left
    (fun n u -> match u.u_state with Completed -> n | _ -> n + 1)
    0 st.units

let live_workers st = List.filter (fun w -> not w.w_dead) st.workers

let send st (w : wrk) m =
  Net.Transport.write
    ~deadline:(Mclock.now () +. st.cfg.cf_heartbeat)
    w.w_tr (Frame.encode m)

let endpoint_of st (w : wrk) =
  match w.w_origin with
  | O_ep i -> Some (Net.Registry.get st.reg i)
  | O_proc | O_accepted -> None

(* The worker no longer owns a unit: drop the lease mirror too. *)
let clear_assignment st (w : wrk) =
  (match endpoint_of st w with
  | Some e -> Net.Registry.unlease e
  | None -> ());
  w.w_unit <- -1

(* Put a worker's unit (if any) back on the queue with backoff. *)
let requeue st (w : wrk) ~why =
  if w.w_unit >= 0 then begin
    let u = st.units.(w.w_unit) in
    (match u.u_state with
    | Running wid when wid = w.w_id ->
        u.u_state <- Pending;
        u.u_not_before <- Mclock.now () +. backoff u;
        if not st.quiet then
          say "unit %d requeued (%s, worker %d, attempt %d)" u.u_id why w.w_id
            u.u_attempts;
        obs "requeue"
          [ ("unit", Obs.I u.u_id); ("worker", Obs.I w.w_id); ("why", Obs.S why) ]
    | _ -> ());
    clear_assignment st w
  end

let mark_dead st (w : wrk) ~why =
  if not w.w_dead then begin
    w.w_dead <- true;
    requeue st w ~why;
    Net.Transport.close w.w_tr;
    match endpoint_of st w with
    | Some e -> ignore (Net.Registry.mark_lost e ~why)
    | None -> ()
  end

let quarantine st (w : wrk) ~why =
  if not w.w_dead then begin
    if not st.quiet then say "worker %d quarantined: %s" w.w_id why;
    obs "quarantine" [ ("worker", Obs.I w.w_id); ("why", Obs.S why) ];
    mark_dead st w ~why
  end

(* ------------------------------------------------------------------ *)
(* Provisioning: dial endpoints, accept registrations, spawn pipes *)

let add_worker st ~origin ~tr =
  let id = st.next_worker_id in
  st.next_worker_id <- id + 1;
  let w =
    {
      w_id = id;
      w_origin = origin;
      w_tr = tr;
      w_parser =
        Frame.parser_create ~await_hello:true ~max_payload:st.cfg.cf_max_frame ();
      w_unit = -1;
      w_last = Mclock.now ();
      w_dead = false;
    }
  in
  st.workers <- w :: st.workers;
  if is_socket origin then st.net_last <- Mclock.now ();
  (* the spec goes down immediately; a worker that dies before
     reading it shows up as EOF like any other death *)
  (match send st w (Frame.M_spec (Work.canonical st.spec)) with
  | () -> ()
  | exception _ -> mark_dead st w ~why:"spec write failed");
  w

(* Dial every endpoint whose backoff gate has passed.  Synchronous
   with a deadline: localhost dials resolve in microseconds, dead
   ports fail fast with ECONNREFUSED, and a genuinely unreachable
   host costs at most [cf_connect_timeout] per attempt. *)
let dial_endpoints st =
  let now = Mclock.now () in
  List.iter
    (fun (e : Net.Registry.endpoint) ->
      Net.Registry.dialing e;
      obs "dial"
        [
          ("ep", Obs.I e.Net.Registry.ep_id);
          ("attempt", Obs.I e.Net.Registry.ep_attempts);
        ];
      let deadline = Mclock.now () +. st.cfg.cf_connect_timeout in
      match Net.Transport.connect ~deadline e.Net.Registry.ep_addr with
      | Error why ->
          if not st.quiet then say "%s" why;
          ignore (Net.Registry.mark_lost e ~why)
      | Ok tr ->
          Net.Registry.mark_ready e;
          st.net_last <- Mclock.now ();
          let w =
            add_worker st ~origin:(O_ep e.Net.Registry.ep_id) ~tr
          in
          if not st.quiet then
            say "endpoint %d (%s) connected as worker %d"
              e.Net.Registry.ep_id
              (Net.Transport.addr_to_string e.Net.Registry.ep_addr)
              w.w_id)
    (Net.Registry.due st.reg ~now)

let accept_registration st =
  match st.listener with
  | None -> ()
  | Some l -> (
      match Net.Transport.accept l with
      | Error why -> if not st.quiet then say "accept failed: %s" why
      | Ok tr ->
          let w = add_worker st ~origin:O_accepted ~tr in
          if not st.quiet then
            say "worker %d self-registered from %s" w.w_id
              (Net.Transport.peer tr);
          obs "register" [ ("worker", Obs.I w.w_id) ])

let spawn st =
  let exe = Option.value st.cfg.cf_worker_exe ~default:Sys.executable_name in
  let env =
    Array.append (Unix.environment ())
      [|
        Worker.env_binding ~id:st.next_worker_id ~mode:Worker.Pipe
          ~nemesis:st.cfg.cf_nemesis ();
      |]
  in
  match Net.Transport.spawn exe ~env with
  | Error e ->
      say "%s" e;
      None
  | Ok tr ->
      let w = add_worker st ~origin:O_proc ~tr in
      obs "spawn" [ ("worker", Obs.I w.w_id); ("peer", Obs.S (Net.Transport.peer tr)) ];
      Some w

(* ------------------------------------------------------------------ *)
(* Results *)

(* Record an accepted unit result: store, checkpoint (fsync'd), count
   it merged, and let the supervisor nemesis strike. *)
let accept st (u : ust) (blob : Work.blob) =
  u.u_blob <- Some blob;
  u.u_state <- Completed;
  (match st.journal with
  | Some j -> Checkpoint.append j ~unit_id:u.u_id ~blob:(Work.encode_blob blob)
  | None -> ());
  st.merged <- st.merged + 1;
  obs "accept" [ ("unit", Obs.I u.u_id) ];
  match st.cfg.cf_nemesis.Nemesis.supervisor_kill with
  | Some s when st.merged = s ->
      (* the checkpoint record for this unit is already on disk:
         exactly the state a kill -9 here would leave *)
      say "nemesis: supervisor killed after %d merged units" s;
      raise (Nemesis.Supervisor_killed s)
  | _ -> ()

let divergence st (u : ust) ~(sender : wrk option) ~what =
  u.u_divergences <- u.u_divergences + 1;
  obs "divergence" [ ("unit", Obs.I u.u_id); ("n", Obs.I u.u_divergences) ];
  (match sender with
  | Some w -> quarantine st w ~why:("divergent result: " ^ what)
  | None -> ());
  if u.u_divergences >= 2 then
    raise
      (Dist_error
         (Printf.sprintf
            "shard %d (items %d..%d) produced divergent results twice — \
             refusing to pick a winner; replay it directly: %s"
            u.u_id u.u_lo (u.u_hi - 1)
            (Work.shard_repro st.spec ~lo:u.u_lo)))
  else begin
    (* arbitration: discard what we had (if anything) and re-run *)
    u.u_blob <- None;
    u.u_state <- Pending;
    u.u_not_before <- Mclock.now () +. backoff u;
    say "unit %d: divergent result, re-running to arbitrate" u.u_id
  end

(* Digest agreement between two executions of the same unit: both
   non-empty and different = real divergence; an empty side (Obs
   capture off, e.g. in-process fallback) abstains. *)
let digests_disagree a b = a <> "" && b <> "" && a <> b

let handle_result st (w : wrk) ~unit_id ~(blob_bytes : string) =
  if unit_id < 0 || unit_id >= Array.length st.units then
    quarantine st w ~why:(Printf.sprintf "reply for unknown unit %d" unit_id)
  else
    let u = st.units.(unit_id) in
    match Work.decode_blob blob_bytes with
    | Error e -> quarantine st w ~why:e
    | Ok blob -> (
        let valid =
          blob.Work.b_unit = unit_id
          &&
          match Work.payload_checksum st.spec blob.Work.b_payload with
          | Ok c -> c = blob.Work.b_checksum
          | Error _ -> false
        in
        match u.u_state with
        | Completed -> (
            (* duplicate (late retransmit or dup nemesis) *)
            match u.u_blob with
            | Some prev
              when valid
                   && prev.Work.b_checksum = blob.Work.b_checksum
                   && not
                        (digests_disagree prev.Work.b_digest blob.Work.b_digest)
              ->
                obs "duplicate" [ ("unit", Obs.I unit_id) ];
                if w.w_unit = unit_id then clear_assignment st w
            | _ -> divergence st u ~sender:(Some w) ~what:"duplicate disagrees")
        | Pending | Running _ ->
            if w.w_unit = unit_id then clear_assignment st w;
            if not valid then divergence st u ~sender:(Some w) ~what:"checksum mismatch"
            else begin
              (match u.u_blob with
              | Some prev
                when prev.Work.b_checksum <> blob.Work.b_checksum
                     || digests_disagree prev.Work.b_digest blob.Work.b_digest
                ->
                  (* an arbitration re-run disagreeing with a ghost of a
                     previous divergence round: count it *)
                  divergence st u ~sender:None ~what:"arbitration disagrees"
              | _ -> ());
              if u.u_state <> Completed then accept st u blob
            end)

let handle_msg st (w : wrk) (m : Frame.msg) =
  w.w_last <- Mclock.now ();
  match m with
  | Frame.M_heartbeat -> ()
  | Frame.M_done { unit_id; blob } -> handle_result st w ~unit_id ~blob_bytes:blob
  | Frame.M_error { unit_id; message } ->
      say "worker %d: unit %d raised: %s" w.w_id unit_id message;
      obs "worker-error" [ ("unit", Obs.I unit_id); ("worker", Obs.I w.w_id) ];
      if w.w_unit = unit_id then clear_assignment st w;
      if unit_id >= 0 && unit_id < Array.length st.units then begin
        let u = st.units.(unit_id) in
        match u.u_state with
        | Running wid when wid = w.w_id ->
            if u.u_attempts >= max_attempts then
              raise
                (Dist_error
                   (Printf.sprintf
                      "unit %d failed %d times, last error: %s — replay: %s"
                      unit_id u.u_attempts message
                      (Work.shard_repro st.spec ~lo:u.u_lo)))
            else begin
              u.u_state <- Pending;
              u.u_not_before <- Mclock.now () +. backoff u
            end
        | _ -> ()
      end
  | Frame.M_spec _ | Frame.M_request _ | Frame.M_quit ->
      quarantine st w ~why:"protocol violation (supervisor-only frame)"

(* ------------------------------------------------------------------ *)
(* The main loop *)

(* Idle workers in dealing order: socket endpoints first (capacity
   weight descending, then endpoint id), then self-registered
   workers, then subprocesses — a deterministic preference for the
   biggest remote boxes.  Order shapes wall-clock only; the merge is
   in unit order regardless. *)
let deal_order st =
  let key w =
    match w.w_origin with
    | O_ep i -> (0, -(Net.Registry.get st.reg i).Net.Registry.ep_weight, w.w_id)
    | O_accepted -> (1, 0, w.w_id)
    | O_proc -> (2, 0, w.w_id)
  in
  live_workers st
  |> List.filter (fun w -> w.w_unit = -1)
  |> List.stable_sort (fun a b -> compare (key a) (key b))

let dispatch st =
  let now = Mclock.now () in
  List.iter
    (fun w ->
      if (not w.w_dead) && w.w_unit = -1 then
        let ready =
          Array.to_seq st.units
          |> Seq.filter (fun u ->
                 u.u_state = Pending
                 && u.u_not_before <= now
                 && u.u_attempts < max_attempts)
          |> Seq.fold_left
               (fun best u ->
                 match best with
                 | Some b when b.u_id <= u.u_id -> best
                 | _ -> Some u)
               None
        in
        match ready with
        | None -> ()
        | Some u -> (
            match
              send st w
                (Frame.M_request { unit_id = u.u_id; lo = u.u_lo; hi = u.u_hi })
            with
            | () ->
                u.u_state <- Running w.w_id;
                u.u_attempts <- u.u_attempts + 1;
                w.w_unit <- u.u_id;
                w.w_last <- now;
                (match endpoint_of st w with
                | Some e -> Net.Registry.lease e ~unit_id:u.u_id
                | None -> ());
                obs "dispatch"
                  [ ("unit", Obs.I u.u_id); ("worker", Obs.I w.w_id) ]
            | exception _ -> mark_dead st w ~why:"request write failed"))
    (deal_order st)

(* A pending unit that has exhausted its dispatch budget is a hard
   error — checked centrally so timeouts and deaths hit it too. *)
let check_attempts st =
  Array.iter
    (fun u ->
      if
        u.u_state = Pending
        && u.u_attempts >= max_attempts
        && u.u_blob = None
      then
        raise
          (Dist_error
             (Printf.sprintf
                "unit %d (items %d..%d) lost after %d dispatch attempts — \
                 replay: %s"
                u.u_id u.u_lo (u.u_hi - 1) u.u_attempts
                (Work.shard_repro st.spec ~lo:u.u_lo))))
    st.units

let read_ready st fds =
  List.iter
    (fun fd ->
      match
        List.find_opt
          (fun w -> (not w.w_dead) && Net.Transport.readable_fd w.w_tr = fd)
          st.workers
      with
      | None -> ()
      | Some w -> (
          let buf = Bytes.create 65536 in
          match Unix.read fd buf 0 (Bytes.length buf) with
          | exception Unix.Unix_error (EINTR, _, _) -> ()
          | exception Unix.Unix_error _ -> mark_dead st w ~why:"read error"
          | 0 -> mark_dead st w ~why:"eof"
          | n -> (
              Frame.feed w.w_parser buf n;
              if is_socket w.w_origin then st.net_last <- Mclock.now ();
              let rec drain () =
                if not w.w_dead then
                  match Frame.next w.w_parser with
                  | Ok None -> ()
                  | Ok (Some m) ->
                      handle_msg st w m;
                      drain ()
                  | Error e -> quarantine st w ~why:("corrupt stream: " ^ e)
              in
              drain ())))
    fds

(* A worker is on the clock when it holds a unit, and also while it
   has not completed the handshake — an accepted connection that
   never says hello must not squat forever. *)
let check_heartbeats st =
  let now = Mclock.now () in
  List.iter
    (fun w ->
      if
        (not w.w_dead)
        && (w.w_unit >= 0 || Frame.awaiting_hello w.w_parser)
        && now -. w.w_last > st.cfg.cf_heartbeat
      then begin
        say "worker %d silent for %.1fs on unit %d: killing" w.w_id
          (now -. w.w_last) w.w_unit;
        obs "stall-kill" [ ("worker", Obs.I w.w_id); ("unit", Obs.I w.w_unit) ];
        quarantine st w ~why:"heartbeat timeout"
      end)
    st.workers

(* In-process fallback: no worker can be provisioned on any rung, so
   run what remains on a Pool right here.  map_all_errors so one
   failing unit does not mask the others in the diagnostic. *)
let fallback st =
  let remaining =
    Array.to_list st.units
    |> List.filter (fun u -> u.u_state <> Completed)
  in
  if remaining <> [] then begin
    say "no workers available: degrading to in-process execution of %d units"
      (List.length remaining);
    obs "fallback" [ ("units", Obs.I (List.length remaining)) ];
    let arr = Array.of_list remaining in
    let results =
      Pool.map_all_errors ~jobs:st.cfg.cf_shards ~chunk:1 (Array.length arr)
        (fun k ->
          let u = arr.(k) in
          Work.exec_unit st.spec ~unit_id:u.u_id ~lo:u.u_lo ~hi:u.u_hi
            ~capture:false)
    in
    let failed = ref [] in
    Array.iteri
      (fun k r ->
        match r with
        | Ok blob -> accept st arr.(k) blob
        | Error e ->
            failed := (arr.(k).u_id, Printexc.to_string e) :: !failed)
      results;
    match List.rev !failed with
    | [] -> ()
    | fs ->
        raise
          (Dist_error
             (Printf.sprintf "in-process fallback failed on %d unit(s): %s"
                (List.length fs)
                (String.concat "; "
                   (List.map (fun (u, e) -> Printf.sprintf "unit %d: %s" u e) fs))))
  end

let terminate st =
  List.iter
    (fun w ->
      if not w.w_dead then begin
        (try send st w Frame.M_quit with _ -> ());
        Net.Transport.close w.w_tr;
        w.w_dead <- true
      end)
    st.workers;
  st.workers <- [];
  (match st.listener with
  | Some l ->
      Net.Transport.close_listener l;
      st.listener <- None
  | None -> ());
  match st.journal with
  | Some j ->
      Checkpoint.close j;
      st.journal <- None
  | None -> ()

(** Run the spec to completion and return the unit results in unit
    order.  @raise Dist_error on unrecoverable loss or divergence;
    @raise Nemesis.Supervisor_killed when the nemesis says so. *)
let run_units ?(quiet = false) (cfg : config) (spec : Work.spec) : Work.blob array =
  let units =
    Array.mapi
      (fun i (lo, hi) ->
        {
          u_id = i;
          u_lo = lo;
          u_hi = hi;
          u_state = Pending;
          u_attempts = 0;
          u_not_before = 0.0;
          u_blob = None;
          u_divergences = 0;
        })
      (Work.units spec)
  in
  let fp = Work.fingerprint spec in
  let st =
    {
      cfg;
      spec;
      units;
      reg = Net.Registry.make ~budget:cfg.cf_dial_budget cfg.cf_endpoints;
      listener = None;
      net_last = Mclock.now ();
      workers = [];
      next_worker_id = 0;
      respawns_left = cfg.cf_respawn_budget;
      merged = 0;
      journal = None;
      quiet;
    }
  in
  (* resume: adopt every valid checkpointed unit, last record wins *)
  (match (cfg.cf_resume, cfg.cf_checkpoint) with
  | true, Some path -> (
      match Checkpoint.load ~path ~fingerprint:fp with
      | Error e -> raise (Dist_error e)
      | Ok records ->
          let recovered = ref 0 in
          List.iter
            (fun (uid, blob_bytes) ->
              if uid >= 0 && uid < Array.length st.units then
                match Work.decode_blob blob_bytes with
                | Error _ -> ()
                | Ok blob -> (
                    match Work.payload_checksum spec blob.Work.b_payload with
                    | Ok c when c = blob.Work.b_checksum ->
                        let u = st.units.(uid) in
                        if u.u_state <> Completed then incr recovered;
                        u.u_blob <- Some blob;
                        u.u_state <- Completed
                    | _ -> ()))
            records;
          say "resumed %d/%d units from %s" !recovered (Array.length st.units)
            path;
          obs "resume" [ ("units", Obs.I !recovered) ])
  | _ -> ());
  (* open (or create) the journal for what this run will add; reopen
     re-verifies the campaign fingerprint (see {!Checkpoint.reopen}) *)
  (match cfg.cf_checkpoint with
  | Some path ->
      st.journal <-
        Some
          (if cfg.cf_resume then
             match Checkpoint.reopen ~path ~fingerprint:fp with
             | Ok j -> j
             | Error e -> raise (Dist_error e)
           else Checkpoint.create ~path ~fingerprint:fp)
  | None -> ());
  (* the listener for self-registering workers, if requested *)
  (match cfg.cf_listen with
  | None -> ()
  | Some addr -> (
      match Net.Transport.listen addr with
      | Error e -> raise (Dist_error e)
      | Ok l ->
          st.listener <- Some l;
          say "accepting workers on %s"
            (Net.Transport.addr_to_string (Net.Transport.bound_addr l))));
  let saved_sigpipe =
    try Some (Sys.signal Sys.sigpipe Sys.Signal_ignore) with _ -> None
  in
  Fun.protect
    ~finally:(fun () ->
      terminate st;
      match saved_sigpipe with
      | Some h -> ( try Sys.set_signal Sys.sigpipe h with _ -> ())
      | None -> ())
    (fun () ->
      let net_mode = cfg.cf_endpoints <> [] || st.listener <> None in
      (* how long a bare listener keeps the socket rung alive with no
         connection at all: enough for a worker to show up *)
      let listen_grace = Float.max 2.0 cfg.cf_heartbeat in
      let socket_alive now =
        net_mode
        && (Net.Registry.alive st.reg
           || List.exists (fun w -> is_socket w.w_origin) (live_workers st)
           || (st.listener <> None && now -. st.net_last <= listen_grace))
      in
      let out_of_workers () =
        (not (socket_alive (Mclock.now ())))
        && live_workers st = []
        && st.respawns_left <= 0
      in
      while pending_count st > 0 && not (out_of_workers ()) do
        dial_endpoints st;
        (* subprocess rung: only once the socket rung has nothing
           left (never-degraded pipe-only runs take it immediately) *)
        if not (socket_alive (Mclock.now ())) then begin
          let want = min st.cfg.cf_shards (pending_count st) in
          let spawned_any = ref true in
          while
            !spawned_any
            && List.length (live_workers st) < want
            && st.respawns_left > 0
          do
            st.respawns_left <- st.respawns_left - 1;
            spawned_any := spawn st <> None
          done
        end;
        check_attempts st;
        dispatch st;
        let wfds =
          List.map (fun w -> Net.Transport.readable_fd w.w_tr) (live_workers st)
        in
        let lfds =
          match st.listener with
          | Some l -> [ Net.Transport.listener_fd l ]
          | None -> []
        in
        (if wfds = [] && lfds = [] then Unix.sleepf 0.01
         else
           match Unix.select (lfds @ wfds) [] [] 0.05 with
           | readable, _, _ ->
               let accepts, worker_fds =
                 List.partition (fun fd -> List.mem fd lfds) readable
               in
               List.iter (fun _ -> accept_registration st) accepts;
               read_ready st worker_fds
           | exception Unix.Unix_error (EINTR, _, _) -> ());
        check_heartbeats st
      done;
      (* anything left means every rung above died: degrade gracefully *)
      fallback st;
      Array.map
        (fun u ->
          match u.u_blob with
          | Some b -> b
          | None -> raise (Dist_error (Printf.sprintf "unit %d has no result" u.u_id)))
        st.units)

(* ------------------------------------------------------------------ *)
(* Front doors *)

let run_fuzz ?quiet (cfg : config) ~seed ~cases ~boundary ~shrink ~oracles () :
    Fuzz.Campaign.outcome =
  let spec =
    Work.W_fuzz
      {
        wf_seed = seed;
        wf_cases = cases;
        wf_boundary = boundary;
        wf_shrink = shrink;
        wf_oracles = oracles;
      }
  in
  let t0 = Mclock.now () in
  let blobs = run_units ?quiet cfg spec in
  Work.merge_fuzz spec ~cost_wall:(Mclock.now () -. t0) ~shards:cfg.cf_shards
    (Array.map (fun b -> b.Work.b_payload) blobs)

let run_mc ?quiet (cfg : config) ~dpor ~incremental ~tt ~frontier
    (case : Fuzz.Gen.case) : Mc.Driver.outcome =
  let spec =
    Work.W_mc
      {
        wm_line = Fuzz.Replay.to_string case;
        wm_dpor = dpor;
        wm_incremental = incremental;
        wm_tt = tt;
        wm_frontier = frontier;
      }
  in
  let blobs = run_units ?quiet cfg spec in
  Work.merge_mc spec (Array.map (fun b -> b.Work.b_payload) blobs)
