(** Message-driven discrete-event simulator.

    This is the "distributed system" substrate of the reproduction: the
    paper's claims are all about the causal structure (execution graph)
    of executions of message-driven algorithms, which this simulator
    produces exactly, under adversarial control of message delays.

    Model (Section 2 of the paper):
    - processes are state machines taking atomic, zero-time
      receive+compute+send steps, each triggered by exactly one message;
    - an external wake-up message triggers each process's first step,
      before any message from another process is received;
    - up to [f] processes may be Byzantine (arbitrary behaviour,
      modelled by an alternative algorithm chosen by the experiment) or
      crash after a given number of steps;
    - every message sent by a correct process is received by every
      recipient within finite time; a faulty receiver still {e receives}
      (the receive event occurs) but need not {e process} the message.

    The simulator records one execution graph, [graph]: the paper's
    space–time diagram, with every message sent by a Byzantine process
    dropped along with its send step and its receive event, and every
    receive event a faulty receiver failed to process dropped too (such
    events are causally inert — no state change, no sends — so they lie
    on no relevant cycle and this is the graph the ABC synchrony
    condition (Definition 4) constrains).  Every delivery, kept in the
    graph or not, has an entry in the [trace], indexed by delivery.

    Delivery order and timing are controlled by a {!scheduler}, which
    assigns each message a rational delay possibly depending on sender,
    destination, send time and a per-message index.

    Every run is a {!Session}, the one delivery engine, driven by one
    of the drivers at the end of this file.  {!run} drives a {e timed}
    session: each posted copy falls due at its send time plus its delay
    and waits in an agenda, a binary heap ordered by (due time,
    envelope id), and each event is stamped with its copy's due time.
    The model checker, {!run_scheduled} and the deferring adversary
    drive {e logical} sessions: copies wait in posting order, the
    driver picks the next one, and each event is stamped with its
    delivery index.  Those are the only two differences; everything a
    delivery does is [Session.deliver_re]. *)

open Execgraph

(** A message posted during a step. *)
type 'm send = { dst : int; payload : 'm }

(** A message-driven distributed algorithm.  [init] is the wake-up step
    (the paper's externally triggered first computing step); [step]
    handles one received message. *)
type ('s, 'm) algorithm = {
  init : self:int -> nprocs:int -> 's * 'm send list;
  step : self:int -> nprocs:int -> 's -> sender:int -> 'm -> 's * 'm send list;
}

type fault =
  | Correct
  | Crash of int
      (** [Crash k]: behaves correctly for its first [k] computing steps
          (including the wake-up), then stops processing.

          Boundary semantics, pinned: [Crash 0] crashes {e before} the
          wake-up step.  The process still has a well-defined initial
          state (the one [init] would compute), but it sends nothing —
          its wake-up broadcast is lost with the crash — and, because
          the faithful graph records only computing steps actually
          taken, it appears in {e no} faithful-graph node. *)
  | Recover of int * int
      (** [Recover (k_down, k_up)]: correct for its first [k_down]
          computing steps, then down — messages arriving while down are
          received but not processed (and dropped from the faithful
          graph) — until [k_up] messages have been lost, after which it
          resumes processing with its pre-crash state (amnesia-free
          crash-recovery). *)
  | Send_omission of int
      (** [Send_omission k]: processes every message normally, but from
          its [(k+1)]-th computing step on (wake-up counts as step 1)
          every message it posts is silently dropped.  [Send_omission 0]
          never gets a message out. *)
  | Receive_omission of int
      (** [Receive_omission j], [j >= 1]: fails to process every [j]-th
          message it receives (the wake-up is exempt, so the process
          always starts).  The lost receive events are dropped from the
          faithful graph. *)
  | Byzantine of string
      (** runs the per-process byzantine algorithm from the config's
          strategy table.  The string is an opaque strategy name carried
          through serialization (lowercase alphanumerics; [""] is the
          conventional "silent" strategy) — the simulator itself only
          dispatches on the table. *)

let valid_strategy_name s =
  String.for_all (fun c -> (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9')) s

let fault_to_string = function
  | Correct -> "C"
  | Crash k -> "K" ^ string_of_int k
  | Recover (kd, ku) -> Printf.sprintf "R%d-%d" kd ku
  | Send_omission k -> "SO" ^ string_of_int k
  | Receive_omission j -> "RO" ^ string_of_int j
  | Byzantine name -> "B" ^ name

let nonneg_int_of_string s =
  match int_of_string_opt s with Some k when k >= 0 -> Some k | _ -> None

let fault_of_string s =
  let tail i = String.sub s i (String.length s - i) in
  match s with
  | "C" -> Some Correct
  | _ when String.length s >= 2 && s.[0] = 'S' && s.[1] = 'O' -> (
      match nonneg_int_of_string (tail 2) with
      | Some k -> Some (Send_omission k)
      | None -> None)
  | _ when String.length s >= 2 && s.[0] = 'R' && s.[1] = 'O' -> (
      match nonneg_int_of_string (tail 2) with
      | Some j when j >= 1 -> Some (Receive_omission j)
      | _ -> None)
  | _ when String.length s >= 2 && s.[0] = 'K' -> (
      match nonneg_int_of_string (tail 1) with
      | Some k -> Some (Crash k)
      | None -> None)
  | _ when String.length s >= 2 && s.[0] = 'R' -> (
      match String.index_opt s '-' with
      | Some i when i >= 2 && i < String.length s - 1 -> (
          match
            ( nonneg_int_of_string (String.sub s 1 (i - 1)),
              nonneg_int_of_string (tail (i + 1)) )
          with
          | Some kd, Some ku when ku >= 1 -> Some (Recover (kd, ku))
          | _ -> None)
      | _ -> None)
  | _ when String.length s >= 1 && s.[0] = 'B' ->
      let name = tail 1 in
      if valid_strategy_name name then Some (Byzantine name) else None
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Fault plans *)

(** Message-level fault action, keyed on the global [msg_index] of the
    posted message; composable with any scheduler. *)
type plan_action =
  | P_drop  (** the message is silently lost *)
  | P_duplicate of Rat.t
      (** delivered normally, plus a second copy arriving the given
          extra delay after the first *)
  | P_misdirect of int  (** rerouted to the given destination *)
  | P_delay of Rat.t
      (** the scheduler's delay is overridden with this one (ignored by
          {!run_deferring}, whose time is logical) *)

type fault_plan = (int * plan_action) list

let plan_action_to_string = function
  | P_drop -> "drop"
  | P_duplicate r -> "dup" ^ Rat.to_string r
  | P_misdirect d -> "to" ^ string_of_int d
  | P_delay r -> "dl" ^ Rat.to_string r

let plan_to_string plan =
  String.concat ","
    (List.map (fun (i, a) -> Printf.sprintf "%d:%s" i (plan_action_to_string a)) plan)

let plan_action_of_string s =
  let tail i = String.sub s i (String.length s - i) in
  let rat_of t = try Some (Rat.of_string t) with _ -> None in
  if s = "drop" then Some P_drop
  else if String.length s > 3 && String.sub s 0 3 = "dup" then
    match rat_of (tail 3) with
    | Some r when Rat.sign r >= 0 -> Some (P_duplicate r)
    | _ -> None
  else if String.length s > 2 && String.sub s 0 2 = "to" then
    match nonneg_int_of_string (tail 2) with
    | Some d -> Some (P_misdirect d)
    | None -> None
  else if String.length s > 2 && String.sub s 0 2 = "dl" then
    match rat_of (tail 2) with
    | Some r when Rat.sign r >= 0 -> Some (P_delay r)
    | _ -> None
  else None

let plan_of_string s =
  if s = "" then Some []
  else
    let entries = String.split_on_char ',' s in
    let rec parse acc seen = function
      | [] -> Some (List.rev acc)
      | e :: rest -> (
          match String.index_opt e ':' with
          | None -> None
          | Some i -> (
              match
                ( nonneg_int_of_string (String.sub e 0 i),
                  plan_action_of_string
                    (String.sub e (i + 1) (String.length e - i - 1)) )
              with
              | Some idx, Some a when not (List.mem idx seen) ->
                  parse ((idx, a) :: acc) (idx :: seen) rest
              | _ -> None))
    in
    parse [] [] entries

(** Scheduler: assigns a non-negative rational delay to each message.
    [msg_index] is a global dense counter, usable for adversarial
    targeting of individual messages. *)
type 'm scheduler = {
  delay :
    sender:int -> dst:int -> send_time:Rat.t -> msg_index:int -> payload:'m -> Rat.t;
}

(** Per-delivery trace record, indexed by delivery. *)
type 's trace_entry = {
  tr_proc : int;
  tr_sender : int;  (** [-1] for the wake-up *)
  tr_time : Rat.t;
  tr_faithful_id : int option;  (** node id in the faithful graph, if kept *)
  tr_state_after : 's option;  (** [None] if the receiver did not process *)
  tr_processed : bool;
}

type ('s, 'm) result = {
  graph : Graph.t;  (** faithful execution graph (faulty-sent messages dropped) *)
  final_states : 's array;
  trace : 's trace_entry array;  (** indexed by delivery *)
  delivered : int;  (** number of receive events simulated *)
  undelivered : int;  (** messages still in flight when the run stopped *)
  posted : int;  (** wake-ups + messages emitted by steps + duplicate copies *)
  dropped : int;
      (** messages lost to send-omission or a plan's [P_drop]; the run
          maintains [posted = delivered + undelivered + dropped] *)
}

type ('s, 'm) config = {
  nprocs : int;
  algorithm : ('s, 'm) algorithm;
  byzantine : (int -> ('s, 'm) algorithm) option;
      (** per-process strategy table for [Byzantine] processes, indexed
          by process id *)
  faults : fault array;
  plan : fault_plan;  (** message-level fault actions keyed on [msg_index] *)
  scheduler : 'm scheduler;
  max_events : int;  (** hard cap on simulated receive events *)
  stop_when : ('s array -> bool) option;
      (** checked after every processed step once every process has woken *)
}

let is_byz_fault = function Byzantine _ -> true | _ -> false

let make_config ?byzantine ?(plan = []) ?stop_when ~nprocs ~algorithm
    ~faults ~scheduler ~max_events () =
  if Array.length faults <> nprocs then invalid_arg "Sim.make_config: faults size";
  if Array.exists is_byz_fault faults && byzantine = None then
    invalid_arg "Sim.make_config: Byzantine faults require a byzantine algorithm";
  Array.iter
    (fun f ->
      match f with
      | Byzantine name when not (valid_strategy_name name) ->
          invalid_arg "Sim.make_config: invalid byzantine strategy name"
      | Receive_omission j when j < 1 ->
          invalid_arg "Sim.make_config: Receive_omission needs j >= 1"
      | Recover (kd, ku) when kd < 0 || ku < 1 ->
          invalid_arg "Sim.make_config: Recover needs k_down >= 0 and k_up >= 1"
      | Crash k when k < 0 -> invalid_arg "Sim.make_config: negative crash step"
      | Send_omission k when k < 0 ->
          invalid_arg "Sim.make_config: negative send-omission step"
      | _ -> ())
    faults;
  List.iter
    (fun (idx, a) ->
      if idx < 0 then invalid_arg "Sim.make_config: plan: negative msg_index";
      match a with
      | P_misdirect d when d < 0 || d >= nprocs ->
          invalid_arg "Sim.make_config: plan: misdirect target out of range"
      | P_delay r when Rat.sign r < 0 ->
          invalid_arg "Sim.make_config: plan: negative delay override"
      | P_duplicate r when Rat.sign r < 0 ->
          invalid_arg "Sim.make_config: plan: negative duplicate delay"
      | _ -> ())
    plan;
  { nprocs; algorithm; byzantine; faults; plan; scheduler; max_events; stop_when }

(* ------------------------------------------------------------------ *)
(* Schedulers *)

(** Θ-Model scheduler: delays drawn uniformly (as rationals with
    denominator [grain]) from [[tau_minus, tau_plus]].  By Theorem 6
    every execution it produces is ABC-admissible for any
    [Ξ > tau_plus/tau_minus]. *)
let theta_scheduler ~rng ~tau_minus ~tau_plus ?(grain = 1000) () =
  if Rat.compare tau_minus tau_plus > 0 || Rat.sign tau_minus <= 0 then
    invalid_arg "Sim.theta_scheduler: need 0 < tau_minus <= tau_plus";
  {
    delay =
      (fun ~sender:_ ~dst:_ ~send_time:_ ~msg_index:_ ~payload:_ ->
        let t = Random.State.int rng (grain + 1) in
        let frac = Rat.of_ints t grain in
        Rat.add tau_minus (Rat.mul frac (Rat.sub tau_plus tau_minus)));
  }

(** Fully asynchronous scheduler: delays uniform on [[0, max_delay]]
    (zero-delay messages allowed, as in the ABC model). *)
let async_scheduler ~rng ~max_delay ?(grain = 1000) () =
  {
    delay =
      (fun ~sender:_ ~dst:_ ~send_time:_ ~msg_index:_ ~payload:_ ->
        let t = Random.State.int rng (grain + 1) in
        Rat.mul (Rat.of_ints t grain) max_delay);
  }

(** Fixed-delay scheduler (a degenerate Θ with τ− = τ+). *)
let constant_scheduler d =
  { delay = (fun ~sender:_ ~dst:_ ~send_time:_ ~msg_index:_ ~payload:_ -> d) }

(** Growing-delay scheduler (Fig. 9 / the spacecraft-formation example
    of Section 5.3): messages between processes in different {e
    clusters} have delays that grow linearly with send time — they
    increase without bound, which no bounded-delay model can express —
    while intra-cluster delays stay within [[intra_min, intra_max]]. *)
let growing_scheduler ~rng ~cluster_of ~intra_min ~intra_max ~inter_base ~growth_rate
    ?(grain = 1000) () =
  {
    delay =
      (fun ~sender ~dst ~send_time ~msg_index:_ ~payload:_ ->
        if cluster_of sender = cluster_of dst then begin
          let t = Random.State.int rng (grain + 1) in
          let frac = Rat.of_ints t grain in
          Rat.add intra_min (Rat.mul frac (Rat.sub intra_max intra_min))
        end
        else Rat.add inter_base (Rat.mul growth_rate send_time));
  }

(** ◇-model scheduler: chaotic delays (uniform on [[0, chaos_max]],
    zero allowed) for messages sent before the global stabilization
    time [gst], Θ-bounded delays from then on.  Executions are
    eventually-ABC admissible (Section 6's ◇ABC / ?◇ABC variants):
    some prefix may violate any given Ξ, but every relevant cycle
    lying after a consistent cut around [gst] satisfies
    [Ξ > tau_plus/tau_minus]. *)
let eventually_theta_scheduler ~rng ~gst ~chaos_max ~tau_minus ~tau_plus ?(grain = 1000)
    () =
  let chaos = async_scheduler ~rng ~max_delay:chaos_max ~grain () in
  let steady = theta_scheduler ~rng ~tau_minus ~tau_plus ~grain () in
  {
    delay =
      (fun ~sender ~dst ~send_time ~msg_index ~payload ->
        if Rat.compare send_time gst < 0 then
          chaos.delay ~sender ~dst ~send_time ~msg_index ~payload
        else steady.delay ~sender ~dst ~send_time ~msg_index ~payload);
  }

(** Adversarial targeted scheduler: like Θ on [tau_minus, tau_plus] but
    messages selected by [victim] get delay [stretched].  Used to
    construct executions that are ABC-admissible for a given Ξ yet
    violate the Θ assumption for every Θ (arbitrarily slow isolated
    messages, cf. Fig. 1 and Section 5.2). *)
let targeted_scheduler ~rng ~tau_minus ~tau_plus ~victim ~stretched ?(grain = 1000) ()
    =
  let base = theta_scheduler ~rng ~tau_minus ~tau_plus ~grain () in
  {
    delay =
      (fun ~sender ~dst ~send_time ~msg_index ~payload ->
        if victim ~sender ~dst ~msg_index then stretched ~send_time
        else base.delay ~sender ~dst ~send_time ~msg_index ~payload);
  }

(* ------------------------------------------------------------------ *)
(* Post-hoc analyses *)

(** Events of the faithful graph annotated with the algorithm states
    reached, for algorithm-level analyses (clock values per event). *)
let faithful_states result =
  let tbl = Hashtbl.create 64 in
  Array.iter
    (fun te ->
      match (te.tr_faithful_id, te.tr_state_after) with
      | Some id, Some s -> Hashtbl.replace tbl id s
      | _ -> ())
    result.trace;
  tbl

(* ------------------------------------------------------------------ *)
(* The delivery engine *)

(* In-flight message. *)
type 'm envelope = {
  env_sender : int;  (* -1 = wake-up *)
  env_dst : int;
  env_payload : 'm option;  (* None = wake-up *)
  env_send_faithful : int option;  (* faithful node id of the sending step *)
  env_sender_correct : bool;
}

(* Per-run fault bookkeeping: [will_process] decides, with side
   effects, whether the receiver of the next delivery processes it.
   Must be called exactly once per delivery, before the step executes. *)
type fault_state = {
  fs_steps : int array;  (* computing steps executed (wake-up included) *)
  fs_recv_seen : int array;  (* non-wake-up deliveries, for Receive_omission *)
  fs_down_drops : int array;  (* messages lost while down, for Recover *)
}

let make_fault_state n =
  {
    fs_steps = Array.make n 0;
    fs_recv_seen = Array.make n 0;
    fs_down_drops = Array.make n 0;
  }

let will_process fs faults p ~is_wakeup =
  match faults.(p) with
  | Correct | Byzantine _ | Send_omission _ -> true
  | Crash k -> fs.fs_steps.(p) < k
  | Receive_omission j ->
      if is_wakeup then true
      else begin
        fs.fs_recv_seen.(p) <- fs.fs_recv_seen.(p) + 1;
        fs.fs_recv_seen.(p) mod j <> 0
      end
  | Recover (k_down, k_up) ->
      if fs.fs_steps.(p) < k_down then true
      else if fs.fs_down_drops.(p) < k_up then begin
        fs.fs_down_drops.(p) <- fs.fs_down_drops.(p) + 1;
        false
      end
      else true (* recovered: resumes with its pre-crash state *)

(* does the sender's current step (already counted in fs_steps) lose its
   posts to a send-omission fault? *)
let sends_omitted fs faults p =
  match faults.(p) with Send_omission k -> fs.fs_steps.(p) > k | _ -> false

let byz_algo cfg p =
  match cfg.faults.(p) with
  | Byzantine _ -> (Option.get cfg.byzantine) p (* validated in make_config *)
  | _ -> cfg.algorithm

(* The faithful-graph rule, the one place it is decided: a delivery adds
   a faithful event iff its receiver processes it and its sender is
   correct (a wake-up's is), and that event carries the message edge
   from the sending step's faithful event when the sending step kept
   one ([env_send_faithful]).  Unprocessed deliveries are causally inert
   (no state change, no sends), so no relevant cycle passes through them
   and dropping them leaves ABC admissibility untouched.  The sessions'
   deliveries ask it, and the deferring adversary asks it with
   [processes] assumed for its speculation and its inference. *)
let faithful ~processes env = processes && env.env_sender_correct

(* The faithful event a delivery of [env] adds to [g], with the message
   edge from the sending step's faithful event when it kept one; its
   id.  Deliveries build their events here, and the deferring
   adversary its speculation. *)
let add_faithful ?time g env =
  let ev = Graph.add_event ?time g ~proc:env.env_dst in
  (match env.env_send_faithful with
  | Some src -> ignore (Graph.add_message g ~src ~dst:ev.Event.id)
  | None -> ());
  ev.Event.id

(* A pending copy.  [re_id] is a dense envelope id in posting order
   (wake-ups are 0..n-1); [re_posted_at] is the delivery index of the
   step that posted it, -1 for the initial wake-ups.  Both are what an
   external explorer needs to reconstruct causality. *)
type 'm ready_env = { re_id : int; re_posted_at : int; re_env : 'm envelope }

(* Undo journal frame: everything one delivery can touch, captured on
   entry to {!Session.deliver}.  The ready list and trace are immutable
   (persistent) lists, so saving the old head reference is O(1) and
   restoring it is exact; the graph is mutable but append-only, so a
   watermark pair suffices ({!Graph.truncate}).  A delivery mutates
   fault state only at the destination, so one saved triple per frame
   restores it.  Only logical sessions keep a journal. *)
type ('s, 'm) undo_frame = {
  u_ready : 'm ready_env list;
  u_trace : 's trace_entry list;
  u_dst : int;
  u_state : 's option;  (* ss_states.(u_dst) *)
  u_steps : int;  (* fs_steps.(u_dst) *)
  u_recv : int;  (* fs_recv_seen.(u_dst) *)
  u_drops : int;  (* fs_down_drops.(u_dst) *)
  u_msg_index : int;
  u_posted : int;
  u_dropped : int;
  u_next_env : int;
  u_stop : bool;
  u_g_events : int;  (* faithful-graph watermark *)
  u_g_edges : int;
}

(* One execution in progress.  A {e timed} session ({!run}) keeps its
   pending copies in its agenda and stamps each event with its copy's
   due time; a {e logical} one (the model checker, {!run_scheduled},
   the deferring adversary) keeps them in [ss_ready] in posting order
   and stamps each event with its delivery index, and its agenda
   arrays stay empty.  The agenda is a binary min-heap over (due time,
   envelope id) in two arrays: slot [i] holds a copy in [ss_heap.(i)]
   and its due time in [ss_due.(i)], the first [ss_pending] slots are
   live, and slot [i]'s children are [2i + 1] and [2i + 2].  Ids follow
   posting order, so copies due at one time go in the order they were
   posted, the wake-ups (all due at 0) first. *)
type ('s, 'm) session = {
  ss_cfg : ('s, 'm) config;
  ss_graph : Graph.t;
  ss_states : 's option array;
  ss_fs : fault_state;
  mutable ss_trace : 's trace_entry list;
  ss_timed : bool;
  mutable ss_ready : 'm ready_env list;  (* logical: posting order *)
  mutable ss_due : Rat.t array;  (* timed: the agenda's due times *)
  mutable ss_heap : 'm ready_env array;  (* timed: the agenda's copies *)
  mutable ss_pending : int;  (* timed: the agenda's live slots *)
  mutable ss_msg_index : int;
  mutable ss_posted : int;
  mutable ss_dropped : int;
  mutable ss_delivered : int;
  mutable ss_stop : bool;
  mutable ss_next_env : int;
  ss_record : bool;  (* keep an undo journal? *)
  mutable ss_journal : ('s, 'm) undo_frame list;  (* newest first *)
}

(* Does the copy due at [d1] with id [id1] go before the one due at
   [d2] with id [id2]? *)
let[@inline] precedes d1 id1 d2 id2 =
  let c = Rat.compare d1 d2 in
  c < 0 || (c = 0 && id1 < id2)

(* Put [re], due at [due], on a timed session's agenda: append it and
   move it up past every parent it precedes. *)
let agenda_add s due re =
  let n = s.ss_pending in
  if n = Array.length s.ss_heap then begin
    let cap = max 16 (2 * n) in
    let d = Array.make cap due and h = Array.make cap re in
    Array.blit s.ss_due 0 d 0 n;
    Array.blit s.ss_heap 0 h 0 n;
    s.ss_due <- d;
    s.ss_heap <- h
  end;
  s.ss_pending <- n + 1;
  let i = ref n in
  while !i > 0 && precedes due re.re_id s.ss_due.((!i - 1) / 2) s.ss_heap.((!i - 1) / 2).re_id do
    let p = (!i - 1) / 2 in
    s.ss_due.(!i) <- s.ss_due.(p);
    s.ss_heap.(!i) <- s.ss_heap.(p);
    i := p
  done;
  s.ss_due.(!i) <- due;
  s.ss_heap.(!i) <- re

(* Drop the earliest copy, slot 0, from a timed session's agenda: the
   last slot's copy takes its place and moves down past every smaller
   child that precedes it. *)
let agenda_drop_min s =
  let n = s.ss_pending - 1 in
  s.ss_pending <- n;
  if n > 0 then begin
    let due = s.ss_due.(n) and re = s.ss_heap.(n) in
    let i = ref 0 and sifting = ref true in
    while !sifting do
      let l = (2 * !i) + 1 in
      let c =
        if l + 1 < n
           && precedes s.ss_due.(l + 1) s.ss_heap.(l + 1).re_id s.ss_due.(l)
                s.ss_heap.(l).re_id
        then l + 1
        else l
      in
      if c < n && precedes s.ss_due.(c) s.ss_heap.(c).re_id due re.re_id then begin
        s.ss_due.(!i) <- s.ss_due.(c);
        s.ss_heap.(!i) <- s.ss_heap.(c);
        i := c
      end
      else sifting := false
    done;
    s.ss_due.(!i) <- due;
    s.ss_heap.(!i) <- re
  end

(* When a copy posted at [time] falls due in a timed session: [time]
   plus the scheduler's delay, asked with the copy's destination, or
   plus [P_delay]'s override.  A logical session asks nothing: its
   copies wait in posting order. *)
let due s ~time ~sender ~idx ~dst payload action =
  if not s.ss_timed then time
  else begin
    let delay =
      match action with
      | Some (P_delay r) -> r
      | _ -> s.ss_cfg.scheduler.delay ~sender ~dst ~send_time:time ~msg_index:idx ~payload
    in
    if Rat.sign delay < 0 then invalid_arg "Sim.run: negative delay";
    Rat.add time delay
  end

(* ------------------------------------------------------------------ *)
(* Sessions *)

module Session = struct
  type ('s, 'm) t = ('s, 'm) session

  type info = {
    i_env : int;
    i_sender : int;
    i_dst : int;
    i_posted_at : int;
    i_correct : bool;
    i_faithful_src : int option;
  }

  let info_of re =
    {
      i_env = re.re_id;
      i_sender = re.re_env.env_sender;
      i_dst = re.re_env.env_dst;
      i_posted_at = re.re_posted_at;
      i_correct = re.re_env.env_sender_correct;
      i_faithful_src = re.re_env.env_send_faithful;
    }

  (* A fresh session, the [n] wake-ups pending (due at time 0 in a
     timed session). *)
  let make ~timed ~record (cfg : ('s, 'm) config) : ('s, 'm) t =
    let n = cfg.nprocs in
    let wakeups =
      List.init n (fun p ->
          {
            re_id = p;
            re_posted_at = -1;
            re_env =
              {
                env_sender = -1;
                env_dst = p;
                env_payload = None;
                env_send_faithful = None;
                env_sender_correct = true;
              };
          })
    in
    {
      ss_cfg = cfg;
      ss_graph = Graph.create ~nprocs:n;
      ss_states = Array.make n None;
      ss_fs = make_fault_state n;
      ss_trace = [];
      ss_timed = timed;
      ss_ready = (if timed then [] else wakeups);
      (* the wake-ups, all due at 0 in id order, are a heap as listed *)
      ss_due = (if timed then Array.make n Rat.zero else [||]);
      ss_heap = (if timed then Array.of_list wakeups else [||]);
      ss_pending = (if timed then n else 0);
      ss_msg_index = 0;
      ss_posted = n;
      ss_dropped = 0;
      ss_delivered = 0;
      ss_stop = false;
      ss_next_env = n;
      ss_record = record;
      ss_journal = [];
    }

  let create ?(record = false) cfg = make ~timed:false ~record cfg
  let graph s = s.ss_graph

  (* A process's wake-up is its causally-first event: until it is
     delivered ([ss_states] still [None]), messages to that process are
     posted but not {e ready} — offering them as choices would step an
     unbooted algorithm.  No visible-emptiness deadlock: a hidden entry
     implies its destination's wake-up is itself still visible. *)
  let shown s re = re.re_env.env_sender < 0 || s.ss_states.(re.re_env.env_dst) <> None
  let visible s = List.filter (shown s) s.ss_ready

  let ready s = List.map info_of (visible s)

  (* a top-level walker, not [List.iter]: no closure per call *)
  let rec iter_visible s f = function
    | [] -> ()
    | re :: rest ->
        if shown s re then f ~env:re.re_id ~dst:re.re_env.env_dst ~posted_at:re.re_posted_at;
        iter_visible s f rest

  let iter_ready s f = iter_visible s f s.ss_ready
  let delivered s = s.ss_delivered
  let envelopes s = s.ss_next_env

  let finished s =
    s.ss_stop
    || (if s.ss_timed then s.ss_pending = 0 else s.ss_ready = [])
    || s.ss_delivered >= s.ss_cfg.max_events

  (* Execute the step triggered by [re] (already taken from the pending
     copies) at [time], which the driver supplies: the copy's due time
     in a timed session, the delivery index in a logical one.  This is
     the per-delivery machinery of every run: the fault decision, the
     faithful graph, the algorithm step, send-omission, the plan's
     actions, the trace entry and [stop_when].  A timed session posts each copy at
     its {!due} time (a [P_duplicate] copy [extra] after the first); a
     logical one appends the step's copies to the ready list in posting
     order, where [P_delay] changes nothing and a duplicate is queued
     right behind the first copy. *)
  let deliver_re s time re =
    let cfg = s.ss_cfg in
    let n = cfg.nprocs in
    let env = re.re_env in
    let step_index = s.ss_delivered in
    let p = env.env_dst in
    let is_wakeup = env.env_sender = -1 in
    let processes = will_process s.ss_fs cfg.faults p ~is_wakeup in
    if Obs.on () then begin
      Obs.instant "sim" "deliver"
        [ ("dst", Obs.I p); ("from", Obs.I env.env_sender); ("ok", Obs.B processes) ];
      if not processes then Obs.instant "sim" "fault" [ ("proc", Obs.I p) ]
    end;
    let faithful_id =
      if faithful ~processes env then Some (add_faithful ~time s.ss_graph env) else None
    in
    s.ss_delivered <- s.ss_delivered + 1;
    let processed, state_after, sends =
      if not processes then
        if is_wakeup && s.ss_states.(p) = None then begin
          (* a process that is down before its very first step still has
             a well-defined initial state — it just never acts on it
             (its wake-up broadcast is lost) *)
          let st, _ = (byz_algo cfg p).init ~self:p ~nprocs:n in
          (false, Some st, [])
        end
        else (false, s.ss_states.(p), [])
      else begin
        let algo = byz_algo cfg p in
        match (env.env_sender, env.env_payload, s.ss_states.(p)) with
        | -1, None, _ ->
            let st, out = algo.init ~self:p ~nprocs:n in
            s.ss_fs.fs_steps.(p) <- s.ss_fs.fs_steps.(p) + 1;
            (true, Some st, out)
        | sender, Some payload, Some st ->
            let st', out = algo.step ~self:p ~nprocs:n st ~sender payload in
            s.ss_fs.fs_steps.(p) <- s.ss_fs.fs_steps.(p) + 1;
            (true, Some st', out)
        | _ ->
            (* a message before its destination's wake-up: a timed
               session delivers the wake-ups first (due at 0, smallest
               ids) and a logical one hides such messages ({!visible}) *)
            assert false
      end
    in
    s.ss_states.(p) <- state_after;
    let sender_correct_now = not (is_byz_fault cfg.faults.(p)) in
    let omitting = processed && sends_omitted s.ss_fs cfg.faults p in
    (* a logical session's postings of this step, newest first; appended
       to the ready list in one rebuild below instead of one O(n)
       rebuild per post *)
    let posts = ref [] in
    let send_faithful = if sender_correct_now then faithful_id else None in
    (* one closure per delivery, shared by the step's sends *)
    let enqueue ~idx ~dst payload due =
      if Obs.on () then
        Obs.instant "sim" "send" [ ("dst", Obs.I dst); ("idx", Obs.I idx) ];
      let re' =
        {
          re_id = s.ss_next_env;
          re_posted_at = step_index;
          re_env =
            {
              env_sender = p;
              env_dst = dst;
              env_payload = Some payload;
              env_send_faithful = send_faithful;
              env_sender_correct = sender_correct_now;
            };
        }
      in
      s.ss_next_env <- s.ss_next_env + 1;
      if s.ss_timed then agenda_add s due re' else posts := re' :: !posts
    in
    List.iter
      (fun { dst; payload } ->
        let idx = s.ss_msg_index in
        s.ss_msg_index <- idx + 1;
        s.ss_posted <- s.ss_posted + 1;
        if omitting then begin
          s.ss_dropped <- s.ss_dropped + 1;
          if Obs.on () then
            Obs.instant "sim" "drop" [ ("idx", Obs.I idx); ("why", Obs.S "omission") ]
        end
        else
          match List.assoc_opt idx cfg.plan with
          | Some P_drop ->
              s.ss_dropped <- s.ss_dropped + 1;
              if Obs.on () then
                Obs.instant "sim" "drop" [ ("idx", Obs.I idx); ("why", Obs.S "plan") ]
          | (None | Some (P_delay _)) as a ->
              enqueue ~idx ~dst payload (due s ~time ~sender:p ~idx ~dst payload a)
          | Some (P_misdirect d) ->
              enqueue ~idx ~dst:d payload (due s ~time ~sender:p ~idx ~dst:d payload None)
          | Some (P_duplicate extra) ->
              let t = due s ~time ~sender:p ~idx ~dst payload None in
              enqueue ~idx ~dst payload t;
              s.ss_posted <- s.ss_posted + 1;
              enqueue ~idx ~dst payload (if s.ss_timed then Rat.add t extra else t))
      sends;
    if !posts <> [] then s.ss_ready <- s.ss_ready @ List.rev !posts;
    s.ss_trace <-
      {
        tr_proc = p;
        tr_sender = env.env_sender;
        tr_time = time;
        tr_faithful_id = faithful_id;
        tr_state_after = (if processed then state_after else None);
        tr_processed = processed;
      }
      :: s.ss_trace;
    match cfg.stop_when with
    | Some stop when processed && Array.for_all Option.is_some s.ss_states ->
        if stop (Array.map Option.get s.ss_states) then s.ss_stop <- true
    | _ -> ()

  (* the [k]-th visible pending entry *)
  let rec nth_visible s k = function
    | [] -> invalid_arg "Sim.Session.deliver: choice index out of range"
    | re :: rest ->
        if shown s re then if k = 0 then re else nth_visible s (k - 1) rest
        else nth_visible s k rest

  (* [l] without the entry [re]: the entries before it copied once, the
     suffix after it shared, so the journal's captured list head stays
     valid *)
  let rec unlink re = function
    | [] -> assert false
    | x :: rest -> if x == re then rest else x :: unlink re rest

  let push_frame s dst =
    s.ss_journal <-
      {
        u_ready = s.ss_ready;
        u_trace = s.ss_trace;
        u_dst = dst;
        u_state = s.ss_states.(dst);
        u_steps = s.ss_fs.fs_steps.(dst);
        u_recv = s.ss_fs.fs_recv_seen.(dst);
        u_drops = s.ss_fs.fs_down_drops.(dst);
        u_msg_index = s.ss_msg_index;
        u_posted = s.ss_posted;
        u_dropped = s.ss_dropped;
        u_next_env = s.ss_next_env;
        u_stop = s.ss_stop;
        u_g_events = Graph.event_count s.ss_graph;
        u_g_edges = Graph.edge_count s.ss_graph;
      }
      :: s.ss_journal

  let deliver s k =
    if k < 0 then invalid_arg "Sim.Session.deliver: negative choice index";
    let re = nth_visible s k s.ss_ready in
    if s.ss_record then push_frame s re.re_env.env_dst;
    s.ss_ready <- unlink re s.ss_ready;
    deliver_re s (Rat.of_int s.ss_delivered) re;
    info_of re

  (* Roll the last delivery back.  Everything a delivery touches is
     either captured in the frame (scalars, the destination's algorithm
     state and fault counters, the persistent ready/trace list heads)
     or append-only and watermarked (the graph).  Algorithm states
     and payloads are immutable values, so restoring the old references
     is exact. *)
  let undo s =
    match s.ss_journal with
    | [] -> invalid_arg "Sim.Session.undo: nothing recorded to undo"
    | fr :: rest ->
        Graph.truncate s.ss_graph ~events:fr.u_g_events ~edges:fr.u_g_edges;
        s.ss_states.(fr.u_dst) <- fr.u_state;
        s.ss_fs.fs_steps.(fr.u_dst) <- fr.u_steps;
        s.ss_fs.fs_recv_seen.(fr.u_dst) <- fr.u_recv;
        s.ss_fs.fs_down_drops.(fr.u_dst) <- fr.u_drops;
        s.ss_trace <- fr.u_trace;
        s.ss_ready <- fr.u_ready;
        s.ss_msg_index <- fr.u_msg_index;
        s.ss_posted <- fr.u_posted;
        s.ss_dropped <- fr.u_dropped;
        s.ss_next_env <- fr.u_next_env;
        s.ss_stop <- fr.u_stop;
        s.ss_delivered <- s.ss_delivered - 1;
        s.ss_journal <- rest

  (* Every process's final state.  A process that never woke up (a budget
     below [nprocs], or a schedule that starved its wake-up) raises, or
     with [allow_unwoken] gets the initial state [init] computes, the
     [Crash 0] convention: well-defined even if never acted upon. *)
  let final_states ~allow_unwoken ~who cfg states =
    Array.mapi
      (fun p st ->
        match st with
        | Some st -> st
        | None ->
            if allow_unwoken then fst ((byz_algo cfg p).init ~self:p ~nprocs:cfg.nprocs)
            else invalid_arg (Printf.sprintf "%s: process %d never woke up" who p))
      states

  let result ?(allow_unwoken = false) ?(who = "Sim.Session.result") s =
    {
      graph = s.ss_graph;
      final_states = final_states ~allow_unwoken ~who s.ss_cfg s.ss_states;
      trace = Array.of_list (List.rev s.ss_trace);
      delivered = s.ss_delivered;
      undelivered =
        (if s.ss_timed then s.ss_pending else List.length s.ss_ready);
      posted = s.ss_posted;
      dropped = s.ss_dropped;
    }
end

(* ------------------------------------------------------------------ *)
(* Recorded runs *)

(* A run's budget is read only where its driver asks whether to go on,
   so the same configuration run with a smaller budget [k] is a prefix
   of it: the prefix that ends at the first such question asked with at
   least [k] deliveries made.  A recorder keeps, per delivery, what a
   result is built from.  Row [d] (stride [rc_stride]) describes the
   run after [d] deliveries — row 0 before the first: the faithful
   graph's event and edge counts, [posted], [dropped], and whether the
   driver asked its question there.  [rc_state.(d)] is the state the
   [d]-th delivery left at its destination; the trace cannot supply it,
   since an unprocessed delivery's [tr_state_after] is [None] while a
   [Crash 0] wake-up still sets a state. *)
type 's recorder = {
  mutable rc_rows : int array;
  mutable rc_state : 's option array;
  mutable rc_len : int;  (* rows recorded: deliveries + 1 *)
}

let rc_stride = 5

(* Room for 16 rows at first: [record] doubles it as the run goes, so
   a run that stops far below its budget pays for the rows it used. *)
let recorder (cfg : ('s, 'm) config) : 's recorder =
  let cap = 1 + min cfg.max_events 15 in
  { rc_rows = Array.make (rc_stride * cap) 0; rc_state = Array.make cap None; rc_len = 0 }

(* Append session [s]'s row as it stands to [rc], if the run records;
   [asked]: the driver asks whether to go on at this point (every
   point, for {!run}). *)
let record rc s ~asked state =
  match rc with
  | None -> ()
  | Some rc ->
      let d = rc.rc_len in
      if d >= Array.length rc.rc_state then begin
        let rows = Array.make (2 * Array.length rc.rc_rows) 0 in
        Array.blit rc.rc_rows 0 rows 0 (Array.length rc.rc_rows);
        let st = Array.make (2 * d) None in
        Array.blit rc.rc_state 0 st 0 d;
        rc.rc_rows <- rows;
        rc.rc_state <- st
      end;
      let o = d * rc_stride in
      rc.rc_rows.(o) <- Graph.event_count s.ss_graph;
      rc.rc_rows.(o + 1) <- Graph.edge_count s.ss_graph;
      rc.rc_rows.(o + 2) <- s.ss_posted;
      rc.rc_rows.(o + 3) <- s.ss_dropped;
      rc.rc_rows.(o + 4) <- (if asked then 1 else 0);
      rc.rc_state.(d) <- state;
      rc.rc_len <- d + 1

(* The driver asks its question after [d] deliveries. *)
let asked rc d =
  match rc with Some rc -> rc.rc_rows.((d * rc_stride) + 4) <- 1 | None -> ()

(* What the recorded run [r] returns when run again with budget [k]:
   cut at the first question asked with [k] or more deliveries made. *)
let cut ~who (cfg : ('s, 'm) config) rc (r : ('s, 'm) result) k : ('s, 'm) result =
  if k < 0 || k > cfg.max_events then invalid_arg (who ^ ": cut budget out of range");
  let rec stop d =
    if d >= r.delivered || rc.rc_rows.((d * rc_stride) + 4) = 1 then min d r.delivered
    else stop (d + 1)
  in
  let d = stop k in
  if d = r.delivered then r
  else begin
    let n = cfg.nprocs in
    let states = Array.make n None and seen = Array.make n false in
    let missing = ref n and j = ref d in
    while !missing > 0 && !j > 0 do
      let p = r.trace.(!j - 1).tr_proc in
      if not seen.(p) then begin
        seen.(p) <- true;
        states.(p) <- rc.rc_state.(!j);
        decr missing
      end;
      decr j
    done;
    let o = d * rc_stride in
    let posted = rc.rc_rows.(o + 2) and dropped = rc.rc_rows.(o + 3) in
    {
      graph = Graph.prefix r.graph ~events:rc.rc_rows.(o) ~edges:rc.rc_rows.(o + 1);
      final_states = Session.final_states ~allow_unwoken:false ~who cfg states;
      trace = Array.sub r.trace 0 d;
      delivered = d;
      undelivered = posted - d - dropped;
      posted;
      dropped;
    }
  end

(* ------------------------------------------------------------------ *)
(* Drivers *)

(* {!run}: a timed session, delivering its earliest pending copy at that
   copy's due time until it is finished (agenda exhausted, event cap
   hit, or [stop_when] satisfied), recording into [rc] if given. *)
let timed rc cfg =
  let s = Session.make ~timed:true ~record:false cfg in
  record rc s ~asked:true None;
  while not (Session.finished s) do
    let time = s.ss_due.(0) and re = s.ss_heap.(0) in
    agenda_drop_min s;
    Session.deliver_re s time re;
    record rc s ~asked:true s.ss_states.(re.re_env.env_dst)
  done;
  Session.result ~who:"Sim.run" s

let run cfg = timed None cfg

let run_recorded cfg =
  let rc = recorder cfg in
  let r = timed (Some rc) cfg in
  (r, cut ~who:"Sim.run" cfg rc r)

(** Replay an externally chosen delivery sequence: choice [k] of the
    array picks the [k]-th entry of the ready list (posting order) at
    that point; out-of-range choices saturate at the last entry, and an
    exhausted array continues FIFO (choice 0) to a maximal execution.
    A schedule may starve a wake-up within the budget, so the result is
    built with the unwoken-processes fallback. *)
let run_scheduled (cfg : ('s, 'm) config) ~(choices : int array) : ('s, 'm) result =
  let s = Session.create cfg in
  let i = ref 0 in
  while not (Session.finished s) do
    let m = List.length (Session.visible s) in
    let c = if !i < Array.length choices then choices.(!i) else 0 in
    let c = if c < 0 then 0 else if c >= m then m - 1 else c in
    ignore (Session.deliver s c);
    incr i
  done;
  Session.result ~allow_unwoken:true ~who:"Sim.run_scheduled" s

(* ------------------------------------------------------------------ *)
(* Oracle-guided deferring adversary *)

(** [run_deferring cfg ~xi ~victim] runs like {!run} but replaces the
    time-based scheduler with an {e adaptive adversary} that tries to
    defer every message selected by [victim] for as long as the ABC
    condition for [xi] allows:

    before delivering the oldest non-victim message [m], the adversary
    checks — on the recorded execution graph extended with [m]'s
    receive event followed by the victim's receive event — whether the
    deferral would still be admissible.  If yes, [m] is delivered and
    the victim keeps waiting; otherwise the victim is delivered
    immediately (the last admissible moment).

    The resulting executions sit exactly at the admissibility boundary:
    this is the adversary behind the paper's observation that the ABC
    condition "facilitates timing out message chains" — the deferral a
    victim can suffer is bounded by the Ξ-ratio of the cycles its late
    arrival would close (cf. Fig. 3 and the S1 sweep).

    Victim messages are identified by sender and destination.  Events
    are stamped with a logical time (delivery index) rather than the
    scheduler's real time.  Implemented over {!Session}: the ready list
    in posting order, partitioned on the victim predicate, is exactly
    the pending/deferred FIFO pair of the original formulation.

    Invariant: after [release], the graph extended with the whole
    deferred queue [dq] is admissible, so forced deliveries (of queue
    prefixes) can never violate.  Each loop iteration starts with
    [release], whose first question is "graph + dq".  The decision
    before it has often answered that already: taking [next] verified
    [next :: dq], and taking the victim [v] keeps "graph + dq" (which
    [release] established) as it was.  That holds when the delivered
    step grew the faithful graph as its speculation assumed (the event
    [faithful] grants a processed delivery: a crashed, omitting or
    down receiver adds none) and posted no victim message, so [dq] is
    unchanged.
    Then [release] skips the check and emits the same [adm] instant.
    With [infer] off every question is asked:
    {!run_deferring_reference}.

    With a recorder [rc], every delivery ([take]) appends its row and
    every budget question ([live]) marks its point, for
    {!run_deferring_recorded}'s cuts.  [live] is the only reader of
    [max_events], but [release] takes victims without asking it, so a
    run with a smaller budget stops at the first question asked at or
    past that budget, which may lie a few deliveries beyond it. *)
let deferring ~infer (rc : 's recorder option) (cfg : ('s, 'm) config) ~xi
    ~(victim : sender:int -> dst:int -> bool) : ('s, 'm) result =
  let s = Session.create cfg in
  record rc s ~asked:false None;
  let is_victim re =
    let env = re.re_env in
    env.env_sender >= 0 && env.env_sender_correct
    && victim ~sender:env.env_sender ~dst:env.env_dst
  in
  (* The ready list from its first victim on (the deferred queue's
     head) when [victims], else from its first other copy on: a
     suffix, not a copy. *)
  let rec from victims = function
    | re :: rest as l -> if is_victim re = victims then l else from victims rest
    | [] -> []
  in
  let rec count_victims k = function
    | re :: rest -> count_victims (if is_victim re then k + 1 else k) rest
    | [] -> k
  in
  let append re =
    if faithful ~processes:true re.re_env then ignore (add_faithful s.ss_graph re.re_env)
  in
  (* append every victim of the list in order; how many there were *)
  let rec append_victims k = function
    | re :: rest ->
        if is_victim re then begin
          append re;
          append_victims (k + 1) rest
        end
        else append_victims k rest
    | [] -> k
  in
  (* Would delivering [next], if any, and then the deferred queue dq
     (every victim of the ready list, in posting order) on top of the
     recorded graph still be admissible?  Asked as a speculation of an incremental
     checker attached to the faithful graph: the copies' faithful
     events are appended to the graph, committed growth is absorbed by
     delta relaxation, and the graph is truncated back afterwards,
     instead of copying the whole graph and re-running Bellman–Ford per
     query.  Every id appended exists, so nothing raises between
     [spec_begin] and [spec_abort].  [proved]: the answer is already
     known to be yes.  The [adm] instant counts the copies asked
     about. *)
  let checker = Abc_check.Checker.create s.ss_graph ~xi in
  let adm ok pending =
    if Obs.on () then
      Obs.instant "sim" "adm" [ ("ok", Obs.B ok); ("pending", Obs.I pending) ];
    ok
  in
  let extension_admissible ~proved next =
    if proved then adm true (if Obs.on () then count_victims 0 s.ss_ready else 0)
    else begin
      Abc_check.Checker.spec_begin checker;
      Option.iter append next;
      let k = append_victims 0 s.ss_ready in
      let ok = Abc_check.Checker.spec_admissible checker in
      Abc_check.Checker.spec_abort checker;
      adm ok (if Option.is_none next then k else k + 1)
    end
  in
  (* Was a victim posted as copy [envs] or later? *)
  let rec posted_victim envs = function
    | re :: rest -> (re.re_id >= envs && is_victim re) || posted_victim envs rest
    | [] -> false
  in
  (* The ready list without copy [id], in one pass: the part before it
     is rebuilt and the part after it shared. *)
  let rec without id = function
    | re :: rest -> if re.re_id = id then rest else re :: without id rest
    | [] -> []
  in
  (* deliver [re]; with [infer], say whether the step kept its
     speculation: the faithful graph grew by the event the speculation
     added for it, and no victim message was posted *)
  let take re =
    let events = Graph.event_count s.ss_graph and envs = s.ss_next_env in
    s.ss_ready <- without re.re_id s.ss_ready;
    Session.deliver_re s (Rat.of_int s.ss_delivered) re;
    record rc s ~asked:false s.ss_states.(re.re_env.env_dst);
    infer
    && Graph.event_count s.ss_graph - events
       = (if faithful ~processes:true re.re_env then 1 else 0)
    && not (posted_victim envs s.ss_ready)
  in
  (* the loop's budget question; a cut stops at one of these points *)
  let live () =
    asked rc s.ss_delivered;
    not (Session.finished s)
  in
  (* re-establish the queue invariant: new victim messages may have
     been appended during the last step; release queue heads until
     deferring the rest is admissible again *)
  let rec release proved =
    match from true s.ss_ready with
    | v :: _ when not (extension_admissible ~proved None) ->
        ignore (take v);
        release false
    | _ -> ()
  in
  (* [proved]: the last decision verified "graph + dq" *)
  let rec loop proved =
    if live () then begin
      release proved;
      if live () then
        loop
          (match (from false s.ss_ready, from true s.ss_ready) with
          | [], v :: _ ->
              (* nothing else to deliver: the victim must arrive eventually *)
              take v
          | next :: _, [] ->
              ignore (take next);
              false
          | next :: _, v :: _ ->
              take (if extension_admissible ~proved:false (Some next) then next else v)
          | [], [] -> assert false)
    end
  in
  loop false;
  Session.result ~allow_unwoken:false ~who:"Sim.run_deferring" s

let run_deferring cfg ~xi ~victim = deferring ~infer:true None cfg ~xi ~victim

let run_deferring_recorded cfg ~xi ~victim =
  let rc = recorder cfg in
  let r = deferring ~infer:true (Some rc) cfg ~xi ~victim in
  (r, cut ~who:"Sim.run_deferring" cfg rc r)

let run_deferring_reference cfg ~xi ~victim = deferring ~infer:false None cfg ~xi ~victim
