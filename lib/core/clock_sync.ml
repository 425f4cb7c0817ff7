(** Algorithm 1 (Section 3): Byzantine fault-tolerant clock
    synchronization by tick propagation, for systems of [n >= 3f + 1]
    processes in the ABC model.

    Every process maintains a clock [k], initially broadcasting
    [(tick 0)], and applies two rules to each received tick:

    - {e catch-up} (line 3): on [(tick l)] from [f + 1] distinct
      processes with [l > k]: broadcast [(tick k+1) .. (tick l)] (each
      at most once) and set [k := l];
    - {e advance} (line 6): on [(tick k)] from [n − f] distinct
      processes: broadcast [(tick k+1)] (at most once) and set
      [k := k + 1].

    The theorems reproduced by the analyses below:
    - Theorem 1 (progress): correct clocks grow without bound;
    - Theorem 2 (synchrony): [|Cp(S) − Cq(S)| ≤ 2Ξ] on every
      consistent cut [S];
    - Theorem 3 (precision): the same bound on real-time cuts;
    - Theorem 4 (bounded progress): [ϱ = 4Ξ + 1] for the distinguished
      clock-increment/broadcast events;
    - Lemma 4 (causal cone): when [Cp(φ′) = k + 2Ξ], process [p] has
      already received [(tick ℓ)] from every correct process, for every
      [ℓ ≤ k].

    Theorem 2's quantity is what every precision oracle and every
    boundary shrink candidate computes, so {!max_skew_on_cuts} takes it
    in one vector-clock pass over the execution graph.  The
    closure-based computation, straight from Definitions 5 and 6, stays
    as {!max_skew_on_cuts_reference}; tests check the two agree. *)

module Iset = Set.Make (Int)
module Imap = Map.Make (Int)

type msg = Tick of int

type state = {
  k : int;  (** the local clock *)
  f : int;  (** resilience parameter *)
  received : Iset.t Imap.t;  (** tick value -> senders seen *)
  sent_upto : int;  (** largest tick already broadcast (-1 = none) *)
  receipt_log : (int * int) list;  (** (sender, tick) receipts, newest first *)
  peer_view : int Imap.t;
      (** per-peer message visibility: the largest tick this process has
          told each destination, individually.  The honest algorithm
          broadcasts uniformly and leaves this empty; equivocating
          strategies (lib/byz) maintain it to keep each per-peer tick
          stream monotone while the streams diverge from each other. *)
}

let initial ~f =
  {
    k = 0;
    f;
    received = Imap.empty;
    sent_upto = 0;
    receipt_log = [];
    peer_view = Imap.empty;
  }

let clock s = s.k

let peer_view_tick s d =
  match Imap.find_opt d s.peer_view with Some t -> t | None -> -1

let record_peer_view s d t = { s with peer_view = Imap.add d (max t (peer_view_tick s d)) s.peer_view }

let broadcast_range ~nprocs lo hi =
  List.concat_map
    (fun t -> List.init nprocs (fun d -> { Sim.dst = d; payload = Tick t }))
    (List.init (max 0 (hi - lo + 1)) (fun i -> lo + i))

(* Apply the catch-up and advance rules to quiescence; returns the new
   state and the range of fresh ticks to broadcast. *)
let apply_rules ~nprocs s =
  let count t s = match Imap.find_opt t s.received with None -> 0 | Some set -> Iset.cardinal set in
  let rec fix s hi =
    (* catch-up: largest l > k with f+1 distinct (tick l) senders *)
    let catch =
      Imap.fold
        (fun l senders acc ->
          if l > s.k && Iset.cardinal senders >= s.f + 1 then max acc l else acc)
        s.received (-1)
    in
    if catch > s.k then fix { s with k = catch; sent_upto = max s.sent_upto catch } (max hi catch)
    else if count s.k s >= nprocs - s.f then
      (* advance *)
      let k' = s.k + 1 in
      fix { s with k = k'; sent_upto = max s.sent_upto k' } (max hi k')
    else (s, hi)
  in
  let before = s.sent_upto in
  let s', hi = fix s before in
  let sends = if hi > before then broadcast_range ~nprocs (before + 1) hi else [] in
  (s', sends)

(** The algorithm, as a {!Sim.algorithm}. *)
let algorithm ~f : (state, msg) Sim.algorithm =
  {
    init =
      (fun ~self:_ ~nprocs -> (initial ~f, broadcast_range ~nprocs 0 0));
    step =
      (fun ~self ~nprocs s ~sender (Tick t) ->
        let k0 = s.k in
        let senders =
          match Imap.find_opt t s.received with None -> Iset.empty | Some set -> set
        in
        let s =
          {
            s with
            received = Imap.add t (Iset.add sender senders) s.received;
            receipt_log = (sender, t) :: s.receipt_log;
          }
        in
        let s', sends = apply_rules ~nprocs s in
        if Obs.on () && s'.k > k0 then
          Obs.counter "sim" "clock" [ ("proc", Obs.I self) ] s'.k;
        (s', sends));
  }

(* ------------------------------------------------------------------ *)
(* Byzantine strategies for experiments *)

(** A Byzantine process that tries to rush the system: on every receipt
    it broadcasts a burst of ticks far ahead of any legitimate clock,
    with different values to different destinations (two-faced). *)
let byzantine_rusher ~ahead : (state, msg) Sim.algorithm =
  let others ~self ~nprocs mk =
    List.filter_map (fun d -> if d = self then None else Some (mk d)) (List.init nprocs Fun.id)
  in
  {
    init =
      (fun ~self ~nprocs ->
        ( initial ~f:0,
          others ~self ~nprocs (fun d -> { Sim.dst = d; payload = Tick (d mod ahead) })
        ));
    step =
      (fun ~self ~nprocs s ~sender (Tick t) ->
        (* never message itself (a self-loop would flood the run with
           byzantine-only events and starve everyone of scheduler
           budget) and only react to others *)
        if sender = self then (s, [])
        else
          let burst =
            others ~self ~nprocs (fun d -> { Sim.dst = d; payload = Tick (t + 1 + (d mod ahead)) })
          in
          (s, burst));
  }

(** A Byzantine process that stays silent (still receives). *)
let byzantine_mute : (state, msg) Sim.algorithm =
  {
    init = (fun ~self:_ ~nprocs:_ -> (initial ~f:0, []));
    step = (fun ~self:_ ~nprocs:_ s ~sender:_ _ -> (s, []));
  }

(* ------------------------------------------------------------------ *)
(* Analyses over a simulation result *)

open Execgraph

type analysis_input = {
  result : (state, msg) Sim.result;
  correct : int list;  (** indices of correct processes *)
  xi : Rat.t;
}

(* Clock value per faithful-graph event at correct processes (clock of
   the state reached after executing that event). *)
let clocks_by_event input =
  let tbl = Sim.faithful_states input.result in
  fun id -> Option.map clock (Hashtbl.find_opt tbl id)

(* Clock of process p in the frontier of cut [c]: the clock after p's
   last processed event in the cut (0 before any event). *)
let clock_in_cut input c p =
  let g = input.result.Sim.graph in
  let clocks = clocks_by_event input in
  let frontier_seq = (Cut.frontier c).(p) in
  List.fold_left
    (fun acc id ->
      let ev = Graph.event g id in
      if ev.Event.seq <= frontier_seq then
        match clocks id with Some k -> max acc k | None -> acc
      else acc)
    0
    (Graph.events_of_proc g p)

(** Maximum clock skew [|Cp(S) − Cq(S)|] between correct processes over
    all principal consistent cuts (Theorem 2's quantity; the bound is
    [2Ξ]), in one pass.

    The frontier of the principal cut ⟨φ⟩ is φ's vector clock: for each
    process, the seq of its last event that happens before φ (or is φ),
    [-1] for none.  Sim numbers faithful events in delivery order, so
    every in-edge comes from a smaller id and one sweep in id order
    takes each event's clock as the componentwise max over its
    in-edges' sources, with its own entry set to its seq.  Row [E] of
    the flat [(E+1)·n] array collects each process's last seq: the full
    cut.  A correct process's clock at a frontier seq is the prefix max
    of its events' clocks, 0 before any event ([clock_in_cut]).
    O(E·n) against the reference's O(E²·n). *)
(* Fold into row [row] of the [n]-wide vector clocks [vc] the rows of
   the sources of event [id]'s in-edges, from edge id [ed] on. *)
let rec join vc n dg row id ed =
  if ed >= 0 then begin
    let src = Digraph.edge_src dg ed in
    if src >= id then
      invalid_arg "Clock_sync.max_skew_on_cuts: event ids are not in causal order";
    for q = 0 to n - 1 do
      vc.(row + q) <- Int.max vc.(row + q) vc.((src * n) + q)
    done;
    join vc n dg row id (Digraph.next_in dg ed)
  end

let max_skew_on_cuts input =
  let g = input.result.Sim.graph in
  let n = Graph.nprocs g and e = Graph.event_count g in
  let vc = Array.make ((e + 1) * n) (-1) in
  let dg = Graph.digraph g in
  for id = 0 to e - 1 do
    join vc n dg (id * n) id (Digraph.first_in dg id);
    let ev = Graph.event g id in
    vc.((id * n) + ev.Event.proc) <- ev.Event.seq;
    vc.((e * n) + ev.Event.proc) <- ev.Event.seq
  done;
  let clocks = clocks_by_event input in
  let correct = Array.of_list input.correct in
  let clock_at =
    Array.map
      (fun p ->
        let ids = Array.of_list (Graph.events_of_proc g p) in
        let k = ref 0 in
        Array.map
          (fun id ->
            (match clocks id with Some c -> k := Int.max !k c | None -> ());
            !k)
          ids)
      correct
  in
  let m = Array.length correct in
  let best = ref 0 in
  for cut = 0 to e do
    (* Definition 5: a cut that misses a correct process is not
       consistent, and Theorem 2 does not apply to it *)
    let row = cut * n and lo = ref max_int and hi = ref min_int and i = ref 0 in
    while !i < m && vc.(row + correct.(!i)) >= 0 do
      let k = clock_at.(!i).(vc.(row + correct.(!i))) in
      lo := Int.min !lo k;
      hi := Int.max !hi k;
      incr i
    done;
    if m > 0 && !i = m then best := Int.max !best (!hi - !lo)
  done;
  !best

(** The same quantity from the definitions: each principal cut built by
    a BFS left closure ({!Cut.principal_cuts}), each correct process's
    clock read by {!clock_in_cut}.  O(E²·n); the reference that
    {!max_skew_on_cuts} is differentially tested against. *)
let max_skew_on_cuts_reference input =
  let g = input.result.Sim.graph in
  (* Definition 5 requires every correct process to have an event in a
     consistent cut; principal cuts that miss a correct process are not
     consistent and Theorem 2 does not apply to them. *)
  let cuts =
    List.filter
      (fun c -> List.for_all (fun p -> (Cut.frontier c).(p) >= 0) input.correct)
      (Cut.principal_cuts g)
  in
  List.fold_left
    (fun acc c ->
      let clocks = List.map (clock_in_cut input c) input.correct in
      match (clocks, List.length clocks) with
      | [], _ | _, 0 -> acc
      | ks, _ -> max acc (List.fold_left max min_int ks - List.fold_left min max_int ks))
    0 cuts

(** Maximum clock skew over real-time cuts (Theorem 3's quantity).
    Scans event times in order, maintaining each correct process's
    current clock. *)
let max_skew_realtime input =
  let g = input.result.Sim.graph in
  let clocks = clocks_by_event input in
  let events = ref [] in
  for id = 0 to Graph.event_count g - 1 do
    let ev = Graph.event g id in
    match (ev.Event.time, clocks id) with
    | Some t, Some k when List.mem ev.Event.proc input.correct ->
        events := (t, ev.Event.proc, k) :: !events
    | _ -> ()
  done;
  let events = List.sort (fun (t1, _, _) (t2, _, _) -> Rat.compare t1 t2) (List.rev !events) in
  let nprocs = Graph.nprocs g in
  let current = Array.make nprocs 0 in
  let skew = ref 0 in
  let spread () =
    let ks = List.map (fun p -> current.(p)) input.correct in
    List.fold_left max min_int ks - List.fold_left min max_int ks
  in
  List.iter
    (fun (_, p, k) ->
      current.(p) <- max current.(p) k;
      skew := max !skew (spread ()))
    events;
  !skew

(** Lemma 4 (causal cone) check: for every event [φ′] of a correct
    process [p] with clock [c], and every [ℓ ≤ c − 2Ξ], [p] has already
    received [(tick ℓ)] from every correct process by [φ′].  Returns
    the number of (event, ℓ, q) triples checked and any violations. *)
let causal_cone_violations input =
  let g = input.result.Sim.graph in
  let states = Sim.faithful_states input.result in
  let checked = ref 0 and violations = ref [] in
  List.iter
    (fun p ->
      List.iter
        (fun id ->
          match Hashtbl.find_opt states id with
          | None -> ()
          | Some st ->
              let c = st.k in
              (* largest integer l with l <= c - 2Xi *)
              let lmax = Rat.floor_int (Rat.sub (Rat.of_int c) (Rat.mul Rat.two input.xi)) in
              if lmax >= 0 then begin
                (* receipts processed by p up to and including this event *)
                let seen = Hashtbl.create 16 in
                List.iter
                  (fun (sender, t) -> Hashtbl.replace seen (sender, t) ())
                  st.receipt_log;
                List.iter
                  (fun q ->
                    for l = 0 to lmax do
                      incr checked;
                      if not (Hashtbl.mem seen (q, l)) then
                        violations := (id, l, q) :: !violations
                    done)
                  input.correct
              end)
        (Graph.events_of_proc g p))
    input.correct;
  (!checked, !violations)

(** Theorem 4 (bounded progress) check for [ϱ = 4Ξ + 1]: the
    distinguished events are the clock-increment (and hence broadcast)
    steps.  For every pair of events [φp →* φ′p] at a correct process
    [p] such that [p] performs at least [ϱ] distinguished events in the
    cut interval [[⟨φp⟩, ⟨φ′p⟩]], every correct process must perform at
    least one distinguished event in that interval.  Returns the number
    of intervals checked and the violations. *)
let bounded_progress_violations input =
  let g = input.result.Sim.graph in
  let states = Sim.faithful_states input.result in
  let rho =
    (* smallest integer >= 4Xi + 1 *)
    Rat.ceil_int (Rat.add (Rat.mul (Rat.of_int 4) input.xi) Rat.one)
  in
  (* distinguished: the clock strictly increased at this event *)
  let distinguished id prev_clock =
    match Hashtbl.find_opt states id with
    | Some st -> st.k > prev_clock
    | None -> false
  in
  let dist_events_of p =
    let prev = ref 0 in
    List.filter_map
      (fun id ->
        match Hashtbl.find_opt states id with
        | Some st ->
            let d = distinguished id !prev in
            prev := st.k;
            if d then Some id else None
        | None -> None)
      (Graph.events_of_proc g p)
  in
  let dist_by_proc = List.map (fun p -> (p, dist_events_of p)) input.correct in
  let checked = ref 0 and violations = ref [] in
  List.iter
    (fun p ->
      let devs = Array.of_list (List.assoc p dist_by_proc) in
      let nd = Array.length devs in
      (* consider intervals spanning exactly rho distinguished events
         (they witness the property for all larger spans) *)
      for i = 0 to nd - 1 - rho do
        let from_id = devs.(i) and to_id = devs.(i + rho) in
        incr checked;
        let interval =
          Cut.interval g ~from_event:(Graph.event g from_id) ~to_event:(Graph.event g to_id)
        in
        let in_interval id =
          List.exists (fun (e : Event.t) -> e.Event.id = id) interval
        in
        List.iter
          (fun q ->
            if q <> p then begin
              let q_dist = List.assoc q dist_by_proc in
              if not (List.exists in_interval q_dist) then
                violations := (p, from_id, to_id, q) :: !violations
            end)
          input.correct
      done)
    input.correct;
  (!checked, !violations)
