(** Execution graphs (Definition 1): the digraph of the space–time
    diagram of an admissible execution, with receive events as nodes and
    two kinds of edges — {e local edges} between consecutive events of
    the same process and {e non-local edges} (messages) reflecting the
    happens-before relation without its transitive closure.

    The builder enforces the structural discipline of the model:
    - events of one process are appended in order (local edges are
      created implicitly between consecutive events);
    - a message edge goes from the send step (which coincides with some
      receive event, since steps are atomic receive+compute+send) to the
      receive event of the message at its destination;
    - per the paper's treatment of Byzantine faults, callers exclude
      messages sent by faulty processes simply by never adding them
      (the {!Sim} layer performs that dropping). *)

type edge_kind = Local | Message

type t = {
  digraph : Digraph.t;
  mutable events : Event.t array; (* index = node id; length >= count *)
  mutable event_count : int;
  mutable kinds : edge_kind array; (* index = edge id *)
  mutable kind_count : int;
  nprocs : int;
  mutable last_event : int array; (* per process: last node id or -1 *)
  mutable events_of_proc : int list array; (* reversed list of node ids *)
}

let create ~nprocs =
  {
    digraph = Digraph.create 0;
    events = Array.make 16 { Event.id = -1; proc = -1; seq = -1; time = None };
    event_count = 0;
    kinds = Array.make 16 Local;
    kind_count = 0;
    nprocs;
    last_event = Array.make nprocs (-1);
    events_of_proc = Array.make nprocs [];
  }

let nprocs g = g.nprocs
let event_count g = g.event_count
let edge_count g = g.kind_count
let message_count g =
  let c = ref 0 in
  for i = 0 to g.kind_count - 1 do
    if g.kinds.(i) = Message then incr c
  done;
  !c

let event g id =
  if id < 0 || id >= g.event_count then invalid_arg "Graph.event: out of range";
  g.events.(id)

let edge_kind g id =
  if id < 0 || id >= g.kind_count then invalid_arg "Graph.edge_kind: out of range";
  g.kinds.(id)

let is_message g (e : Digraph.edge) = edge_kind g e.id = Message
let digraph g = g.digraph
let events_of_proc g p = List.rev g.events_of_proc.(p)
let last_event_of_proc g p = if g.last_event.(p) < 0 then None else Some g.last_event.(p)

let push_event g ev =
  let cap = Array.length g.events in
  if g.event_count >= cap then begin
    let arr = Array.make (2 * cap) ev in
    Array.blit g.events 0 arr 0 cap;
    g.events <- arr
  end;
  g.events.(g.event_count) <- ev;
  g.event_count <- g.event_count + 1

let push_kind g k =
  let cap = Array.length g.kinds in
  if g.kind_count >= cap then begin
    let arr = Array.make (2 * cap) Local in
    Array.blit g.kinds 0 arr 0 cap;
    g.kinds <- arr
  end;
  g.kinds.(g.kind_count) <- k;
  g.kind_count <- g.kind_count + 1

let add_event ?time g ~proc =
  if proc < 0 || proc >= g.nprocs then invalid_arg "Graph.add_event: bad process";
  let id = Digraph.add_node g.digraph in
  let seq = match g.events_of_proc.(proc) with [] -> 0 | prev :: _ -> g.events.(prev).seq + 1 in
  let ev = { Event.id; proc; seq; time } in
  push_event g ev;
  (* Local edge from the previous event at this process. *)
  (match g.last_event.(proc) with
  | -1 -> ()
  | prev ->
      let _e = Digraph.add_edge g.digraph ~src:prev ~dst:id in
      push_kind g Local);
  g.last_event.(proc) <- id;
  g.events_of_proc.(proc) <- id :: g.events_of_proc.(proc);
  ev

let add_message g ~src ~dst =
  if src < 0 || src >= g.event_count || dst < 0 || dst >= g.event_count then
    invalid_arg "Graph.add_message: bad event id";
  let e = Digraph.add_edge g.digraph ~src ~dst in
  push_kind g Message;
  e

(** Roll the graph back to an earlier (event, edge) watermark, undoing
    appends newest-first.  The watermark must be a consistent snapshot
    of a prior state — every surviving edge references surviving events
    ({!Digraph.truncate} validates that).  Per-process bookkeeping is
    restored by popping [events_of_proc] heads, which hold the ids in
    reverse append order. *)
let truncate g ~events ~edges =
  if events < 0 || events > g.event_count then
    invalid_arg "Graph.truncate: bad event watermark";
  if edges < 0 || edges > g.kind_count then
    invalid_arg "Graph.truncate: bad edge watermark";
  Digraph.truncate g.digraph ~nodes:events ~edges;
  for id = g.event_count - 1 downto events do
    let p = g.events.(id).Event.proc in
    (match g.events_of_proc.(p) with
    | hd :: tl when hd = id ->
        g.events_of_proc.(p) <- tl;
        g.last_event.(p) <- (match tl with [] -> -1 | prev :: _ -> prev)
    | _ -> invalid_arg "Graph.truncate: per-process index out of sync")
  done;
  g.event_count <- events;
  g.kind_count <- edges

(** The graph as it was at an earlier (event, edge) watermark, as a new
    graph; [g] is left as it is.  Event records and the per-process
    lists' tails are shared (both immutable), so the copy is a few
    array blits. *)
let prefix g ~events ~edges =
  if events < 0 || events > g.event_count then
    invalid_arg "Graph.prefix: bad event watermark";
  if edges < 0 || edges > g.kind_count then invalid_arg "Graph.prefix: bad edge watermark";
  let digraph = Digraph.prefix g.digraph ~nodes:events ~edges in
  let evs = Array.make (max events 16) g.events.(0) in
  Array.blit g.events 0 evs 0 events;
  let kinds = Array.make (max edges 16) Local in
  Array.blit g.kinds 0 kinds 0 edges;
  let rec older = function id :: tl when id >= events -> older tl | l -> l in
  let events_of_proc = Array.map older g.events_of_proc in
  {
    digraph;
    events = evs;
    event_count = events;
    kinds;
    kind_count = edges;
    nprocs = g.nprocs;
    last_event = Array.map (function [] -> -1 | id :: _ -> id) events_of_proc;
    events_of_proc;
  }

(** Reflexive-transitive causal reachability [φ →* ψ], by BFS. *)
let causally_before g a b =
  if a = b then true
  else begin
    let seen = Array.make g.event_count false in
    let q = Queue.create () in
    Queue.add a q;
    seen.(a) <- true;
    let found = ref false in
    while (not !found) && not (Queue.is_empty q) do
      let v = Queue.pop q in
      List.iter
        (fun (e : Digraph.edge) ->
          if not seen.(e.dst) then begin
            if e.dst = b then found := true;
            seen.(e.dst) <- true;
            Queue.add e.dst q
          end)
        (Digraph.out_edges g.digraph v)
    done;
    !found
  end

(** The causal past (cone) of an event: all [φ] with [φ →* ψ], as a
    boolean mask over event ids.  Used by Lemma 4's causal-cone property
    and by left closures of cuts. *)
let causal_past g id =
  let seen = Array.make g.event_count false in
  let q = Queue.create () in
  Queue.add id q;
  seen.(id) <- true;
  while not (Queue.is_empty q) do
    let v = Queue.pop q in
    List.iter
      (fun (e : Digraph.edge) ->
        if not seen.(e.src) then begin
          seen.(e.src) <- true;
          Queue.add e.src q
        end)
      (Digraph.in_edges g.digraph v)
  done;
  seen

let is_dag g = Digraph.is_dag g.digraph

let pp fmt g =
  Format.fprintf fmt "@[<v>execution graph: %d procs, %d events, %d messages@," g.nprocs
    g.event_count (message_count g);
  List.iter
    (fun (e : Digraph.edge) ->
      let k = match edge_kind g e.id with Local -> "local" | Message -> "msg" in
      Format.fprintf fmt "  %s %a -> %a@," k Event.pp g.events.(e.src) Event.pp g.events.(e.dst))
    (Digraph.edges g.digraph);
  Format.fprintf fmt "@]"
