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

(* The largest (events, edges) watermark a view holds in one set of
   arrays; a graph that takes fresh arrays takes fresh marks. *)
type marks = { mutable mk_events : int; mutable mk_edges : int }

(* [prev.(id)] is the event before [id] at its process, or -1, so each
   process's events form a list threaded through the array, newest
   first from [last_event].  A view ([view = true], made by {!prefix})
   reads the [events], [kinds] and [prev] arrays of the graph it was
   taken from below its own counts, and has its own [last_event]. *)
type t = {
  digraph : Digraph.t;
  mutable events : Event.t array; (* index = node id; length >= count *)
  mutable event_count : int;
  mutable kinds : edge_kind array; (* index = edge id *)
  mutable kind_count : int;
  nprocs : int;
  last_event : int array; (* per process: last node id or -1 *)
  mutable prev : int array; (* per event: the previous event of its process or -1 *)
  mutable marks : marks;
  view : bool;
}

let no_event = { Event.id = -1; proc = -1; seq = -1; time = None }

let create ~nprocs =
  {
    digraph = Digraph.create 0;
    events = Array.make 16 no_event;
    event_count = 0;
    kinds = Array.make 16 Local;
    kind_count = 0;
    nprocs;
    last_event = Array.make nprocs (-1);
    prev = Array.make 16 (-1);
    marks = { mk_events = 0; mk_edges = 0 };
    view = false;
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

let is_message_id g id = edge_kind g id = Message
let is_message g (e : Digraph.edge) = is_message_id g e.id
let digraph g = g.digraph

let prev_event g id =
  if id < 0 || id >= g.event_count then invalid_arg "Graph.prev_event: out of range";
  g.prev.(id)

let events_of_proc g p =
  let rec collect acc id = if id < 0 then acc else collect (id :: acc) g.prev.(id) in
  collect [] g.last_event.(p)

let last_event_of_proc g p = if g.last_event.(p) < 0 then None else Some g.last_event.(p)

let mutable_or_fail g what = if g.view then invalid_arg (what ^ ": a prefix view cannot change")

let grow a fill =
  let a' = Array.make (2 * Array.length a) fill in
  Array.blit a 0 a' 0 (Array.length a);
  a'

let add_event ?time g ~proc =
  mutable_or_fail g "Graph.add_event";
  if proc < 0 || proc >= g.nprocs then invalid_arg "Graph.add_event: bad process";
  let id = Digraph.add_node g.digraph in
  let last = g.last_event.(proc) in
  let ev = { Event.id; proc; seq = (if last < 0 then 0 else g.events.(last).seq + 1); time } in
  if id >= Array.length g.events then begin
    g.events <- grow g.events no_event;
    g.prev <- grow g.prev (-1)
  end;
  g.events.(id) <- ev;
  g.prev.(id) <- last;
  g.event_count <- id + 1;
  (* Local edge from the previous event at this process. *)
  if last >= 0 then begin
    let e = Digraph.add_edge g.digraph ~src:last ~dst:id in
    if e >= Array.length g.kinds then g.kinds <- grow g.kinds Local;
    g.kinds.(e) <- Local;
    g.kind_count <- e + 1
  end;
  g.last_event.(proc) <- id;
  ev

let add_message g ~src ~dst =
  mutable_or_fail g "Graph.add_message";
  if src < 0 || src >= g.event_count || dst < 0 || dst >= g.event_count then
    invalid_arg "Graph.add_message: bad event id";
  let e = Digraph.add_edge g.digraph ~src ~dst in
  if e >= Array.length g.kinds then g.kinds <- grow g.kinds Local;
  g.kinds.(e) <- Message;
  g.kind_count <- e + 1;
  e

(** Roll the graph back to an earlier (event, edge) watermark, undoing
    appends newest-first.  The watermark must be a consistent snapshot
    of a prior state — every surviving edge references surviving events
    ({!Digraph.truncate} validates that).  Each removed event hands its
    process's last event back to its [prev] link.  If a view reads past
    the watermark, the graph first takes fresh copies of its arrays. *)
let truncate g ~events ~edges =
  mutable_or_fail g "Graph.truncate";
  if events < 0 || events > g.event_count then
    invalid_arg "Graph.truncate: bad event watermark";
  if edges < 0 || edges > g.kind_count then
    invalid_arg "Graph.truncate: bad edge watermark";
  Digraph.truncate g.digraph ~nodes:events ~edges;
  if events < g.marks.mk_events || edges < g.marks.mk_edges then begin
    g.events <- Array.copy g.events;
    g.kinds <- Array.copy g.kinds;
    g.prev <- Array.copy g.prev;
    g.marks <- { mk_events = 0; mk_edges = 0 }
  end;
  for id = g.event_count - 1 downto events do
    let p = g.events.(id).Event.proc in
    if g.last_event.(p) <> id then invalid_arg "Graph.truncate: per-process index out of sync";
    g.last_event.(p) <- g.prev.(id)
  done;
  g.event_count <- events;
  g.kind_count <- edges

(** The graph as it was at an earlier (event, edge) watermark, as a
    read-only view of [g]'s arrays: O(1) but for the view's own
    per-process last events, found by following [prev] links back
    below the watermark. *)
let prefix g ~events ~edges =
  if events < 0 || events > g.event_count then
    invalid_arg "Graph.prefix: bad event watermark";
  if edges < 0 || edges > g.kind_count then invalid_arg "Graph.prefix: bad edge watermark";
  let digraph = Digraph.prefix g.digraph ~nodes:events ~edges in
  let mk = g.marks in
  mk.mk_events <- Int.max mk.mk_events events;
  mk.mk_edges <- Int.max mk.mk_edges edges;
  let last_event = Array.copy g.last_event in
  for p = 0 to g.nprocs - 1 do
    let id = ref last_event.(p) in
    while !id >= events do
      id := g.prev.(!id)
    done;
    last_event.(p) <- !id
  done;
  { g with digraph; event_count = events; kind_count = edges; last_event; view = true }

(* Breadth-first search from [id] over the edges [first]/[next] walk,
   to the endpoint [other] names, in a FIFO of event ids (each event
   enters it at most once); [seen] marks every event reached.  Stops
   early once [target] is reached. *)
let reach g id ~first ~next ~other ~target =
  let dg = g.digraph in
  let seen = Array.make g.event_count false and fifo = Array.make (max g.event_count 1) 0 in
  let head = ref 0 and tail = ref 1 and found = ref false in
  fifo.(0) <- id;
  seen.(id) <- true;
  while (not !found) && !head < !tail do
    let v = fifo.(!head) in
    incr head;
    let e = ref (first dg v) in
    while !e >= 0 do
      let w = other dg !e in
      if not seen.(w) then begin
        if w = target then found := true;
        seen.(w) <- true;
        fifo.(!tail) <- w;
        incr tail
      end;
      e := next dg !e
    done
  done;
  (seen, !found)

(** Reflexive-transitive causal reachability [φ →* ψ], by BFS. *)
let causally_before g a b =
  a = b
  || snd
       (reach g a ~first:Digraph.first_out ~next:Digraph.next_out ~other:Digraph.edge_dst
          ~target:b)

(** The causal past (cone) of an event: all [φ] with [φ →* ψ], as a
    boolean mask over event ids.  Used by Lemma 4's causal-cone property
    and by left closures of cuts. *)
let causal_past g id =
  fst
    (reach g id ~first:Digraph.first_in ~next:Digraph.next_in ~other:Digraph.edge_src
       ~target:(-1))

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
