type edge = { id : int; src : int; dst : int }

(* The largest (nodes, edges) watermark a view holds in one set of
   arrays.  A graph and its views share the record with the arrays, and
   a graph that takes fresh arrays takes fresh marks with them. *)
type marks = { mutable mk_nodes : int; mutable mk_edges : int }

(* Edge [e] goes from [esrc.(e)] to [edst.(e)].  The edges leaving node
   [v] form a list threaded through the arrays, newest first:
   [out_head.(v)] is the newest, [out_next.(e)] the next older edge
   leaving the same node, and [-1] ends the list; [in_head] and
   [in_next] thread the edges entering a node the same way.
   [reach.(e)] is the largest node edges [0 .. e] touch, so a
   watermark is validated in O(1).  Edge arrays hold at least [m]
   entries, node arrays at least [n].

   A view ([view = true], made by {!prefix}) reads the arrays of the
   graph it was taken from with its own smaller counts.  That graph may
   keep appending, so a head the view reads can name an edge at or past
   the view's [m]; such edges sit at the head of each list, and
   {!first_out}/{!first_in} skip them.  Anything else that would change
   what a view reads first gives the graph fresh arrays ({!detach}). *)
type t = {
  mutable n : int;
  mutable m : int;
  mutable esrc : int array;
  mutable edst : int array;
  mutable out_next : int array;
  mutable in_next : int array;
  mutable reach : int array;
  mutable out_head : int array;
  mutable in_head : int array;
  mutable marks : marks;
  view : bool;
}

let create n =
  let cap = max n 1 in
  {
    n;
    m = 0;
    esrc = Array.make 8 0;
    edst = Array.make 8 0;
    out_next = Array.make 8 (-1);
    in_next = Array.make 8 (-1);
    reach = Array.make 8 (-1);
    out_head = Array.make cap (-1);
    in_head = Array.make cap (-1);
    marks = { mk_nodes = 0; mk_edges = 0 };
    view = false;
  }

let node_count g = g.n
let edge_count g = g.m

let resize a cap fill =
  let a' = Array.make cap fill in
  Array.blit a 0 a' 0 (min (Array.length a) cap);
  a'

(* Give [g] fresh copies of its arrays, with room for [ncap] nodes and
   [mcap] edges, and fresh marks: no view reads the new arrays. *)
let detach g ~ncap ~mcap =
  g.esrc <- resize g.esrc mcap 0;
  g.edst <- resize g.edst mcap 0;
  g.out_next <- resize g.out_next mcap (-1);
  g.in_next <- resize g.in_next mcap (-1);
  g.reach <- resize g.reach mcap (-1);
  g.out_head <- resize g.out_head ncap (-1);
  g.in_head <- resize g.in_head ncap (-1);
  g.marks <- { mk_nodes = 0; mk_edges = 0 }

(* Node and edge arrays grow separately while no view shares them.  A
   view's heads must stay inside the edge arrays it holds, so once one
   does, growing either kind copies both. *)
let shared g = g.marks.mk_nodes > 0

let mutable_or_fail g what = if g.view then invalid_arg (what ^ ": a prefix view cannot change")

let add_node g =
  mutable_or_fail g "Digraph.add_node";
  let cap = Array.length g.out_head in
  if g.n >= cap then begin
    if shared g then detach g ~ncap:(2 * cap) ~mcap:(Array.length g.esrc)
    else begin
      g.out_head <- resize g.out_head (2 * cap) (-1);
      g.in_head <- resize g.in_head (2 * cap) (-1)
    end
  end;
  let v = g.n in
  g.out_head.(v) <- -1;
  g.in_head.(v) <- -1;
  g.n <- v + 1;
  v

let add_edge g ~src ~dst =
  mutable_or_fail g "Digraph.add_edge";
  if src < 0 || src >= g.n || dst < 0 || dst >= g.n then
    invalid_arg "Digraph.add_edge: node out of range";
  let e = g.m in
  let cap = Array.length g.esrc in
  if e >= cap then begin
    if shared g then detach g ~ncap:(Array.length g.out_head) ~mcap:(2 * cap)
    else begin
      g.esrc <- resize g.esrc (2 * cap) 0;
      g.edst <- resize g.edst (2 * cap) 0;
      g.out_next <- resize g.out_next (2 * cap) (-1);
      g.in_next <- resize g.in_next (2 * cap) (-1);
      g.reach <- resize g.reach (2 * cap) (-1)
    end
  end;
  g.esrc.(e) <- src;
  g.edst.(e) <- dst;
  g.out_next.(e) <- g.out_head.(src);
  g.out_head.(src) <- e;
  g.in_next.(e) <- g.in_head.(dst);
  g.in_head.(dst) <- e;
  g.reach.(e) <- Int.max (if e = 0 then -1 else g.reach.(e - 1)) (Int.max src dst);
  g.m <- e + 1;
  e

(* Is [(nodes, edges)] a watermark of [g]: within its counts, and no
   edge below [edges] touching a node at or past [nodes]? *)
let check_watermark g ~nodes ~edges what =
  if nodes < 0 || nodes > g.n || edges < 0 || edges > g.m then
    invalid_arg (what ^ ": counts out of range");
  if edges > 0 && g.reach.(edges - 1) >= nodes then
    invalid_arg (what ^ ": surviving edge references a removed node")

let truncate g ~nodes ~edges =
  mutable_or_fail g "Digraph.truncate";
  check_watermark g ~nodes ~edges "Digraph.truncate";
  if nodes < g.marks.mk_nodes || edges < g.marks.mk_edges then
    detach g ~ncap:(Array.length g.out_head) ~mcap:(Array.length g.esrc);
  (* every list holds its edges newest first, so removing the edges at
     or past [edges] pops list heads, newest first *)
  for e = g.m - 1 downto edges do
    let s = g.esrc.(e) and d = g.edst.(e) in
    if g.out_head.(s) <> e || g.in_head.(d) <> e then
      invalid_arg "Digraph.truncate: adjacency out of sync";
    g.out_head.(s) <- g.out_next.(e);
    g.in_head.(d) <- g.in_next.(e)
  done;
  g.m <- edges;
  g.n <- nodes

let prefix g ~nodes ~edges =
  check_watermark g ~nodes ~edges "Digraph.prefix";
  let mk = g.marks in
  mk.mk_nodes <- Int.max mk.mk_nodes nodes;
  mk.mk_edges <- Int.max mk.mk_edges edges;
  { g with n = nodes; m = edges; view = true }

(* {1 Walking edge ids} *)

let edge_src g e =
  if e < 0 || e >= g.m then invalid_arg "Digraph.edge_src: out of range";
  g.esrc.(e)

let edge_dst g e =
  if e < 0 || e >= g.m then invalid_arg "Digraph.edge_dst: out of range";
  g.edst.(e)

(* The first edge of a list below [m], skipping the newer ones a
   view's parent appended. *)
let rec older m next e = if e >= m then older m next next.(e) else e

let first_out g v =
  if v < 0 || v >= g.n then invalid_arg "Digraph.first_out: node out of range";
  older g.m g.out_next g.out_head.(v)

let first_in g v =
  if v < 0 || v >= g.n then invalid_arg "Digraph.first_in: node out of range";
  older g.m g.in_next g.in_head.(v)

let next_out g e =
  if e < 0 || e >= g.m then invalid_arg "Digraph.next_out: out of range";
  g.out_next.(e)

let next_in g e =
  if e < 0 || e >= g.m then invalid_arg "Digraph.next_in: out of range";
  g.in_next.(e)

(* {1 Edge records, built on demand} *)

let make_edge g e = { id = e; src = g.esrc.(e); dst = g.edst.(e) }

let edge g i =
  if i < 0 || i >= g.m then invalid_arg "Digraph.edge: out of range";
  make_edge g i

let edges g = List.init g.m (make_edge g)

(* The list from [e] on, newest first. *)
let edge_list g next e =
  let rec collect acc e = if e < 0 then List.rev acc else collect (make_edge g e :: acc) next.(e) in
  collect [] e

let out_edges g v = edge_list g g.out_next (first_out g v)
let in_edges g v = edge_list g g.in_next (first_in g v)

let shadow_incident g v =
  List.map (fun e -> (e, 1)) (out_edges g v) @ List.map (fun e -> (e, -1)) (in_edges g v)

let topological_sort g =
  let indeg = Array.make (max g.n 1) 0 in
  for i = 0 to g.m - 1 do
    indeg.(g.edst.(i)) <- indeg.(g.edst.(i)) + 1
  done;
  let queue = Queue.create () in
  for v = 0 to g.n - 1 do
    if indeg.(v) = 0 then Queue.add v queue
  done;
  let order = ref [] and seen = ref 0 in
  while not (Queue.is_empty queue) do
    let v = Queue.pop queue in
    incr seen;
    order := v :: !order;
    let e = ref (first_out g v) in
    while !e >= 0 do
      let d = g.edst.(!e) in
      indeg.(d) <- indeg.(d) - 1;
      if indeg.(d) = 0 then Queue.add d queue;
      e := g.out_next.(!e)
    done
  done;
  if !seen = g.n then Some (List.rev !order) else None

let is_dag g = topological_sort g <> None

module type WEIGHT = sig
  type t

  val zero : t
  val add : t -> t -> t
  val compare : t -> t -> int
end

module Bellman_ford (W : WEIGHT) = struct
  (* Distances from a virtual super-source connected to every node with
     weight zero, so negative cycles anywhere are found. *)
  let run g ~weight =
    let n = g.n in
    let es = Array.init g.m (make_edge g) in
    let dist = Array.make (max n 1) W.zero in
    let parent = Array.make (max n 1) None in
    (* no nodes, nothing to relax: the empty graph is stable *)
    let changed = ref (n > 0) and rounds = ref 0 in
    while !changed && !rounds < n do
      changed := false;
      incr rounds;
      Array.iter
        (fun e ->
          let cand = W.add dist.(e.src) (weight e) in
          if W.compare cand dist.(e.dst) < 0 then begin
            dist.(e.dst) <- cand;
            parent.(e.dst) <- Some e;
            changed := true
          end)
        es
    done;
    (es, dist, parent, !changed && !rounds = n)

  let negative_cycle g ~weight =
    let es, dist, parent, unstable = run g ~weight in
    if not unstable then None
    else begin
      (* One more relaxation pass locates an edge that still improves.
         Applying that relaxation first is essential: a node relaxed in
         round [n+1] has a predecessor chain of length > n, so walking
         [n] parents from it is guaranteed to stay on defined parents
         and to land inside a predecessor cycle (which is always a
         negative cycle of the current weights). *)
      let start = ref None in
      Array.iter
        (fun e ->
          if !start = None && W.compare (W.add dist.(e.src) (weight e)) dist.(e.dst) < 0
          then begin
            dist.(e.dst) <- W.add dist.(e.src) (weight e);
            parent.(e.dst) <- Some e;
            start := Some e.dst
          end)
        es;
      match !start with
      | None -> None
      | Some v0 ->
          let v = ref v0 in
          for _ = 1 to g.n do
            match parent.(!v) with Some e -> v := e.src | None -> ()
          done;
          (* !v is on the cycle; collect parent edges until we return,
             with a defensive bound of [n] steps. *)
          let cycle = ref [] and u = ref !v and looping = ref true and steps = ref 0 in
          while !looping && !steps <= g.n do
            incr steps;
            match parent.(!u) with
            | Some e ->
                cycle := e :: !cycle;
                u := e.src;
                if !u = !v then looping := false
            | None -> looping := false
          done;
          if !looping then None (* defensive; cannot happen *) else Some !cycle
    end

  let potentials g ~weight =
    let _, dist, _, unstable = run g ~weight in
    if unstable then None else Some dist
end

type traversal = { edge : edge; dir : int }

let shadow_cycles ?(max_cycles = 1_000_000) g =
  let n = g.n in
  let visited = Array.make (max n 1) false in
  let used_edge = Array.make (max g.m 1) false in
  let cycles = ref [] and count = ref 0 in
  let adj v =
    (* (edge, dir, other endpoint) in the undirected shadow graph *)
    List.map (fun e -> (e, 1, e.dst)) (out_edges g v)
    @ List.map (fun e -> (e, -1, e.src)) (in_edges g v)
  in
  let report path =
    incr count;
    if !count > max_cycles then failwith "Digraph.shadow_cycles: cycle cap exceeded";
    cycles := List.rev path :: !cycles
  in
  for root = 0 to n - 1 do
    (* Enumerate simple cycles whose minimal node is [root].  Each cycle
       is found twice (once per direction); keep the copy whose first
       edge id is smaller than its last edge id. *)
    let rec extend v path first_edge_id =
      List.iter
        (fun (e, dir, w) ->
          if not used_edge.(e.id) then
            if w = root then begin
              if path <> [] && first_edge_id < e.id then
                report ({ edge = e; dir } :: path)
            end
            else if w > root && not visited.(w) then begin
              visited.(w) <- true;
              used_edge.(e.id) <- true;
              extend w ({ edge = e; dir } :: path) first_edge_id;
              used_edge.(e.id) <- false;
              visited.(w) <- false
            end)
        (adj v)
    in
    visited.(root) <- true;
    List.iter
      (fun (e, dir, w) ->
        if w >= root then begin
          (* First step out of the root. *)
          if w = root then () (* self-loops cannot occur in execution graphs *)
          else begin
            visited.(w) <- true;
            used_edge.(e.id) <- true;
            extend w [ { edge = e; dir } ] e.id;
            used_edge.(e.id) <- false;
            visited.(w) <- false
          end
        end)
      (adj root);
    visited.(root) <- false
  done;
  !cycles

let pp fmt g =
  Format.fprintf fmt "@[<v>digraph: %d nodes, %d edges@," g.n g.m;
  List.iter (fun e -> Format.fprintf fmt "  e%d: %d -> %d@," e.id e.src e.dst) (edges g);
  Format.fprintf fmt "@]"
