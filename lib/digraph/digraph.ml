type edge = { id : int; src : int; dst : int }

type t = {
  mutable n : int;
  mutable out_adj : edge list array; (* length >= n, index < n valid *)
  mutable in_adj : edge list array;
  mutable edge_arr : edge array; (* length >= m, index < m valid *)
  mutable m : int;
}

let create n =
  {
    n;
    out_adj = Array.make (max n 1) [];
    in_adj = Array.make (max n 1) [];
    edge_arr = Array.make 8 { id = -1; src = -1; dst = -1 };
    m = 0;
  }

let node_count g = g.n
let edge_count g = g.m

let grow_nodes g =
  let cap = Array.length g.out_adj in
  if g.n >= cap then begin
    let cap' = 2 * cap in
    let out' = Array.make cap' [] and in' = Array.make cap' [] in
    Array.blit g.out_adj 0 out' 0 cap;
    Array.blit g.in_adj 0 in' 0 cap;
    g.out_adj <- out';
    g.in_adj <- in'
  end

let add_node g =
  grow_nodes g;
  let v = g.n in
  g.n <- g.n + 1;
  v

let add_edge g ~src ~dst =
  if src < 0 || src >= g.n || dst < 0 || dst >= g.n then
    invalid_arg "Digraph.add_edge: node out of range";
  let e = { id = g.m; src; dst } in
  let cap = Array.length g.edge_arr in
  if g.m >= cap then begin
    let arr' = Array.make (2 * cap) e in
    Array.blit g.edge_arr 0 arr' 0 cap;
    g.edge_arr <- arr'
  end;
  g.edge_arr.(g.m) <- e;
  g.m <- g.m + 1;
  g.out_adj.(src) <- e :: g.out_adj.(src);
  g.in_adj.(dst) <- e :: g.in_adj.(dst);
  e

let truncate g ~nodes ~edges =
  if nodes < 0 || nodes > g.n || edges < 0 || edges > g.m then
    invalid_arg "Digraph.truncate: counts out of range";
  (* Adjacency lists are built by prepending, so within each list edge
     ids are strictly decreasing: removing every edge with id >= edges
     is popping list heads, newest first. *)
  for i = g.m - 1 downto edges do
    let e = g.edge_arr.(i) in
    (match g.out_adj.(e.src) with
    | x :: tl when x.id = e.id -> g.out_adj.(e.src) <- tl
    | _ -> invalid_arg "Digraph.truncate: adjacency out of sync");
    match g.in_adj.(e.dst) with
    | x :: tl when x.id = e.id -> g.in_adj.(e.dst) <- tl
    | _ -> invalid_arg "Digraph.truncate: adjacency out of sync"
  done;
  g.m <- edges;
  for v = nodes to g.n - 1 do
    if g.out_adj.(v) <> [] || g.in_adj.(v) <> [] then
      invalid_arg "Digraph.truncate: surviving edge references a removed node"
  done;
  g.n <- nodes

let prefix g ~nodes ~edges =
  if nodes < 0 || nodes > g.n || edges < 0 || edges > g.m then
    invalid_arg "Digraph.prefix: counts out of range";
  (* an adjacency list holds its edges newest first, so the prefix's
     list is a tail of the original's: shared, not copied *)
  let rec older = function
    | e :: tl when e.id >= edges -> older tl
    | l -> l
  in
  for i = 0 to edges - 1 do
    let e = g.edge_arr.(i) in
    if e.src >= nodes || e.dst >= nodes then
      invalid_arg "Digraph.prefix: surviving edge references a removed node"
  done;
  let cap = max nodes 1 in
  let out_adj = Array.make cap [] and in_adj = Array.make cap [] in
  for v = 0 to nodes - 1 do
    out_adj.(v) <- older g.out_adj.(v);
    in_adj.(v) <- older g.in_adj.(v)
  done;
  let edge_arr = Array.make (max edges 8) { id = -1; src = -1; dst = -1 } in
  Array.blit g.edge_arr 0 edge_arr 0 edges;
  { n = nodes; out_adj; in_adj; edge_arr; m = edges }

let edge g i =
  if i < 0 || i >= g.m then invalid_arg "Digraph.edge: out of range";
  g.edge_arr.(i)

let edges g = List.init g.m (fun i -> g.edge_arr.(i))
let out_edges g v = g.out_adj.(v)
let in_edges g v = g.in_adj.(v)

let shadow_incident g v =
  List.map (fun e -> (e, 1)) g.out_adj.(v) @ List.map (fun e -> (e, -1)) g.in_adj.(v)

let topological_sort g =
  let indeg = Array.make (max g.n 1) 0 in
  for i = 0 to g.m - 1 do
    let e = g.edge_arr.(i) in
    indeg.(e.dst) <- indeg.(e.dst) + 1
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
    List.iter
      (fun e ->
        indeg.(e.dst) <- indeg.(e.dst) - 1;
        if indeg.(e.dst) = 0 then Queue.add e.dst queue)
      g.out_adj.(v)
  done;
  if !seen = g.n then Some (List.rev !order) else None

let is_dag g = topological_sort g <> None

(* Iterative Tarjan SCC (explicit stack: the execution graphs we feed
   this can have tens of thousands of events). *)
let scc g =
  let n = g.n in
  let index = Array.make (max n 1) (-1) in
  let lowlink = Array.make (max n 1) 0 in
  let on_stack = Array.make (max n 1) false in
  let comp = Array.make (max n 1) (-1) in
  let stack = Stack.create () in
  let next_index = ref 0 and next_comp = ref 0 in
  let visit root =
    (* Frames: (node, remaining out-edges). *)
    let frames = Stack.create () in
    index.(root) <- !next_index;
    lowlink.(root) <- !next_index;
    incr next_index;
    Stack.push root stack;
    on_stack.(root) <- true;
    Stack.push (root, ref g.out_adj.(root)) frames;
    while not (Stack.is_empty frames) do
      let v, rest = Stack.top frames in
      match !rest with
      | e :: tl -> begin
          rest := tl;
          let w = e.dst in
          if index.(w) < 0 then begin
            index.(w) <- !next_index;
            lowlink.(w) <- !next_index;
            incr next_index;
            Stack.push w stack;
            on_stack.(w) <- true;
            Stack.push (w, ref g.out_adj.(w)) frames
          end
          else if on_stack.(w) then lowlink.(v) <- min lowlink.(v) index.(w)
        end
      | [] ->
          ignore (Stack.pop frames);
          if lowlink.(v) = index.(v) then begin
            let continue = ref true in
            while !continue do
              let w = Stack.pop stack in
              on_stack.(w) <- false;
              comp.(w) <- !next_comp;
              if w = v then continue := false
            done;
            incr next_comp
          end;
          if not (Stack.is_empty frames) then begin
            let u, _ = Stack.top frames in
            lowlink.(u) <- min lowlink.(u) lowlink.(v)
          end
    done
  in
  for v = 0 to n - 1 do
    if index.(v) < 0 then visit v
  done;
  if n = 0 then [||] else Array.sub comp 0 n

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
    let dist = Array.make (max n 1) W.zero in
    let parent = Array.make (max n 1) None in
    (* no nodes, nothing to relax: the empty graph is stable *)
    let changed = ref (n > 0) and rounds = ref 0 in
    while !changed && !rounds < n do
      changed := false;
      incr rounds;
      for i = 0 to g.m - 1 do
        let e = g.edge_arr.(i) in
        let cand = W.add dist.(e.src) (weight e) in
        if W.compare cand dist.(e.dst) < 0 then begin
          dist.(e.dst) <- cand;
          parent.(e.dst) <- Some e;
          changed := true
        end
      done
    done;
    (dist, parent, !changed && !rounds = n)

  let negative_cycle g ~weight =
    let dist, parent, unstable = run g ~weight in
    if not unstable then None
    else begin
      (* One more relaxation pass locates an edge that still improves.
         Applying that relaxation first is essential: a node relaxed in
         round [n+1] has a predecessor chain of length > n, so walking
         [n] parents from it is guaranteed to stay on defined parents
         and to land inside a predecessor cycle (which is always a
         negative cycle of the current weights). *)
      let start = ref None in
      for i = 0 to g.m - 1 do
        let e = g.edge_arr.(i) in
        if !start = None && W.compare (W.add dist.(e.src) (weight e)) dist.(e.dst) < 0
        then begin
          dist.(e.dst) <- W.add dist.(e.src) (weight e);
          parent.(e.dst) <- Some e;
          start := Some e.dst
        end
      done;
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
    let dist, _, unstable = run g ~weight in
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
    List.map (fun e -> (e, 1, e.dst)) g.out_adj.(v)
    @ List.map (fun e -> (e, -1, e.src)) g.in_adj.(v)
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
