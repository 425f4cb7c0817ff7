(** The ABC synchrony condition (Definition 4): an execution is
    admissible for parameter Ξ iff every relevant cycle [Z] of its
    execution graph satisfies [|Z−|/|Z+| < Ξ].

    {b Exhaustive} ({!check_enumerate}): classify every simple shadow
    cycle and test Eq. (2).  Exponential; the test oracle.

    {b Polynomial}: our reduction to nonpositive-cycle detection, run
    by {!potentials} (the native kernel behind {!is_admissible}, the Ξ
    search and the delay assignment) and, with a witness cycle, by
    {!check} (the reference).  Write Ξ = α/β in lowest terms and build
    an auxiliary digraph [H] on the events of [G] with, for every
    message [u → v], a {e forward arc} [u → v] of weight [+α] and a
    {e backward arc} [v → u] of weight [−β]; and for every local edge
    [u → v] a backward arc [v → u] of weight [0] (no forward local
    arcs: relevance demands all local edges be backward).

    Claim: [G] violates Def. 4 iff [H] has a directed cycle of weight
    ≤ 0.

    Proof sketch (both directions; details mirror Cycle.classify):
    - A violating relevant cycle [Z] ([|Z−| ≥ Ξ·|Z+|]), traversed along
      its orientation, uses forward-message arcs for [Z+], backward
      message arcs for [Z−] and backward local arcs for its local
      edges; its weight in [H] is [α·|Z+| − β·|Z−| ≤ 0].
    - Conversely a directed cycle [C] in [H] of weight
      [α·f − β·b ≤ 0] cannot consist of backward arcs only (that would
      reverse into a directed cycle of the DAG [G]), so [f ≥ 1], hence
      [b/f ≥ α/β = Ξ > 1], so [f < b]; its shadow in [G] is a cycle
      whose orientation may legally be the traversal direction
      (Eq. (1) holds), all local edges are backward (only backward
      local arcs exist in [H]) — a relevant cycle violating Eq. (2).
      (A non-simple [C] splits into simple cycles, at least one of
      which has weight ≤ 0, and simple cycles of [H] that use both
      arcs of the {e same} message have weight [α − β > 0], so a
      genuine violation survives the splitting.)

    Detecting "some cycle has weight ≤ 0" with Bellman–Ford (which
    finds strictly negative cycles) takes one of two weight domains.
    {!potentials} adds a −1 arc count to every weight and compares
    (W, −arcs) lexicographically; {!check} instead rescales each
    integer arc weight [w] to [(m+1)·w − 1] where [m] is the arc count.
    A simple cycle of [k ≤ m] arcs and original weight [W] gets
    [(m+1)·W − k], which is negative iff [W ≤ 0]
    (if [W ≤ 0] it is [≤ −k < 0]; if [W ≥ 1] it is
    [≥ m + 1 − k ≥ 1 > 0]). *)

type verdict =
  | Admissible
  | Violation of Cycle.t  (** a concrete relevant cycle with ratio ≥ Ξ *)

(* Bound on the numerator and denominator of Ξ accepted by the integer
   checkers.  With α, β <= 2^30, the rescaled weight (m+1)·α of {!check}
   and the walk sums of all three integer checkers stay far inside the
   63-bit native range for every graph this code can hold in memory
   ({!check}'s walk sums are bounded by n·(m+1)·α, and n·(m+1) < 2^32
   for graphs below ~2^16 events; {!potentials}' by (n+1)·max(α,β)).
   Protocol parameters are tiny in practice; anything larger is almost
   certainly a bug in the caller, so reject it loudly rather than
   overflow silently. *)
let xi_part_bound = 1 lsl 30

let small_parts xi =
  match (Bigint.to_int (Rat.num xi), Bigint.to_int (Rat.den xi)) with
  | Some a, Some b when a <= xi_part_bound && b <= xi_part_bound -> Some (a, b)
  | _ -> None

let xi_range_error xi =
  match small_parts xi with
  | Some _ -> None
  | None ->
      Some
        (Printf.sprintf
           "Xi = %s out of range: numerator and denominator must each be <= 2^30 \
            for the exact integer cycle check"
           (Rat.to_string xi))

let xi_parts xi =
  if Rat.compare xi Rat.one <= 0 then invalid_arg "Abc_check: requires Xi > 1";
  match small_parts xi with
  | Some parts -> parts
  | None -> invalid_arg ("Abc_check: " ^ Option.get (xi_range_error xi))

module BF_int = Digraph.Bellman_ford (struct
  type t = int

  let zero = 0
  let add = ( + )
  let compare = Stdlib.compare
end)

(* Arc origin: which execution-graph edge an arc of H came from, and
   with which traversal direction. *)
type arc_origin = { g_edge : Digraph.edge; g_dir : int }

let build_h g ~xi =
  let alpha, beta = xi_parts xi in
  let h = Digraph.create (Graph.event_count g) in
  let origins = ref [] and weights = ref [] in
  List.iter
    (fun (e : Digraph.edge) ->
      if Graph.is_message g e then begin
        let fwd = Digraph.add_edge h ~src:e.src ~dst:e.dst in
        ignore fwd;
        origins := { g_edge = e; g_dir = 1 } :: !origins;
        weights := alpha :: !weights;
        let bwd = Digraph.add_edge h ~src:e.dst ~dst:e.src in
        ignore bwd;
        origins := { g_edge = e; g_dir = -1 } :: !origins;
        weights := -beta :: !weights
      end
      else begin
        let bwd = Digraph.add_edge h ~src:e.dst ~dst:e.src in
        ignore bwd;
        origins := { g_edge = e; g_dir = -1 } :: !origins;
        weights := 0 :: !weights
      end)
    (Digraph.edges (Graph.digraph g));
  let origins = Array.of_list (List.rev !origins) in
  let weights = Array.of_list (List.rev !weights) in
  (h, origins, weights)

(** Polynomial admissibility check; on violation, returns a concrete
    violating relevant cycle (reconstructed from the nonpositive cycle
    of [H], with repeated uses of the same message cancelled by the
    splitting argument above — Bellman–Ford returns a simple cycle, so
    no cancellation is needed in practice). *)
let check g ~xi =
  let h, origins, weights = build_h g ~xi in
  let m = Digraph.edge_count h in
  let scaled (e : Digraph.edge) = ((m + 1) * weights.(e.id)) - 1 in
  match BF_int.negative_cycle h ~weight:scaled with
  | None -> Admissible
  | Some arcs ->
      let traversal =
        List.map
          (fun (a : Digraph.edge) ->
            let o = origins.(a.id) in
            { Digraph.edge = o.g_edge; dir = o.g_dir })
          arcs
      in
      let c = Cycle.classify g traversal in
      Violation c

(** Exhaustive oracle: enumerate all simple cycles and apply Eq. (2). *)
let check_enumerate ?max_cycles g ~xi =
  let cycles = Cycle.enumerate ?max_cycles g in
  match List.find_opt (fun c -> not (Cycle.satisfies_abc c ~xi)) cycles with
  | None -> Admissible
  | Some c -> Violation c

(* A relaxation found a better walk of more than n arcs. *)
exception Repeats_event

(** The native kernel.  Potentials of [H] for Ξ = a/b live in the
    lexicographic domain (W, −arcs) as two int arrays: every arc adds
    its weight to W and −1 to the arc count, and a cycle is negative in
    this order iff its W ≤ 0, so no rescale is needed.  Arcs are read
    off the execution graph's adjacency lists.  A round relaxes the
    backward arcs by decreasing event id and then the forward message
    arcs by increasing event id, so one round carries a potential down
    and back up a whole causal chain.

    Two exits report a cycle of weight ≤ 0.  A better walk of more than
    n arcs repeats an event; potentials only decrease, so its repeated
    segment is negative in the lex order (the rule of {!Checker}'s
    [settle]).  And, as in any Bellman–Ford, a change in round n.  The
    first keeps every stored walk at most n arcs long, so
    |W| ≤ (n+1)·max(a,b) in every sum. *)
let potentials g ~a ~b =
  let n = Graph.event_count g in
  if max a b > max_int / (n + 1) then
    invalid_arg "Abc_check.potentials: (n+1)*max(a,b) must not exceed max_int";
  let dg = Graph.digraph g in
  let ws = Array.make n 0 and es = Array.make n 0 in
  let changed = ref (n > 0) and rounds = ref 0 in
  (* dist(dst) <- min(dist(dst), dist(src) + (w, −1)) *)
  let relax src dst w =
    let s = ws.(src) + w and e = es.(src) - 1 in
    if s < ws.(dst) || (s = ws.(dst) && e < es.(dst)) then begin
      if e < -n then raise_notrace Repeats_event;
      ws.(dst) <- s;
      es.(dst) <- e;
      changed := true
    end
  in
  let rec backward = function
    | [] -> ()
    | (e : Digraph.edge) :: rest ->
        relax e.dst e.src (if Graph.is_message g e then -b else 0);
        backward rest
  in
  let rec forward = function
    | [] -> ()
    | (e : Digraph.edge) :: rest ->
        if Graph.is_message g e then relax e.src e.dst a;
        forward rest
  in
  match
    while !changed && !rounds < n do
      changed := false;
      incr rounds;
      for v = n - 1 downto 0 do
        backward (Digraph.in_edges dg v)
      done;
      for u = 0 to n - 1 do
        forward (Digraph.out_edges dg u)
      done
    done
  with
  | () -> if !changed then None else Some (ws, es)
  | exception Repeats_event -> None

let is_admissible g ~xi =
  let a, b = xi_parts xi in
  Option.is_some (potentials g ~a ~b)

let pp_verdict fmt = function
  | Admissible -> Format.fprintf fmt "admissible"
  | Violation c -> Format.fprintf fmt "violation: %a" Cycle.pp c

(** Incremental admissibility.

    {!check} rescales arc weights by [(m+1)] to turn "some cycle has
    weight ≤ 0" into strict Bellman–Ford negativity — but that makes
    every arc weight depend on the {e total} arc count, so nothing
    survives an edge insertion.  The incremental checker instead works,
    like {!potentials}, in the lexicographic weight domain
    [(W, arcs)] with componentwise addition and the order

      [(w1, k1) < (w2, k2)  iff  w1 < w2  or  (w1 = w2 and k1 > k2)]

    (longer walks are {e smaller} at equal weight).  A cycle with
    [k >= 1] arcs is negative in this order iff its plain weight [W] is
    [<= 0] — exactly Definition 4's violation — and arc weights are
    insertion-independent, so shortest-walk estimates can be {e kept}
    across insertions.

    The checker maintains, per node of the auxiliary digraph [H], the
    value [dist = (W, k)] of some witness walk from the virtual
    super-source (initially [(0, 0)] for every node).  The invariant
    after a settled update is [dist(v) <= dist(u) + w(u,v)] for every
    arc — a feasible potential, certifying that no nonpositive cycle
    exists.  Inserting arcs can only break the invariant at the new
    arcs, so re-settling relaxes outward from them (SPFA-style worklist)
    instead of re-running Bellman–Ford over everything.

    Detection: if an improvement pushes some [dist_k(v)] past the node
    count, the witness walk repeats a node, and the repeated segment is
    a nonpositive cycle (values only decrease over time, so the segment
    between the two visits has weight [< 0] in the lex order); the
    execution is inadmissible.  Conversely, with a nonpositive cycle
    present the relaxation cannot stabilize and every lap around the
    cycle grows the witness [k], so the threshold always fires.
    Inadmissibility latches: execution graphs only grow, and adding
    edges never removes a violating cycle.

    Speculation: [spec_*] operations extend [H] hypothetically (the
    deferring adversary asks "would delivering this queue stay
    admissible?" hundreds of times per run).  All state changes — arc
    and node insertions, [dist] improvements — are journaled and undone
    by {!spec_abort} via {!Digraph.truncate} and the undo log, so a
    speculation costs only the work its own deltas cause. *)
module Checker = struct
  type checker = {
    graph : Graph.t;
    alpha : int;
    beta : int;
    h : Digraph.t;
    mutable wt : int array;  (* arc id -> weight (alpha, -beta or 0) *)
    mutable dist_w : int array;  (* node -> witness walk weight *)
    mutable dist_k : int array;  (* node -> witness walk arc count *)
    mutable inq : bool array;
    mutable synced_edges : int;  (* prefix of graph edges absorbed *)
    mutable violated : bool;  (* latched: the committed graph violates Xi *)
    queue : int Queue.t;
    (* speculation state *)
    mutable speculating : bool;
    mutable spec_violated : bool;
    mutable undo : (int * int * int) list;  (* node, old dist_w, old dist_k *)
    mutable base_nodes : int;
    mutable base_arcs : int;
    spec_last : int array;  (* per process: last event id, real or speculative *)
  }

  let grow_to arr n fill =
    let cap = Array.length arr in
    if n <= cap then arr
    else begin
      let arr' = Array.make (max n (2 * cap)) fill in
      Array.blit arr 0 arr' 0 cap;
      arr'
    end

  let ensure_node c v =
    (* fresh nodes start at the super-source value (0, 0) *)
    c.dist_w <- grow_to c.dist_w (v + 1) 0;
    c.dist_k <- grow_to c.dist_k (v + 1) 0;
    c.inq <- grow_to c.inq (v + 1) false

  let add_h_node c =
    let v = Digraph.add_node c.h in
    ensure_node c v;
    c.dist_w.(v) <- 0;
    c.dist_k.(v) <- 0;
    c.inq.(v) <- false;
    v

  (* Record an improvement of [v], journaled while speculating. *)
  let improve c v w k =
    if c.speculating then c.undo <- (v, c.dist_w.(v), c.dist_k.(v)) :: c.undo;
    c.dist_w.(v) <- w;
    c.dist_k.(v) <- k;
    if not c.inq.(v) then begin
      c.inq.(v) <- true;
      Queue.add v c.queue
    end

  let mark_violated c =
    (if c.speculating then c.spec_violated <- true else c.violated <- true);
    (* drop the pending worklist: the verdict for this state is final *)
    Queue.iter (fun v -> c.inq.(v) <- false) c.queue;
    Queue.clear c.queue

  let[@inline] lex_less w1 k1 w2 k2 = w1 < w2 || (w1 = w2 && k1 > k2)

  exception Halt

  (* Drain the worklist, propagating improvements until the potential
     invariant holds again or a witness walk exceeds the node count. *)
  let settle c =
    let n = Digraph.node_count c.h in
    try
      while not (Queue.is_empty c.queue) do
        let u = Queue.pop c.queue in
        c.inq.(u) <- false;
        let du = c.dist_w.(u) and ku = c.dist_k.(u) in
        List.iter
          (fun (a : Digraph.edge) ->
            let w = du + c.wt.(a.id) and k = ku + 1 in
            if lex_less w k c.dist_w.(a.dst) c.dist_k.(a.dst) then
              if k > n then begin
                mark_violated c;
                raise Halt
              end
              else improve c a.dst w k)
          (Digraph.out_edges c.h u)
      done
    with Halt -> ()

  (* Insert an arc and relax it once; [settle] finishes the job. *)
  let add_arc c ~src ~dst w =
    let a = Digraph.add_edge c.h ~src ~dst in
    c.wt <- grow_to c.wt (a.id + 1) 0;
    c.wt.(a.id) <- w;
    if not (if c.speculating then c.spec_violated else c.violated) then begin
      let nw = c.dist_w.(src) + w and nk = c.dist_k.(src) + 1 in
      if lex_less nw nk c.dist_w.(dst) c.dist_k.(dst) then
        if nk > Digraph.node_count c.h then mark_violated c
        else improve c dst nw nk
    end

  (* Absorb everything appended to the underlying graph since the last
     sync: a node of H per new event, arcs per new edge. *)
  let sync c =
    let g = c.graph in
    while Digraph.node_count c.h < Graph.event_count g do
      ignore (add_h_node c)
    done;
    let dg = Graph.digraph g in
    let m = Digraph.edge_count dg in
    if c.synced_edges < m then begin
      for i = c.synced_edges to m - 1 do
        let e = Digraph.edge dg i in
        if Graph.is_message g e then begin
          add_arc c ~src:e.src ~dst:e.dst c.alpha;
          add_arc c ~src:e.dst ~dst:e.src (-c.beta)
        end
        else add_arc c ~src:e.dst ~dst:e.src 0
      done;
      c.synced_edges <- m
    end;
    if not c.violated then settle c

  let create g ~xi =
    let alpha, beta = xi_parts xi in
    let c =
      {
        graph = g;
        alpha;
        beta;
        h = Digraph.create 0;
        wt = Array.make 64 0;
        dist_w = Array.make 64 0;
        dist_k = Array.make 64 0;
        inq = Array.make 64 false;
        synced_edges = 0;
        violated = false;
        queue = Queue.create ();
        speculating = false;
        spec_violated = false;
        undo = [];
        base_nodes = 0;
        base_arcs = 0;
        spec_last = Array.make (Graph.nprocs g) (-1);
      }
    in
    sync c;
    c

  let is_admissible c =
    if c.speculating then invalid_arg "Abc_check.Checker.is_admissible: mid-speculation";
    sync c;
    not c.violated

  let spec_begin c =
    if c.speculating then invalid_arg "Abc_check.Checker.spec_begin: already speculating";
    sync c;
    c.speculating <- true;
    c.spec_violated <- c.violated;
    c.undo <- [];
    c.base_nodes <- Digraph.node_count c.h;
    c.base_arcs <- Digraph.edge_count c.h;
    for p = 0 to Graph.nprocs c.graph - 1 do
      c.spec_last.(p) <-
        (match Graph.last_event_of_proc c.graph p with Some id -> id | None -> -1)
    done

  let spec_add_event c ~proc =
    if not c.speculating then invalid_arg "Abc_check.Checker.spec_add_event: not speculating";
    let id = add_h_node c in
    (* a local edge u -> v contributes only the backward arc v -> u *)
    (match c.spec_last.(proc) with -1 -> () | prev -> add_arc c ~src:id ~dst:prev 0);
    c.spec_last.(proc) <- id;
    id

  let spec_add_message c ~src ~dst =
    if not c.speculating then
      invalid_arg "Abc_check.Checker.spec_add_message: not speculating";
    add_arc c ~src ~dst c.alpha;
    add_arc c ~src:dst ~dst:src (-c.beta)

  let spec_admissible c =
    if not c.speculating then invalid_arg "Abc_check.Checker.spec_admissible: not speculating";
    if not c.spec_violated then settle c;
    not c.spec_violated

  let spec_abort c =
    if not c.speculating then invalid_arg "Abc_check.Checker.spec_abort: not speculating";
    Queue.iter (fun v -> c.inq.(v) <- false) c.queue;
    Queue.clear c.queue;
    (* entries are prepended, so replaying head-to-tail ends on the
       oldest (original) value of each node *)
    List.iter
      (fun (v, w, k) ->
        c.dist_w.(v) <- w;
        c.dist_k.(v) <- k)
      c.undo;
    c.undo <- [];
    Digraph.truncate c.h ~nodes:c.base_nodes ~edges:c.base_arcs;
    c.spec_violated <- false;
    c.speculating <- false
end
