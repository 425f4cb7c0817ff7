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
  match Rat.int_parts xi with
  | Some (a, b) as parts when a <= xi_part_bound && b <= xi_part_bound -> parts
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

(* dist(dst) <- min(dist(dst), dist(src) + (w, −1)) in the kernel's
   arrays; whether [dst] improved. *)
let relax ws es n src dst w =
  let s = ws.(src) + w and e = es.(src) - 1 in
  if s < ws.(dst) || (s = ws.(dst) && e < es.(dst)) then begin
    if e < -n then raise_notrace Repeats_event;
    ws.(dst) <- s;
    es.(dst) <- e;
    true
  end
  else false

(** The native kernel.  Potentials of [H] for Ξ = a/b live in the
    lexicographic domain (W, −arcs) as two int arrays: every arc adds
    its weight to W and −1 to the arc count, and a cycle is negative in
    this order iff its W ≤ 0, so no rescale is needed.  Arcs are read
    off the execution graph's adjacency lists, walked by edge id.  A
    round relaxes the backward arcs by decreasing event id and then the
    forward message arcs by increasing event id, so one round carries a
    potential down and back up a whole causal chain.

    Two exits report a cycle of weight ≤ 0.  A better walk of more than
    n arcs repeats an event; potentials only decrease, so its repeated
    segment is negative in the lex order ({!Checker}'s rule too).
    And, as in any Bellman–Ford, a change in round n.  The
    first keeps every stored walk at most n arcs long, so
    |W| ≤ (n+1)·max(a,b) in every sum. *)
let potentials g ~a ~b =
  let n = Graph.event_count g in
  if max a b > max_int / (n + 1) then
    invalid_arg "Abc_check.potentials: (n+1)*max(a,b) must not exceed max_int";
  let dg = Graph.digraph g in
  let ws = Array.make n 0 and es = Array.make n 0 in
  let changed = ref (n > 0) and rounds = ref 0 in
  match
    while !changed && !rounds < n do
      changed := false;
      incr rounds;
      for v = n - 1 downto 0 do
        let e = ref (Digraph.first_in dg v) in
        while !e >= 0 do
          let w = if Graph.is_message_id g !e then -b else 0 in
          if relax ws es n v (Digraph.edge_src dg !e) w then changed := true;
          e := Digraph.next_in dg !e
        done
      done;
      for u = 0 to n - 1 do
        let e = ref (Digraph.first_out dg u) in
        while !e >= 0 do
          if Graph.is_message_id g !e && relax ws es n u (Digraph.edge_dst dg !e) a then
            changed := true;
          e := Digraph.next_out dg !e
        done
      done
    done
  with
  | () -> if !changed then None else Some (ws, es)
  | exception Repeats_event -> None

let is_admissible g ~xi =
  let a, b = xi_parts xi in
  Option.is_some (potentials g ~a ~b)


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

    The checker maintains, per event, the value [dist = (W, k)] of some
    witness walk in [H] from the virtual super-source (initially
    [(0, 0)] for every event).  [H] is never built: as in
    {!potentials}, the arcs of [H] leaving an event are read off the
    execution graph — a forward arc per message it sends, a backward
    arc per edge into it.  The invariant after a settled update is
    [dist(v) <= dist(u) + w(u,v)] for every arc — a feasible potential,
    certifying that no nonpositive cycle exists.  Appending to the
    graph can only break the invariant at the new edges' arcs, so
    [sync] relaxes each of those once and then drains an SPFA-style
    worklist from whatever improved, instead of re-running
    Bellman–Ford over everything.

    Detection: if an improvement pushes some [dist_k(v)] past the event
    count, the witness walk repeats an event, and the repeated segment
    is a nonpositive cycle (values only decrease over time, so the
    segment between the two visits has weight [< 0] in the lex order);
    the execution is inadmissible.  Conversely, with a nonpositive
    cycle present the relaxation cannot stabilize and every lap around
    the cycle grows the witness [k], so the threshold always fires.
    Inadmissibility latches: execution graphs only grow, and adding
    edges never removes a violating cycle.

    Speculation (the deferring adversary asks "would delivering this
    queue stay admissible?" hundreds of times per run) appends the
    hypothetical events and messages to the graph itself.
    {!spec_begin} records the graph's (events, edges) watermark, and
    {!spec_abort} undoes the journaled [dist] improvements of committed
    events and truncates the graph back to the watermark
    ({!Graph.truncate}), so a speculation costs only the work its own
    deltas cause. *)
module Checker = struct
  type checker = {
    graph : Graph.t;
    alpha : int;
    beta : int;
    mutable dist_w : int array;  (* event -> witness walk weight *)
    mutable dist_k : int array;  (* event -> witness walk arc count *)
    mutable inq : bool array;
    mutable ring : int array;  (* the worklist: [queued] events from [head], wrapping *)
    mutable head : int;
    mutable queued : int;
    mutable journal : int array;  (* stride 3: event, old dist_w, old dist_k *)
    mutable journaled : int;  (* entries in [journal], oldest first *)
    mutable violated : bool;  (* latched: the committed graph violates Xi *)
    mutable spec_violated : bool;  (* latched: the speculation violates Xi *)
    mutable events : int;  (* graph events absorbed *)
    mutable edges : int;  (* graph edges absorbed *)
    mutable mark_events : int;  (* the open speculation's watermark; -1: none *)
    mutable mark_edges : int;
  }

  let grow_to arr n fill =
    let cap = Array.length arr in
    if n <= cap then arr
    else begin
      let arr' = Array.make (max n (2 * cap)) fill in
      Array.blit arr 0 arr' 0 cap;
      arr'
    end

  (* Record an improvement of [v].  While speculating, a committed
     event's old value is journaled; an appended one starts again at
     (0, 0) when it is absorbed again, so it needs none.  The ring
     holds at least as many slots as there are events, and [inq] keeps
     an event in it at most once, so it never overflows. *)
  let improve c v w k =
    if v < c.mark_events then begin
      let j = 3 * c.journaled in
      if j + 3 > Array.length c.journal then c.journal <- grow_to c.journal (j + 3) 0;
      c.journal.(j) <- v;
      c.journal.(j + 1) <- c.dist_w.(v);
      c.journal.(j + 2) <- c.dist_k.(v);
      c.journaled <- c.journaled + 1
    end;
    c.dist_w.(v) <- w;
    c.dist_k.(v) <- k;
    if not c.inq.(v) then begin
      c.inq.(v) <- true;
      let cap = Array.length c.ring and t = c.head + c.queued in
      c.ring.(if t >= cap then t - cap else t) <- v;
      c.queued <- c.queued + 1
    end

  (* The next event of the worklist, taken off it. *)
  let pop c =
    let v = c.ring.(c.head) in
    c.head <- (if c.head + 1 = Array.length c.ring then 0 else c.head + 1);
    c.queued <- c.queued - 1;
    c.inq.(v) <- false;
    v

  let clear_queue c =
    while c.queued > 0 do
      ignore (pop c)
    done

  let latched c = if c.mark_events >= 0 then c.spec_violated else c.violated
  let[@inline] lex_less w1 k1 w2 k2 = w1 < w2 || (w1 = w2 && k1 > k2)

  (* A better walk of more than [n] arcs: the latch is set. *)
  exception Halt

  (* dist(v) <- min(dist(v), (w, k)) for a walk of [k] arcs into [v] of
     weight [w]; the verdict for this state is final once the walk
     repeats an event, so the worklist is dropped. *)
  let relax c n v w k =
    if lex_less w k c.dist_w.(v) c.dist_k.(v) then
      if k > n then begin
        if c.mark_events >= 0 then c.spec_violated <- true else c.violated <- true;
        clear_queue c;
        raise_notrace Halt
      end
      else improve c v w k

  (* The arcs of [H] leaving an event at [(du, ku)]: a forward arc of
     weight +α along each message it sends, and a backward arc along
     each edge into it, −β for a message and 0 for a local edge.  Both
     walkers are top-level and follow edge ids from [e], so popping an
     event allocates nothing. *)
  let rec forward c dg n du ku e =
    if e >= 0 then begin
      if Graph.is_message_id c.graph e then
        relax c n (Digraph.edge_dst dg e) (du + c.alpha) (ku + 1);
      forward c dg n du ku (Digraph.next_out dg e)
    end

  let rec backward c dg n du ku e =
    if e >= 0 then begin
      relax c n (Digraph.edge_src dg e)
        (if Graph.is_message_id c.graph e then du - c.beta else du)
        (ku + 1);
      backward c dg n du ku (Digraph.next_in dg e)
    end

  (* Absorb everything appended to the graph since the last sync and
     settle: new events start at (0, 0), the arcs of each new edge are
     relaxed once, and the worklist is drained until the potential
     invariant holds again or a witness walk exceeds the event count.
     Only [sync] relaxes, so the worklist is empty (and every [inq]
     false) between calls. *)
  let sync c =
    let g = c.graph in
    let n = Graph.event_count g and m = Graph.edge_count g in
    if n > c.events then begin
      c.dist_w <- grow_to c.dist_w n 0;
      c.dist_k <- grow_to c.dist_k n 0;
      c.inq <- grow_to c.inq n false;
      c.ring <- grow_to c.ring n 0;
      Array.fill c.dist_w c.events (n - c.events) 0;
      Array.fill c.dist_k c.events (n - c.events) 0;
      c.events <- n
    end;
    let first = c.edges in
    c.edges <- m;
    if not (latched c) then begin
      let dg = Graph.digraph g in
      try
        for i = first to m - 1 do
          let u = Digraph.edge_src dg i and v = Digraph.edge_dst dg i in
          if Graph.is_message_id g i then begin
            relax c n v (c.dist_w.(u) + c.alpha) (c.dist_k.(u) + 1);
            relax c n u (c.dist_w.(v) - c.beta) (c.dist_k.(v) + 1)
          end
          else relax c n u c.dist_w.(v) (c.dist_k.(v) + 1)
        done;
        while c.queued > 0 do
          let u = pop c in
          let du = c.dist_w.(u) and ku = c.dist_k.(u) in
          forward c dg n du ku (Digraph.first_out dg u);
          backward c dg n du ku (Digraph.first_in dg u)
        done
      with Halt -> ()
    end

  let create g ~xi =
    let alpha, beta = xi_parts xi in
    let c =
      {
        graph = g;
        alpha;
        beta;
        dist_w = Array.make 64 0;
        dist_k = Array.make 64 0;
        inq = Array.make 64 false;
        ring = Array.make 64 0;
        head = 0;
        queued = 0;
        journal = Array.make 48 0;
        journaled = 0;
        violated = false;
        spec_violated = false;
        events = 0;
        edges = 0;
        mark_events = -1;
        mark_edges = 0;
      }
    in
    sync c;
    c

  let is_admissible c =
    if c.mark_events >= 0 then invalid_arg "Abc_check.Checker.is_admissible: mid-speculation";
    sync c;
    not c.violated

  let spec_begin c =
    if c.mark_events >= 0 then invalid_arg "Abc_check.Checker.spec_begin: already speculating";
    sync c;
    c.mark_events <- c.events;
    c.mark_edges <- c.edges;
    c.spec_violated <- c.violated;
    c.journaled <- 0

  let spec_admissible c =
    if c.mark_events < 0 then invalid_arg "Abc_check.Checker.spec_admissible: not speculating";
    sync c;
    not c.spec_violated

  let spec_abort c =
    if c.mark_events < 0 then invalid_arg "Abc_check.Checker.spec_abort: not speculating";
    (* newest first, so each event ends on its oldest (committed) value *)
    for i = c.journaled - 1 downto 0 do
      let v = c.journal.(3 * i) in
      c.dist_w.(v) <- c.journal.((3 * i) + 1);
      c.dist_k.(v) <- c.journal.((3 * i) + 2)
    done;
    c.journaled <- 0;
    Graph.truncate c.graph ~events:c.mark_events ~edges:c.mark_edges;
    c.events <- c.mark_events;
    c.edges <- c.mark_edges;
    c.spec_violated <- false;
    c.mark_events <- -1
end
