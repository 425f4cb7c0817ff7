(** Normalized delay assignments (Section 4.1, Theorems 7 and 12).

    Theorem 7: for every finite ABC execution graph [G] (admissible for
    Ξ) there is an end-to-end delay assignment [τ] with
    [1 < τ(e) < Ξ] for every message and strictly positive weights on
    local edges, such that the weighted graph [Gτ] is causally
    equivalent to [G].  This is the engine behind the model
    indistinguishability of the ABC and Θ models (Theorem 9).

    Two independent constructions are provided:

    - {!solve_fast}: assign {e occurrence times} [t(φ)] to events via
      difference constraints ([1 + ε ≤ t(ψ) − t(φ) ≤ Ξ − ε] per
      message, [t(ψ) − t(φ) ≥ ε] per local edge) solved by
      Bellman–Ford potentials; delays are differences of times, so the
      zero-sum condition around every cycle holds by construction.
      Polynomial.  For Ξ = a/b the constraint graph scaled by b is the
      admissibility check's graph [H] in the lexicographic domain
      (b·std, ε-count), so the potentials come from the native kernel
      {!Execgraph.Abc_check.potentials}; {!solve_reference} runs the
      generic Bellman–Ford over the ε-extended rationals ({!Rat.Eps})
      instead.

    - {!solve_faithful}: the paper's own construction (Fig. 6): build
      the strict system [Ax < b] with one variable per message — rows
      [−τ(e) < −1] and [τ(e) < Ξ] for every message, row
      [Σ_{Z−} τ − Σ_{Z+} τ < 0] for every relevant cycle and the
      sign-flipped row for every cycle whose local edges are all
      forward (cycles with locals in both classes are unconstrained;
      see {!build_fig6}) — and solve it exactly (simplex over
      ε-extended rationals by default, or the paper's Fourier–Motzkin
      narrative).  When the graph is {e not} admissible, the solver
      returns a Farkas certificate
      ([y ≥ 0, yᵀA = 0, yᵀb ≤ 0]), witnessing Theorem 10's criterion;
      its cycle coefficients point at the violating relevant cycles.
      Exponential (enumerates simple cycles): small graphs only. *)

open Execgraph

(* ------------------------------------------------------------------ *)
(* Fast potential-based construction *)

module BF_eps = Digraph.Bellman_ford (struct
  type t = Rat.Eps.t

  let zero = Rat.Eps.zero
  let add = Rat.Eps.add
  let compare = Rat.Eps.compare
end)

type assignment = {
  times : Rat.t array;  (** event id -> occurrence time *)
  delays : (int * Rat.t) list;  (** message edge id -> delay in (1, Ξ) *)
  epsilon : Rat.t;  (** the concrete ε substituted for the infinitesimal *)
}

let check_xi xi =
  if Rat.compare xi Rat.one <= 0 then invalid_arg "Delay_assignment.solve_fast: Xi > 1"

(** The reference solver: difference constraints over {!Rat.Eps} on an
    auxiliary constraint digraph, by the generic Bellman–Ford; [None]
    iff the graph violates the ABC condition for Ξ (Theorem 12 in
    contrapositive). *)
let solve_reference g ~xi =
  check_xi xi;
  let dg = Graph.digraph g in
  (* Constraint graph: t(dst_of_arc) <= t(src_of_arc) + w(arc). *)
  let h = Digraph.create (Graph.event_count g) in
  let weights = ref [] in
  let add_arc src dst w =
    ignore (Digraph.add_edge h ~src ~dst);
    weights := w :: !weights
  in
  List.iter
    (fun (e : Digraph.edge) ->
      if Graph.is_message g e then begin
        (* t(v) - t(u) <= Ξ - ε  and  t(u) - t(v) <= -1 - ε *)
        add_arc e.src e.dst (Rat.Eps.make xi Rat.minus_one);
        add_arc e.dst e.src (Rat.Eps.make Rat.minus_one Rat.minus_one)
      end
      else
        (* local edge: t(u) - t(v) <= -ε, i.e. t strictly increases *)
        add_arc e.dst e.src (Rat.Eps.make Rat.zero Rat.minus_one))
    (Digraph.edges dg);
  let weights = Array.of_list (List.rev !weights) in
  match BF_eps.potentials h ~weight:(fun (a : Digraph.edge) -> weights.(a.id)) with
  | None -> None
  | Some pi ->
      (* Choose a concrete ε > 0 preserving every strict inequality.
         Each original constraint is [t(v) − t(u) ≤ w_std + w_c·ε] with
         w_c = −1; satisfied in Eps order.  With diff = pi(v) − pi(u) =
         (s, c), we need s + c·e < bound_std strictly (bounds 1 below,
         Ξ above, 0 for locals).  If s is strictly inside, take e below
         slack/(|c|+1); if s sits on the bound, the ε-parts already
         enforce strictness for every e in (0, 1). *)
      (* [pi] has [max n 1] entries: read times for the n events only *)
      let n = Graph.event_count g in
      let eps = ref Rat.one in
      let consider (diff : Rat.Eps.t) (bound : Rat.Eps.t) =
        (* requirement: diff < bound with concrete ε (bound's ε part
           encodes the strictness margin) *)
        let s = Rat.sub bound.Rat.Eps.std diff.Rat.Eps.std in
        let c = Rat.sub diff.Rat.Eps.eps bound.Rat.Eps.eps in
        if Rat.sign s > 0 && Rat.sign c > 0 then
          eps := Rat.min !eps (Rat.div s (Rat.add c Rat.one))
      in
      List.iter
        (fun (e : Digraph.edge) ->
          let diff = Rat.Eps.sub pi.(e.dst) pi.(e.src) in
          if Graph.is_message g e then begin
            consider diff (Rat.Eps.of_rat xi);
            consider (Rat.Eps.of_rat Rat.one) diff
          end
          else consider (Rat.Eps.of_rat Rat.zero) diff)
        (Digraph.edges dg);
      let e_val = Rat.div !eps Rat.two in
      let times = Array.make n Rat.zero in
      for i = 0 to n - 1 do
        times.(i) <- Rat.Eps.standardize_with e_val pi.(i)
      done;
      let delays =
        List.filter_map
          (fun (e : Digraph.edge) ->
            if Graph.is_message g e then Some (e.id, Rat.sub times.(e.dst) times.(e.src))
            else None)
          (Digraph.edges dg)
      in
      Some { times; delays; epsilon = e_val }

(* Ξ = a/b in lowest terms when the native solver provably cannot
   overflow on [g]: (n+1)·(arcs+1)·max(a,b) < 2^60, with [arcs] the
   constraint arcs (two per message, one per local edge).
   - The kernel stops every walk past n arcs, so each sum it forms is
     at most (n+1)·max(a,b) < 2^60 in magnitude, inside its own guard.
   - At the fixpoint a potential is a shortest simple path of
     L ≤ min(n−1, arcs) arcs: −L·b ≤ ds ≤ 0 and −L ≤ de ≤ 0.
   - An ε candidate p/k has p ≤ (L+1)·max(a,b) and k ≤ L+1 ≤ n, so the
     cross products that compare candidates stay below 2^60.
   - The least candidate bp/bk is at most the initial b/1, so
     bp ≤ b·bk, and an event time's numerator 2·bk·ds + de·bp is at
     most 3·(L+1)·L·b < 3·2^60 < 2^62 in magnitude. *)
let native_parts g ~xi =
  match (Bigint.to_int (Rat.num xi), Bigint.to_int (Rat.den xi)) with
  | Some a, Some b ->
      let arcs = Graph.edge_count g + Graph.message_count g in
      if max a b <= ((1 lsl 60) - 1) / (arcs + 1) / (Graph.event_count g + 1) then
        Some (a, b)
      else None
  | _ -> None

let fits_native g ~xi = native_parts g ~xi <> None

(* The native solver: the potentials of Abc_check's kernel, whose H is
   exactly this constraint graph scaled by b — a message u → v gives
   the arcs u → v of weight (a, −1) and v → u of weight (−b, −1), a
   local edge u → v the arc v → u of weight (0, −1), in the domain
   (b·std, ε-count).  Shortest distances are unique, so the potentials,
   ε and times equal the reference's. *)
let solve_native g ~a ~b =
  match Abc_check.potentials g ~a ~b with
  | None -> None
  | Some (ds, de) ->
      let dg = Graph.digraph g and n = Graph.event_count g in
      (* The reference's ε, from the integers: every candidate slack is
         p/(b·k) for a positive int p and an ε-count k, so the minimum
         is picked by comparing p/k, and ε starts at 1 = b/(b·1). *)
      let bp = ref b and bk = ref 1 in
      let consider p k =
        if p > 0 && k > 1 && p * !bk < !bp * k then begin
          bp := p;
          bk := k
        end
      in
      for i = 0 to Digraph.edge_count dg - 1 do
        let e = Digraph.edge dg i in
        let d = ds.(e.dst) - ds.(e.src) and c = de.(e.dst) - de.(e.src) in
        if Graph.is_message g e then begin
          consider (a - d) (c + 1);
          consider (d - b) (1 - c)
        end
        else consider d (1 - c)
      done;
      let q = 2 * b * !bk in
      (* ε is half the least slack, and an event's time is
         std + (ε-count)·ε = (2·bk·ds + de·bp)/q *)
      let times = Array.init n (fun i -> Rat.of_ints ((2 * !bk * ds.(i)) + (de.(i) * !bp)) q) in
      let delays = ref [] in
      for i = Digraph.edge_count dg - 1 downto 0 do
        let e = Digraph.edge dg i in
        if Graph.is_message g e then
          delays := (e.id, Rat.sub times.(e.dst) times.(e.src)) :: !delays
      done;
      Some { times; delays = !delays; epsilon = Rat.of_ints !bp q }

(** Solve by difference constraints; [None] iff the graph violates the
    ABC condition for Ξ (Theorem 12 in contrapositive).  Runs the
    native solver when {!fits_native} holds, the reference otherwise;
    both give the same answer. *)
let solve_fast g ~xi =
  check_xi xi;
  match native_parts g ~xi with
  | Some (a, b) -> solve_native g ~a ~b
  | None -> solve_reference g ~xi

(** Verify an assignment: [1 < τ(e) < Ξ] for every message, and strict
    time increase along every local edge (causal equivalence: the event
    order at every process is preserved and delays are consistent with
    the times by construction). *)
let verify g ~xi (a : assignment) =
  List.for_all
    (fun (e : Digraph.edge) ->
      let d = Rat.sub a.times.(e.dst) a.times.(e.src) in
      if Graph.is_message g e then Rat.compare Rat.one d < 0 && Rat.compare d xi < 0
      else Rat.sign d > 0)
    (Digraph.edges (Graph.digraph g))

(* ------------------------------------------------------------------ *)
(* Paper-faithful construction: the Fig. 6 linear system *)

type fig6_system = {
  system : Lp.system;
  message_ids : int array;  (** column -> message edge id *)
  n_relevant : int;
  n_nonrelevant : int;
}

(** Build the matrix of Fig. 6: [2k] bound rows, one row per relevant
    cycle ([+1] on [Z−] columns, [−1] on [Z+]), and the sign-flipped
    row per all-forward-locals cycle (see the comment inside). *)
let build_fig6 ?max_cycles g ~xi =
  let msgs =
    List.filter (fun (e : Digraph.edge) -> Graph.is_message g e)
      (Digraph.edges (Graph.digraph g))
  in
  let message_ids = Array.of_list (List.map (fun (e : Digraph.edge) -> e.id) msgs) in
  let k = Array.length message_ids in
  let col_of = Hashtbl.create 16 in
  Array.iteri (fun col id -> Hashtbl.replace col_of id col) message_ids;
  let lower_rows =
    List.init k (fun col ->
        let row = Array.make k Rat.zero in
        row.(col) <- Rat.minus_one;
        (row, Lp.Lt, Rat.minus_one))
  in
  let upper_rows =
    List.init k (fun col ->
        let row = Array.make k Rat.zero in
        row.(col) <- Rat.one;
        (row, Lp.Lt, xi))
  in
  let cycles = Cycle.enumerate ?max_cycles g in
  let n_relevant = ref 0 and n_nonrelevant = ref 0 in
  (* One row per cycle whose local edges all point one way:
     - relevant (locals all backward): Σ_{Z−}τ − Σ_{Z+}τ < 0, leaving
       room for the positive backward local weights;
     - locals all forward (the Fig. 4 shape): the sign-flipped row.
     Cycles with locals in both classes constrain nothing: the local
     weights on both sides can absorb any message-delay sum, and adding
     a row for them can make the system of an admissible graph
     infeasible (the orientation in Definition 3 is ambiguous when
     |Z+| = |Z−|). *)
  let cycle_rows =
    List.filter_map
      (fun (c : Cycle.t) ->
        let sign =
          if c.Cycle.relevant then begin
            incr n_relevant;
            Some 1
          end
          else
            match Cycle.local_profile g c with
            | `All_forward ->
                incr n_nonrelevant;
                Some (-1)
            | `All_backward | `Mixed | `No_locals -> None
        in
        match sign with
        | None -> None
        | Some sign ->
            let v = Cyclespace.vector_of_cycle g c in
            let row = Array.make k Rat.zero in
            List.iter
              (fun eid ->
                match Hashtbl.find_opt col_of eid with
                | Some col -> row.(col) <- Rat.of_int (sign * Cyclespace.Vector.coeff v eid)
                | None -> assert false)
              (Cyclespace.Vector.support v);
            Some (row, Lp.Lt, Rat.zero))
      cycles
  in
  {
    system = Lp.make_system ~nvars:k (lower_rows @ upper_rows @ cycle_rows);
    message_ids;
    n_relevant = !n_relevant;
    n_nonrelevant = !n_nonrelevant;
  }

type faithful_result =
  | Assignment of (int * Rat.t) list  (** message edge id -> delay *)
  | Farkas of Lp.certificate

(** Solve the Fig. 6 system.  Feasible for every ABC-admissible graph
    (Theorem 12); otherwise the Farkas certificate refutes Theorem 10's
    criterion.

    Two interchangeable exact engines: [`Simplex] (default; phase-1
    simplex over ε-extended rationals, polynomial in practice) and
    [`Fourier_motzkin] (the elimination procedure closest to the
    paper's proof narrative; doubly exponential, small graphs only). *)
let solve_faithful ?max_cycles ?(engine = `Simplex) g ~xi =
  let f6 = build_fig6 ?max_cycles g ~xi in
  let result =
    match engine with
    | `Simplex -> Simplex.solve f6.system
    | `Fourier_motzkin -> Lp.solve f6.system
  in
  match result with
  | Lp.Feasible x ->
      Assignment (Array.to_list (Array.mapi (fun col id -> (id, x.(col))) f6.message_ids))
  | Lp.Infeasible cert -> Farkas cert

(** Verify a faithful assignment directly against the paper's
    conditions: bounds (4) and the cycle conditions (6) for relevant
    cycles / sign-flipped for non-relevant ones. *)
let verify_faithful ?max_cycles g ~xi (delays : (int * Rat.t) list) =
  let delay_of id = List.assoc id delays in
  let bounds_ok =
    List.for_all
      (fun (id, d) ->
        ignore id;
        Rat.compare Rat.one d < 0 && Rat.compare d xi < 0)
      delays
  in
  let cycles = Cycle.enumerate ?max_cycles g in
  let cycles_ok =
    List.for_all
      (fun (c : Cycle.t) ->
        let v = Cyclespace.vector_of_cycle g c in
        let s =
          List.fold_left
            (fun acc eid ->
              Rat.add acc (Rat.mul (Rat.of_int (Cyclespace.Vector.coeff v eid)) (delay_of eid)))
            Rat.zero (Cyclespace.Vector.support v)
        in
        (* relevant: Σ_{Z−} − Σ_{Z+} < 0; all-forward locals: the
           opposite; mixed locals: unconstrained (see build_fig6) *)
        if c.Cycle.relevant then Rat.sign s < 0
        else
          match Cycle.local_profile g c with
          | `All_forward -> Rat.sign s > 0
          | `All_backward | `Mixed | `No_locals -> true)
      cycles
  in
  bounds_ok && cycles_ok
