(** Exact linear-inequality solving for the delay-assignment proof
    engine (Section 4.1 of the paper).

    The paper shows (Theorem 12) that the strict system [Ax < b] built
    from a finite ABC execution graph (Fig. 6) always has a solution,
    via a variant of Farkas' lemma (Theorem 10, after Carver 1921):

    {e [Ax < b] has a solution iff every [y ≥ 0] with [yᵀA = 0]
    satisfies [yᵀb > 0].}

    This module provides the computational counterpart: a
    Fourier–Motzkin eliminator over exact rationals that
    - decides feasibility of mixed strict/non-strict systems,
    - returns a concrete solution when feasible (back-substitution
      picking midpoints of the residual intervals), and
    - returns a {e Farkas certificate} when infeasible: a non-negative
      combination [y] of the original rows with [yᵀA = 0] and
      [yᵀb ≤ 0] (or [= 0] with at least one strict row involved),
      which is exactly a witness violating Theorem 10's criterion.

    Fourier–Motzkin is exponential in the number of variables in the
    worst case, matching its role here: the paper-faithful reference
    that {!Simplex.solve} is tested against on small systems. *)

type relation = Le  (** [≤] *) | Lt  (** [<] *)

type constr = {
  coeffs : Rat.t array;  (** left-hand side coefficients *)
  rel : relation;
  rhs : Rat.t;
  provenance : Rat.t array;
      (** this constraint as a non-negative combination of the
          original rows; starts as a unit vector *)
}

type certificate = {
  y : Rat.t array;  (** [y ≥ 0], [yᵀA = 0] *)
  y_b : Rat.t;  (** [yᵀb], which is [≤ 0] *)
  strict_involved : bool;
      (** whether a strict row has positive coefficient in [y]; when
          [yᵀb = 0] this is what makes the system infeasible *)
}

type result = Feasible of Rat.t array | Infeasible of certificate

type system = { nvars : int; rows : (Rat.t array * relation * Rat.t) list }

let make_system ~nvars rows = { nvars; rows }

let constr_of_row nrows i (coeffs, rel, rhs) =
  let provenance = Array.make nrows Rat.zero in
  provenance.(i) <- Rat.one;
  { coeffs = Array.copy coeffs; rel; rhs; provenance }

let is_trivial c = Array.for_all Rat.is_zero c.coeffs

(* A trivial constraint is contradictory iff rhs < 0, or rhs = 0 with a
   strict relation. *)
let is_contradiction c =
  is_trivial c
  && (Rat.sign c.rhs < 0 || (Rat.is_zero c.rhs && c.rel = Lt))

let scale_constr k c =
  {
    coeffs = Array.map (Rat.mul k) c.coeffs;
    rel = c.rel;
    rhs = Rat.mul k c.rhs;
    provenance = Array.map (Rat.mul k) c.provenance;
  }

let add_constr a b =
  {
    coeffs = Array.mapi (fun i x -> Rat.add x b.coeffs.(i)) a.coeffs;
    rel = (if a.rel = Lt || b.rel = Lt then Lt else Le);
    rhs = Rat.add a.rhs b.rhs;
    provenance = Array.mapi (fun i x -> Rat.add x b.provenance.(i)) a.provenance;
  }

let certificate_of c =
  { y = c.provenance; y_b = c.rhs; strict_involved = c.rel = Lt }

(* Normalize a constraint so its first non-zero coefficient is ±1, and
   deduplicate a constraint set keeping, for each left-hand side, only
   the tightest right-hand side (smaller rhs, strict beating non-strict
   at equality).  This containment of redundant rows is what keeps
   Fourier-Motzkin from exploding on systems with many cycle rows. *)
let dedupe constrs =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun c ->
      let c =
        match Array.find_opt (fun x -> not (Rat.is_zero x)) c.coeffs with
        | Some pivot -> scale_constr (Rat.inv (Rat.abs pivot)) c
        | None -> c
      in
      let key = Array.map Rat.to_string c.coeffs |> Array.to_list |> String.concat "," in
      match Hashtbl.find_opt tbl key with
      | None -> Hashtbl.replace tbl key c
      | Some c' ->
          let tighter =
            let cmp = Rat.compare c.rhs c'.rhs in
            cmp < 0 || (cmp = 0 && c.rel = Lt && c'.rel = Le)
          in
          if tighter then Hashtbl.replace tbl key c)
    constrs;
  Hashtbl.fold (fun _ c acc -> c :: acc) tbl []

(* Eliminate variable [j]: combine every (lower-bound, upper-bound)
   pair after normalizing the coefficient of [j] to ±1. *)
let eliminate j constrs =
  let zero_j, nonzero_j =
    List.partition (fun c -> Rat.is_zero c.coeffs.(j)) constrs
  in
  let normalized =
    List.map
      (fun c -> scale_constr (Rat.inv (Rat.abs c.coeffs.(j))) c)
      nonzero_j
  in
  let uppers, lowers =
    List.partition (fun c -> Rat.sign c.coeffs.(j) > 0) normalized
  in
  let combos =
    List.concat_map (fun lo -> List.map (fun up -> add_constr lo up) uppers) lowers
  in
  (* combined constraints have coefficient 0 on j by construction *)
  dedupe (zero_j @ combos)

exception Found of certificate

(* Back-substitution: variables were eliminated in increasing index
   order, so assign them in decreasing order using the constraint sets
   recorded before each elimination. *)
let back_substitute nvars stages =
  let x = Array.make nvars Rat.zero in
  List.iter
    (fun (j, constrs) ->
      (* bounds on x.(j) once later variables are fixed *)
      let lo = ref None and hi = ref None in
      let tighten_lo v strict =
        match !lo with
        | None -> lo := Some (v, strict)
        | Some (v', s') ->
            if Rat.compare v v' > 0 || (Rat.equal v v' && strict && not s') then
              lo := Some (v, strict)
      in
      let tighten_hi v strict =
        match !hi with
        | None -> hi := Some (v, strict)
        | Some (v', s') ->
            if Rat.compare v v' < 0 || (Rat.equal v v' && strict && not s') then
              hi := Some (v, strict)
      in
      List.iter
        (fun c ->
          let cj = c.coeffs.(j) in
          if not (Rat.is_zero cj) then begin
            (* c: cj * xj + rest ≤/< rhs, with all other vars fixed *)
            let rest = ref Rat.zero in
            Array.iteri
              (fun i ci ->
                if i <> j && not (Rat.is_zero ci) then
                  rest := Rat.add !rest (Rat.mul ci x.(i)))
              c.coeffs;
            let bound = Rat.div (Rat.sub c.rhs !rest) cj in
            if Rat.sign cj > 0 then tighten_hi bound (c.rel = Lt)
            else tighten_lo bound (c.rel = Lt)
          end)
        constrs;
      let value =
        match (!lo, !hi) with
        | None, None -> Rat.zero
        | Some (v, false), None -> v
        | Some (v, true), None -> Rat.add v Rat.one
        | None, Some (v, false) -> v
        | None, Some (v, true) -> Rat.sub v Rat.one
        | Some (l, ls), Some (h, hs) ->
            if Rat.equal l h then begin
              (* feasibility guarantees neither bound is strict here *)
              assert ((not ls) && not hs);
              l
            end
            else Rat.div (Rat.add l h) Rat.two
      in
      x.(j) <- value)
    stages;
  x

(** Decide the system; see the module documentation.

    Variables are eliminated greedily, picking at each step the
    variable with the smallest product of lower- and upper-bound
    constraint counts (the classic heuristic bounding Fourier-Motzkin
    blowup); back-substitution assigns them in reverse elimination
    order, which is what the recorded stages encode. *)
let solve { nvars; rows } =
  let nrows = List.length rows in
  let constrs = List.mapi (constr_of_row nrows) rows in
  try
    (* check initial contradictions (e.g. 0 < 0 rows) *)
    List.iter (fun c -> if is_contradiction c then raise (Found (certificate_of c))) constrs;
    let stages = ref [] in
    let current = ref constrs in
    let remaining = ref (List.init nvars Fun.id) in
    while !remaining <> [] do
      let cost j =
        let lo = ref 0 and hi = ref 0 in
        List.iter
          (fun c ->
            let s = Rat.sign c.coeffs.(j) in
            if s > 0 then incr hi else if s < 0 then incr lo)
          !current;
        (!lo * !hi) - (!lo + !hi)
      in
      let j =
        List.fold_left
          (fun best j -> match best with
            | None -> Some (j, cost j)
            | Some (_, cb) ->
                let cj = cost j in
                if cj < cb then Some (j, cj) else best)
          None !remaining
        |> Option.get |> fst
      in
      remaining := List.filter (fun v -> v <> j) !remaining;
      stages := (j, !current) :: !stages;
      let next = eliminate j !current in
      List.iter (fun c -> if is_contradiction c then raise (Found (certificate_of c))) next;
      (* drop trivially-true rows to limit blowup *)
      current := List.filter (fun c -> not (is_trivial c)) next
    done;
    Feasible (back_substitute nvars !stages)
  with Found cert -> Infeasible cert

(** [check_solution sys x] verifies a putative solution row by row. *)
let check_solution { nvars = _; rows } x =
  List.for_all
    (fun (coeffs, rel, rhs) ->
      let lhs =
        snd
          (Array.fold_left
             (fun (i, acc) c -> (i + 1, Rat.add acc (Rat.mul c x.(i))))
             (0, Rat.zero) coeffs)
      in
      match rel with Le -> Rat.compare lhs rhs <= 0 | Lt -> Rat.compare lhs rhs < 0)
    rows

(** [check_certificate sys cert] verifies a Farkas certificate:
    [y ≥ 0], [y ≠ 0], [yᵀA = 0], and [yᵀb < 0] (or [= 0] with a strict
    row in the support). *)
let check_certificate { nvars; rows } cert =
  let rows_arr = Array.of_list rows in
  Array.length cert.y = Array.length rows_arr
  && Array.for_all (fun v -> Rat.sign v >= 0) cert.y
  && Array.exists (fun v -> Rat.sign v > 0) cert.y
  && (let combo = Array.make nvars Rat.zero in
      Array.iteri
        (fun i yi ->
          let coeffs, _, _ = rows_arr.(i) in
          Array.iteri
            (fun j aij -> combo.(j) <- Rat.add combo.(j) (Rat.mul yi aij))
            coeffs)
        cert.y;
      Array.for_all Rat.is_zero combo)
  &&
  let ytb =
    snd
      (Array.fold_left
         (fun (i, acc) yi ->
           let _, _, rhs = rows_arr.(i) in
           (i + 1, Rat.add acc (Rat.mul yi rhs)))
         (0, Rat.zero) cert.y)
  in
  let strict_used =
    snd
      (Array.fold_left
         (fun (i, acc) yi ->
           let _, rel, _ = rows_arr.(i) in
           (i + 1, acc || (Rat.sign yi > 0 && rel = Lt)))
         (0, false) cert.y)
  in
  Rat.sign ytb < 0 || (Rat.is_zero ytb && strict_used)
