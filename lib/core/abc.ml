(** The ABC model (Section 2): the exact admissibility threshold.

    The model is parameterized by a rational synchrony parameter Ξ > 1
    (Definition 4), and {!Execgraph.Abc_check} decides admissibility
    for one Ξ.  This module computes the {e exact maximum
    relevant-cycle ratio} of an execution graph — the infimum of the
    admissible Ξ — in polynomial time by parametric search
    (Lawler-style binary search over the checker, descending the
    Stern–Brocot tree for an exact rational answer), every probe one
    run of the native kernel {!Execgraph.Abc_check.potentials}. *)

open Execgraph

(** The maximum ratio [|Z−|/|Z+|] over the relevant cycles of [g]:
    [Some r] means [g] is admissible exactly for every [Ξ > r];
    [None] means every relevant cycle has ratio [≤ 1] (or there is no
    relevant cycle), so [g] is admissible for {e every} [Ξ > 1].

    Computed by exact binary search on the Stern–Brocot tree: the
    answer is a fraction with numerator and denominator at most the
    message count [m], and the probe [viol a b] ("is there a relevant
    cycle with ratio ≥ a/b?") is monotone, so descending the tree with
    galloped runs finds it in O(log² m) probes — every probe one run of
    the native kernel {!Abc_check.potentials} on [g] itself.  The
    descent maintains [L ≤ r* < R] with [viol L] true and [viol R]
    false; because consecutive Stern–Brocot bounds satisfy the
    unimodular relation, every fraction strictly between [L] and [R]
    has numerator ≥ num(L)+num(R) and denominator ≥ den(L)+den(R), so
    once either sum exceeds [m] no candidate remains and [r* = L]. *)
let max_relevant_ratio g =
  let m = Graph.message_count g in
  if m = 0 then None
  else begin
    let viol num den = Option.is_none (Abc_check.potentials g ~a:num ~b:den) in
    (* Any relevant cycle with ratio > 1?  Candidate ratios have parts
       <= m, so the smallest candidate above 1 is >= (m+1)/m, and
       probing (2m+1)/2m < (m+1)/m decides it. *)
    if not (viol (m + m + 1) (m + m)) then None
    else begin
      (* L = pl/ql <= r* (viol true), R = pr/qr > r* (viol false;
         initially 1/0 = infinity). *)
      let pl = ref 1 and ql = ref 1 in
      let pr = ref 1 and qr = ref 0 in
      let exception Done in
      (try
         while true do
           if !pl + !pr > m || !ql + !qr > m then raise Done;
           if viol (!pl + !pr) (!ql + !qr) then begin
             (* Run right: find the largest k with viol (L + kR), by
                galloping then bisecting.  Termination: L + kR
                increases towards (or past) R > r*. *)
             let k = ref 1 in
             while viol (!pl + (2 * !k * !pr)) (!ql + (2 * !k * !qr)) do
               k := 2 * !k
             done;
             let lo = ref !k and hi = ref (2 * !k) in
             while !hi - !lo > 1 do
               let mid = (!lo + !hi) / 2 in
               if viol (!pl + (mid * !pr)) (!ql + (mid * !qr)) then lo := mid
               else hi := mid
             done;
             pl := !pl + (!lo * !pr);
             ql := !ql + (!lo * !qr)
           end
           else begin
             (* Run left: find the largest j with viol (jL + R) false.
                If L = r* that j is unbounded, so probe directly at
                jstop, the smallest j where a false answer already
                proves r* = L: fractions strictly inside (L, jL + R)
                have numerator ≥ (j+1)*num(L) + num(R) and denominator
                ≥ (j+1)*den(L) + den(R), so once either exceeds [m] no
                candidate remains. *)
             let jstop = ref 1 in
             while
               ((!jstop + 1) * !pl) + !pr <= m
               && ((!jstop + 1) * !ql) + !qr <= m
             do
               incr jstop
             done;
             if not (viol ((!jstop * !pl) + !pr) ((!jstop * !ql) + !qr)) then
               raise Done;
             (* viol is false at j = 1 (the mediant) and true at jstop:
                bisect for the largest false j in [1, jstop). *)
             let lo = ref 1 and hi = ref !jstop in
             while !hi - !lo > 1 do
               let mid = (!lo + !hi) / 2 in
               if viol ((mid * !pl) + !pr) ((mid * !ql) + !qr) then hi := mid
               else lo := mid
             done;
             pr := (!lo * !pl) + !pr;
             qr := (!lo * !ql) + !qr
           end
         done
       with Done -> ());
      assert (viol !pl !ql);
      Some (Rat.of_ints !pl !ql)
    end
  end

(** A Ξ for which [g] is provably admissible: [fallback] when [g] is
    already admissible for it, otherwise a rational just above the
    exact threshold.  The fuzz oracles use this to instantiate theorem
    hypotheses ("for every Ξ the execution is admissible for…") on
    executions produced by schedulers with no a-priori Θ bound. *)
let admissible_xi g ~fallback =
  if Rat.compare fallback Rat.one <= 0 then
    invalid_arg "Abc.admissible_xi: need fallback > 1";
  match max_relevant_ratio g with
  | None -> fallback
  | Some r ->
      if Rat.compare fallback r > 0 then fallback
      else Rat.add r (Rat.of_ints 1 8)

(** Convenience: smallest Ξ (exclusive bound) for which [g] is
    admissible, as a printable string. *)
let admissibility_threshold g =
  match max_relevant_ratio g with
  | None -> "1 (admissible for every Xi > 1)"
  | Some r -> Rat.to_string r
