(* Two-constructor rationals: a word-sized fast path with overflow
   escape to bignums.

   [S (n, d)] carries the canonical fraction n/d on native ints with
   the invariants d > 0, gcd |n| d = 1, |n| <= small_max and
   d <= small_max.  [small_max = 2^30 - 1] is chosen so that every
   cross product in add/sub/mul/div/compare is < 2^60 and every
   two-product sum is < 2^61, comfortably inside OCaml's 63-bit native
   int — so the common case (Ξ, clock values, edge weights, simplex
   pivots on small instances) runs with no allocation beyond the result
   cell and no bignum gcd.

   [B (n, d)] is the arbitrary-precision fallback, canonical in the
   same sense (positive denominator, gcd 1).  A further invariant makes
   structural equality numeric equality across the whole type: a value
   representable as [S] is never held as [B] — every constructor
   demotes when the reduced parts fit. *)

type t =
  | S of int * int  (** num/den: den > 0, gcd = 1, both |.| <= small_max *)
  | B of Bigint.t * Bigint.t  (** canonical, does not fit the S bounds *)

let small_max = (1 lsl 30) - 1

(* Binary GCD on non-negative native ints; tail-recursive and
   allocation-free. *)
let rec tz n k = if n land 1 = 0 then tz (n lsr 1) (k + 1) else k
let rec strip n = if n land 1 = 0 then strip (n lsr 1) else n

let rec gcd_odd a b =
  (* both arguments odd *)
  if a = b then a
  else if a > b then gcd_odd b a
  else gcd_odd a (strip (b - a))

let gcd_int a b =
  if a = 0 then b
  else if b = 0 then a
  else
    let k = Stdlib.min (tz a 0) (tz b 0) in
    gcd_odd (strip a) (strip b) lsl k

let[@inline] fits n = n >= -small_max && n <= small_max

(* Canonical small from arbitrary int parts (d <> 0), assuming the
   inputs are exact (no prior overflow).  Falls back to B when the
   reduced parts exceed the S bounds.  [min_int] never reaches the
   arithmetic below: constructors route anything that large through
   the bignum path first. *)
let make_small n d =
  if d = 0 then raise Division_by_zero;
  if n = 0 then S (0, 1)
  else begin
    let n, d = if d < 0 then (-n, -d) else (n, d) in
    let g = gcd_int (abs n) d in
    let n = n / g and d = d / g in
    if fits n && d <= small_max then S (n, d)
    else B (Bigint.of_int n, Bigint.of_int d)
  end

(* Canonical big from Bigint parts (den <> 0); demotes to S when the
   reduced fraction fits the small bounds. *)
let make_big num den =
  if Bigint.is_zero den then raise Division_by_zero;
  if Bigint.is_zero num then S (0, 1)
  else begin
    let num, den =
      if Bigint.is_negative den then (Bigint.neg num, Bigint.neg den) else (num, den)
    in
    let g = Bigint.gcd num den in
    let num, den =
      if Bigint.is_one g then (num, den) else (Bigint.div num g, Bigint.div den g)
    in
    match (Bigint.to_int num, Bigint.to_int den) with
    | Some n, Some d when fits n && d <= small_max -> S (n, d)
    | _ -> B (num, den)
  end

let make = make_big

let of_bigint n = make_big n Bigint.one

let of_int n = if fits n then S (n, 1) else of_bigint (Bigint.of_int n)

let of_ints a b =
  if fits a && fits b && b <> 0 then make_small a b
  else make_big (Bigint.of_int a) (Bigint.of_int b)

let zero = S (0, 1)
let one = S (1, 1)
let two = S (2, 1)
let minus_one = S (-1, 1)
let num = function S (n, _) -> Bigint.of_int n | B (n, _) -> n
let den = function S (_, d) -> Bigint.of_int d | B (_, d) -> d

let int_parts = function
  | S (n, d) -> Some (n, d)
  | B (n, d) -> (
      match (Bigint.to_int n, Bigint.to_int d) with
      | Some n, Some d -> Some (n, d)
      | _ -> None)

let sign = function
  | S (n, _) -> if n > 0 then 1 else if n < 0 then -1 else 0
  | B (n, _) -> Bigint.sign n
let is_zero = function S (n, _) -> n = 0 | B (_, _) -> false
let is_integer = function S (_, d) -> d = 1 | B (_, d) -> Bigint.is_one d
let is_small = function S _ -> true | B _ -> false

let neg = function
  | S (n, d) -> S (-n, d) (* |n| <= small_max, so -n is exact and fits *)
  | B (n, d) -> B (Bigint.neg n, d)

let abs = function
  | S (n, d) -> S ((if n < 0 then -n else n), d)
  | B (n, d) -> B (Bigint.abs n, d)

(* Promote to bignum parts for the mixed/escape paths. *)
let[@inline] parts = function
  | S (n, d) -> (Bigint.of_int n, Bigint.of_int d)
  | B (n, d) -> (n, d)

let add_big x y =
  let xn, xd = parts x and yn, yd = parts y in
  make_big (Bigint.add (Bigint.mul xn yd) (Bigint.mul yn xd)) (Bigint.mul xd yd)

let add x y =
  match (x, y) with
  | S (a, b), S (c, d) ->
      (* |a·d|, |c·b| < 2^60; the sum < 2^61: exact on 63-bit ints. *)
      make_small ((a * d) + (c * b)) (b * d)
  | _ -> add_big x y

let sub x y =
  match (x, y) with
  | S (a, b), S (c, d) -> make_small ((a * d) - (c * b)) (b * d)
  | _ -> add_big x (neg y)

let mul x y =
  match (x, y) with
  | S (a, b), S (c, d) ->
      (* Cross-reduce first so the products are the canonical parts
         whenever they fit: gcd(a/g1 · c/g2, b/g2 · d/g1) = 1. *)
      let g1 = gcd_int (Stdlib.abs a) d and g2 = gcd_int (Stdlib.abs c) b in
      let n = a / g1 * (c / g2) and dd = b / g2 * (d / g1) in
      if fits n && dd <= small_max then S (n, dd) else make_small n dd
  | _ ->
      let xn, xd = parts x and yn, yd = parts y in
      make_big (Bigint.mul xn yn) (Bigint.mul xd yd)

let inv = function
  | S (0, _) -> raise Division_by_zero
  | S (n, d) -> if n > 0 then S (d, n) else S (-d, -n)
  | B (n, d) -> make_big d n

let div x y =
  match (x, y) with
  | _, S (0, _) -> raise Division_by_zero
  | S _, S _ -> mul x (inv y)
  | _ ->
      let xn, xd = parts x and yn, yd = parts y in
      make_big (Bigint.mul xn yd) (Bigint.mul xd yn)

let mul_int x n =
  match x with
  | S (a, b) when fits n ->
      let g = gcd_int (Stdlib.abs n) b in
      let n' = a * (n / g) and d' = b / g in
      (* |a| <= 2^30-1 and |n/g| <= 2^30-1, so the product is exact. *)
      if fits n' then S (n', d') else make_small n' d'
  | _ ->
      let xn, xd = parts x in
      make_big (Bigint.mul_int xn n) xd

let compare x y =
  match (x, y) with
  | S (a, b), S (c, d) -> Int.compare (a * d) (c * b) (* both < 2^60: exact *)
  | _ ->
      let xn, xd = parts x and yn, yd = parts y in
      Bigint.compare (Bigint.mul xn yd) (Bigint.mul yn xd)

let equal x y =
  (* Canonical forms (S-iff-fits) make structural equality numeric. *)
  match (x, y) with
  | S (a, b), S (c, d) -> a = c && b = d
  | B (xn, xd), B (yn, yd) -> Bigint.equal xn yn && Bigint.equal xd yd
  | S _, B _ | B _, S _ -> false

let min x y = if compare x y <= 0 then x else y
let max x y = if compare x y >= 0 then x else y

(* OCaml's (/) truncates toward zero; adjust to floor for negatives. *)
let floor_int_small n d = if n >= 0 then n / d else -(((-n) + d - 1) / d)

let floor = function
  | S (n, d) -> Bigint.of_int (floor_int_small n d)
  | B (n, d) -> Bigint.div n d (* Euclidean division is floor for positive den *)

let ceil x = Bigint.neg (floor (neg x))

let floor_int = function
  | S (n, d) -> floor_int_small n d
  | B (n, d) -> Bigint.to_int_exn (Bigint.div n d)

let ceil_int = function
  | S (n, d) -> -floor_int_small (-n) d
  | x -> Bigint.to_int_exn (ceil x)

let to_float = function
  | S (n, d) -> float_of_int n /. float_of_int d
  | B (n, d) -> Bigint.to_float n /. Bigint.to_float d

let to_string = function
  | S (n, 1) -> string_of_int n
  | S (n, d) -> string_of_int n ^ "/" ^ string_of_int d
  | B (n, d) ->
      if Bigint.is_one d then Bigint.to_string n
      else Bigint.to_string n ^ "/" ^ Bigint.to_string d

let of_string s =
  match String.index_opt s '/' with
  | Some i ->
      let a = Bigint.of_string (String.sub s 0 i) in
      let b = Bigint.of_string (String.sub s (i + 1) (String.length s - i - 1)) in
      make a b
  | None -> (
      match String.index_opt s '.' with
      | None -> of_bigint (Bigint.of_string s)
      | Some i ->
          let int_part = String.sub s 0 i in
          let frac = String.sub s (i + 1) (String.length s - i - 1) in
          let scale = Bigint.pow Bigint.ten (String.length frac) in
          let whole = Bigint.of_string (if int_part = "" || int_part = "-" then int_part ^ "0" else int_part) in
          let fpart = make (Bigint.of_string ("0" ^ frac)) scale in
          let fpart = if String.length s > 0 && s.[0] = '-' then neg fpart else fpart in
          add (of_bigint whole) fpart)

let pp fmt x = Format.pp_print_string fmt (to_string x)

let check_invariant = function
  | S (n, d) ->
      d > 0 && fits n && d <= small_max
      && (n = 0 || gcd_int (Stdlib.abs n) d = 1)
      && (n <> 0 || d = 1)
  | B (n, d) ->
      Bigint.is_positive d
      && (not (Bigint.is_zero n))
      && Bigint.is_one (Bigint.gcd n d)
      && not
           (match (Bigint.to_int n, Bigint.to_int d) with
           | Some n, Some d -> fits n && d <= small_max
           | _ -> false)

module O = struct
  let ( + ) = add
  let ( - ) = sub
  let ( * ) = mul
  let ( / ) = div
  let ( ~- ) = neg
  let ( = ) = equal
  let ( <> ) x y = not (equal x y)
  let ( < ) x y = compare x y < 0
  let ( <= ) x y = compare x y <= 0
  let ( > ) x y = compare x y > 0
  let ( >= ) x y = compare x y >= 0
end

module Eps = struct
  type rat = t

  (* Aliases for the plain-rational operations shadowed below. *)
  let rzero = zero
  let rone = one
  let radd = add
  let rsub = sub
  let rneg = neg
  let rmul = mul
  let rcompare = compare
  let ris_zero = is_zero
  let rpp = pp

  type nonrec t = { std : t; eps : t }

  let zero = { std = rzero; eps = rzero }
  let one = { std = rone; eps = rzero }
  let epsilon = { std = rzero; eps = rone }
  let of_rat r = { std = r; eps = rzero }
  let make std eps = { std; eps }
  let add x y = { std = radd x.std y.std; eps = radd x.eps y.eps }
  let sub x y = { std = rsub x.std y.std; eps = rsub x.eps y.eps }
  let neg x = { std = rneg x.std; eps = rneg x.eps }
  let scale c x = { std = rmul c x.std; eps = rmul c x.eps }

  let compare x y =
    let c = rcompare x.std y.std in
    if c <> 0 then c else rcompare x.eps y.eps

  let equal x y = compare x y = 0
  let min x y = if compare x y <= 0 then x else y
  let max x y = if compare x y >= 0 then x else y
  let standardize_with e x = radd x.std (rmul e x.eps)

  let pp fmt x =
    if ris_zero x.eps then rpp fmt x.std
    else Format.fprintf fmt "%a + %a\xc2\xb7\xce\xb5" rpp x.std rpp x.eps
end
