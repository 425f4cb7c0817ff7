(** Deterministic jittered exponential backoff, shared by unit retries,
    endpoint redials and worker redials.

    The delay before [attempt] (1-based) is 0.05 s doubled per earlier
    attempt, capped at 2 s, then scaled by a jitter in [±25 %) drawn
    from a splitmix64 finalizer of ([key], [attempt]): retries of one
    key spread out, identically on every run of the same history, so a
    nemesis matrix replays exactly. *)

let delay ~key ~attempt =
  let frac =
    let open Int64 in
    let z = add (of_int ((key * 1_000_003) + attempt)) 0x9E3779B97F4A7C15L in
    let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
    let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
    let z = logxor z (shift_right_logical z 31) in
    to_float (logand z 0xFFFFFFL) /. 16_777_216.0
  in
  Float.min 2.0 (0.05 *. (2.0 ** float_of_int (max 0 (attempt - 1))))
  *. (1.0 +. ((frac -. 0.5) /. 2.0))
