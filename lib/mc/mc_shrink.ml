(** Schedule shrinking: greedily minimize a violating schedule while
    the named oracle keeps failing.

    Candidate moves, tried in order of aggressiveness: truncate the
    schedule to a prefix (half, then all-but-one), delete a single
    choice, and replace a choice by [0] (FIFO).  The empty schedule is
    never a candidate — [c_schedule = []] means "no schedule" and would
    hand the run back to the case's own scheduler.  Each accepted move
    strictly decreases (length, sum of choices) lexicographically, so
    the loop terminates; [max_evals] bounds the re-simulation work on
    stubborn cases.  The result counts accepted moves and candidate
    runs as {!Fuzz.Shrink.shrink}'s does.

    A schedule shrink traces nothing: every candidate runs muted
    through {!Fuzz.Sched_walk.evaluate}, with or without the walker. *)

let rec take n = function
  | [] -> []
  | x :: rest -> if n <= 0 then [] else x :: take (n - 1) rest

let remove i l = List.filteri (fun j _ -> j <> i) l

let set i v l = List.mapi (fun j x -> if j = i then v else x) l

let still_fails walker ~oracles ~oracle case =
  List.exists
    (fun (n, o) ->
      n = oracle
      && match o with Fuzz.Oracle.Fail _ -> true | Pass | Skip _ -> false)
    (Fuzz.Sched_walk.evaluate walker ~oracles case)

let shrink ?(max_evals = 200) ?(session_reuse = true) ~oracles ~oracle
    (case : Fuzz.Gen.case) : Fuzz.Shrink.result =
  (* only [oracle]'s verdict decides a move (see Fuzz.Shrink.shrink) *)
  let oracles = Fuzz.Oracle.only oracle oracles in
  (* every move below is schedule-only, so one walker serves the whole
     descent: undo to the divergence point, re-deliver the suffix *)
  let walker = if session_reuse then Some (Fuzz.Sched_walk.create case) else None in
  let evals = ref 0 in
  let ok c =
    !evals < max_evals
    && begin
         incr evals;
         still_fails walker ~oracles ~oracle c
       end
  in
  let rec improve (case : Fuzz.Gen.case) steps =
    let sch = case.Fuzz.Gen.c_schedule in
    let n = List.length sch in
    let with_s s = { case with Fuzz.Gen.c_schedule = s } in
    let truncations =
      List.filter_map
        (fun k -> if k >= 1 && k < n then Some (with_s (take k sch)) else None)
        [ n / 2; n - 1 ]
    in
    let deletions =
      if n >= 2 then List.init n (fun i -> with_s (remove i sch)) else []
    in
    let zeroings =
      List.concat
        (List.mapi
           (fun i c -> if c > 0 then [ with_s (set i 0 sch) ] else [])
           sch)
    in
    match List.find_opt ok (truncations @ deletions @ zeroings) with
    | Some better -> improve better (steps + 1)
    | None -> { Fuzz.Shrink.shrunk = case; steps; evaluations = !evals }
  in
  if case.Fuzz.Gen.c_schedule = [] then
    { Fuzz.Shrink.shrunk = case; steps = 0; evaluations = 0 }
  else improve case 0
