(* Shared helpers for the test suites: thin wrappers over the library
   generators so suites stay uniform. *)

let random_execution = Execgraph.Generate.random_execution
let max_relevant_ratio g = Execgraph.Generate.max_relevant_ratio_enum g

(* [contains needle hay]: does [needle] occur in [hay]? *)
let contains needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

(* A random execution of any small shape: 1-5 processes and 0-29
   events, so the graphs with n = 0 and n = 1 come up too. *)
let any_execution rng =
  random_execution rng ~nprocs:(1 + Random.State.int rng 5)
    ~max_events:(Random.State.int rng 30)
    ~max_delay:(1 + Random.State.int rng 5)
    ~fanout:(1 + Random.State.int rng 3)

(* A hand-built execution graph whose ids do not follow time: events
   are created process by process, so a message from a later process
   to an earlier one runs from a higher to a lower event id.  Messages
   go forward in a hidden per-event time, which keeps the graph a
   DAG. *)
let hand_built rng =
  let open Execgraph in
  let nprocs = 1 + Random.State.int rng 3 in
  let g = Graph.create ~nprocs in
  let times = ref [] in
  for p = 0 to nprocs - 1 do
    let t = ref 0 in
    for _ = 1 to Random.State.int rng 5 do
      t := !t + 1 + Random.State.int rng 3;
      let ev = Graph.add_event g ~proc:p in
      times := (ev.Event.id, !t) :: !times
    done
  done;
  let times = Array.of_list (List.rev_map snd !times) in
  let n = Array.length times in
  if n > 1 then
    for _ = 1 to Random.State.int rng 9 do
      let u = Random.State.int rng n and v = Random.State.int rng n in
      if times.(u) < times.(v) then ignore (Graph.add_message g ~src:u ~dst:v)
    done;
  g

(* Ξ = a/b with 1 < Ξ, parts up to 12, plus the graph's exact
   threshold (inadmissible there) and a Ξ just above it, one whose
   parts sit at the 2^30 bound, and 2. *)
let xis rng g =
  let b = 1 + Random.State.int rng 6 in
  let a = b + 1 + Random.State.int rng (3 * b) in
  let near_one = Rat.of_ints (1 lsl 30) ((1 lsl 30) - 1) in
  let thresholds =
    match Core.Abc.max_relevant_ratio g with
    | Some r -> [ r; Rat.add r (Rat.of_ints 1 997) ]
    | None -> []
  in
  Rat.of_ints a b :: near_one :: Rat.of_ints 2 1 :: thresholds
