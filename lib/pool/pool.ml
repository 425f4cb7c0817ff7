(** Domain-based work-stealing worker pool.  See the interface for the
    scheduling and failure contract; the implementation notes below
    cover what the types alone do not say.

    Each worker owns a {e bounded} deque of chunks: capacity is fixed
    at submission time (all chunks are dealt up-front and tasks never
    submit tasks), so the deque is a plain array with two cursors
    under a per-deque mutex.  The owner takes from the front — which
    makes the [jobs:1] schedule exactly the serial [0 … n-1] order —
    and thieves take from the back, so stolen work is the work the
    owner would reach last.  Contention is one uncontended lock per
    chunk in the common case; with per-task costs in the multiple
    milliseconds (a fuzz case simulates hundreds of events) the lock
    is invisible next to the work.

    The caller participates as worker 0, so [jobs:1] spawns no domain
    at all and a pool of [j] workers spawns [j - 1] domains. *)

let recommended_jobs () = Domain.recommended_domain_count ()
let now () = Mclock.now ()

type stats = { st_wall : float; st_alloc_words : float }

(* Rejecting nested submission needs to know "am I inside a pool
   task?" per domain; worker domains set the flag for their lifetime,
   and worker 0 (the caller) sets it around its own draining so the
   serial path rejects exactly what the parallel path rejects. *)
let inside_pool : bool Domain.DLS.key = Domain.DLS.new_key (fun () -> false)

(* A chunk of task indices [lo, hi). *)
type chunk = { lo : int; hi : int }

type deque = {
  slots : chunk array;  (* capacity fixed at submission: bounded *)
  mutable front : int;  (* next owner take *)
  mutable back : int;   (* one past the last live chunk *)
  lock : Mutex.t;
}

let take_front d =
  Mutex.lock d.lock;
  let c = if d.front < d.back then Some d.slots.(d.front) else None in
  if c <> None then d.front <- d.front + 1;
  Mutex.unlock d.lock;
  c

let take_back d =
  Mutex.lock d.lock;
  let c = if d.front < d.back then Some d.slots.(d.back - 1) else None in
  if c <> None then d.back <- d.back - 1;
  Mutex.unlock d.lock;
  c

(* Core runner shared by every public entry point: executes the whole
   task family and reports per-index outcomes without deciding a
   failure policy.  Every task runs, so no [results.(i)] is left
   [None]. *)
let run_all ?jobs ?chunk n f =
  if n < 0 then invalid_arg "Pool.map: negative task count";
  if Domain.DLS.get inside_pool then
    invalid_arg "Pool.map: nested submission from inside a pool task";
  let jobs = max 1 (match jobs with Some j -> j | None -> recommended_jobs ()) in
  let chunk =
    max 1 (match chunk with Some c -> c | None -> n / (jobs * 8))
  in
  let results = Array.make n None in
  let wall = Array.make n 0.0 in
  let alloc = Array.make n 0.0 in
  let errors = ref [] (* (index, exn, backtrace), any order *) in
  let err_lock = Mutex.create () in
  let run_task i =
    if Obs.on () then Obs.span_begin "pool" "task" [ ("i", Obs.I i) ];
    let t0 = now () in
    let a0 = Gc.minor_words () in
    (match f i with
    | v -> results.(i) <- Some (Ok v)
    | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        results.(i) <- Some (Error (e, bt));
        Mutex.lock err_lock;
        errors := (i, e, bt) :: !errors;
        Mutex.unlock err_lock);
    wall.(i) <- now () -. t0;
    alloc.(i) <- Gc.minor_words () -. a0;
    if Obs.on () then Obs.span_end "pool" "task" [ ("i", Obs.I i) ]
  in
  (* Deal chunks round-robin onto the worker deques. *)
  let nchunks = (n + chunk - 1) / chunk in
  let deques =
    Array.init jobs (fun w ->
        let cap = (nchunks / jobs) + if w < nchunks mod jobs then 1 else 0 in
        {
          slots = Array.make cap { lo = 0; hi = 0 };
          front = 0;
          back = cap;
          lock = Mutex.create ();
        })
  in
  for k = 0 to nchunks - 1 do
    let lo = k * chunk in
    deques.(k mod jobs).slots.(k / jobs) <- { lo; hi = min n (lo + chunk) }
  done;
  let worker w () =
    Domain.DLS.set inside_pool true;
    let rec grab k =
      (* own deque first (front), then steal from siblings (back) *)
      if k >= jobs then None
      else
        let d = deques.((w + k) mod jobs) in
        match if k = 0 then take_front d else take_back d with
        | Some _ as c ->
            (* k > 0 means the chunk came off a sibling's deque: a steal.
               Ambient by design — which worker steals what is a
               scheduling accident, so it must stay out of the digest. *)
            if k > 0 && Obs.on () then
              Obs.instant "pool" "steal"
                [ ("thief", Obs.I w); ("victim", Obs.I ((w + k) mod jobs)) ];
            c
        | None -> grab (k + 1)
    in
    let rec loop () =
      match grab 0 with
      | None -> ()
      | Some { lo; hi } ->
          for i = lo to hi - 1 do
            run_task i
          done;
          loop ()
    in
    loop ();
    Domain.DLS.set inside_pool false
  in
  let domains = List.init (jobs - 1) (fun k -> Domain.spawn (worker (k + 1))) in
  worker 0 ();
  List.iter Domain.join domains;
  let sorted_errors =
    List.sort (fun (i, _, _) (j, _, _) -> compare i j) !errors
  in
  (results, sorted_errors, wall, alloc)

let stats_of wall alloc n =
  Array.init n (fun i -> { st_wall = wall.(i); st_alloc_words = alloc.(i) })

let map_stats ?jobs ?chunk n f =
  let results, errors, wall, alloc = run_all ?jobs ?chunk n f in
  (match errors with
  | (first, e, bt) :: rest ->
      (* Every failure beyond the re-raised one used to vanish; log
         them (ambient — error arrival order is a scheduling accident)
         so a supervisor watching the trace sees the full picture. *)
      if Obs.on () then
        List.iter
          (fun (i, e, _) ->
            Obs.instant "pool" "secondary-error"
              [
                ("i", Obs.I i);
                ("first", Obs.I first);
                ("exn", Obs.S (Printexc.to_string e));
              ])
          rest;
      (* deterministic choice: the smallest failing index wins *)
      Printexc.raise_with_backtrace e bt
  | [] -> ());
  (* every task ran and none raised *)
  ( Array.map (function Some (Ok v) -> v | Some (Error _) | None -> assert false) results,
    stats_of wall alloc n )

let map ?jobs ?chunk n f = fst (map_stats ?jobs ?chunk n f)

let map_all_errors ?jobs ?chunk n f =
  let results, _errors, _wall, _alloc = run_all ?jobs ?chunk n f in
  Array.map
    (function Some (Ok v) -> Ok v | Some (Error (e, _)) -> Error e | None -> assert false)
    results
