(** Domain-based worker pool.  See the interface for the scheduling and
    failure contract; the notes below cover what the types alone do not
    say.

    Tasks never submit tasks, so the whole family is known up front and
    one [Atomic] cursor over [0 … n) is the entire scheduler: a worker
    claims [chunk] indices with one [fetch_and_add] and exits once the
    cursor has passed [n].  The caller is worker 0, so a pool of [j]
    workers spawns [j - 1] domains and [jobs:1] spawns none.  Each
    task's outcome goes to its own slot, read only after every domain
    joined, so scanning the slots in index order finds the smallest
    failing index without any lock. *)

type stats = { st_wall : float; st_alloc_words : float }

(* Set on a domain for as long as it works for a map that spawned
   domains; such a map is what a nested one must not start again. *)
let inside_pool : bool Domain.DLS.key = Domain.DLS.new_key (fun () -> false)

let map_stats ?jobs ?(chunk = 1) n f =
  if n < 0 then invalid_arg "Pool.map: negative task count";
  let jobs =
    max 1 (match jobs with Some j -> j | None -> Domain.recommended_domain_count ())
  in
  if jobs > 1 && Domain.DLS.get inside_pool then
    invalid_arg "Pool.map: nested submission from inside a pool task";
  let chunk = max 1 (min chunk n) in
  let outcomes = Array.make n None in
  let stats = Array.make n { st_wall = 0.0; st_alloc_words = 0.0 } in
  let run_task i =
    if Obs.on () then Obs.span_begin "pool" "task" [ ("i", Obs.I i) ];
    let t0 = Mclock.now () in
    let a0 = Gc.minor_words () in
    let outcome =
      match f i with
      | v -> Ok v
      | exception e -> Error (e, Printexc.get_raw_backtrace ())
    in
    stats.(i) <-
      { st_wall = Mclock.now () -. t0; st_alloc_words = Gc.minor_words () -. a0 };
    outcomes.(i) <- Some outcome;
    if Obs.on () then Obs.span_end "pool" "task" [ ("i", Obs.I i) ]
  in
  let cursor = Atomic.make 0 in
  let rec drain () =
    let lo = Atomic.fetch_and_add cursor chunk in
    if lo < n then begin
      for i = lo to min n (lo + chunk) - 1 do
        run_task i
      done;
      drain ()
    end
  in
  if jobs = 1 then drain ()
  else begin
    let worker () =
      Domain.DLS.set inside_pool true;
      drain ()
    in
    let domains = List.init (jobs - 1) (fun _ -> Domain.spawn worker) in
    worker ();
    List.iter Domain.join domains;
    Domain.DLS.set inside_pool false
  end;
  let failures = ref [] in
  for i = n - 1 downto 0 do
    match outcomes.(i) with
    | Some (Error (e, bt)) -> failures := (i, e, bt) :: !failures
    | Some (Ok _) | None -> ()
  done;
  (match !failures with
  | (first, e, bt) :: rest ->
      (* log every failure beyond the re-raised one, so none vanishes *)
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
      Printexc.raise_with_backtrace e bt
  | [] -> ());
  ( Array.map (function Some (Ok v) -> v | Some (Error _) | None -> assert false) outcomes,
    stats )

let map ?jobs ?chunk n f = fst (map_stats ?jobs ?chunk n f)
