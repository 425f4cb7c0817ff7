(** Worker-endpoint registry: provisioning state for a fleet of
    remote workers.

    The registry owns everything about {e where} workers live and
    {e how healthy} they are; it knows nothing about the frame
    protocol or the work being sharded.  Each endpoint walks a small
    health machine:

    {v
      Connecting --connected--> Ready --error--> Suspect
          ^                                        |
          |        backoff expired, budget left    |
          +----------------------------------------+
                                 budget exhausted --> Dead
    v}

    - {e Connecting}: a dial may be in flight, or is due once
      [ep_not_before] passes.
    - {e Ready}: a live connection is serving frames.
    - {e Suspect}: the last connection died (refused, EOF, corrupt
      stream, heartbeat kill); a reconnect is scheduled after the
      {!Backoff} delay keyed on (endpoint, attempt) — fully
      deterministic per history.
    - {e Dead}: the reconnect budget is spent; the endpoint's leased
      unit (if any) has been re-leased and it will never be dialed
      again this run.

    Leases tie unit ids to endpoints so that an endpoint death can
    hand exactly its in-flight unit back ({!release}); the merge
    consumes units in unit order regardless, so lease history never
    shows in the report — only in the Obs trace.

    Dealing is {e capacity-weighted}: {!deal_order} ranks ready
    endpoints by declared weight (descending, then endpoint id), so
    a box advertised as [host:port*4] is offered work before a
    [*1] peer whenever both are idle.  Weights shape wall-clock
    only, never output. *)

type health = Connecting | Ready | Suspect | Dead

type endpoint = {
  ep_id : int;
  ep_addr : Transport.addr;
  ep_weight : int;
  mutable ep_health : health;
  mutable ep_attempts : int;  (** connect attempts so far *)
  mutable ep_not_before : float;  (** backoff gate, {!Mclock.now} scale *)
  mutable ep_budget : int;  (** remaining dial attempts *)
  mutable ep_lease : int;  (** leased unit id, [-1] = none *)
}

type t = { eps : endpoint array }

let obs name (e : endpoint) extra =
  if Obs.on () then
    Obs.instant "net" name
      (( "ep", Obs.I e.ep_id )
       :: ("addr", Obs.S (Transport.addr_to_string e.ep_addr))
       :: extra)

let default_budget = 8

let make ?(budget = default_budget) (addrs : (Transport.addr * int) list) : t =
  {
    eps =
      Array.of_list
        (List.mapi
           (fun i (addr, weight) ->
             {
               ep_id = i;
               ep_addr = addr;
               ep_weight = max 1 weight;
               ep_health = Connecting;
               ep_attempts = 0;
               ep_not_before = 0.0;
               ep_budget = max 1 budget;
               ep_lease = -1;
             })
           addrs);
  }

(** Parse a [--workers] list: comma-separated addresses, each with an
    optional [*WEIGHT] capacity suffix ([10.0.0.2:7001*4]). *)
let parse_workers (s : string) : ((Transport.addr * int) list, string) result =
  let items =
    String.split_on_char ',' s |> List.map String.trim
    |> List.filter (fun x -> x <> "")
  in
  if items = [] then Error "--workers: empty endpoint list"
  else
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | item :: rest -> (
          let addr_s, weight =
            match String.rindex_opt item '*' with
            | Some i -> (
                let w = String.sub item (i + 1) (String.length item - i - 1) in
                match int_of_string_opt w with
                | Some w when w >= 1 -> (String.sub item 0 i, w)
                | _ -> (item, 1) (* not a weight suffix; let the parse fail *))
            | None -> (item, 1)
          in
          match Transport.addr_of_string addr_s with
          | Ok a -> go ((a, weight) :: acc) rest
          | Error e -> Error e)
    in
    go [] items

let get (t : t) i = t.eps.(i)

(** Any endpoint that might still serve (not Dead)? *)
let alive (t : t) = Array.exists (fun e -> e.ep_health <> Dead) t.eps

(** Endpoints due for a dial: Connecting or Suspect, past their
    backoff gate, with budget left.  In id order. *)
let due (t : t) ~now : endpoint list =
  Array.to_list t.eps
  |> List.filter (fun e ->
         (match e.ep_health with Connecting | Suspect -> true | Ready | Dead -> false)
         && e.ep_not_before <= now && e.ep_budget > 0)

(** Note a dial attempt starting (burns budget, counts the attempt). *)
let dialing (e : endpoint) =
  e.ep_attempts <- e.ep_attempts + 1;
  e.ep_budget <- e.ep_budget - 1

let mark_ready (e : endpoint) =
  e.ep_health <- Ready;
  obs "ep-ready" e []

(** The endpoint's connection failed or died.  Returns the unit id it
    was leasing ([-1] if idle) — the caller re-queues it (re-lease).
    Schedules the next dial with jittered backoff, or transitions to
    Dead when the budget is gone. *)
let mark_lost (e : endpoint) ~why : int =
  let lease = e.ep_lease in
  e.ep_lease <- -1;
  if e.ep_budget <= 0 then begin
    e.ep_health <- Dead;
    obs "ep-dead" e [ ("why", Obs.S why) ]
  end
  else begin
    e.ep_health <- Suspect;
    e.ep_not_before <-
      Mclock.now () +. Backoff.delay ~key:e.ep_id ~attempt:e.ep_attempts;
    obs "ep-suspect" e [ ("why", Obs.S why) ]
  end;
  lease

let lease (e : endpoint) ~unit_id =
  e.ep_lease <- unit_id;
  obs "lease" e [ ("unit", Obs.I unit_id) ]

let unlease (e : endpoint) = e.ep_lease <- -1

(** Ready endpoints in dealing order: weight descending, then id —
    a deterministic order, and one that offers work to the biggest
    boxes first. *)
let deal_order (t : t) : endpoint list =
  Array.to_list t.eps
  |> List.filter (fun e -> e.ep_health = Ready)
  |> List.stable_sort (fun a b ->
         match compare b.ep_weight a.ep_weight with
         | 0 -> compare a.ep_id b.ep_id
         | c -> c)
