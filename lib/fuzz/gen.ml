(** Fuzz-case generation and execution.

    A {!case} is a fully serializable description of one adversarial
    simulation: process count, fault vector, synchrony parameter Ξ, a
    scheduler drawn from the full palette of {!Sim} (including the
    oracle-guided deferring adversary), a workload (which of the
    paper's algorithms runs), and an event budget.  Every random choice
    is derived from the single [c_seed], so a case replays bit-for-bit
    from its one-line serialization ({!Replay}).

    Campaigns hand each case a seed mixed splitmix64-style from the
    base seed and the case index ({!Campaign.case_seed}) — never a
    shared RNG stream — so a case is a pure function of
    [(campaign seed, index)] and can be generated on any pool worker
    in any order without changing what it is.

    The generator maintains the structural invariants the paper's
    theorems assume — [n ≥ 3f + 1], Ξ > 1, and for Θ schedulers
    [Ξ > τ+/τ−] so that Theorem 6 applies unconditionally. *)

open Core

let q = Rat.of_ints

(** Scheduler family, with every parameter needed to rebuild it. *)
type sched_spec =
  | S_theta of { tau_minus : Rat.t; tau_plus : Rat.t }
      (** Θ-Model: delays in [[τ−, τ+]]; Theorem 6 territory *)
  | S_async of { max_delay : Rat.t }  (** fully asynchronous, zero allowed *)
  | S_growing of {
      nclusters : int;
      intra_min : Rat.t;
      intra_max : Rat.t;
      inter_base : Rat.t;
      growth_rate : Rat.t;
    }  (** Fig. 9 spacecraft formation: unbounded inter-cluster delays *)
  | S_eventually_theta of {
      gst : Rat.t;
      chaos_max : Rat.t;
      tau_minus : Rat.t;
      tau_plus : Rat.t;
    }  (** §6 ◇-model: chaos before GST, Θ after *)
  | S_targeted of {
      tau_minus : Rat.t;
      tau_plus : Rat.t;
      victim_sender : int;
      victim_dst : int;
      stretch : Rat.t;
    }  (** Θ plus one stretched link (Fig. 1 / §5.2 isolated slow chain) *)
  | S_deferring of { victim_sender : int; victim_dst : int }
      (** the adaptive adversary of {!Sim.run_deferring}: defers the
          victim link to the exact ABC admissibility boundary *)

type workload =
  | W_clock  (** Algorithm 1: Byzantine clock synchronization *)
  | W_lockstep  (** Algorithm 2 over the no-op round algorithm *)
  | W_consensus  (** EIG Byzantine consensus over lock-step rounds *)

type case = {
  c_seed : int;  (** seeds the scheduler RNG and the consensus inputs *)
  c_nprocs : int;
  c_faults : Sim.fault array;
  c_xi : Rat.t;  (** the protocol-level Ξ (> 1; > τ+/τ− for Θ cases) *)
  c_sched : sched_spec;
  c_workload : workload;
  c_max_events : int;  (** receive-event budget (≥ nprocs) *)
  c_plan : Sim.fault_plan;  (** message-level fault actions, [] for none *)
  c_boundary : bool;
      (** resilience-boundary mode: the case deliberately sits at
          [n = 3f] with an equivocator, where the paper's guarantees
          are allowed — and expected — to break.  Positive theorem
          oracles skip such cases; the boundary oracles fail on them
          exactly when a violation is witnessed. *)
  c_schedule : int list;
      (** explicit delivery schedule ([] for none): choice [i] picks
          the index-[i]th entry of the ready list at step [i] (see
          {!Sim.run_scheduled}).  Produced by the model checker's
          counterexample emission; overrides the scheduler entirely. *)
}

let family_name = function
  | S_theta _ -> "theta"
  | S_async _ -> "async"
  | S_growing _ -> "growing"
  | S_eventually_theta _ -> "etheta"
  | S_targeted _ -> "targeted"
  | S_deferring _ -> "defer"

let workload_name = function
  | W_clock -> "clock"
  | W_lockstep -> "lockstep"
  | W_consensus -> "eig"

let nfaulty c =
  Array.fold_left (fun a f -> if f = Sim.Correct then a else a + 1) 0 c.c_faults

let correct_procs c =
  List.filter (fun p -> c.c_faults.(p) = Sim.Correct) (List.init c.c_nprocs Fun.id)

(* ------------------------------------------------------------------ *)
(* Validation: the invariants every case (generated or parsed from a
   repro line) must satisfy before it can run. *)

let has_equivocator c =
  Array.exists
    (fun fl ->
      match Byz.of_fault fl with
      | Some (Byz.Equivocator | Byz.Mimic _) -> true
      | _ -> false)
    c.c_faults

let validate c =
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let f = nfaulty c in
  let xi_range = Execgraph.Abc_check.xi_range_error c.c_xi in
  let strategies_known =
    Array.for_all
      (fun fl -> match fl with Sim.Byzantine _ -> Byz.of_fault fl <> None | _ -> true)
      c.c_faults
  in
  if c.c_nprocs < 2 then err "need at least 2 processes"
  else if Array.length c.c_faults <> c.c_nprocs then err "fault vector size mismatch"
  else if not strategies_known then err "unknown byzantine strategy"
  else if (not c.c_boundary) && c.c_nprocs < (3 * f) + 1 then
    err "need n >= 3f + 1 (n = %d, f = %d)" c.c_nprocs f
  else if c.c_boundary && (f < 1 || c.c_nprocs <> 3 * f) then
    err "boundary: need n = 3f with f >= 1 (n = %d, f = %d)" c.c_nprocs f
  else if c.c_boundary && not (has_equivocator c) then
    err "boundary: need an equivocating byzantine process"
  else if c.c_boundary && c.c_workload = W_lockstep then
    err "boundary: workload must be clock or eig"
  else if Rat.compare c.c_xi Rat.one <= 0 then err "need Xi > 1"
  else if Option.is_some xi_range then Error (Option.get xi_range)
  else if c.c_max_events < c.c_nprocs then err "event budget below nprocs"
  else if
    List.exists
      (fun (_, a) ->
        match a with Sim.P_misdirect d -> d < 0 || d >= c.c_nprocs | _ -> false)
      c.c_plan
  then err "plan: misdirect target out of range"
  else if List.exists (fun (i, _) -> i < 0) c.c_plan then err "plan: negative msg_index"
  else if List.exists (fun k -> k < 0) c.c_schedule then
    err "schedule: negative choice index"
  else if
    c.c_schedule <> []
    && match c.c_sched with S_deferring _ -> true | _ -> false
  then err "schedule: the deferring adversary picks its own delivery order"
  else
    let proc_ok p = p >= 0 && p < c.c_nprocs in
    let pos x = Rat.sign x > 0 in
    let nonneg x = Rat.sign x >= 0 in
    match c.c_sched with
    | S_theta { tau_minus; tau_plus } ->
        if not (pos tau_minus && Rat.compare tau_minus tau_plus <= 0) then
          err "theta: need 0 < tau- <= tau+"
        else if Rat.compare c.c_xi (Rat.div tau_plus tau_minus) <= 0 then
          err "theta: need Xi > tau+/tau- (Theorem 6)"
        else Ok c
    | S_async { max_delay } ->
        if nonneg max_delay then Ok c else err "async: negative max delay"
    | S_growing { nclusters; intra_min; intra_max; inter_base; growth_rate } ->
        if nclusters < 1 then err "growing: need >= 1 cluster"
        else if
          not
            (pos intra_min
            && Rat.compare intra_min intra_max <= 0
            && nonneg inter_base && nonneg growth_rate)
        then err "growing: bad delay parameters"
        else Ok c
    | S_eventually_theta { gst; chaos_max; tau_minus; tau_plus } ->
        if not (nonneg gst && nonneg chaos_max) then err "etheta: negative gst/chaos"
        else if not (pos tau_minus && Rat.compare tau_minus tau_plus <= 0) then
          err "etheta: need 0 < tau- <= tau+"
        else Ok c
    | S_targeted { tau_minus; tau_plus; victim_sender; victim_dst; stretch } ->
        if not (pos tau_minus && Rat.compare tau_minus tau_plus <= 0) then
          err "targeted: need 0 < tau- <= tau+"
        else if not (proc_ok victim_sender && proc_ok victim_dst) then
          err "targeted: victim out of range"
        else if not (pos stretch) then err "targeted: need stretch > 0"
        else Ok c
    | S_deferring { victim_sender; victim_dst } ->
        if not (proc_ok victim_sender && proc_ok victim_dst) then
          err "defer: victim out of range"
        else if c.c_workload = W_consensus then
          err "defer: not paired with the eig workload (cost)"
        else Ok c

(* ------------------------------------------------------------------ *)
(* Generation *)

let generate ~seed =
  let st = Random.State.make [| 0xF0552; seed |] in
  let pick arr = arr.(Random.State.int st (Array.length arr)) in
  let sched_kind = Random.State.int st 6 in
  let workload =
    (* the deferring adversary re-checks admissibility per delivery
       (quadratic), so it never carries the heavy consensus workload *)
    if sched_kind = 5 then pick [| W_clock; W_clock; W_lockstep |]
    else pick [| W_clock; W_clock; W_clock; W_lockstep; W_lockstep; W_consensus |]
  in
  let nprocs, fmax =
    match workload with
    | W_consensus -> (4 + Random.State.int st 2, 1)
    | W_clock | W_lockstep ->
        let n = 4 + Random.State.int st 5 in
        (n, min 2 ((n - 1) / 3))
  in
  let f = Random.State.int st (fmax + 1) in
  let faults = Array.make nprocs Sim.Correct in
  let byz_palette = Array.of_list Byz.palette in
  for i = 0 to f - 1 do
    faults.(nprocs - 1 - i) <-
      (match Random.State.int st 8 with
      | 0 | 1 | 2 -> Byz.fault (pick byz_palette)
      | 3 | 4 -> Sim.Crash (Random.State.int st 9)
      | 5 -> Sim.Send_omission (Random.State.int st 6)
      | 6 -> Sim.Receive_omission (1 + Random.State.int st 4)
      | _ -> Sim.Recover (Random.State.int st 6, 1 + Random.State.int st 6))
  done;
  let margin = pick [| q 1 4; q 1 2; q 1 1 |] in
  let xi_palette () = Rat.add (pick [| q 3 2; q 2 1; q 5 2; q 3 1 |]) margin in
  let victim () =
    let s = Random.State.int st nprocs in
    (s, (s + 1 + Random.State.int st (nprocs - 1)) mod nprocs)
  in
  let sched, xi =
    match sched_kind with
    | 0 ->
        let tau_minus = pick [| q 1 2; q 1 1; q 2 1 |] in
        let ratio = pick [| q 3 2; q 2 1; q 3 1 |] in
        ( S_theta { tau_minus; tau_plus = Rat.mul tau_minus ratio },
          Rat.add ratio margin )
    | 1 -> (S_async { max_delay = pick [| q 3 1; q 8 1; q 20 1 |] }, xi_palette ())
    | 2 ->
        ( S_growing
            {
              nclusters = 2 + Random.State.int st 2;
              intra_min = q 1 1;
              intra_max = q 2 1;
              inter_base = pick [| q 3 1; q 5 1 |];
              growth_rate = pick [| q 1 2; q 2 1 |];
            },
          xi_palette () )
    | 3 ->
        ( S_eventually_theta
            {
              gst = pick [| Rat.zero; q 5 1; q 15 1 |];
              chaos_max = pick [| q 10 1; q 40 1 |];
              tau_minus = q 1 1;
              tau_plus = q 2 1;
            },
          xi_palette () )
    | 4 ->
        let victim_sender, victim_dst = victim () in
        ( S_targeted
            {
              tau_minus = q 1 1;
              tau_plus = q 2 1;
              victim_sender;
              victim_dst;
              stretch = pick [| q 5 1; q 12 1; q 25 1 |];
            },
          xi_palette () )
    | _ ->
        let victim_sender, victim_dst = victim () in
        (S_deferring { victim_sender; victim_dst }, xi_palette ())
  in
  let deferring = match sched with S_deferring _ -> true | _ -> false in
  let max_events =
    match workload with
    | W_clock -> (
        if deferring then 70 + Random.State.int st 30
        else
          match sched with
          | S_theta _ ->
              (* Theorems 2-4 and Lemma 4 are checked in full on Θ
                 executions, so scale the budget with ϱ = ⌈4Ξ+1⌉: a
                 clock increment costs ≈ n² events, and Theorem 4 only
                 bites once some process performs ϱ of them. *)
              let rho =
                Rat.ceil_int (Rat.add (Rat.mul (Rat.of_int 4) xi) Rat.one)
              in
              (nprocs * nprocs * (rho + 2)) + Random.State.int st 80
          | _ -> 120 + (12 * nprocs) + Random.State.int st 80)
    | W_lockstep ->
        if deferring then 90 + Random.State.int st 40
        else 300 + Random.State.int st 250
    | W_consensus -> 2500 + (700 * f)
  in
  let plan =
    (* a quarter of the cases carry a message-level fault plan; the
       indices target the early message range every workload posts *)
    if Random.State.int st 4 > 0 then []
    else
      let actions = 1 + Random.State.int st 3 in
      let used = ref [] in
      List.filter_map
        (fun _ ->
          let idx = Random.State.int st 60 in
          if List.mem idx !used then None
          else begin
            used := idx :: !used;
            let a =
              match Random.State.int st 4 with
              | 0 -> Sim.P_drop
              | 1 -> Sim.P_duplicate (q (1 + Random.State.int st 4) 2)
              | 2 -> Sim.P_misdirect (Random.State.int st nprocs)
              | _ -> Sim.P_delay (q (1 + Random.State.int st 10) 2)
            in
            Some (idx, a)
          end)
        (List.init actions Fun.id)
  in
  let case =
    {
      c_seed = 1 + Random.State.int st 0x3FFFFFFF;
      c_nprocs = nprocs;
      c_faults = faults;
      c_xi = xi;
      c_sched = sched;
      c_workload = workload;
      c_max_events = max_events;
      c_plan = plan;
      c_boundary = false;
      c_schedule = [];
    }
  in
  match validate case with
  | Ok c -> c
  | Error e ->
      (* the generator keeps every invariant by construction *)
      invalid_arg (Printf.sprintf "Fuzz.Gen.generate: internal invariant: %s" e)

(** Resilience-boundary generator: cases at exactly [n = 3f] with an
    equivocator, where Theorem 2 precision (clock workload, deferring
    adversary starving one correct process while the equivocator pumps
    the other) and EIG agreement (consensus workload with forged
    per-destination relays) are expected to break.  Used by boundary
    campaigns; {!validate} accepts these cases only with
    [c_boundary = true]. *)
let generate_boundary ~seed =
  let st = Random.State.make [| 0xB0DE; seed |] in
  let pick arr = arr.(Random.State.int st (Array.length arr)) in
  let case =
    if Random.State.bool st then
      (* Thm 2 precision witness: defer the pumped process's ticks to
         the starved one, at the exact admissibility boundary *)
      let victim_sender, victim_dst = (0, 1) in
      {
        c_seed = 1 + Random.State.int st 0x3FFFFFFF;
        c_nprocs = 3;
        c_faults = [| Sim.Correct; Sim.Correct; Byz.fault Byz.Equivocator |];
        c_xi = pick [| q 3 2; q 2 1; q 5 2 |];
        c_sched = S_deferring { victim_sender; victim_dst };
        c_workload = W_clock;
        c_max_events = 90 + Random.State.int st 40;
        c_plan = [];
        c_boundary = true;
        c_schedule = [];
      }
    else
      (* EIG agreement witness: correct inputs forced to (0, 1) — the
         per-destination-parity forgery needs diverging inputs *)
      let raw = 1 + Random.State.int st 0x3FFFFFFF in
      {
        c_seed = (raw land lnot 3) lor 2;
        c_nprocs = 3;
        c_faults = [| Sim.Correct; Sim.Correct; Byz.fault Byz.Equivocator |];
        c_xi = q 5 2;
        c_sched = S_theta { tau_minus = q 1 1; tau_plus = q 2 1 };
        c_workload = W_consensus;
        c_max_events = 500;
        c_plan = [];
        c_boundary = true;
        c_schedule = [];
      }
  in
  match validate case with
  | Ok c -> c
  | Error e ->
      invalid_arg (Printf.sprintf "Fuzz.Gen.generate_boundary: internal invariant: %s" e)

(* ------------------------------------------------------------------ *)
(* Execution *)

(** Result of running a case, tagged by workload (the three workloads
    have different state types). *)
type run =
  | R_clock of (Clock_sync.state, Clock_sync.msg) Sim.result
  | R_lockstep of ((unit, unit) Lockstep.state, unit Lockstep.msg) Sim.result
  | R_consensus of
      ( (Consensus.Eig.state, Consensus.Eig.msg) Lockstep.state,
        Consensus.Eig.msg Lockstep.msg )
      Sim.result
      * int array  (** the per-process input values *)

let graph_of_run = function
  | R_clock r -> r.Sim.graph
  | R_lockstep r -> r.Sim.graph
  | R_consensus (r, _) -> r.Sim.graph

let delivered_of_run = function
  | R_clock r -> r.Sim.delivered
  | R_lockstep r -> r.Sim.delivered
  | R_consensus (r, _) -> r.Sim.delivered

(* A scheduler for the case's spec.  Polymorphic in the payload (all
   palette schedulers ignore it); for the deferring adversary the
   returned scheduler is a placeholder — [run_deferring] ignores it. *)
let scheduler_of_spec ~rng spec =
  match spec with
  | S_theta { tau_minus; tau_plus } -> Sim.theta_scheduler ~rng ~tau_minus ~tau_plus ()
  | S_async { max_delay } -> Sim.async_scheduler ~rng ~max_delay ()
  | S_growing { nclusters; intra_min; intra_max; inter_base; growth_rate } ->
      Sim.growing_scheduler ~rng
        ~cluster_of:(fun p -> p mod nclusters)
        ~intra_min ~intra_max ~inter_base ~growth_rate ()
  | S_eventually_theta { gst; chaos_max; tau_minus; tau_plus } ->
      Sim.eventually_theta_scheduler ~rng ~gst ~chaos_max ~tau_minus ~tau_plus ()
  | S_targeted { tau_minus; tau_plus; victim_sender; victim_dst; stretch } ->
      Sim.targeted_scheduler ~rng ~tau_minus ~tau_plus
        ~victim:(fun ~sender ~dst ~msg_index:_ ->
          sender = victim_sender && dst = victim_dst)
        ~stretched:(fun ~send_time:_ -> stretch)
        ()
  | S_deferring _ -> Sim.constant_scheduler Rat.one

(** Input value of process [p] in a consensus case: a deterministic
    function of the case seed, so it needs no extra serialization. *)
let consensus_input c p = (c.c_seed lsr (p mod 24)) land 1

(** The byzantine strategy of process [p] in a case ({!Byz.Silent} for
    non-byzantine processes; validation guarantees every byzantine name
    parses). *)
let strategy_of c p =
  Option.value (Byz.of_fault c.c_faults.(p)) ~default:Byz.Silent

(* Workload dispatch in CPS: the three workloads have three different
   (state, message) type pairs, so a caller that wants the config
   (rather than just the finished run) gets it through a polymorphic
   handler.  [run_case] and [open_session] share every construction
   detail (byzantine tables, stop conditions, scheduler) through this
   single point. *)
type 'r cfg_handler = {
  h : 's 'm. ('s, 'm) Sim.config -> (('s, 'm) Sim.result -> run) -> 'r;
}

let dispatch (c : case) (handler : 'r cfg_handler) : 'r =
  let n = c.c_nprocs in
  let f = nfaulty c in
  let rng = Random.State.make [| 0xD1CE; c.c_seed |] in
  match c.c_workload with
  | W_clock ->
      let cfg =
        Sim.make_config
          ~byzantine:(fun p -> Byz.clock ~f (strategy_of c p))
          ~plan:c.c_plan ~nprocs:n
          ~algorithm:(Clock_sync.algorithm ~f)
          ~faults:c.c_faults
          ~scheduler:(scheduler_of_spec ~rng c.c_sched)
          ~max_events:c.c_max_events ()
      in
      handler.h cfg (fun r -> R_clock r)
  | W_lockstep ->
      let cfg =
        Sim.make_config
          ~byzantine:(fun p ->
            Byz.lockstep (strategy_of c p) ~f ~xi:c.c_xi
              ~inner:Lockstep.noop_round_algo
              ~forge:(fun ~self:_ ~round:_ ~dst:_ -> ()))
          ~plan:c.c_plan ~nprocs:n
          ~algorithm:(Lockstep.algorithm ~f ~xi:c.c_xi Lockstep.noop_round_algo)
          ~faults:c.c_faults
          ~scheduler:(scheduler_of_spec ~rng c.c_sched)
          ~max_events:c.c_max_events ()
      in
      handler.h cfg (fun r -> R_lockstep r)
  | W_consensus ->
      let inputs = Array.init n (consensus_input c) in
      let algo = Consensus.Eig.algo ~f ~value:(fun p -> inputs.(p)) in
      let correct = correct_procs c in
      let cfg =
        Sim.make_config
          ~byzantine:(fun p ->
            Byz.lockstep (strategy_of c p) ~f ~xi:c.c_xi
              ~inner:(Consensus.Eig.algo ~f ~value:(fun _ -> 0))
              ~forge:(Byz.eig_forge ~nprocs:n))
          ~plan:c.c_plan ~nprocs:n
          ~algorithm:(Lockstep.algorithm ~f ~xi:c.c_xi algo)
          ~faults:c.c_faults
          ~scheduler:(scheduler_of_spec ~rng c.c_sched)
          ~max_events:c.c_max_events
          ~stop_when:(fun states ->
            List.for_all
              (fun p ->
                Consensus.Eig.decision (Lockstep.round_state states.(p)) <> None)
              correct)
          ()
      in
      handler.h cfg (fun r -> R_consensus (r, inputs))

let validated ~who (c : case) =
  match validate c with Ok _ -> () | Error e -> invalid_arg (who ^ ": " ^ e)

let victim_of ~victim_sender ~victim_dst ~sender ~dst =
  sender = victim_sender && dst = victim_dst

let run_case (c : case) : run =
  validated ~who:"Fuzz.Gen.run_case" c;
  dispatch c
    {
      h =
        (fun cfg wrap ->
          if c.c_schedule <> [] then
            wrap (Sim.run_scheduled cfg ~choices:(Array.of_list c.c_schedule))
          else
            match c.c_sched with
            | S_deferring { victim_sender; victim_dst } ->
                wrap
                  (Sim.run_deferring cfg ~xi:c.c_xi
                     ~victim:(victim_of ~victim_sender ~victim_dst))
            | _ -> wrap (Sim.run cfg));
    }

(** [run_case] on a scheduler-driven case, recorded ({!Sim.run_recorded},
    {!Sim.run_deferring_recorded}) so that the same case with a smaller
    budget is answered by cutting this run, not by running it again.
    The cut validates the smaller case first, as [run_case] would. *)
let run_case_recorded (c : case) : run * (int -> run) =
  validated ~who:"Fuzz.Gen.run_case" c;
  if c.c_schedule <> [] then
    invalid_arg "Fuzz.Gen.run_case_recorded: the case carries a schedule";
  dispatch c
    {
      h =
        (fun cfg wrap ->
          let r, cut =
            match c.c_sched with
            | S_deferring { victim_sender; victim_dst } ->
                Sim.run_deferring_recorded cfg ~xi:c.c_xi
                  ~victim:(victim_of ~victim_sender ~victim_dst)
            | _ -> Sim.run_recorded cfg
          in
          ( wrap r,
            fun k ->
              validated ~who:"Fuzz.Gen.run_case" { c with c_max_events = k };
              wrap (cut k) ));
    }

(* ------------------------------------------------------------------ *)
(* Choice-point sessions over cases (the model checker's entry) *)

(** A case opened as an interactive {!Sim.Session}, with the workload's
    state/message types hidden: the model checker picks deliveries one
    by one and wraps the terminal execution as a {!run} for the oracle
    battery.  [ms_run] packages the execution explored {e so far}; call
    it once, at a maximal point. *)
type mc_session = {
  ms_ready : unit -> Sim.Session.info list;
  ms_iter_ready : (env:int -> dst:int -> posted_at:int -> unit) -> unit;
  ms_deliver : int -> Sim.Session.info;
  ms_finished : unit -> bool;
  ms_delivered : unit -> int;
  ms_envelopes : unit -> int;
  ms_undo : unit -> unit;
  ms_run : unit -> run;
}

let open_session ?(record = false) (c : case) : mc_session =
  validated ~who:"Fuzz.Gen.open_session" c;
  dispatch c
    {
      h =
        (fun cfg wrap ->
          let s = Sim.Session.create ~record cfg in
          {
            ms_ready = (fun () -> Sim.Session.ready s);
            ms_iter_ready = (fun f -> Sim.Session.iter_ready s f);
            ms_deliver = (fun k -> Sim.Session.deliver s k);
            ms_finished = (fun () -> Sim.Session.finished s);
            ms_delivered = (fun () -> Sim.Session.delivered s);
            ms_envelopes = (fun () -> Sim.Session.envelopes s);
            ms_undo = (fun () -> Sim.Session.undo s);
            ms_run =
              (fun () ->
                wrap (Sim.Session.result ~allow_unwoken:true ~who:"Fuzz.Gen.open_session" s));
          });
    }
