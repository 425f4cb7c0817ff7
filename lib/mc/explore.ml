(** DFS explorer with sleep sets and dynamic partial-order reduction,
    over two interchangeable state engines.

    The exploration tree's nodes are schedule prefixes.  How a node's
    simulator state is materialized is an {e engine} choice:

    - {!Replay} is the stateless CHESS/Nidhugg shape: every node is
      reconstructed by replaying its prefix from scratch
      ({!Schedule.replay}), so a search of depth [d] pays O(d²)
      deliveries per maximal execution;
    - {!Incremental} (the default) walks the tree push/pop on one live
      {!Sim.Session} with an undo journal: descending executes one
      delivery, ascending rolls it back in O(Δ), so deliveries per
      execution stay near the schedule depth.  Happens-before masks
      and wake-up indices are maintained incrementally alongside.

    Both engines drive the {e same} DFS code path below, so the visit
    order, the race analysis, the class list with its representative
    schedules, and the scoped {!Obs} event stream are byte-identical by
    construction — the engine choice is invisible in every output
    (deliver/undo simulator events are {!Obs.muted} as engine
    artifacts).

    Dependence relation: two deliveries commute unless they target the
    same process or are causally ordered (one's send is in the causal
    past of the other's delivery).  The race rule is phrased on the
    {e send's} causal past: a delivery [e] races with an earlier step
    [j] at the same destination iff [j] is not in the causal past of
    [e]'s send — same-destination deliveries are always ordered in the
    realized path, so testing the delivery's own past would find no
    race ever.  When a race [(j, e)] is found:

    - if [e] was already pending when [j] was chosen, delivering [e]
      at [j] instead is the canonical reversal: add [e] to [j]'s
      backtrack set;
    - otherwise the reversal needs some intermediate step first, and we
      fall back to adding every choice enabled at [j] (the conservative
      DPOR fallback).

    Under an event-budget cut, a class can differ from an explored one
    only in deliveries the cut removed, so still-pending messages at a
    terminal run the same race analysis ({e virtual races}) — this is
    what keeps the bounded search's class coverage exhaustive at the
    boundary (cross-checked against naive search by `--no-dpor`).

    Sleep sets prune sibling-redundant subtrees: after exploring [e],
    the classes reachable by first taking a delivery independent of
    [e] and later [e] itself are already covered, so such siblings are
    put to sleep.  A node whose every enabled choice sleeps is counted
    and abandoned without touching the oracle battery.

    {2 Transposition table}

    In {e naive} mode a per-task table of {!Canon.key}s prunes
    converging prefixes: two prefixes with equal keys are
    linearizations of the same Mazurkiewicz trace, so they have the
    same length, the same pending multiset, and isomorphic futures
    — the earlier visit (same depth, already completed: DFS finishes
    equal-depth nodes before revisiting the depth) has already explored
    exactly the classes below, with representatives that stay valid.
    Pruning on state equality is therefore sound {e and} preserves the
    first-seen representatives, turning the naive search into a walk of
    the trace {e trie} — its execution count drops to roughly the class
    count.

    Under DPOR the same pruning is {e unsound} and is never applied:
    two occurrences of one state can carry different sleep sets, so
    the first visit explores only a complement of what the second
    visit's sleep set would allow, and a pruned second visit would also
    stop contributing race-driven backtrack points to {e its own}
    ancestors — the classic stateful-DPOR interaction.  DPOR keeps
    sleep sets, naive keeps the table; `--cross-check` compares the two
    independent reductions.

    Both the table and class dedup compare exact key strings (see
    {!Canon}): a hashed key can merge distinct classes, and then the
    table also prunes the second class's whole subtree.

    {2 Which classes get the battery}

    A subtree is one of several frontier tasks ({!Driver}), and a
    class reachable from several task prefixes is kept only from the
    earliest task that finds it.  [explore ~owns] says which keys this
    subtree owns (no earlier task's prefix reaches them,
    {!Canon.extends}); the battery runs at the terminal, on the live
    run, only for a first-seen class the subtree owns.  Any other
    record leaves [cl_results = []] and its evaluation to the merge,
    which needs it only when the owner's DPOR missed the class.

    {2 What a step allocates}

    On the incremental engine a step allocates what the search keeps:
    the simulator state its delivery builds, and at a terminal the
    class key ({!Canon.key}, one string of exact length) and, for a
    first-seen class, its record.  The node bookkeeping around them
    (ready arrays, backtrack masks, the cut-race pass, the
    happens-before masks and wake-up indices) reuses per-call arrays
    and takes no closure per node; only the sleep sets handed to
    children are lists.  On the e = 9 clock box a delivery takes ~200
    minor words, a key ~20 and a battery ~540 per class. *)

type engine = Replay | Incremental

(** One canonical equivalence class of maximal executions. *)
type class_rec = {
  cl_key : string;  (** {!Canon.key} of the class *)
  cl_choices : int list;
      (** schedule of the first-explored representative *)
  cl_results : (string * Fuzz.Oracle.outcome) list;
      (** oracle battery on that representative; [[]] when the battery
          was left to the merge (a class the subtree does not own) or
          there are no oracles — an evaluated battery always holds
          ["no-crash"] *)
}

(** Result of exploring one subtree (all statistics are sums over the
    subtree only; class dedup is local to it). *)
type subtree = {
  sb_execs : int;  (** maximal executions explored *)
  sb_sleep_blocked : int;  (** nodes pruned with every choice asleep *)
  sb_deliveries : int;  (** deliveries simulated, replays included *)
  sb_undos : int;  (** deliveries rolled back (incremental engine) *)
  sb_tt_hits : int;  (** nodes pruned by the transposition table *)
  sb_batteries : int;  (** oracle batteries run (on owned classes) *)
  sb_classes : class_rec list;  (** first-seen order *)
}

(* Backtrack and done sets hold only envelopes {e pending at the node}
   (a race (j, e) has e posted before step j, so e is in node j's ready
   list), so both are bitmasks over the node's ready-array index — the
   hot DPOR bookkeeping (thousands of set inserts per terminal under
   cut races) mutates two ints instead of rebalancing allocated trees.
   Ready lists are bounded by the budget cap (62), so one word is
   enough.  The ready entries themselves live in per-depth int arrays
   preallocated once per [explore] call and refilled in place by one
   {!Sim.Session.iter_ready} callback made once per call; a terminal's
   pending list lands in its depth's arrays too, for the cut-race pass.
   The DFS's hottest read path allocates nothing per node. *)
type node = {
  mutable nd_env : int array;  (** envelope id per ready index *)
  mutable nd_dst : int array;  (** destination per ready index *)
  mutable nd_posted : int array;  (** posting step per ready index *)
  mutable nd_len : int;  (** live entry count; [-1] = no node at this depth *)
  mutable nd_backtrack : int;  (** ready-index bitmask still to explore *)
  mutable nd_done : int;  (** ready-index bitmask fully explored *)
}

(* The engine interface.  Positional contract: [op_len],
   [op_iter_ready], [op_run] and [op_key] describe the current
   position and are called only right after positioning (visit entry /
   terminal); [op_wake ~len] is read only while positioned at depth
   [len]; [op_step j] and [op_masks ~len] are valid for indices below
   [len] at any time (both engines keep the current path's prefix
   stable). *)
type ops = {
  op_finished : unit -> bool;
  op_iter_ready : (env:int -> dst:int -> posted_at:int -> unit) -> unit;
  op_run : unit -> Fuzz.Gen.run;
  op_len : unit -> int;
  op_step : int -> Schedule.step;
  op_masks : len:int -> int array;
  op_wake : len:int -> int array;
  op_key : unit -> string;
  op_descend : int -> unit;  (** visible-ready index; executes one delivery *)
  op_ascend : unit -> unit;
  op_deliveries : unit -> int;
  op_undos : unit -> int;
}

let clamp c m = if c < 0 then 0 else if c >= m then m - 1 else c

(* wake-up step index per process within the first [len] steps *)
let wake_of_steps ~nprocs (step : int -> Schedule.step) len =
  let wake = Array.make nprocs max_int in
  for i = 0 to len - 1 do
    let sp = step i in
    if sp.Schedule.sp_posted_at < 0 then wake.(sp.Schedule.sp_dst) <- i
  done;
  wake

let replay_ops (case : Fuzz.Gen.case) (prefix : int list) : ops =
  let nprocs = case.Fuzz.Gen.c_nprocs in
  let deliveries = ref 0 in
  let chosen = ref (List.rev prefix) in
  (* the session/steps of the last replay; after an ascend this still
     holds the deeper child's array, whose prefix equals the current
     position's steps — the positional contract above makes that
     sufficient *)
  let sync () =
    let sess, steps = Schedule.replay case (List.rev !chosen) in
    deliveries := !deliveries + Array.length steps;
    (sess, steps)
  in
  let cur = ref (sync ()) in
  let sess () = fst !cur in
  let steps () = snd !cur in
  {
    op_finished = (fun () -> (sess ()).Fuzz.Gen.ms_finished ());
    op_iter_ready = (fun f -> (sess ()).Fuzz.Gen.ms_iter_ready f);
    op_run = (fun () -> (sess ()).Fuzz.Gen.ms_run ());
    op_len = (fun () -> Array.length (steps ()));
    op_step = (fun j -> (steps ()).(j));
    op_masks = (fun ~len -> Schedule.hb_masks ~nprocs (Array.sub (steps ()) 0 len));
    op_wake = (fun ~len -> wake_of_steps ~nprocs (fun j -> (steps ()).(j)) len);
    op_key =
      (fun () ->
        let st = steps () in
        Canon.key ~nprocs ~len:(Array.length st) st);
    op_descend =
      (fun c ->
        chosen := c :: !chosen;
        cur := sync ());
    op_ascend = (fun () -> chosen := List.tl !chosen);
    op_deliveries = (fun () -> !deliveries);
    op_undos = (fun () -> 0);
  }

let incremental_ops (case : Fuzz.Gen.case) (prefix : int list) : ops =
  let nprocs = case.Fuzz.Gen.c_nprocs in
  let s = Fuzz.Gen.open_session ~record:true case in
  let cap = Schedule.max_budget + 1 in
  let dummy = { Schedule.sp_env = 0; sp_dst = 0; sp_posted_at = -1; sp_first_env = 0 } in
  let steps = Array.make cap dummy in
  let masks = Array.make cap 0 in
  let len = ref 0 in
  let wake = Array.make nprocs max_int in
  let last_at = Array.make nprocs (-1) in
  (* per-push journal for the two per-process indices *)
  let wake_prev = Array.make cap 0 in
  let last_prev = Array.make cap 0 in
  let deliveries = ref 0 in
  let undos = ref 0 in
  (* one reused thunk: a muted delivery per DFS edge, without a fresh
     closure per call *)
  let mute_choice = ref 0 in
  let mute_deliver () = s.Fuzz.Gen.ms_deliver !mute_choice in
  let deliver c =
    let watermark = s.Fuzz.Gen.ms_envelopes () in
    mute_choice := c;
    let info = Obs.muted mute_deliver in
    let i = !len in
    let sp =
      {
        Schedule.sp_env = info.Sim.Session.i_env;
        sp_dst = info.Sim.Session.i_dst;
        sp_posted_at = info.Sim.Session.i_posted_at;
        sp_first_env = watermark;
      }
    in
    steps.(i) <- sp;
    let d = sp.Schedule.sp_dst in
    masks.(i) <-
      Schedule.hb_mask_step masks ~posted_at:sp.Schedule.sp_posted_at
        ~last:last_at.(d);
    last_prev.(i) <- last_at.(d);
    last_at.(d) <- i;
    wake_prev.(i) <- wake.(d);
    if sp.Schedule.sp_posted_at < 0 then wake.(d) <- i;
    incr deliveries;
    len := i + 1
  in
  (* position at the prefix, mirroring Schedule.replay's clamping *)
  List.iter
    (fun c ->
      if not (s.Fuzz.Gen.ms_finished ()) then
        deliver (clamp c (List.length (s.Fuzz.Gen.ms_ready ()))))
    prefix;
  {
    op_finished = s.Fuzz.Gen.ms_finished;
    op_iter_ready = s.Fuzz.Gen.ms_iter_ready;
    op_run = s.Fuzz.Gen.ms_run;
    op_len = (fun () -> !len);
    op_step = (fun j -> steps.(j));
    op_masks = (fun ~len:_ -> masks);
    op_wake = (fun ~len:_ -> wake);
    op_key = (fun () -> Canon.key ~nprocs ~len:!len steps);
    op_descend = deliver;
    op_ascend =
      (fun () ->
        let i = !len - 1 in
        s.Fuzz.Gen.ms_undo ();
        let d = steps.(i).Schedule.sp_dst in
        last_at.(d) <- last_prev.(i);
        wake.(d) <- wake_prev.(i);
        incr undos;
        len := i)
      ;
    op_deliveries = (fun () -> !deliveries);
    op_undos = (fun () -> !undos);
  }

(* index of the single set bit of [bit] *)
let bit_index bit =
  let rec go i m = if m land 1 <> 0 then i else go (i + 1) (m lsr 1) in
  go 0 bit

let explore ~engine ~tt ~oracles ~dpor ~(owns : string -> bool)
    ~(case : Fuzz.Gen.case) ~(prefix : int list) : subtree =
  let budget = case.Fuzz.Gen.c_max_events in
  if budget > Schedule.max_budget then
    invalid_arg
      (Printf.sprintf "Mc.Explore.explore: budget %d above the mc cap %d" budget
         Schedule.max_budget);
  let d0 = List.length prefix in
  let nodes =
    Array.init (budget + 1) (fun _ ->
        {
          nd_env = Array.make Sys.int_size 0;
          nd_dst = Array.make Sys.int_size 0;
          nd_posted = Array.make Sys.int_size 0;
          nd_len = -1;
          nd_backtrack = 0;
          nd_done = 0;
        })
  in
  let execs = ref 0 in
  let sleep_blocked = ref 0 in
  let tt_hits = ref 0 in
  let batteries = ref 0 in
  let classes = ref [] in
  let base_case = { case with Fuzz.Gen.c_schedule = [] } in
  let ops =
    match engine with
    | Replay -> replay_ops case prefix
    | Incremental -> incremental_ops case prefix
  in
  (* the current path's choice indices, the prefix's included, for
     class representatives (one reused array instead of list appends) *)
  let extra = Array.make (max (budget + 1) d0) 0 in
  List.iteri (fun i c -> extra.(i) <- c) prefix;
  let choices_list depth =
    if depth <= d0 then prefix
    else begin
      let acc = ref [] in
      for i = depth - 1 downto 0 do
        acc := extra.(i) :: !acc
      done;
      !acc
    end
  in
  (* env id -> destination, filled idempotently from each node's ready
     list: ids are assigned densely along the path, so an entry written
     at a node stays valid throughout that node's subtree (one reused
     array instead of a per-node Hashtbl) *)
  let env_dst = ref (Array.make 64 0) in
  let note_dst id dst =
    if id >= Array.length !env_dst then
      env_dst :=
        Array.append !env_dst
          (Array.make (max (Array.length !env_dst) (id + 1)) 0);
    !env_dst.(id) <- dst
  in
  let dst_of id = !env_dst.(id) in
  (* the ready list at the current position, copied into [!fill_node]'s
     arrays by one callback for the whole search; [fill_ready] returns
     the entry count.  A terminal's list can outgrow the arrays (the
     pending cap below applies to branching nodes only), so they grow. *)
  let fill_node = ref nodes.(0) in
  let fill = ref 0 in
  let fill_one ~env ~dst ~posted_at =
    let nd = !fill_node in
    let i = !fill in
    if i = Array.length nd.nd_env then begin
      let grow a = Array.append a (Array.make i 0) in
      nd.nd_env <- grow nd.nd_env;
      nd.nd_dst <- grow nd.nd_dst;
      nd.nd_posted <- grow nd.nd_posted
    end;
    nd.nd_env.(i) <- env;
    nd.nd_dst.(i) <- dst;
    nd.nd_posted.(i) <- posted_at;
    note_dst env dst;
    fill := i + 1
  in
  let fill_ready nd =
    fill_node := nd;
    fill := 0;
    ops.op_iter_ready fill_one;
    !fill
  in
  (* class dedup and the naive-mode transposition table are both keyed
     by the exact canonical key; [seen_before] records a first visit *)
  let seen_before tbl key =
    Hashtbl.mem tbl key || (Hashtbl.add tbl key (); false)
  in
  let seen : (string, unit) Hashtbl.t = Hashtbl.create 64 in
  (* sound under naive search only; see the module comment *)
  let use_tt = tt && not dpor in
  let ttbl : (string, unit) Hashtbl.t = Hashtbl.create 256 in
  let enabled wake ~dst ~posted_at j =
    posted_at < j && (posted_at < 0 || wake.(dst) < j)
  in
  let idx_of (nj : node) env =
    let r = nj.nd_env in
    let n = nj.nd_len in
    let i = ref 0 in
    while !i < n && r.(!i) <> env do incr i done;
    if !i < n then !i else -1
  in
  let backtrack_env_at j env =
    let nj = nodes.(j) in
    if nj.nd_len >= 0 then begin
      if Obs.on () then
        Obs.instant "mc" "race" [ ("at", Obs.I j); ("env", Obs.I env) ];
      let i = idx_of nj env in
      if i >= 0 then nj.nd_backtrack <- nj.nd_backtrack lor (1 lsl i)
    end
  in
  let backtrack_all_at j =
    let nj = nodes.(j) in
    if nj.nd_len >= 0 then begin
      if Obs.on () then
        Obs.instant "mc" "race" [ ("at", Obs.I j); ("all", Obs.B true) ];
      nj.nd_backtrack <- (1 lsl nj.nd_len) - 1
    end
  in
  (* realized race: the chosen delivery [e] against every earlier
     same-destination step not in the causal past of [e]'s send;
     backtrack requests target only nodes of this subtree — races into
     the frontier prefix are covered by the driver's full expansion
     above it *)
  let add_races k masks wake ~env ~dst ~posted_at =
    let smask = Schedule.send_mask masks ~posted_at in
    for j = d0 to k - 1 do
      if (ops.op_step j).Schedule.sp_dst = dst && smask land (1 lsl j) = 0 then
        if enabled wake ~dst ~posted_at j then backtrack_env_at j env
        else backtrack_all_at j
    done
  in
  (* cut race: at a terminal truncated with messages still pending, the
     bound itself breaks commutativity — an execution spending its last
     slots on {e different} deliveries is a different class even when
     the destinations differ.  Every pending envelope therefore gets a
     backtrack point at every node where it was enabled (and the
     conservative all-choices fallback where it existed but could not
     boot), so the deliveries the cut removed are re-inserted at each
     position they could have taken. *)
  let add_cut_races k wake ~env ~dst ~posted_at =
    for j = d0 to k - 1 do
      if enabled wake ~dst ~posted_at j then backtrack_env_at j env
      else if posted_at >= 0 && posted_at < j then backtrack_all_at j
    done
  in
  (* a child's sleep set: the parent's sleepers independent of the
     chosen destination, prepended in order to [acc] *)
  let rec inherit_sleep dst_e acc = function
    | [] -> acc
    | s :: rest ->
        inherit_sleep dst_e
          (if dst_of s <> dst_e && not (List.memq s acc) then s :: acc else acc)
          rest
  in
  (* [sleep] is a small list of sleeping envelope ids (bounded by the
     widest ready list on the path); membership scans beat allocated
     sets at this size *)
  let rec visit (sleep : int list) =
    let depth = ops.op_len () in
    if Obs.on () then Obs.instant "mc" "expand" [ ("depth", Obs.I depth) ];
    if use_tt && seen_before ttbl (ops.op_key ()) then begin
      incr tt_hits;
      if Obs.on () then
        Obs.instant "mc" "tt-prune" [ ("depth", Obs.I depth) ]
    end
    else if ops.op_finished () then begin
      incr execs;
      if dpor then begin
        let wake = ops.op_wake ~len:depth in
        (* the pending list lands in this depth's arrays, which no
           branching node holds while a terminal sits here *)
        let node = nodes.(depth) in
        for i = 0 to fill_ready node - 1 do
          add_cut_races depth wake ~env:node.nd_env.(i) ~dst:node.nd_dst.(i)
            ~posted_at:node.nd_posted.(i)
        done
      end;
      let key = ops.op_key () in
      if not (seen_before seen key) then begin
        let results =
          if oracles = [] || not (owns key) then []
          else begin
            incr batteries;
            Fuzz.Oracle.evaluate_run oracles base_case (ops.op_run ())
          end
        in
        classes :=
          {
            cl_key = key;
            cl_choices = choices_list depth;
            cl_results = results;
          }
          :: !classes
      end
    end
    else begin
      let node = nodes.(depth) in
      (* refill this depth's ready buffers in place *)
      let len = fill_ready node in
      if len >= Sys.int_size then
        invalid_arg
          (Printf.sprintf
             "Mc.Explore.explore: over %d pending messages at one node \
              (the bitmask bookkeeping caps there)"
             (Sys.int_size - 2));
      (* candidate = non-sleeping ready entry, as a ready-index bitmask
         (iteration below is in ready order, lowest index first) *)
      let cand =
        if sleep = [] then (1 lsl len) - 1
        else begin
          let cand = ref 0 in
          for i = len - 1 downto 0 do
            if not (List.memq node.nd_env.(i) sleep) then
              cand := (!cand lsl 1) lor 1
            else cand := !cand lsl 1
          done;
          !cand
        end
      in
      if cand = 0 then begin
        incr sleep_blocked;
        if Obs.on () then
          Obs.instant "mc" "sleep-prune" [ ("depth", Obs.I depth) ]
      end
      else begin
        node.nd_len <- len;
        node.nd_backtrack <- (if dpor then cand land -cand else cand);
        node.nd_done <- 0;
        (* DPOR reads both at every branching node; the incremental
           engine hands out its live arrays *)
        let masks = if dpor then ops.op_masks ~len:depth else [||] in
        let wake = if dpor then ops.op_wake ~len:depth else [||] in
        let todo = ref (node.nd_backtrack land cand) in
        while !todo <> 0 do
          (* lowest set bit = first candidate in ready order *)
          let bit = !todo land - !todo in
          let idx = bit_index bit in
          let dst_e = node.nd_dst.(idx) in
          if dpor then
            add_races depth masks wake ~env:node.nd_env.(idx) ~dst:dst_e
              ~posted_at:node.nd_posted.(idx);
          let child_sleep =
            if not dpor then []
            else if node.nd_done = 0 && sleep == [] then []
            else begin
              let acc = ref [] in
              for i = len - 1 downto 0 do
                if node.nd_done land (1 lsl i) <> 0 && node.nd_dst.(i) <> dst_e
                then acc := node.nd_env.(i) :: !acc
              done;
              inherit_sleep dst_e !acc sleep
            end
          in
          extra.(depth) <- idx;
          ops.op_descend idx;
          visit child_sleep;
          ops.op_ascend ();
          node.nd_done <- node.nd_done lor bit;
          todo := node.nd_backtrack land cand land lnot node.nd_done
        done;
        node.nd_len <- -1
      end
    end
  in
  visit [];
  {
    sb_execs = !execs;
    sb_sleep_blocked = !sleep_blocked;
    sb_deliveries = ops.op_deliveries ();
    sb_undos = ops.op_undos ();
    sb_tt_hits = !tt_hits;
    sb_batteries = !batteries;
    sb_classes = List.rev !classes;
  }
