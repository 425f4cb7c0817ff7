(** The workloads, untraced and traced, with their output checks.

    An untraced run repeats the workload's unit of work — one campaign,
    one model-checking run, one sharded campaign — a fixed number of
    times and reports medians over the repetitions.  A traced run does
    the unit once traced, between two untraced runs: its output must
    match the first, and its wall is compared with the second's. *)

open Perfbench

let now = Mclock.now

(* The campaigns and mc-clock3 run serially.  `abc fuzz` would use 2
   domains on the 2-core reference box, but there every minor
   collection stops both domains, so load from other tenants stalls
   the whole campaign: two sets of ten 2-domain runs spread
   fuzz-boundary's throughput by 18% and 24% and its p50 by 18% and
   34%.  In the same sets serial mc-clock3 spread 15% and 7%, and the
   sharded workload, whose 2 worker processes share no collector, 8%
   and 8% (README.md, Steadiness). *)
let campaign_jobs = 1
let shards = 2

(* Boundary cases are uniform (p50 16 ms, max 45 ms), so a campaign
   of 100 (~1.3 s serially) represents the workload, and a run holds
   one such campaign per 2 s of run length, each from its own seed.
   The sharded workload runs the same campaigns. *)
let boundary_cases = 100

(* e = 10 takes 11 s, one sample per run; e = 9 (5,004 classes) takes
   ~1.7 s. *)
let mc_line seed = Printf.sprintf "abc1;s=%d;n=3;f=C,C,C;xi=2;w=clock;d=async:1;e=9" seed
let mc_frontier = 2

type workload = Fuzz_boundary | Mc_clock3 | Dist_shards2

(* A run repeats its workload's unit of work, which takes 1.2-2 s on
   the reference box, once per 2 s of run length, so that the run
   takes about its length.  Its work is then a function of seed and
   length alone, and so are its exact counters. *)
let repetitions ~seconds = max 1 (seconds / 2)

let all =
  [
    ("fuzz-boundary", Fuzz_boundary);
    ("mc-clock3", Mc_clock3);
    ("dist-shards2", Dist_shards2);
  ]

(** What one run found: its checks, counts and metrics. *)
type result = {
  problems : string list;  (** failed output checks; empty when correct *)
  attempted : int;
  failed : int;
  metrics : (string * float * string) list;  (** name, value, unit *)
  counters : (string * string) list;  (** must repeat exactly for a seed *)
  notes : string list;  (** printed before the result line *)
}

(* ------------------------------------------------------------------ *)
(* Statistics *)

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(** The highest percentile with at least ten samples beyond it:
    [(percentile, value)].  With fewer than eleven samples it is the
    maximum, reported as percentile 100. *)
let tail (samples : float array) =
  let a = Array.copy samples in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then (100.0, nan)
  else if n < 11 then (100.0, a.(n - 1))
  else (100.0 *. float_of_int (n - 10) /. float_of_int n, a.(n - 11))

let md5 s = Digest.to_hex (Digest.string s)

(* VmHWM of this process, in MiB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go () =
        match input_line ic with
        | exception End_of_file -> nan
        | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
            Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d" (fun kb ->
                float_of_int kb /. 1024.0)
        | _ -> go ()
      in
      go ())

(* Campaign seed of repetition [r]: the run's seed first, then seeds
   mixed from it.  A run's repetitions thus cover different cases, and
   a seed's few slow cases weigh less in its medians. *)
let rep_seed ~seed r = if r = 0 then seed else Fuzz.Campaign.case_seed ~seed r

(* Run [rep 0] ... [rep (n - 1)].  Each repetition returns its record
   and its output check; the checks run after all repetitions.  Also
   returns the peak RSS after the first repetition: a fresh process
   that has run the workload once, as a user's does. *)
let repeat n rep =
  let r0 = rep 0 in
  let rss = peak_rss_mb () in
  let reps, checks = List.split (r0 :: List.init (n - 1) (fun k -> rep (k + 1))) in
  (rss, reps, List.map (fun check -> check ()) checks)

(* ------------------------------------------------------------------ *)
(* Output checks *)

let is_boundary_oracle n = n = "boundary-precision" || n = "boundary-agreement"

(* Every boundary case yields a witness from a boundary oracle and
   nothing else fails; each shrunk case still fails that oracle when
   re-evaluated from scratch.  Returns the failed checks and the
   indices of the cases that broke them. *)
let boundary_checks ~seed ~cases (o : Fuzz.Campaign.outcome) =
  let by_case = Hashtbl.create cases in
  List.iter
    (fun (f : Fuzz.Campaign.failure) ->
      let k = Fuzz.Replay.to_string f.Fuzz.Campaign.fl_case in
      Hashtbl.replace by_case k (f :: Option.value ~default:[] (Hashtbl.find_opt by_case k)))
    o.Fuzz.Campaign.cp_failures;
  let failed = ref [] and problems = ref [] in
  for i = 0 to cases - 1 do
    let case = Fuzz.Gen.generate_boundary ~seed:(Fuzz.Campaign.case_seed ~seed i) in
    let fs = Option.value ~default:[] (Hashtbl.find_opt by_case (Fuzz.Replay.to_string case)) in
    let ok_failure (f : Fuzz.Campaign.failure) =
      is_boundary_oracle f.Fuzz.Campaign.fl_oracle
      &&
      match f.Fuzz.Campaign.fl_shrunk with
      | None -> false
      | Some r ->
          (* that oracle alone: its verdict does not depend on the
             others, and the whole registry would triple the check *)
          let oracle =
            List.filter (fun o -> o.Fuzz.Oracle.name = f.Fuzz.Campaign.fl_oracle) Fuzz.Oracle.registry
          in
          List.exists
            (fun (_, v) -> match v with Fuzz.Oracle.Fail _ -> true | _ -> false)
            (Fuzz.Oracle.evaluate oracle r.Fuzz.Shrink.shrunk)
    in
    if fs = [] || not (List.for_all ok_failure fs) then begin
      failed := i :: !failed;
      if List.length !problems < 3 then
        problems :=
          Printf.sprintf "boundary case %d: %s" i
            (if fs = [] then "no witness" else "non-boundary failure or shrunk case no longer fails")
          :: !problems
    end
  done;
  (List.rev !problems, List.rev !failed)

(* ------------------------------------------------------------------ *)
(* One repetition *)

type rep = {
  r_seed : int;
  r_wall : float;  (** seconds, around the driver call *)
  r_cases : int;  (** cases / frontier tasks *)
  r_classes : int;  (** executions given full battery verdicts *)
  r_case_walls : float array;  (** per case / per frontier task *)
  r_alloc : float;  (** minor words *)
  r_report : string;  (** rendered output *)
  r_counters : (string * int) list;  (** must repeat exactly for the seed *)
  r_attempted : int;
}

let campaign_counters (o : Fuzz.Campaign.outcome) =
  let shrunk = List.filter_map (fun f -> f.Fuzz.Campaign.fl_shrunk) o.Fuzz.Campaign.cp_failures in
  [
    ("cases", o.Fuzz.Campaign.cp_cases_run);
    ("violations", List.length o.Fuzz.Campaign.cp_failures);
    ("shrink_evals", List.fold_left (fun n r -> n + r.Fuzz.Shrink.evaluations) 0 shrunk);
    ("shrink_steps", List.fold_left (fun n r -> n + r.Fuzz.Shrink.steps) 0 shrunk);
  ]

let campaign_record ~seed ~wall ~extra ~attempted (o : Fuzz.Campaign.outcome) =
  let c = o.Fuzz.Campaign.cp_cost in
  let alloc = Array.fold_left ( +. ) 0.0 c.Fuzz.Campaign.ct_case_alloc in
  {
    r_seed = seed;
    r_wall = wall;
    r_cases = o.Fuzz.Campaign.cp_cases_run;
    r_classes = o.Fuzz.Campaign.cp_cases_run;
    r_case_walls = c.Fuzz.Campaign.ct_case_wall;
    r_alloc = alloc;
    r_report = Fuzz.Report.render o;
    r_counters = campaign_counters o @ extra @ [ ("alloc_words", int_of_float alloc) ];
    r_attempted = attempted;
  }

let campaign_rep ~seed ~cases r =
  let seed = rep_seed ~seed r in
  let t0 = now () in
  let o = Fuzz.Campaign.run ~boundary:true ~cases ~jobs:campaign_jobs ~seed () in
  let wall = now () -. t0 in
  ( campaign_record ~seed ~wall ~extra:[] ~attempted:cases o,
    fun () ->
      let problems, bad = boundary_checks ~seed ~cases o in
      (problems, List.length bad) )

let mc_case seed =
  match Fuzz.Replay.of_string (mc_line seed) with
  | Ok c -> c
  | Error e -> invalid_arg ("mc box: " ^ e)

(* Class keys, representative schedules and every verdict. *)
let mc_classes_text (o : Mc.Driver.outcome) =
  let b = Buffer.create 65536 in
  List.iter
    (fun (cl : Mc.Explore.class_rec) ->
      Buffer.add_string b cl.Mc.Explore.cl_key;
      Buffer.add_char b '|';
      Buffer.add_string b (String.concat "." (List.map string_of_int cl.Mc.Explore.cl_choices));
      List.iter
        (fun (n, v) ->
          Buffer.add_char b '|';
          Buffer.add_string b n;
          Buffer.add_char b '=';
          Buffer.add_string b
            (match v with
            | Fuzz.Oracle.Pass -> "pass"
            | Fuzz.Oracle.Skip d -> "skip:" ^ d
            | Fuzz.Oracle.Fail d -> "fail:" ^ d))
        cl.Mc.Explore.cl_results;
      Buffer.add_char b '\n')
    o.Mc.Driver.mc_classes;
  Buffer.contents b

let mc_report o = Mc.Mc_report.render ~stats:true o ^ "classes " ^ md5 (mc_classes_text o) ^ "\n"

let mc_counters (o : Mc.Driver.outcome) =
  [
    ("executions", o.Mc.Driver.mc_executions);
    ("deliveries", o.Mc.Driver.mc_deliveries);
    ("undos", o.Mc.Driver.mc_undos);
    ("classes", List.length o.Mc.Driver.mc_classes);
    ("violations", List.length o.Mc.Driver.mc_violations);
  ]

(* Mc.Driver.run ~jobs:1 step by step — frontier, each task in order,
   merge — with a timer around each task.  Every repetition explores
   the same box. *)
let mc_rep ~seed _r =
  let case = mc_case seed in
  let a0 = Gc.minor_words () in
  let t0 = now () in
  let tasks = Mc.Driver.frontier_tasks ~frontier:mc_frontier case in
  let walls = Array.make (Array.length tasks) 0.0 in
  let subtrees =
    Array.init (Array.length tasks) (fun i ->
        let t = now () in
        let sb =
          Mc.Driver.explore_task ~oracles:Fuzz.Oracle.registry ~dpor:true
            ~engine:Mc.Explore.Incremental ~tt:true ~case ~tasks i
        in
        walls.(i) <- now () -. t;
        sb)
  in
  let o =
    Mc.Driver.merge_tasks ~oracles:Fuzz.Oracle.registry ~dpor:true ~engine:Mc.Explore.Incremental
      ~frontier:mc_frontier ~case subtrees
  in
  let wall = now () -. t0 in
  let alloc = Gc.minor_words () -. a0 in
  let violations = o.Mc.Driver.mc_violations in
  let problems =
    match violations with
    | [] -> []
    | v :: _ ->
        [
          Printf.sprintf "%d violating classes; first: %s %s" (List.length violations) v.Mc.Driver.vi_oracle
            (Fuzz.Replay.repro_command v.Mc.Driver.vi_case);
        ]
  in
  let failed = List.length (List.sort_uniq compare (List.map (fun v -> v.Mc.Driver.vi_class) violations)) in
  ( {
    r_seed = seed;
    r_wall = wall;
    r_cases = Array.length tasks;
    r_classes = List.length o.Mc.Driver.mc_classes;
    r_case_walls = walls;
    r_alloc = alloc;
    r_report = mc_report o;
    r_counters = mc_counters o @ [ ("alloc_words", int_of_float alloc) ];
    r_attempted = List.length o.Mc.Driver.mc_classes;
  },
    fun () -> (problems, failed) )

(* Units the supervisor dispatched more than once (retried after a
   death, timeout, quarantine or respawn), from its own "dist" Obs
   events, and the number of units it ran in process instead. *)
let retried_units (trace : Obs.trace) =
  let per_unit = Hashtbl.create 64 in
  let fallback = ref 0 in
  Array.iter
    (fun (e : Obs.event) ->
      if e.Obs.ev_cat = "dist" then
        match (e.Obs.ev_name, List.assoc_opt "unit" e.Obs.ev_args, List.assoc_opt "units" e.Obs.ev_args) with
        | "dispatch", Some (Obs.I u), _ ->
            Hashtbl.replace per_unit u (1 + Option.value ~default:0 (Hashtbl.find_opt per_unit u))
        | "fallback", _, Some (Obs.I n) -> fallback := !fallback + n
        | _ -> ())
    trace.Obs.t_events;
  (Hashtbl.fold (fun u n acc -> if n > 1 then u :: acc else acc) per_unit [], !fallback)

(* Failed units of a sharded boundary campaign: those retried or run
   by the fallback, and those holding a case that fails the boundary
   checks. *)
let failed_units spec ~bad_cases trace =
  let units = Dist.Work.units spec in
  let retried, fallback = retried_units trace in
  let holds_bad (lo, hi) = List.exists (fun i -> lo <= i && i < hi) bad_cases in
  let bad = List.filter (fun u -> holds_bad units.(u)) (List.init (Array.length units) Fun.id) in
  min (Array.length units) (List.length (List.sort_uniq compare (retried @ bad)) + fallback)

let dist_config () = Dist.Supervisor.make_config ~shards ()

let dist_spec ~seed ~cases =
  Dist.Work.W_fuzz
    { wf_seed = seed; wf_cases = cases; wf_boundary = true; wf_shrink = true; wf_oracles = None }

let run_sharded ?(shrink = true) ~seed ~cases () =
  Dist.Supervisor.run_fuzz ~quiet:true (dist_config ()) ~seed ~cases ~boundary:true ~shrink ~oracles:None ()

let dist_rep ~seed ~cases r =
  let seed = rep_seed ~seed r in
  let t0 = now () in
  let o, trace = Obs.capture ~capacity:65536 (run_sharded ~seed ~cases) in
  let wall = now () -. t0 in
  let spec = dist_spec ~seed ~cases in
  let units = Array.length (Dist.Work.units spec) in
  ( campaign_record ~seed ~wall ~extra:[ ("units", units) ] ~attempted:units o,
    fun () ->
      let problems, bad_cases = boundary_checks ~seed ~cases o in
      (problems, failed_units spec ~bad_cases trace) )

(* ------------------------------------------------------------------ *)
(* Set-up *)

(** Seconds from spawning this executable with [--probe-start] until
    its main function runs: exec, runtime start-up and every module
    initialiser. *)
let process_start_s () =
  let r, w = Unix.pipe ~cloexec:true () in
  let t0 = Unix.gettimeofday () in
  let pid =
    Unix.create_process Sys.executable_name [| Sys.executable_name; "--probe-start" |] Unix.stdin w
      Unix.stderr
  in
  Unix.close w;
  let ic = Unix.in_channel_of_descr r in
  let line = try input_line ic with End_of_file -> "" in
  close_in ic;
  ignore (Unix.waitpid [] pid);
  match float_of_string_opt (String.trim line) with
  | Some t -> t -. t0
  | None -> failwith "setup probe: child printed no start time"

let timed f =
  let t = now () in
  ignore (f ());
  now () -. t

(* What a run pays before its first case or class: process start and
   the workload's own provisioning.  A serial campaign provisions
   nothing: Campaign.run at jobs 1 spawns no Pool. *)
let setup_trial w ~seed =
  process_start_s ()
  +.
  match w with
  | Fuzz_boundary -> 0.0
  | Mc_clock3 -> timed (fun () -> Mc.Driver.frontier_tasks ~frontier:mc_frontier (mc_case seed))
  | Dist_shards2 ->
      (* shrinking off: the worker's Obs capture of a witness's ~30
         shrink re-runs is unit work that the case's reported wall does
         not cover, and it varied this figure 3x between seeds *)
      let t = now () in
      let o = run_sharded ~shrink:false ~seed ~cases:1 () in
      now () -. t -. o.Fuzz.Campaign.cp_cost.Fuzz.Campaign.ct_case_wall.(0)

(* At least this many set-up trials per run.  They are spread over the
   run, a few before each repetition, so that a burst of load on the
   host moves few of them: taken back to back, a whole run's median
   sometimes doubled. *)
let setup_trials = 21

(* ------------------------------------------------------------------ *)
(* Untraced runs *)

let ms x = 1000.0 *. x

(* Metrics every untraced run reports.  Timings are taken per
   repetition, and the run reports their median.  Allocation is the
   mean per repetition, which repeats exactly for the seed. *)
let end_to_end ~setup ~rss reps =
  let per f = median (List.map f reps) in
  let r0 = List.hd reps in
  let alloc = List.fold_left (fun a r -> a +. r.r_alloc) 0.0 reps /. float_of_int (List.length reps) in
  ( [
      ("cases_per_s", per (fun r -> float_of_int r.r_cases /. r.r_wall), "1/s");
      ("classes_per_s", per (fun r -> float_of_int r.r_classes /. r.r_wall), "1/s");
      ("case_p50_ms", per (fun r -> ms (median (Array.to_list r.r_case_walls))), "ms");
      ("case_tail_ms", per (fun r -> ms (snd (tail r.r_case_walls))), "ms");
      ("alloc_mwords", alloc /. 1e6, "Mwords");
      ("peak_rss_mb", rss, "MiB");
      ("setup_s", setup, "s");
    ],
    [
      Printf.sprintf "repetitions: %d, seeds %s, walls %s s" (List.length reps)
        (String.concat " " (List.map (fun r -> string_of_int r.r_seed) reps))
        (String.concat " " (List.map (fun r -> Printf.sprintf "%.3f" r.r_wall) reps));
      Printf.sprintf
        "case_tail_ms is p%.2f over the %d cases of a repetition; both percentiles are medians \
         over repetitions"
        (fst (tail r0.r_case_walls)) (Array.length r0.r_case_walls);
    ] )

let run_untraced w ~seed ~seconds =
  let n = repetitions ~seconds in
  let setups = ref [] in
  let after_setup rep r =
    for _ = 1 to (setup_trials + n - 1) / n do
      setups := setup_trial w ~seed :: !setups
    done;
    rep r
  in
  let rss, reps, checks =
    match w with
    | Fuzz_boundary -> repeat n (after_setup (campaign_rep ~seed ~cases:boundary_cases))
    | Mc_clock3 -> repeat n (after_setup (mc_rep ~seed))
    | Dist_shards2 -> repeat n (after_setup (dist_rep ~seed ~cases:boundary_cases))
  in
  let setup = median !setups in
  let r0 = List.hd reps in
  let run_checks =
    match w with
    | Mc_clock3 ->
        List.concat
          (List.mapi
             (fun i r ->
               if r.r_report = r0.r_report && r.r_counters = r0.r_counters then []
               else
                 [
                   Printf.sprintf
                     "repetition %d explored different classes or counters than the first" (i + 1);
                 ])
             reps)
    | Dist_shards2 ->
        (* after the measured repetitions, so the supervisor's peak RSS excludes it *)
        let pool = Fuzz.Campaign.run ~boundary:true ~cases:boundary_cases ~jobs:shards ~seed () in
        if Fuzz.Report.render pool = r0.r_report then []
        else [ "sharded report differs from the fuzz-boundary campaign of the same seed" ]
    | Fuzz_boundary -> []
  in
  let metrics, notes = end_to_end ~setup ~rss reps in
  {
    problems = run_checks @ List.concat_map fst checks;
    attempted = List.fold_left (fun n r -> n + r.r_attempted) 0 reps;
    failed = List.fold_left (fun n (_, f) -> n + f) 0 checks;
    metrics;
    counters =
      List.map
        (fun (k, _) ->
          (k, string_of_int (List.fold_left (fun n r -> n + List.assoc k r.r_counters) 0 reps)))
        r0.r_counters
      @ [ ("report_md5", md5 (String.concat "" (List.map (fun r -> r.r_report) reps))) ];
    notes = (notes @ match w with Mc_clock3 -> [ "box: " ^ mc_line seed ] | _ -> []);
  }

(* ------------------------------------------------------------------ *)
(* Traced runs *)

let layer_metrics ~self ~calls =
  let busy l = (Traced.names.(l) ^ ".busy_s", self.(l)) in
  let count l = (Traced.names.(l) ^ ".calls", float_of_int calls.(l)) in
  [
    busy Traced.gen;
    busy Traced.sim;
    count Traced.sim;
    busy Traced.abc_check;
    count Traced.abc_check;
    busy Traced.xi_search;
    count Traced.xi_search;
    busy Traced.cuts;
    count Traced.cuts;
    busy Traced.delay_assignment;
    count Traced.delay_assignment;
    busy Traced.oracle_other;
    busy Traced.shrink;
    busy Traced.explore;
  ]

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

(* Every per-layer metric a traced run reports, in BENCHMARK.json
   order. *)
let per_layer_names =
  [
    "fuzz.gen.busy_s"; "sim.busy_s"; "sim.calls"; "sim.events";
    "execgraph.abc_check.busy_s"; "execgraph.abc_check.calls";
    "core.abc.xi_search.busy_s"; "core.abc.xi_search.calls";
    "core.clock_sync.cuts.busy_s"; "core.clock_sync.cuts.calls";
    "core.delay_assignment.busy_s"; "core.delay_assignment.calls";
    "fuzz.oracle.other.busy_s"; "fuzz.oracle.useful_ratio";
    "fuzz.shrink.busy_s"; "fuzz.shrink.evals"; "fuzz.shrink.useful_ratio";
    "pool.idle_s";
    "mc.explore.busy_s"; "mc.explore.executions"; "mc.explore.deliveries"; "mc.explore.undos";
    "mc.battery.calls"; "mc.battery.useful_ratio"; "mc.driver.frontier_s"; "mc.driver.merge_s";
    "dist.work.exec_s"; "dist.work.capture_ratio"; "dist.supervisor.idle_s"; "dist.units";
    "dist.retries"; "dist.wire.bytes"; "dist.wire.busy_s";
    "unattributed_s"; "trace.overhead_s";
  ]

let unit_of name =
  let ends s = Filename.check_suffix name s in
  if ends "_s" then "s" else if ends "_ratio" then "ratio" else if ends ".bytes" then "bytes" else "count"

(* Every per-layer metric with its unit, zero where the workload does
   not reach the layer. *)
let complete given =
  List.map (fun n -> (n, Option.value ~default:0.0 (List.assoc_opt n given), unit_of n)) per_layer_names

let ranking ~self =
  let ls = List.init Traced.layers (fun l -> (Traced.names.(l), self.(l))) in
  let ls = List.filter (fun (_, s) -> s > 0.0) ls in
  let ls = List.sort (fun (_, a) (_, b) -> compare b a) ls in
  "layers by busy time: "
  ^ String.concat " > " (List.map (fun (n, s) -> Printf.sprintf "%s %.3fs" n s) ls)

(* The traced runs compare their wall with an untraced run of the same
   work made after them, when the process is as warm as for the traced
   run; the untraced run made before them, cold, is the reference for
   the output check. *)
let traced_campaign ~seed ~cases =
  let jobs = campaign_jobs in
  let untraced () = Fuzz.Campaign.run ~boundary:true ~cases ~jobs ~seed () in
  let reference = untraced () in
  let oracles = Traced.wrap Fuzz.Oracle.registry in
  Traced.reset_tally ();
  Spans.start ();
  let t1 = now () in
  let res, stats = Pool.map_stats ~jobs ~chunk:1 cases (Traced.eval_case ~oracles ~seed) in
  let wall = now () -. t1 in
  let self, calls = Spans.fold ~layers:Traced.layers (Spans.stop ()) in
  let untraced_wall = timed untraced in
  let case_walls = Array.map (fun s -> s.Pool.st_wall) stats in
  let cost =
    {
      Fuzz.Campaign.ct_jobs = jobs;
      ct_wall = wall;
      ct_case_wall = case_walls;
      ct_case_alloc = Array.map (fun s -> s.Pool.st_alloc_words) stats;
    }
  in
  let o = Fuzz.Campaign.merge_evals ~oracles ~seed ~cases ~boundary:true ~cost (Array.map fst res) in
  let report = Fuzz.Report.render o in
  let identical = report = Fuzz.Report.render reference in
  let events = Array.fold_left (fun n (_, e) -> n + e) 0 res in
  let counters = campaign_counters o in
  let shrink_evals = List.assoc "shrink_evals" counters in
  let shrink_steps = List.assoc "shrink_steps" counters in
  let checks = Atomic.get Traced.tally.Traced.checks in
  let metrics =
    layer_metrics ~self ~calls
    @ [
        ("sim.events", float_of_int events);
        ("fuzz.oracle.useful_ratio", ratio (Atomic.get Traced.tally.Traced.useful) checks);
        ("fuzz.shrink.evals", float_of_int shrink_evals);
        ("fuzz.shrink.useful_ratio", ratio shrink_steps shrink_evals);
        ("pool.idle_s", (float_of_int jobs *. wall) -. Array.fold_left ( +. ) 0.0 case_walls);
        ("unattributed_s", (float_of_int jobs *. wall) -. Array.fold_left ( +. ) 0.0 self);
        ("trace.overhead_s", wall -. untraced_wall);
      ]
  in
  let problems, bad = boundary_checks ~seed ~cases o in
  {
    problems = (if identical then [] else [ "traced campaign report differs from Campaign.run" ]) @ problems;
    attempted = cases;
    failed = List.length bad;
    metrics = complete metrics;
    counters =
      List.map (fun (k, v) -> (k, string_of_int v)) counters
      @ [
          ("sim.calls", string_of_int calls.(Traced.sim));
          ("sim.events", string_of_int events);
          ("oracle_checks", string_of_int checks);
          ("battery_calls", string_of_int (Atomic.get Traced.tally.Traced.batteries));
          ("report_md5", md5 report);
        ];
    notes =
      [
        ranking ~self;
        Printf.sprintf "traced wall %.3f s, untraced wall %.3f s, jobs %d" wall untraced_wall jobs;
      ];
  }

let traced_mc ~seed =
  let case = mc_case seed in
  let untraced () = Mc.Driver.run ~jobs:1 case in
  let reference = untraced () in
  let oracles = Traced.wrap Fuzz.Oracle.registry in
  let engine = Mc.Explore.Incremental in
  Traced.reset_tally ();
  Spans.start ();
  let t1 = now () in
  let tasks = Spans.span Traced.frontier (fun () -> Mc.Driver.frontier_tasks ~frontier:mc_frontier case) in
  let subtrees =
    Array.init (Array.length tasks) (fun i ->
        Spans.span Traced.explore (fun () ->
            Mc.Driver.explore_task ~oracles ~dpor:true ~engine ~tt:true ~case ~tasks i))
  in
  let o =
    Spans.span Traced.merge (fun () ->
        Mc.Driver.merge_tasks ~oracles ~dpor:true ~engine ~frontier:mc_frontier ~case subtrees)
  in
  let wall = now () -. t1 in
  let self, calls = Spans.fold ~layers:Traced.layers (Spans.stop ()) in
  let untraced_wall = timed untraced in
  let report = mc_report o in
  let identical = report = mc_report reference in
  let classes = List.length o.Mc.Driver.mc_classes in
  let batteries = Atomic.get Traced.tally.Traced.batteries in
  let checks = Atomic.get Traced.tally.Traced.checks in
  let metrics =
    layer_metrics ~self ~calls
    @ [
        ("fuzz.oracle.useful_ratio", ratio (Atomic.get Traced.tally.Traced.useful) checks);
        ("mc.explore.executions", float_of_int o.Mc.Driver.mc_executions);
        ("mc.explore.deliveries", float_of_int o.Mc.Driver.mc_deliveries);
        ("mc.explore.undos", float_of_int o.Mc.Driver.mc_undos);
        ("mc.battery.calls", float_of_int batteries);
        ("mc.battery.useful_ratio", ratio classes batteries);
        ("mc.driver.frontier_s", self.(Traced.frontier));
        ("mc.driver.merge_s", self.(Traced.merge));
        ("unattributed_s", wall -. Array.fold_left ( +. ) 0.0 self);
        ("trace.overhead_s", wall -. untraced_wall);
      ]
  in
  let violations = List.length o.Mc.Driver.mc_violations in
  {
    problems =
      (if identical then [] else [ "traced classes or verdicts differ from Mc.Driver.run" ])
      @ if violations = 0 then [] else [ Printf.sprintf "%d violating classes" violations ];
    attempted = classes;
    failed =
      List.length
        (List.sort_uniq compare (List.map (fun v -> v.Mc.Driver.vi_class) o.Mc.Driver.mc_violations));
    metrics = complete metrics;
    counters =
      List.map (fun (k, v) -> (k, string_of_int v)) (mc_counters o)
      @ [
          ("oracle_checks", string_of_int checks);
          ("battery_calls", string_of_int batteries);
          ("report_md5", md5 report);
        ];
    notes =
      [
        ranking ~self;
        Printf.sprintf "traced wall %.3f s, untraced wall %.3f s, 1 worker; box %s" wall untraced_wall
          (mc_line seed);
      ];
  }

let traced_dist ~seed ~seconds =
  let cases = boundary_cases in
  let spec = dist_spec ~seed ~cases in
  let reference = run_sharded ~seed ~cases () in
  Spans.start ();
  let t1 = now () in
  let (blobs, trace), run_wall =
    Spans.span Traced.supervisor (fun () ->
        let t = now () in
        let r =
          Obs.capture ~capacity:65536 (fun () ->
              Dist.Supervisor.run_units ~quiet:true (dist_config ()) spec)
        in
        (r, now () -. t))
  in
  (* the wire path of every reply, replayed in process: the worker's
     encode and framing, the supervisor's decode and checksum *)
  let bytes = ref 0 in
  let payloads =
    Array.map
      (fun (b : Dist.Work.blob) ->
        Spans.span Traced.wire (fun () ->
            let enc = Dist.Work.encode_blob b in
            let frame = Dist.Frame.encode (Dist.Frame.M_done { unit_id = b.Dist.Work.b_unit; blob = enc }) in
            bytes := !bytes + String.length frame;
            match Dist.Work.decode_blob enc with
            | Error e -> failwith e
            | Ok b' -> (
                match Dist.Work.payload_checksum spec b'.Dist.Work.b_payload with
                | Ok c when c = b'.Dist.Work.b_checksum -> b'.Dist.Work.b_payload
                | _ -> failwith "payload checksum mismatch")))
      blobs
  in
  let o = Spans.span Traced.wire (fun () -> Dist.Work.merge_fuzz spec ~cost_wall:run_wall ~shards payloads) in
  let wall = now () -. t1 in
  let self, _ = Spans.fold ~layers:Traced.layers (Spans.stop ()) in
  let untraced_wall = timed (run_sharded ~seed ~cases) in
  (* in-process unit execution with and without the worker's Obs
     capture, alternating which goes first, for half the run length *)
  let units = Dist.Work.units spec in
  let budget = float_of_int seconds /. 2.0 in
  Spans.start ();
  let t2 = now () in
  let k = ref 0 in
  while !k < Array.length units && (!k = 0 || now () -. t2 < budget) do
    let lo, hi = units.(!k) in
    let exec capture layer =
      Spans.span layer (fun () -> ignore (Dist.Work.exec_unit spec ~unit_id:!k ~lo ~hi ~capture))
    in
    if !k mod 2 = 0 then (exec true Traced.exec_capture; exec false Traced.exec_plain)
    else (exec false Traced.exec_plain; exec true Traced.exec_capture);
    incr k
  done;
  let exec_self, _ = Spans.fold ~layers:Traced.layers (Spans.stop ()) in
  let problems, bad_cases = boundary_checks ~seed ~cases o in
  let retried, fallback = retried_units trace in
  let report = Fuzz.Report.render o in
  let identical = report = Fuzz.Report.render reference in
  let case_walls = o.Fuzz.Campaign.cp_cost.Fuzz.Campaign.ct_case_wall in
  let capture_s = exec_self.(Traced.exec_capture) and plain_s = exec_self.(Traced.exec_plain) in
  let metrics =
    [
      ("dist.work.exec_s", capture_s /. float_of_int !k);
      ("dist.work.capture_ratio", (if plain_s > 0.0 then capture_s /. plain_s else 0.0));
      ("dist.supervisor.idle_s", (float_of_int shards *. run_wall) -. Array.fold_left ( +. ) 0.0 case_walls);
      ("dist.units", float_of_int (Array.length units));
      ("dist.retries", float_of_int (List.length retried + fallback));
      ("dist.wire.bytes", float_of_int !bytes);
      ("dist.wire.busy_s", self.(Traced.wire));
      ("unattributed_s", wall -. Array.fold_left ( +. ) 0.0 self);
      ("trace.overhead_s", wall -. untraced_wall);
    ]
  in
  {
    problems =
      (if identical then [] else [ "traced sharded report differs from Supervisor.run_fuzz" ])
      @ problems;
    attempted = Array.length units;
    failed = failed_units spec ~bad_cases trace;
    metrics = complete metrics;
    counters =
      [
        ("cases", string_of_int o.Fuzz.Campaign.cp_cases_run);
        ("units", string_of_int (Array.length units));
        ("wire_bytes", string_of_int !bytes);
        ("report_md5", md5 report);
      ];
    notes =
      [
        ranking ~self;
        Printf.sprintf "traced wall %.3f s, untraced wall %.3f s; in-process exec over %d of %d units" wall
          untraced_wall !k (Array.length units);
      ];
  }

let run_traced w ~seed ~seconds =
  match w with
  | Fuzz_boundary -> traced_campaign ~seed ~cases:boundary_cases
  | Mc_clock3 -> traced_mc ~seed
  | Dist_shards2 -> traced_dist ~seed ~seconds
