(** Deterministic text reports for model-checking outcomes.

    Two renderings: {!render_verdicts} is the {e mode-invariant} core —
    class count, per-oracle outcome tallies and the violating
    (class, oracle) pairs, with no detail strings (details may embed
    interleaving-dependent event ids or times, and DPOR and naive
    search pick different representatives) — and is what the
    [--cross-check] comparison hashes.  {!render} is the full report:
    search statistics, verdicts, and one repro + shrunk line per
    violation. *)

let render_verdicts (o : Driver.outcome) : string =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf "verdicts over %d classes:\n" (List.length o.Driver.mc_classes));
  let names =
    match o.Driver.mc_classes with
    | [] -> []
    | cl :: _ -> List.map fst cl.Explore.cl_results
  in
  List.iter
    (fun name ->
      let pass = ref 0 and skip = ref 0 and fail = ref 0 in
      List.iter
        (fun (cl : Explore.class_rec) ->
          match List.assoc_opt name cl.Explore.cl_results with
          | Some Fuzz.Oracle.Pass -> incr pass
          | Some (Fuzz.Oracle.Skip _) -> incr skip
          | Some (Fuzz.Oracle.Fail _) -> incr fail
          | None -> ())
        o.Driver.mc_classes;
      Buffer.add_string b
        (Printf.sprintf "  %-22s pass=%-6d skip=%-6d fail=%d\n" name !pass
           !skip !fail))
    names;
  (match o.Driver.mc_violations with
  | [] -> Buffer.add_string b "violating classes: none\n"
  | vs ->
      Buffer.add_string b "violating classes:\n";
      List.iter
        (fun (v : Driver.violation) ->
          Buffer.add_string b
            (Printf.sprintf "  %s %s\n" (Canon.short v.Driver.vi_class)
               v.Driver.vi_oracle))
        vs);
  Buffer.contents b

let render ?(stats = false) (o : Driver.outcome) : string =
  let b = Buffer.create 1024 in
  Buffer.add_string b
    (Printf.sprintf "model check: %s\n"
       (Fuzz.Replay.to_string o.Driver.mc_case));
  Buffer.add_string b
    (Printf.sprintf "mode: %s, engine: %s, frontier depth %d, %d tasks\n"
       (if o.Driver.mc_dpor then "dpor" else "naive")
       (match o.Driver.mc_engine with
       | Explore.Replay -> "replay"
       | Explore.Incremental -> "incremental")
       o.Driver.mc_frontier o.Driver.mc_tasks);
  Buffer.add_string b
    (Printf.sprintf
       "explored: %d maximal executions, %d classes, %d sleep-set prunes, %d \
        table prunes\n"
       o.Driver.mc_executions
       (List.length o.Driver.mc_classes)
       o.Driver.mc_sleep_blocked o.Driver.mc_tt_hits);
  if stats then
    Buffer.add_string b
      (Printf.sprintf
         "deliveries simulated (replays included): %d (%d undone, %.2f per \
          execution)\nbattery: %d runs for %d classes (%d at merge)\n"
         o.Driver.mc_deliveries o.Driver.mc_undos
         (float_of_int o.Driver.mc_deliveries
         /. float_of_int (max 1 o.Driver.mc_executions))
         (o.Driver.mc_batteries + o.Driver.mc_merge_batteries)
         (List.length o.Driver.mc_classes)
         o.Driver.mc_merge_batteries);
  Buffer.add_string b (render_verdicts o);
  (match o.Driver.mc_violations with
  | [] -> ()
  | vs ->
      Buffer.add_string b (Printf.sprintf "violations: %d\n" (List.length vs));
      List.iter
        (fun (v : Driver.violation) ->
          Buffer.add_string b
            (Printf.sprintf "  %s %s: %s\n"
               (Canon.short v.Driver.vi_class)
               v.Driver.vi_oracle v.Driver.vi_detail);
          Buffer.add_string b
            (Printf.sprintf "    repro:  %s\n"
               (Fuzz.Replay.repro_command v.Driver.vi_case));
          Buffer.add_string b
            (Printf.sprintf "    shrunk: %s\n"
               (Fuzz.Replay.repro_command v.Driver.vi_shrunk)))
        vs);
  Buffer.contents b
