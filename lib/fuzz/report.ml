(** Campaign reports.  Rendering is a pure function of the campaign
    outcome, so two runs with the same seed and case count produce
    byte-identical reports — the determinism contract `abc fuzz --seed
    N` is tested against. *)

let bprintf = Printf.bprintf

let render_case_block buf indent case =
  bprintf buf "%scase:  %s\n" indent (Replay.to_string case);
  bprintf buf "%srepro: %s\n" indent (Replay.repro_command case)

let render (o : Campaign.outcome) =
  let buf = Buffer.create 1024 in
  bprintf buf "fuzz campaign: seed=%d cases=%d" o.Campaign.cp_seed o.Campaign.cp_cases_run;
  (* the marker appears only on boundary campaigns, so pre-nemesis
     reports are byte-identical *)
  if o.Campaign.cp_boundary then bprintf buf " boundary=n=3f";
  bprintf buf "\n";
  let counts label l =
    bprintf buf "  %-10s %s\n" label
      (String.concat " "
         (List.map (fun (k, n) -> Printf.sprintf "%s=%d" k n) l))
  in
  counts "schedulers" o.Campaign.cp_families;
  counts "workloads" o.Campaign.cp_workloads;
  bprintf buf "  %-18s %7s %6s %6s %6s\n" "oracle" "applied" "pass" "skip" "fail";
  List.iter
    (fun (name, s) ->
      let open Campaign in
      bprintf buf "  %-18s %7d %6d %6d %6d\n" name
        (s.os_pass + s.os_skip + s.os_fail)
        s.os_pass s.os_skip s.os_fail)
    o.Campaign.cp_stats;
  (match o.Campaign.cp_failures with
  | [] -> bprintf buf "violations: 0\n"
  | fs ->
      bprintf buf "violations: %d\n" (List.length fs);
      List.iteri
        (fun i f ->
          bprintf buf "[%d] oracle %s: %s\n" (i + 1) f.Campaign.fl_oracle
            f.Campaign.fl_detail;
          render_case_block buf "    " f.Campaign.fl_case;
          match f.Campaign.fl_shrunk with
          | None -> ()
          | Some s ->
              bprintf buf "    shrunk (%d steps, %d candidate runs):\n" s.Shrink.steps
                s.Shrink.evaluations;
              render_case_block buf "    " s.Shrink.shrunk)
        fs);
  Buffer.contents buf

(** The campaign's execution cost: wall time, per-case aggregates,
    allocation.  Nondeterministic by nature — kept out of {!render} so
    that reports stay byte-identical across runs and [jobs] values;
    callers print this separately (the CLI sends it to stderr). *)
let render_cost (o : Campaign.outcome) =
  let c = o.Campaign.cp_cost in
  let n = Array.length c.Campaign.ct_case_wall in
  let buf = Buffer.create 256 in
  bprintf buf "cost: jobs=%d wall=%.3fs\n" c.Campaign.ct_jobs c.Campaign.ct_wall;
  if n > 0 then begin
    let total = Array.fold_left ( +. ) 0.0 c.Campaign.ct_case_wall in
    let slowest = ref 0 in
    Array.iteri
      (fun i w -> if w > c.Campaign.ct_case_wall.(!slowest) then slowest := i)
      c.Campaign.ct_case_wall;
    bprintf buf
      "  cases: wall total=%.3fs mean=%.1fms max=%.1fms (case %d)\n" total
      (1000.0 *. total /. float_of_int n)
      (1000.0 *. c.Campaign.ct_case_wall.(!slowest))
      !slowest;
    bprintf buf "  alloc: %.1f Mwords minor\n"
      (Array.fold_left ( +. ) 0.0 c.Campaign.ct_case_alloc /. 1e6)
  end;
  Buffer.contents buf

(** One line per oracle outcome of a replayed case. *)
let render_outcomes results =
  let buf = Buffer.create 256 in
  List.iter
    (fun (name, o) ->
      match o with
      | Oracle.Pass -> bprintf buf "  %-18s pass\n" name
      | Oracle.Skip why -> bprintf buf "  %-18s skip (%s)\n" name why
      | Oracle.Fail why -> bprintf buf "  %-18s FAIL: %s\n" name why)
    results;
  Buffer.contents buf
