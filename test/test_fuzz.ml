(* Tests for the property-based fuzzer: serialization round-trips,
   campaign determinism, the bounded smoke campaign the acceptance of
   the oracles rests on, and the one shrinker: shrinking demonstrated
   against an intentionally broken test-only oracle, the model
   checker's schedule shrinks pinned, and its evaluator (cuts of a
   recorded run) against fresh runs, candidate by candidate and shrink
   by shrink. *)

open Fuzz

let contains = Util.contains

let roundtrip_tests =
  [
    Alcotest.test_case "to_string/of_string round-trip, 100 seeds" `Quick (fun () ->
        for seed = 0 to 99 do
          let c = Gen.generate ~seed in
          let line = Replay.to_string c in
          match Replay.of_string line with
          | Ok c' ->
              if c' <> c then
                Alcotest.failf "seed %d: round-trip changed the case: %s" seed line
          | Error e -> Alcotest.failf "seed %d: %s does not parse back: %s" seed line e
        done);
    Alcotest.test_case "boundary cases round-trip and validate" `Quick (fun () ->
        for seed = 300 to 349 do
          let c = Gen.generate_boundary ~seed in
          (match Gen.validate c with
          | Ok _ -> ()
          | Error e -> Alcotest.failf "seed %d: invalid boundary case: %s" seed e);
          if not c.Gen.c_boundary then
            Alcotest.failf "seed %d: boundary flag not set" seed;
          if c.Gen.c_nprocs <> 3 * Gen.nfaulty c then
            Alcotest.failf "seed %d: boundary case is not at n = 3f" seed;
          let line = Replay.to_string c in
          match Replay.of_string line with
          | Ok c' ->
              if c' <> c then
                Alcotest.failf "seed %d: boundary round-trip changed the case: %s" seed
                  line
          | Error e -> Alcotest.failf "seed %d: %s does not parse back: %s" seed line e
        done);
    Alcotest.test_case "generated cases validate" `Quick (fun () ->
        for seed = 100 to 199 do
          match Gen.validate (Gen.generate ~seed) with
          | Ok _ -> ()
          | Error e -> Alcotest.failf "seed %d generates an invalid case: %s" seed e
        done);
    Alcotest.test_case "of_string is total on malformed input" `Quick (fun () ->
        List.iter
          (fun s ->
            match Replay.of_string s with
            | Error _ -> ()
            | Ok _ -> Alcotest.failf "%S should not parse" s)
          [
            "";
            "garbage";
            "abc9;s=1;n=4;f=C,C,C,C;xi=2;w=clock;d=theta:1:2;e=100";
            "abc1;s=1;n=4;f=C,C,C;xi=2;w=clock;d=theta:1:2;e=100" (* size *);
            "abc1;s=1;n=4;f=C,C,C,C;xi=1;w=clock;d=theta:1:2;e=100" (* Xi<=1 *);
            "abc1;s=1;n=4;f=C,C,C,C;xi=2;w=tea;d=theta:1:2;e=100";
            "abc1;s=1;n=4;f=C,C,C,C;xi=2;w=clock;d=theta:1;e=100";
            "abc1;s=1;n=4;f=C,C,C,B;xi=2;w=eig;d=defer:0:1;e=100" (* defer+eig *);
            "abc1;s=1;n=4;f=C,C,C,C;xi=2;w=clock;d=theta:1:2;e=100;p="
            (* empty p field: omit instead *);
            "abc1;s=1;n=4;f=C,C,C,C;xi=2;w=clock;d=theta:1:2;e=100;p=5:zap";
            "abc1;s=1;n=4;f=C,C,C,C;xi=2;w=clock;d=theta:1:2;e=100;b=2";
            "abc1;s=1;n=4;f=C,C,C,Beq;xi=2;w=clock;d=defer:0:1;e=100;b=1"
            (* boundary flag off the n = 3f line *);
          ]);
    Alcotest.test_case "an out-of-range Xi is a typed error naming 2^30" `Quick
      (fun () ->
        let line xi = Printf.sprintf "abc1;s=1;n=4;f=C,C,C,C;xi=%s;w=clock;d=async:1;e=8" xi in
        (* the reduced parts count: 2^31/2 is 2^30, the largest accepted *)
        List.iter
          (fun xi ->
            match Replay.of_string (line xi) with
            | Ok _ -> ()
            | Error e -> Alcotest.failf "xi=%s rejected: %s" xi e)
          [ "1073741824/1073741823"; "2147483648/2" ];
        List.iter
          (fun xi ->
            match Replay.replay (line xi) with
            | Ok _ -> Alcotest.failf "xi=%s replayed" xi
            | Error e ->
                if not (contains "2^30" e) then
                  Alcotest.failf "xi=%s: error does not name the bound: %s" xi e)
          [ "4294967297/2"; "1073741825/1073741823"; "1073741826/1073741825" ]);
  ]

let determinism_tests =
  [
    Alcotest.test_case "same seed, same report" `Quick (fun () ->
        let report () =
          Report.render (Campaign.run ~shrink:false ~cases:10 ~seed:2026 ())
        in
        let a = report () and b = report () in
        Alcotest.(check string) "byte-identical reports" a b);
    Alcotest.test_case "different seeds differ" `Quick (fun () ->
        let report seed =
          Report.render (Campaign.run ~shrink:false ~cases:5 ~seed ())
        in
        Alcotest.(check bool) "distinct case sets" false (report 1 = report 2));
  ]

let smoke_tests =
  [
    Alcotest.test_case "100-case campaign: no violations, >= 4 families" `Slow
      (fun () ->
        let o = Campaign.run ~shrink:false ~cases:100 ~seed:1 () in
        Alcotest.(check int) "all cases ran" 100 o.Campaign.cp_cases_run;
        (match o.Campaign.cp_failures with
        | [] -> ()
        | f :: _ ->
            Alcotest.failf "oracle %s failed: %s\n  repro: %s" f.Campaign.fl_oracle
              f.Campaign.fl_detail
              (Replay.repro_command f.Campaign.fl_case));
        Alcotest.(check bool)
          "scheduler diversity" true
          (List.length o.Campaign.cp_families >= 4);
        (* every oracle must achieve real (non-vacuous) coverage —
           except the boundary-* oracles, which by design only apply to
           the n = 3f cases of a boundary campaign and skip here *)
        List.iter
          (fun (name, s) ->
            let boundary =
              String.length name >= 9 && String.sub name 0 9 = "boundary-"
            in
            if boundary then begin
              if s.Campaign.os_skip = 0 then
                Alcotest.failf "boundary oracle %s never even skipped" name
            end
            else if s.Campaign.os_pass = 0 then
              Alcotest.failf "oracle %s never passed (vacuous coverage)" name)
          o.Campaign.cp_stats);
    Alcotest.test_case "boundary campaign witnesses both violation kinds" `Slow
      (fun () ->
        let o = Campaign.run ~shrink:false ~boundary:true ~cases:50 ~seed:1 () in
        let fails name =
          match List.assoc_opt name o.Campaign.cp_stats with
          | Some s -> s.Campaign.os_fail
          | None -> Alcotest.failf "oracle %s missing from the registry" name
        in
        Alcotest.(check bool) "precision violated at n = 3f" true
          (fails "boundary-precision" > 0);
        Alcotest.(check bool) "EIG agreement violated at n = 3f" true
          (fails "boundary-agreement" > 0);
        (* positive oracles must not fire on boundary cases: every
           failure of a boundary campaign names a boundary-* oracle *)
        List.iter
          (fun f ->
            if
              not
                (String.length f.Campaign.fl_oracle >= 9
                && String.sub f.Campaign.fl_oracle 0 9 = "boundary-")
            then
              Alcotest.failf "non-boundary oracle %s fired on a boundary case: %s"
                f.Campaign.fl_oracle f.Campaign.fl_detail)
          o.Campaign.cp_failures;
        (* each witness replays byte-identically and re-fails *)
        List.iter
          (fun f ->
            let line = Replay.to_string f.Campaign.fl_case in
            match Replay.replay line with
            | Error e -> Alcotest.failf "witness does not replay: %s" e
            | Ok (c, results) ->
                Alcotest.(check string) "byte-identical replay line" line
                  (Replay.to_string c);
                if not (List.mem_assoc f.Campaign.fl_oracle (Oracle.failures results))
                then
                  Alcotest.failf "replayed witness no longer fails %s"
                    f.Campaign.fl_oracle)
          o.Campaign.cp_failures);
  ]

(* An intentionally broken test-only oracle: fails as soon as the run
   simulated any event at all, so every case is a counterexample and
   the shrinker must descend to the structural minimum. *)
let broken_oracle =
  {
    Oracle.name = "test-no-events";
    theorem = "test-only: no run may simulate any event";
    check =
      (fun ctx ->
        let d = Gen.delivered_of_run ctx.Oracle.run in
        if d > 0 then Oracle.Fail (Printf.sprintf "%d events simulated" d)
        else Oracle.Pass);
  }

(* The evaluator that runs every candidate fresh. *)
let fresh ~oracles c = Oracle.evaluate oracles c

(* A shrink through an evaluator ([cuts]) or through fresh runs. *)
let shrink_by ~cuts =
  Shrink.shrink ~evaluate:(if cuts then Shrink.evaluator () else fresh)

(* Shrink [case] by cuts and by fresh runs, under a traced scope: the
   shrunk case, steps, evaluations and the trace must be the same both
   ways.  The cuts start, as a campaign's do, from an evaluator that
   already ran the case.  Returns the shrink. *)
let shrinks_alike ~oracles ~oracle case =
  let go cuts =
    let evaluate = if cuts then Shrink.evaluator () else fresh in
    if cuts then ignore (evaluate ~oracles case);
    Obs.capture (fun () ->
        Obs.with_scope 0 (fun () -> Shrink.shrink ~evaluate ~oracles ~oracle case))
  in
  let a, ta = go true and b, tb = go false in
  let line = Replay.to_string case in
  Alcotest.(check string) (line ^ ": shrunk case") (Replay.to_string b.Shrink.shrunk)
    (Replay.to_string a.Shrink.shrunk);
  Alcotest.(check int) (line ^ ": steps") b.Shrink.steps a.Shrink.steps;
  Alcotest.(check int) (line ^ ": evaluations") b.Shrink.evaluations a.Shrink.evaluations;
  Alcotest.(check (pair int string))
    (line ^ ": trace")
    (Array.length tb.Obs.t_events, Obs.digest tb)
    (Array.length ta.Obs.t_events, Obs.digest ta);
  a

(* A test-only oracle that always fails, with a digest of everything
   the run returned as its detail: two evaluations agree on it only if
   they saw the same run. *)
let fingerprint =
  let digest (r : (_, _) Sim.result) =
    Digest.to_hex
      (Digest.string
         (Marshal.to_string
            ( r.Sim.trace,
              r.Sim.final_states,
              (r.Sim.delivered, r.Sim.undelivered, r.Sim.posted, r.Sim.dropped),
              (Execgraph.Graph.event_count r.Sim.graph, Execgraph.Graph.edge_count r.Sim.graph) )
            [ Marshal.No_sharing ]))
  in
  {
    Oracle.name = "test-fingerprint";
    theorem = "test-only: fails with a digest of the whole run";
    check =
      (fun ctx ->
        Oracle.Fail
          (match ctx.Oracle.run with
          | Gen.R_clock r -> digest r
          | Gen.R_lockstep r -> digest r
          | Gen.R_consensus (r, _) -> digest r));
  }

(* Feed one evaluator the candidates a shrink of [c] could ask for, in
   an order that mixes budgets and boxes: [c]'s candidates, a few
   candidates of the first few, a variant of [c] that fails
   [Gen.validate] (a run that raises), [c] itself, then [c]'s
   candidates again, whose smaller budgets are cuts of [c]'s own run.
   Every answer must equal a fresh [Oracle.evaluate]'s. *)
let evaluator_agrees c =
  let take k l = List.filteri (fun i _ -> i < k) l in
  let cs = Shrink.candidates c in
  let invalid = { c with Gen.c_xi = Rat.one } in
  let seq =
    cs
    @ List.concat_map (fun c' -> take 3 (Shrink.candidates c')) (take 3 cs)
    @ (invalid :: c :: cs)
  in
  let evaluate = Shrink.evaluator () in
  List.iter
    (fun cand ->
      let fresh = Oracle.evaluate [ fingerprint ] cand in
      if evaluate ~oracles:[ fingerprint ] cand <> fresh then
        Alcotest.failf "evaluator and fresh run differ on %s (shrinking %s)"
          (Replay.to_string cand) (Replay.to_string c))
    seq

(* A test-only oracle that fails once a run delivered [k] messages. *)
let fails_from k =
  {
    Oracle.name = Printf.sprintf "test-%d-deliveries" k;
    theorem = Printf.sprintf "test-only: a run may not deliver %d messages" k;
    check =
      (fun ctx ->
        if Gen.delivered_of_run ctx.Oracle.run >= k then Oracle.Fail "enough"
        else Oracle.Pass);
  }

(* A test-only oracle that fails once process 0 received [k] messages.
   Unlike the delivery count, this depends on the delivery order, so a
   schedule shrink under it rejects some of its candidates. *)
let receipts_from k =
  let receipts (r : (_, _) Sim.result) =
    Array.fold_left
      (fun n (te : _ Sim.trace_entry) ->
        if te.Sim.tr_proc = 0 && te.Sim.tr_sender >= 0 then n + 1 else n)
      0 r.Sim.trace
  in
  {
    Oracle.name = Printf.sprintf "test-%d-receipts-at-0" k;
    theorem = Printf.sprintf "test-only: process 0 may not receive %d messages" k;
    check =
      (fun ctx ->
        let n =
          match ctx.Oracle.run with
          | Gen.R_clock r -> receipts r
          | Gen.R_lockstep r -> receipts r
          | Gen.R_consensus (r, _) -> receipts r
        in
        if n >= k then Oracle.Fail "enough" else Oracle.Pass);
  }

(* The first [count] schedule-bearing Z1 cases: the seed-1 campaign's
   cases that take a schedule (the deferring adversary does not), with
   budgets capped at 20 and 1-20 choices in 0..9 drawn from the case
   seed by a fixed LCG. *)
let scheduled_z1 count =
  let schedule seed =
    let s = ref seed in
    let next () =
      s := ((!s * 1103515245) + 12345) land 0x3fffffff;
      !s lsr 16
    in
    let rec draw k acc = if k = 0 then List.rev acc else draw (k - 1) ((next () mod 10) :: acc) in
    let len = 1 + (next () mod 20) in
    draw len []
  in
  let rec go i acc =
    if List.length acc = count then List.rev acc
    else
      let c = Gen.generate ~seed:(Campaign.case_seed ~seed:1 i) in
      let c =
        {
          c with
          Gen.c_schedule = schedule c.Gen.c_seed;
          c_max_events = max c.Gen.c_nprocs (min c.Gen.c_max_events 20);
        }
      in
      go (i + 1) (if Result.is_ok (Gen.validate c) then c :: acc else acc)
  in
  go 0 []

(* A [boundary-precision] witness of each kind: the model checker's
   schedule-bearing one and a scheduler-driven deferring one. *)
let precision_witnesses () =
  List.map
    (fun line ->
      match Replay.of_string line with
      | Ok c -> (line, c)
      | Error e -> Alcotest.failf "witness rejected: %s" e)
    [
      Test_mc.witness_line;
      "abc1;s=1054795105;n=3;f=C,C,Beq;xi=5/2;w=clock;d=defer:0:1;e=116;b=1";
    ]

let shrink_tests =
  [
    Alcotest.test_case "schedule shrinks keep their pinned results" `Quick (fun () ->
        (* what the model checker's witnesses shrink to: the mc witness
           is already minimal (38 candidates, none accepted), and the
           digest covers 40 Z1 schedules under five synthetic oracles *)
        let line (r : Shrink.result) =
          Printf.sprintf "%s|%d|%d" (Replay.to_string r.Shrink.shrunk) r.Shrink.steps
            r.Shrink.evaluations
        in
        let witness =
          match Replay.of_string Test_mc.witness_line with
          | Ok c -> c
          | Error e -> Alcotest.failf "witness rejected: %s" e
        in
        Alcotest.(check string) "mc witness"
          (Test_mc.witness_line ^ "|0|38")
          (line (Shrink.shrink ~oracles:Oracle.registry ~oracle:"boundary-precision" witness));
        let cases = scheduled_z1 40 in
        let lines =
          List.concat_map
            (fun (o : Oracle.t) ->
              List.map (fun c -> line (Shrink.shrink ~oracles:[ o ] ~oracle:o.Oracle.name c)) cases)
            (List.map fails_from [ 1; 5; 12 ] @ List.map receipts_from [ 2; 4 ])
        in
        Alcotest.(check string) "Z1 schedule shrinks" "5a18a626ca31d784a7a8504a53e756f2"
          (Digest.to_hex (Digest.string (String.concat "\n" lines))));
    Alcotest.test_case "broken oracle shrinks to a tiny case" `Quick (fun () ->
        let case = Gen.generate ~seed:3 in
        let results = Oracle.evaluate [ broken_oracle ] case in
        Alcotest.(check bool)
          "original case fails" true
          (List.mem_assoc "test-no-events" (Oracle.failures results));
        let r =
          Shrink.shrink ~oracles:[ broken_oracle ] ~oracle:"test-no-events" case
        in
        Alcotest.(check bool)
          "shrunk to <= 6 events" true
          (r.Shrink.shrunk.Gen.c_max_events <= 6);
        Alcotest.(check bool)
          "shrunk to the minimal process count" true
          (r.Shrink.shrunk.Gen.c_nprocs <= 3);
        Alcotest.(check int) "no faults left" 0 (Gen.nfaulty r.Shrink.shrunk));
    Alcotest.test_case "shrunk case replays and re-fails" `Quick (fun () ->
        let case = Gen.generate ~seed:3 in
        let r =
          Shrink.shrink ~oracles:[ broken_oracle ] ~oracle:"test-no-events" case
        in
        match Replay.replay ~oracles:[ broken_oracle ] (Replay.to_string r.Shrink.shrunk) with
        | Error e -> Alcotest.failf "shrunk case does not replay: %s" e
        | Ok (c, results) ->
            Alcotest.(check bool) "same case back" true (c = r.Shrink.shrunk);
            Alcotest.(check bool)
              "still fails the same oracle" true
              (List.mem_assoc "test-no-events" (Oracle.failures results)));
    Alcotest.test_case "shrinking preserves boundary witnesses" `Slow (fun () ->
        (* the two golden witness lines: shrinking must keep the case
           failing the same boundary oracle (and keep it valid) *)
        List.iter
          (fun (line, oracle) ->
            match Replay.of_string line with
            | Error e -> Alcotest.failf "witness line does not parse: %s" e
            | Ok case ->
                let r = Shrink.shrink ~oracles:Oracle.registry ~oracle case in
                (match Gen.validate r.Shrink.shrunk with
                | Ok _ -> ()
                | Error e -> Alcotest.failf "shrunk witness invalid: %s" e);
                let results = Oracle.evaluate Oracle.registry r.Shrink.shrunk in
                if not (List.mem_assoc oracle (Oracle.failures results)) then
                  Alcotest.failf "shrunk case no longer fails %s: %s" oracle
                    (Replay.to_string r.Shrink.shrunk))
          [
            ( "abc1;s=515953530;n=3;f=C,C,Beq;xi=5/2;w=eig;d=theta:1:2;e=500;b=1",
              "boundary-agreement" );
            ( "abc1;s=1054795105;n=3;f=C,C,Beq;xi=5/2;w=clock;d=defer:0:1;e=116;b=1",
              "boundary-precision" );
          ]);
    Alcotest.test_case "shrinking runs only the oracle it minimises" `Quick
      (fun () ->
        (* the mc witness's candidates run fresh; the deferring
           witness's budget candidates are cut from a recorded run *)
        let target = "boundary-precision" in
        let shrink_with what run =
          let counts = List.map (fun (o : Oracle.t) -> (o.Oracle.name, ref 0)) Oracle.registry in
          let oracles =
            List.map
              (fun (o : Oracle.t) ->
                let n = List.assoc o.Oracle.name counts in
                { o with Oracle.check = (fun ctx -> incr n; o.Oracle.check ctx) })
              Oracle.registry
          in
          let r = run oracles in
          if r.Shrink.evaluations = 0 then Alcotest.failf "%s: no candidate ran" what;
          List.iter
            (fun (name, n) ->
              let expected = if name = target then r.Shrink.evaluations else 0 in
              if !n <> expected then
                Alcotest.failf "%s: %s ran %d times, expected %d" what name !n expected)
            counts
        in
        List.iter
          (fun (line, case) ->
            List.iter
              (fun cuts ->
                shrink_with
                  (Printf.sprintf "%s, cuts:%b" line cuts)
                  (fun oracles -> shrink_by ~cuts ~oracles ~oracle:target case))
              [ true; false ])
          (precision_witnesses ()));
    Alcotest.test_case "a shrink's trace does not depend on cuts" `Quick
      (fun () ->
        (* candidate runs are muted on both paths, so a shrink traces
           its own instants and nothing else: one per candidate and one
           per accepted reduction, schedule-bearing or not *)
        List.iter
          (fun (line, case) ->
            let traced cuts =
              let r, tr =
                Obs.capture (fun () ->
                    Obs.with_scope 0 (fun () ->
                        shrink_by ~cuts ~oracles:Oracle.registry
                          ~oracle:"boundary-precision" case))
              in
              if tr.Obs.t_dropped <> 0 then
                Alcotest.failf "%s: %d events dropped" line tr.Obs.t_dropped;
              Array.iter
                (fun (e : Obs.event) ->
                  match (e.Obs.ev_cat, e.Obs.ev_name) with
                  | "fuzz", ("shrink-eval" | "shrink-step") -> ()
                  | cat, name -> Alcotest.failf "%s, cuts:%b traced %s/%s" line cuts cat name)
                tr.Obs.t_events;
              let n = Array.length tr.Obs.t_events in
              if n = 0 || n <> r.Shrink.evaluations + r.Shrink.steps then
                Alcotest.failf "%s, cuts:%b: %d events for %d candidates and %d steps" line
                  cuts n r.Shrink.evaluations r.Shrink.steps;
              (n, Obs.digest tr)
            in
            let by_cuts = traced true and fresh = traced false in
            if by_cuts <> fresh then
              Alcotest.failf "%s: %d events (%s) by cuts, %d (%s) by fresh runs" line
                (fst by_cuts) (snd by_cuts) (fst fresh) (snd fresh))
          (precision_witnesses ()));
    Alcotest.test_case "boundary witnesses shrink identically by cuts and by fresh runs"
      `Quick (fun () ->
        (* the seed-1 boundary campaign's first cases: EIG agreement and
           deferring-clock precision witnesses, whose budget candidates
           the evaluator answers from cuts of its last recorded run *)
        let kinds = Hashtbl.create 2 in
        for i = 0 to 5 do
          let c = Gen.generate_boundary ~seed:(Campaign.case_seed ~seed:1 i) in
          List.iter
            (fun (oracle, _) ->
              Hashtbl.replace kinds oracle ();
              ignore (shrinks_alike ~oracles:Oracle.registry ~oracle c))
            (Oracle.failures (Oracle.evaluate Oracle.registry c))
        done;
        List.iter
          (fun oracle ->
            if not (Hashtbl.mem kinds oracle) then
              Alcotest.failf "no %s witness among the cases" oracle)
          [ "boundary-agreement"; "boundary-precision" ]);
    Alcotest.test_case "budget shrinking on every family is the same by cuts" `Quick
      (fun () ->
        (* Z1 cases (the seed-1 campaign) under an oracle that fails
           once enough deliveries happen, so every candidate kind is
           accepted somewhere: smaller budgets (cuts), and box changes
           (recorded runs that replace the last one) *)
        let enough =
          {
            Oracle.name = "test-enough-deliveries";
            theorem = "test-only: a run may not deliver 3n messages";
            check =
              (fun ctx ->
                if Gen.delivered_of_run ctx.Oracle.run >= 3 * ctx.Oracle.case.Gen.c_nprocs
                then Oracle.Fail "enough"
                else Oracle.Pass);
          }
        in
        let families = Hashtbl.create 8 in
        let i = ref 0 in
        while Hashtbl.length families < 6 do
          if !i > 200 then Alcotest.fail "the Z1 cases did not cover every family";
          let c = Gen.generate ~seed:(Campaign.case_seed ~seed:1 !i) in
          incr i;
          let family = Gen.family_name c.Gen.c_sched in
          if not (Hashtbl.mem families family) then begin
            Hashtbl.replace families family ();
            let r =
              shrinks_alike ~oracles:[ enough ] ~oracle:"test-enough-deliveries" c
            in
            if r.Shrink.shrunk.Gen.c_max_events >= c.Gen.c_max_events then
              Alcotest.failf "%s: the budget did not shrink" (Replay.to_string c)
          end
        done);
    Alcotest.test_case "the evaluator answers every candidate as a fresh run does" `Quick
      (fun () ->
        (* budgets capped so the EIG cases stay cheap; plans included,
           whose removal is a box change the evaluator must not cut *)
        let plans = ref 0 and i = ref 0 in
        while !plans < 3 || !i < 8 do
          let c = Gen.generate ~seed:(Campaign.case_seed ~seed:1 !i) in
          incr i;
          let c = { c with Gen.c_max_events = min c.Gen.c_max_events 150 } in
          if c.Gen.c_plan <> [] then incr plans;
          if c.Gen.c_plan <> [] || !i <= 8 then evaluator_agrees c
        done;
        for seed = 0 to 3 do
          evaluator_agrees (Gen.generate_boundary ~seed)
        done);
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:12 ~name:"shrinking by cuts = shrinking by fresh runs"
         QCheck.(pair (int_range 0 5000) (int_range 1 40))
         (fun (seed, k) ->
           (* scheduler-driven Z1 cases under an oracle that fails once
              [k] messages were delivered, so budget candidates are cut *)
           let c = Gen.generate ~seed in
           let c = { c with Gen.c_max_events = min c.Gen.c_max_events 60 } in
           match Gen.validate c with
           | Error _ -> true (* not a valid box: nothing to compare *)
           | Ok c ->
               let o = fails_from k in
               let sh cuts = shrink_by ~cuts ~oracles:[ o ] ~oracle:o.Oracle.name c in
               let a = sh true and b = sh false in
               if
                 Replay.to_string a.Shrink.shrunk <> Replay.to_string b.Shrink.shrunk
                 || a.Shrink.steps <> b.Shrink.steps
                 || a.Shrink.evaluations <> b.Shrink.evaluations
               then
                 QCheck.Test.fail_reportf
                   "paths diverge on %s:@.cuts %s (%d steps, %d evals)@.fresh %s (%d \
                    steps, %d evals)"
                   (Replay.to_string c)
                   (Replay.to_string a.Shrink.shrunk)
                   a.Shrink.steps a.Shrink.evaluations
                   (Replay.to_string b.Shrink.shrunk)
                   b.Shrink.steps b.Shrink.evaluations
               else true));
    Alcotest.test_case "candidates are valid and strictly different" `Quick
      (fun () ->
        for seed = 0 to 30 do
          let c = Gen.generate ~seed in
          List.iter
            (fun c' ->
              if c' = c then Alcotest.failf "seed %d: identity candidate" seed;
              match Gen.validate c' with
              | Ok _ -> ()
              | Error e -> Alcotest.failf "seed %d: invalid candidate: %s" seed e)
            (Shrink.candidates c)
        done);
  ]

(* The half prefix as the delay-assignment oracle used to rebuild it:
   the first [k] events of [g] added afresh, then the messages among
   them. *)
let rebuilt_prefix g k =
  let module G = Execgraph.Graph in
  let g' = G.create ~nprocs:(G.nprocs g) in
  for id = 0 to k - 1 do
    ignore (G.add_event g' ~proc:(G.event g id).Execgraph.Event.proc)
  done;
  List.iter
    (fun (e : Digraph.edge) ->
      if G.is_message g e && e.src < k && e.dst < k then
        ignore (G.add_message g' ~src:e.src ~dst:e.dst))
    (Digraph.edges (G.digraph g));
  g'

(* [Oracle.prefix_graph] against the rebuild on every prefix of a run's
   faithful graph: the same events per process and the same message
   pairs; and on the half prefix the oracle checks, the same
   delay-assignment verdict. *)
let prefix_agrees what case run =
  let module G = Execgraph.Graph in
  let g = Gen.graph_of_run run in
  let shape h =
    ( List.init (G.nprocs h) (G.events_of_proc h),
      List.sort compare
        (List.filter_map
           (fun (e : Digraph.edge) -> if G.is_message h e then Some (e.src, e.dst) else None)
           (Digraph.edges (G.digraph h))) )
  in
  for k = 0 to G.event_count g do
    if shape (Oracle.prefix_graph g k) <> shape (rebuilt_prefix g k) then
      Alcotest.failf "%s: the %d-event prefix differs from the rebuild" what k
  done;
  let xi = Lazy.force (Oracle.make_ctx case run).Oracle.xi_eff in
  let verdict h =
    Option.map (Core.Delay_assignment.verify h ~xi) (Core.Delay_assignment.solve_fast h ~xi)
  in
  let k = G.event_count g / 2 in
  if verdict (Oracle.prefix_graph g k) <> verdict (rebuilt_prefix g k) then
    Alcotest.failf "%s: the half prefix's verdict differs from the rebuild's" what

let prefix_tests =
  [
    Alcotest.test_case "the oracle's half prefix equals the rebuilt prefix" `Quick
      (fun () ->
        (* generated and boundary cases, cuts of their recorded runs,
           and an mc session walked with undos *)
        let cases =
          List.init 10 (fun i -> Gen.generate ~seed:(Campaign.case_seed ~seed:1 i))
          @ List.init 4 (fun seed -> Gen.generate_boundary ~seed)
        in
        List.iter
          (fun c ->
            let c = { c with Gen.c_max_events = min c.Gen.c_max_events 120 } in
            let line = Replay.to_string c in
            let run, cut = Gen.run_case_recorded c in
            prefix_agrees line c run;
            List.iter
              (fun k ->
                if k >= c.Gen.c_nprocs then
                  prefix_agrees
                    (Printf.sprintf "%s cut at %d" line k)
                    { c with Gen.c_max_events = k } (cut k))
              [ c.Gen.c_max_events / 2; c.Gen.c_max_events - 1 ])
          cases;
        let box =
          match Replay.of_string Test_mc.witness_line with
          | Ok c -> { c with Gen.c_schedule = [] }
          | Error e -> Alcotest.failf "witness rejected: %s" e
        in
        let s = Gen.open_session ~record:true box in
        let deliver_all pick =
          while s.Gen.ms_delivered () < box.Gen.c_max_events && not (s.Gen.ms_finished ()) do
            ignore (s.Gen.ms_deliver (pick (List.length (s.Gen.ms_ready ()))))
          done
        in
        deliver_all (fun m -> m - 1);
        for _ = 1 to 7 do
          s.Gen.ms_undo ()
        done;
        deliver_all (fun _ -> 0);
        prefix_agrees "the mc session" box (s.Gen.ms_run ()));
  ]

let select_tests =
  [
    Alcotest.test_case "oracle selection resolves known names in order" `Quick
      (fun () ->
        match Oracle.select "delay-assignment,clock-progress" with
        | Error e -> Alcotest.failf "valid names rejected: %s" e
        | Ok os -> (
            (* registry order, not mention order *)
            match List.map (fun (o : Oracle.t) -> o.Oracle.name) os with
            | [ "clock-progress"; "delay-assignment" ] -> ()
            | names ->
                Alcotest.failf "wrong selection: %s" (String.concat "," names)));
    Alcotest.test_case "no-crash is accepted but selects no registry oracle"
      `Quick (fun () ->
        match Oracle.select "no-crash" with
        | Ok [] -> ()
        | Ok _ -> Alcotest.fail "no-crash selected a registry oracle"
        | Error e -> Alcotest.failf "no-crash rejected: %s" e);
    Alcotest.test_case "unknown oracle names fail with the valid list" `Quick
      (fun () ->
        match Oracle.select "clock-progress,flux-capacitor" with
        | Ok _ -> Alcotest.fail "unknown oracle name accepted"
        | Error e ->
            if not (contains "flux-capacitor" e) then
              Alcotest.failf "error does not name the offender: %s" e;
            if not (contains "valid names" e && contains "clock-progress" e)
            then Alcotest.failf "error does not list valid names: %s" e);
  ]

(* Both generators, so boundary witnesses and positive cases are both
   covered. *)
let arb_case =
  QCheck.make
    ~print:(fun (b, s) -> Printf.sprintf "%s seed %d" (if b then "boundary" else "plain") s)
    QCheck.Gen.(pair bool (int_range 0 1_000_000))

let case_of (boundary, seed) =
  if boundary then Gen.generate_boundary ~seed else Gen.generate ~seed

let property_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:20
         ~name:"an oracle's verdict does not depend on the battery around it" arb_case
         (fun bs ->
           (* what the shrinkers rely on to evaluate only their target *)
           let c = case_of bs in
           let full = Oracle.evaluate Oracle.registry c in
           let alone name os = List.assoc_opt name (Oracle.evaluate os c) in
           alone "no-crash" [] = List.assoc_opt "no-crash" full
           && List.for_all
                (fun (o : Oracle.t) ->
                  alone o.Oracle.name [ o ] = List.assoc_opt o.Oracle.name full)
                Oracle.registry));
  ]

let suite =
  roundtrip_tests @ determinism_tests @ smoke_tests @ shrink_tests
  @ prefix_tests @ select_tests @ property_tests
