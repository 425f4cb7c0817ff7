(* Tests for the property-based fuzzer: serialization round-trips,
   campaign determinism, the bounded smoke campaign the acceptance of
   the oracles rests on, and shrinking demonstrated against an
   intentionally broken test-only oracle. *)

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

let shrink_tests =
  [
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
        (* the mc boundary witness carries a schedule, so the fuzz
           shrinker's smaller-budget candidates take the session-reuse
           path and its other candidates the stateless one *)
        let case =
          match Replay.of_string Test_mc.witness_line with
          | Ok c -> c
          | Error e -> Alcotest.failf "witness rejected: %s" e
        in
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
          (fun reuse ->
            shrink_with
              (Printf.sprintf "Shrink.shrink ~session_reuse:%b" reuse)
              (fun oracles -> Shrink.shrink ~session_reuse:reuse ~oracles ~oracle:target case))
          [ true; false ];
        shrink_with "Mc_shrink.shrink" (fun oracles ->
            Mc.Mc_shrink.shrink ~oracles ~oracle:target case));
    Alcotest.test_case "a shrink's trace does not depend on session_reuse" `Quick
      (fun () ->
        (* candidate runs are muted on both paths, so what a shrink
           traces is the shrinker's own instants and nothing else *)
        let case =
          match Replay.of_string Test_mc.witness_line with
          | Ok c -> c
          | Error e -> Alcotest.failf "witness rejected: %s" e
        in
        let oracle = "boundary-precision" in
        let oracles = Oracle.registry in
        let traced what shrink reuse =
          let (), tr =
            Obs.capture (fun () ->
                Obs.with_scope 0 (fun () -> ignore (shrink ~session_reuse:reuse)))
          in
          if tr.Obs.t_dropped <> 0 then Alcotest.failf "%s: %d events dropped" what tr.Obs.t_dropped;
          Array.iter
            (fun (e : Obs.event) ->
              match (e.Obs.ev_cat, e.Obs.ev_name) with
              | "fuzz", ("shrink-eval" | "shrink-step") -> ()
              | cat, name ->
                  Alcotest.failf "%s ~session_reuse:%b traced %s/%s" what reuse cat name)
            tr.Obs.t_events;
          (Array.length tr.Obs.t_events, Obs.digest tr)
        in
        let both what shrink =
          let walked = traced what shrink true and stateless = traced what shrink false in
          if walked <> stateless then
            Alcotest.failf "%s: %d events (%s) with the walker, %d (%s) without" what
              (fst walked) (snd walked) (fst stateless) (snd stateless);
          fst walked
        in
        let fuzz_events =
          both "Shrink.shrink" (fun ~session_reuse ->
              (Shrink.shrink ~session_reuse ~oracles ~oracle case).Shrink.evaluations)
        in
        if fuzz_events = 0 then Alcotest.fail "Shrink.shrink traced no shrink-eval";
        let mc_events =
          both "Mc_shrink.shrink" (fun ~session_reuse ->
              (Mc.Mc_shrink.shrink ~session_reuse ~oracles ~oracle case).Shrink.evaluations)
        in
        Alcotest.(check int) "Mc_shrink traces nothing" 0 mc_events);
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
  @ select_tests @ property_tests
