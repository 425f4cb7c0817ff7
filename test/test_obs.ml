(* Tests for the structured-tracing layer: the disabled/enabled
   contract, scope bookkeeping, ring overflow accounting, the digest's
   definition (MD5 over the scoped canonical lines in (scope, seq)
   order), sink-format invariance, and the acceptance property of the
   whole design — a fuzz campaign's and a model checker run's trace
   digests are byte-identical whatever the worker count. *)

open Fuzz

let prop name count arb f =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb f)

let q = Rat.of_ints

let campaign_trace ~jobs ~seed ~cases =
  let (), t =
    Obs.capture (fun () ->
        ignore (Campaign.run ~shrink:false ~cases ~jobs ~seed ()))
  in
  t

let mc_box ~nprocs ~budget =
  {
    Gen.c_seed = 1;
    c_nprocs = nprocs;
    c_faults = Array.make nprocs Sim.Correct;
    c_xi = q 2 1;
    c_sched = Gen.S_async { max_delay = Rat.one };
    c_workload = Gen.W_clock;
    c_max_events = budget;
    c_plan = [];
    c_boundary = false;
    c_schedule = [];
  }

let mc_trace ~jobs =
  let o, t =
    Obs.capture (fun () -> Mc.Driver.run ~jobs (mc_box ~nprocs:2 ~budget:5))
  in
  (o, t)

let unit_tests =
  [
    Alcotest.test_case "tracing is off by default" `Quick (fun () ->
        Alcotest.(check bool) "off" false (Obs.on ()));
    Alcotest.test_case "with_scope is transparent when off" `Quick (fun () ->
        Alcotest.(check int) "result" 42 (Obs.with_scope 3 (fun () -> 42)));
    Alcotest.test_case "capture records scoped and ambient events" `Quick
      (fun () ->
        let (), t =
          Obs.capture (fun () ->
              if Obs.on () then Obs.instant "a" "ambient" [];
              Obs.with_scope 0 (fun () ->
                  if Obs.on () then begin
                    Obs.span_begin "c" "work" [ ("k", Obs.I 1) ];
                    Obs.counter "c" "ticks" [] 7;
                    Obs.span_end "c" "work" []
                  end);
              if Obs.on () then Obs.instant "a" "ambient" [])
        in
        Alcotest.(check int) "events" 5 (Array.length t.Obs.t_events);
        Alcotest.(check int) "dropped" 0 t.Obs.t_dropped;
        (* scoped events lead, in (scope, seq) order *)
        let e0 = t.Obs.t_events.(0) in
        Alcotest.(check string) "first is scoped" "work" e0.Obs.ev_name;
        Alcotest.(check int) "scope" 0 e0.Obs.ev_scope;
        Alcotest.(check int) "seq" 0 e0.Obs.ev_seq;
        let counter_line = Obs.canonical_line t.Obs.t_events.(1) in
        Alcotest.(check string)
          "counter canonical line"
          "{\"cat\":\"c\",\"name\":\"ticks\",\"ph\":\"C\",\"scope\":0,\"seq\":1,\"args\":{\"value\":7}}"
          counter_line;
        Alcotest.(check bool) "off after drain" false (Obs.on ()));
    Alcotest.test_case "muted restores tracing when its thunk raises" `Quick
      (fun () ->
        let exception Boom of int in
        let caught, t =
          Obs.capture (fun () ->
              let caught =
                match
                  Obs.muted (fun () ->
                      if Obs.on () then Obs.instant "m" "muted" [];
                      raise (Boom 7))
                with
                | () -> None
                | exception Boom n -> Some n
              in
              if Obs.on () then Obs.instant "m" "after" [];
              caught)
        in
        Alcotest.(check (option int)) "the thunk's exception reaches the caller" (Some 7)
          caught;
        Alcotest.(check (list string))
          "only the instant after the raise is recorded" [ "after" ]
          (Array.to_list (Array.map (fun e -> e.Obs.ev_name) t.Obs.t_events)));
    Alcotest.test_case "nested scopes restore the outer one" `Quick (fun () ->
        let (), t =
          Obs.capture (fun () ->
              Obs.with_scope 1 (fun () ->
                  if Obs.on () then Obs.instant "x" "outer" [];
                  Obs.with_scope 2 (fun () ->
                      if Obs.on () then Obs.instant "x" "inner" []);
                  if Obs.on () then Obs.instant "x" "outer-again" []))
        in
        let tags =
          Array.to_list t.Obs.t_events
          |> List.map (fun e -> (e.Obs.ev_name, e.Obs.ev_scope, e.Obs.ev_seq))
        in
        Alcotest.(check (list (triple string int int)))
          "scope/seq assignment"
          [ ("outer", 1, 0); ("outer-again", 1, 1); ("inner", 2, 0) ]
          tags);
    Alcotest.test_case "negative scope ids rejected" `Quick (fun () ->
        let (), _t =
          Obs.capture (fun () ->
              Alcotest.check_raises "invalid"
                (Invalid_argument "Obs.with_scope: negative scope id")
                (fun () -> Obs.with_scope (-1) (fun () -> ())))
        in
        ());
    Alcotest.test_case "ring overflow keeps the newest and counts drops"
      `Quick (fun () ->
        let (), t =
          Obs.capture ~capacity:256 (fun () ->
              for i = 0 to 999 do
                if Obs.on () then Obs.instant "x" "e" [ ("i", Obs.I i) ]
              done)
        in
        Alcotest.(check int) "kept" 256 (Array.length t.Obs.t_events);
        Alcotest.(check int) "dropped" 744 t.Obs.t_dropped;
        (* ambient events keep emission order: the survivors are the
           last 256 *)
        (match t.Obs.t_events.(0).Obs.ev_args with
        | [ ("i", Obs.I i) ] -> Alcotest.(check int) "oldest survivor" 744 i
        | _ -> Alcotest.fail "unexpected args"));
    Alcotest.test_case "digest is MD5 of scoped canonical lines" `Quick
      (fun () ->
        let (), t =
          Obs.capture (fun () ->
              if Obs.on () then Obs.instant "a" "ambient" [];
              Obs.with_scope 0 (fun () ->
                  if Obs.on () then Obs.instant "c" "x" [ ("v", Obs.B true) ]))
        in
        let preimage =
          Array.to_list t.Obs.t_events
          |> List.filter (fun e -> e.Obs.ev_scope >= 0)
          |> List.map (fun e -> Obs.canonical_line e ^ "\n")
          |> String.concat ""
        in
        Alcotest.(check string)
          "definition" (Digest.to_hex (Digest.string preimage))
          (Obs.digest t));
    Alcotest.test_case "ambient events stay out of the digest" `Quick
      (fun () ->
        let scoped_only () =
          Obs.with_scope 0 (fun () ->
              if Obs.on () then Obs.instant "c" "x" [])
        in
        let (), t1 = Obs.capture scoped_only in
        let (), t2 =
          Obs.capture (fun () ->
              if Obs.on () then Obs.instant "noise" "n" [];
              scoped_only ();
              if Obs.on () then Obs.instant "noise" "n" [])
        in
        Alcotest.(check string) "same digest" (Obs.digest t1) (Obs.digest t2));
    Alcotest.test_case "filter keeps only the named categories" `Quick
      (fun () ->
        let (), t =
          Obs.capture (fun () ->
              Obs.with_scope 0 (fun () ->
                  if Obs.on () then begin
                    Obs.instant "sim" "a" [];
                    Obs.instant "fuzz" "b" [];
                    Obs.instant "sim" "c" []
                  end))
        in
        let t' = Obs.filter ~cats:[ "sim" ] t in
        Alcotest.(check int) "two sim events" 2 (Array.length t'.Obs.t_events);
        Array.iter
          (fun e -> Alcotest.(check string) "cat" "sim" e.Obs.ev_cat)
          t'.Obs.t_events);
  ]

(* The acceptance criterion: trace digests are jobs-invariant, and
   invariant under the sink format (the digest is defined on the
   event stream, not on any rendering of it — the chrome sink embeds
   the same hex string it would compute). *)
let determinism_tests =
  [
    prop "campaign digest is identical for jobs in {1, 2, 8}" 4
      (QCheck.make ~print:string_of_int QCheck.Gen.(int_range 0 10_000))
      (fun seed ->
        let d jobs = Obs.digest (campaign_trace ~jobs ~seed ~cases:4) in
        let d1 = d 1 in
        d1 = d 2 && d1 = d 8);
    Alcotest.test_case "campaign jsonl (wall scrubbed) is byte-identical \
                        across jobs" `Quick (fun () ->
        let render jobs =
          let t = campaign_trace ~jobs ~seed:5 ~cases:3 in
          (* ambient (pool) events are jobs-dependent by design; the
             scoped stream is the deterministic artifact *)
          let t = Obs.filter ~cats:[ "sim"; "fuzz" ] t in
          let buf = Buffer.create 4096 in
          Obs.to_jsonl ~wall:false buf t;
          Buffer.contents buf
        in
        Alcotest.(check string) "bytes" (render 1) (render 8));
    Alcotest.test_case "mc digest is identical for jobs 1 and 8" `Quick
      (fun () ->
        let o1, t1 = mc_trace ~jobs:1 in
        let o8, t8 = mc_trace ~jobs:8 in
        Alcotest.(check string)
          "same report"
          (Mc.Mc_report.render o1)
          (Mc.Mc_report.render o8);
        Alcotest.(check bool)
          "trace nonempty" true
          (Array.length t1.Obs.t_events > 0);
        Alcotest.(check string) "same digest" (Obs.digest t1) (Obs.digest t8));
    Alcotest.test_case "the seed-5 shrinking boundary campaign's trace is pinned" `Quick
      (fun () ->
        (* every case is a witness and is shrunk: the trace holds each
           case's own run and verdicts and its shrink instants, the
           candidates being muted; the pool's 100 task span pairs are
           ambient, outside the digest *)
        let o, t =
          Obs.capture (fun () -> Campaign.run ~boundary:true ~cases:100 ~seed:5 ~jobs:1 ())
        in
        let pool =
          Array.fold_left
            (fun k (e : Obs.event) ->
              if e.Obs.ev_cat = "pool" && e.Obs.ev_name = "task" then k + 1 else k)
            0 t.Obs.t_events
        in
        Alcotest.(check int) "witnesses" 100 (List.length o.Campaign.cp_failures);
        Alcotest.(check int) "dropped" 0 t.Obs.t_dropped;
        Alcotest.(check int) "events" 38_091 (Array.length t.Obs.t_events);
        Alcotest.(check int) "pool/task events" 200 pool;
        Alcotest.(check string) "digest" "cbf633e43c767bdd66bb66df96eb4b4e" (Obs.digest t));
    Alcotest.test_case "digest survives the sink format" `Quick (fun () ->
        let t = campaign_trace ~jobs:2 ~seed:3 ~cases:2 in
        let dg = Obs.digest t in
        let chrome =
          let buf = Buffer.create 4096 in
          Obs.to_chrome ~wall:true buf t;
          Buffer.contents buf
        in
        let contains needle hay =
          let nl = String.length needle and hl = String.length hay in
          let rec go i =
            i + nl <= hl && (String.sub hay i nl = needle || go (i + 1))
          in
          go 0
        in
        Alcotest.(check bool)
          "chrome embeds the digest" true
          (contains (Printf.sprintf "\"digest\":\"%s\"" dg) chrome);
        (* rendering consumed nothing: the digest of the trace value
           is unchanged *)
        Alcotest.(check string) "unchanged" dg (Obs.digest t));
  ]

let suite = unit_tests @ determinism_tests
