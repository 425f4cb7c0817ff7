(* Tests of the benchmark's own instrumentation: the self-time fold,
   and the oracle wrapper's promise to change neither verdicts nor the
   work done. *)

open Perfbench

let span sp_layer sp_start sp_stop sp_parent = { Spans.sp_layer; sp_start; sp_stop; sp_parent }

let close = Alcotest.float 1e-9

let test_self_times () =
  (* layer 0 [0,10] holds layer 1 [2,5] (which holds layer 2 [3,4])
     and another layer-1 span [6,9] *)
  let spans = [| span 0 0. 10. (-1); span 1 2. 5. 0; span 2 3. 4. 1; span 1 6. 9. 0 |] in
  let self, calls = Spans.self_times ~layers:3 spans in
  Alcotest.check close "outer" 4.0 self.(0);
  Alcotest.check close "middle" 5.0 self.(1);
  Alcotest.check close "inner" 1.0 self.(2);
  Alcotest.(check (array int)) "calls" [| 1; 2; 1 |] calls;
  Alcotest.check close "self times add up to the outer span" 10.0 (Array.fold_left ( +. ) 0.0 self)

let test_recorded_nesting () =
  Spans.start ();
  Spans.span 0 (fun () ->
      Spans.span 1 (fun () -> Spans.span 1 ignore);
      Spans.span 2 ignore);
  (try Spans.span 2 (fun () -> failwith "x") with Failure _ -> ());
  let per_domain = Spans.stop () in
  let self, calls = Spans.fold ~layers:3 per_domain in
  Alcotest.(check (array int)) "calls" [| 1; 2; 2 |] calls;
  Array.iter (fun s -> Alcotest.(check bool) "self time is not negative" true (s >= 0.0)) self;
  let outer =
    List.concat_map Array.to_list per_domain
    |> List.find (fun s -> s.Spans.sp_layer = 0)
  in
  Alcotest.check close "self times add up to the top-level spans"
    (outer.Spans.sp_stop -. outer.Spans.sp_start
    +. List.fold_left
         (fun acc s ->
           if s.Spans.sp_parent < 0 && s.Spans.sp_layer = 2 then acc +. s.Spans.sp_stop -. s.Spans.sp_start
           else acc)
         0.0 (List.concat_map Array.to_list per_domain))
    (Array.fold_left ( +. ) 0.0 self);
  Spans.start ();
  Spans.span 0 ignore;
  Alcotest.(check int) "start clears the buffers" 1
    (List.fold_left (fun n a -> n + Array.length a) 0 (Spans.stop ()));
  Alcotest.(check int) "nothing is recorded when stopped" 0
    (Spans.span 0 ignore;
     List.length (Spans.stop ()))

let verdict = function
  | Fuzz.Oracle.Pass -> "pass"
  | Fuzz.Oracle.Skip d -> "skip: " ^ d
  | Fuzz.Oracle.Fail d -> "fail: " ^ d

let cases =
  List.map (fun s -> Fuzz.Gen.generate ~seed:(Fuzz.Campaign.case_seed ~seed:7 s)) [ 0; 1; 2; 3; 4; 5 ]
  @ List.map (fun s -> Fuzz.Gen.generate_boundary ~seed:(Fuzz.Campaign.case_seed ~seed:7 s)) [ 0; 1; 2 ]

let test_same_verdicts () =
  let wrapped = Traced.wrap Fuzz.Oracle.registry in
  Alcotest.(check (list string))
    "same names" (Fuzz.Oracle.oracle_names Fuzz.Oracle.registry) (Fuzz.Oracle.oracle_names wrapped);
  Spans.start ();
  List.iter
    (fun case ->
      let run = Fuzz.Gen.run_case case in
      let plain = Fuzz.Oracle.evaluate_run Fuzz.Oracle.registry case run in
      let traced = Fuzz.Oracle.evaluate_run wrapped case run in
      Alcotest.(check (list (pair string string)))
        (Fuzz.Replay.to_string case)
        (List.map (fun (n, v) -> (n, verdict v)) plain)
        (List.map (fun (n, v) -> (n, verdict v)) traced))
    cases;
  ignore (Spans.stop ())

(* Apply a battery to a ctx the way Oracle.evaluate_run does, then
   report which shared analyses were forced. *)
let forced oracles (ctx : Fuzz.Oracle.ctx) =
  List.iter (fun (o : Fuzz.Oracle.t) -> try ignore (o.Fuzz.Oracle.check ctx) with _ -> ()) oracles;
  (Lazy.is_val ctx.Fuzz.Oracle.adm, Lazy.is_val ctx.Fuzz.Oracle.xi_eff)

let test_no_extra_work () =
  Spans.start ();
  List.iter
    (fun case ->
      let run = Fuzz.Gen.run_case case in
      let batteries =
        (* the whole registry, and single oracles that force one
           analysis, the other, or neither *)
        Fuzz.Oracle.registry
        :: List.map (fun o -> [ o ]) Fuzz.Oracle.registry
      in
      List.iter
        (fun battery ->
          let plain = forced battery (Fuzz.Oracle.make_ctx case run) in
          let traced = forced (Traced.wrap battery) (Fuzz.Oracle.make_ctx case run) in
          Alcotest.(check (pair bool bool))
            (Printf.sprintf "%s on %s"
               (String.concat "," (List.map (fun o -> o.Fuzz.Oracle.name) battery))
               (Fuzz.Replay.to_string case))
            plain traced)
        batteries)
    cases;
  ignore (Spans.stop ())

let () =
  Alcotest.run "perfbench"
    [
      ( "spans",
        [
          Alcotest.test_case "self time over nested spans" `Quick test_self_times;
          Alcotest.test_case "recorded spans nest and fold" `Quick test_recorded_nesting;
        ] );
      ( "wrapped oracles",
        [
          Alcotest.test_case "same verdicts as the registry" `Quick test_same_verdicts;
          Alcotest.test_case "force no analysis the plain battery skips" `Quick test_no_extra_work;
        ] );
    ]
