(* Tests for the Domain pool (workers take chunks from one shared
   cursor) and the determinism contract it gives the fuzz campaign:
   results merged in index order, per-case seeds a pure function of
   (seed, index), so a campaign report is byte-identical whatever the
   worker count.  Only a map that spawns domains is rejected inside a
   pool task; a one-worker map is a plain loop that runs anywhere. *)

let unit_tests =
  [
    Alcotest.test_case "empty task list" `Quick (fun () ->
        let r = Pool.map ~jobs:4 0 (fun _ -> assert false) in
        Alcotest.(check int) "no results" 0 (Array.length r));
    Alcotest.test_case "one task, eight workers" `Quick (fun () ->
        let r = Pool.map ~jobs:8 1 (fun i -> 10 * (i + 1)) in
        Alcotest.(check (array int)) "single result" [| 10 |] r);
    Alcotest.test_case "results come back in index order" `Quick (fun () ->
        let n = 1000 in
        let r = Pool.map ~jobs:4 n (fun i -> i * i) in
        Alcotest.(check (array int)) "i*i" (Array.init n (fun i -> i * i)) r);
    Alcotest.test_case "chunked submission covers every index" `Quick (fun () ->
        List.iter
          (fun (n, jobs, chunk) ->
            let r = Pool.map ~jobs ~chunk n (fun i -> i) in
            Alcotest.(check (array int))
              (Printf.sprintf "n=%d jobs=%d chunk=%d" n jobs chunk)
              (Array.init n (fun i -> i))
              r)
          [ (1, 3, 7); (7, 3, 2); (64, 5, 3); (13, 13, 1); (100, 2, 100) ]);
    Alcotest.test_case "task exception re-raised at join" `Quick (fun () ->
        (* two tasks raise; the smallest failing index wins, a
           deterministic choice whatever the schedule *)
        Alcotest.check_raises "smallest index wins" (Failure "three") (fun () ->
            ignore
              (Pool.map ~jobs:4 10 (fun i ->
                   if i = 3 then failwith "three";
                   if i = 7 then failwith "seven";
                   i))));
    Alcotest.test_case "nested submit rejected" `Quick (fun () ->
        Alcotest.check_raises "invalid"
          (Invalid_argument "Pool.map: nested submission from inside a pool task")
          (fun () ->
            ignore
              (Pool.map ~jobs:2 2 (fun _ -> Pool.map ~jobs:2 1 (fun i -> i)))));
    Alcotest.test_case "a one-worker map runs inside a pool task" `Quick (fun () ->
        let nested_rejected () =
          match Pool.map ~jobs:2 1 (fun i -> i) with
          | _ -> false
          | exception Invalid_argument _ -> true
        in
        let r =
          Pool.map ~jobs:2 4 (fun i ->
              let inner = Pool.map ~jobs:1 3 (fun k -> (10 * i) + k) in
              (* the inner map must leave the task still inside the pool *)
              (inner, nested_rejected ()))
        in
        Alcotest.(check (array (pair (array int) bool)))
          "index order"
          (Array.init 4 (fun i -> (Array.init 3 (fun k -> (10 * i) + k), true)))
          r);
    Alcotest.test_case "negative task count rejected" `Quick (fun () ->
        Alcotest.check_raises "invalid"
          (Invalid_argument "Pool.map: negative task count") (fun () ->
            ignore (Pool.map (-1) (fun i -> i))));
    Alcotest.test_case "stats cover every task" `Quick (fun () ->
        let _, stats = Pool.map_stats ~jobs:3 20 (fun i -> Sys.opaque_identity i) in
        Alcotest.(check int) "20 stats" 20 (Array.length stats);
        Array.iter
          (fun s ->
            Alcotest.(check bool) "wall >= 0" true (s.Pool.st_wall >= 0.0);
            Alcotest.(check bool)
              "alloc >= 0" true
              (s.Pool.st_alloc_words >= 0.0))
          stats);
  ]

(* The tentpole contract: the same campaign, byte-identical reports,
   whatever the worker count.  Runs the full oracle registry, so this
   is also an end-to-end exercise of parallel case evaluation. *)
let determinism_tests =
  [
    Alcotest.test_case "200-case campaign: jobs 1/2/8 byte-identical" `Slow
      (fun () ->
        let report jobs =
          Fuzz.Report.render
            (Fuzz.Campaign.run ~shrink:false ~cases:200 ~seed:11 ~jobs ())
        in
        let r1 = report 1 in
        Alcotest.(check string) "jobs=2 = jobs=1" r1 (report 2);
        Alcotest.(check string) "jobs=8 = jobs=1" r1 (report 8));
    Alcotest.test_case "case_seed is index-pure and spread out" `Quick (fun () ->
        (* distinct indices and nearby base seeds must not collide:
           splitmix's finalizer gives 64-bit dispersion *)
        let seen = Hashtbl.create 512 in
        for seed = 0 to 3 do
          for i = 0 to 99 do
            let s = Fuzz.Campaign.case_seed ~seed i in
            Alcotest.(check bool) "non-negative" true (s >= 0);
            if Hashtbl.mem seen s then
              Alcotest.failf "collision at seed=%d i=%d" seed i;
            Hashtbl.add seen s ()
          done
        done);
  ]

let suite = unit_tests @ determinism_tests
