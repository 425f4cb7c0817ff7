(* The runner.  Suites.all is generated by gen_suites.ml from the
   test_*.ml files actually present (see test/dune), so the list can
   never drift from the directory: a new test file is compiled,
   linked, and run by construction, and a deleted one disappears with
   its entry.  The guard below is a tripwire for the generator itself
   regressing: Suites.expected is the count the generator's directory
   scan produced, so the list must be non-empty and exactly that long
   — no hand-pinned number to forget to bump. *)

let () =
  (* spawned by a Dist supervisor test as a shard worker (pipe or
     socket)?  serve the frame protocol instead of running the suites
     (never returns) *)
  Dist.Worker.maybe_run ();
  if Suites.expected = 0 then begin
    Printf.eprintf "test_main: generator found no test_*.ml files\n";
    exit 1
  end;
  if List.length Suites.all <> Suites.expected then begin
    Printf.eprintf "test_main: %d suites generated but %d expected: %s\n"
      (List.length Suites.all) Suites.expected
      (String.concat ", " (List.map fst Suites.all));
    exit 1
  end;
  Alcotest.run "abc-repro" Suites.all
