(* Differential tests for the incremental admissibility checker against
   the reference [Abc_check.check]: on randomly growing executions,
   [Abc_check.Checker.is_admissible] after every growth step must agree
   with [check] on the same graph, and a speculation — events and
   messages appended to the graph between [spec_begin] and
   [spec_admissible] — must answer exactly what [check] says about the
   extended graph, then leave no trace once aborted: the graph back at
   its watermark and the committed verdict unchanged. *)

module Graph = Execgraph.Graph
module Abc_check = Execgraph.Abc_check

let random_xi st =
  let b = 1 + Random.State.int st 3 in
  let a = 1 + Random.State.int st 3 in
  Rat.of_ints (b + a) b

let reference g ~xi = Abc_check.check g ~xi = Abc_check.Admissible

(* One scenario: grow a graph in random batches, querying the
   incremental checker after each batch and comparing with [check]. *)
let run_scenario seed =
  let st = Random.State.make [| seed |] in
  let nprocs = 2 + Random.State.int st 3 in
  let xi = random_xi st in
  let g = Graph.create ~nprocs in
  let checker = Abc_check.Checker.create g ~xi in
  (* up to 12 batches, so that many scenarios pop more events than the
     worklist ring's 64 first slots and the ring wraps around *)
  let batches = 1 + Random.State.int st 12 in
  let ok = ref true in
  for _ = 1 to batches do
    (* grow: a few events, then a few messages between existing events *)
    let events = 1 + Random.State.int st 4 in
    for _ = 1 to events do
      ignore (Graph.add_event g ~proc:(Random.State.int st nprocs))
    done;
    let n = Graph.event_count g in
    let messages = Random.State.int st 4 in
    for _ = 1 to messages do
      (* forward in id order: execution graphs are DAGs *)
      if n >= 2 then begin
        let dst = 1 + Random.State.int st (n - 1) in
        let src = Random.State.int st dst in
        ignore (Graph.add_message g ~src ~dst)
      end
    done;
    if Abc_check.Checker.is_admissible checker <> reference g ~xi then ok := false
  done;
  !ok

(* One speculation scenario: grow a committed prefix, then repeatedly
   speculate batches of events/messages appended to the graph,
   comparing [spec_admissible] against [check] on the extended graph,
   aborting, and checking that the graph is back at its watermark and
   the committed verdict is undisturbed. *)
let run_spec_scenario seed =
  let st = Random.State.make [| seed |] in
  let nprocs = 2 + Random.State.int st 3 in
  let xi = random_xi st in
  let g = Graph.create ~nprocs in
  let checker = Abc_check.Checker.create g ~xi in
  for _ = 1 to 2 + Random.State.int st 5 do
    ignore (Graph.add_event g ~proc:(Random.State.int st nprocs))
  done;
  let n0 = Graph.event_count g in
  for _ = 1 to Random.State.int st 3 do
    if n0 >= 2 then begin
      let dst = 1 + Random.State.int st (n0 - 1) in
      let src = Random.State.int st dst in
      ignore (Graph.add_message g ~src ~dst)
    end
  done;
  let ok = ref true in
  let committed = reference g ~xi in
  let events = Graph.event_count g and edges = Graph.edge_count g in
  for _ = 1 to 1 + Random.State.int st 3 do
    Abc_check.Checker.spec_begin checker;
    for _ = 1 to 1 + Random.State.int st 3 do
      let id = (Graph.add_event g ~proc:(Random.State.int st nprocs)).Execgraph.Event.id in
      (* each speculative event receives one message, like a real
         delivery; sender is any earlier (committed or speculative)
         event *)
      if id > 0 then ignore (Graph.add_message g ~src:(Random.State.int st id) ~dst:id)
    done;
    if Abc_check.Checker.spec_admissible checker <> reference g ~xi then ok := false;
    Abc_check.Checker.spec_abort checker;
    if Graph.event_count g <> events || Graph.edge_count g <> edges then ok := false;
    if Abc_check.Checker.is_admissible checker <> committed then ok := false
  done;
  !ok

let prop name count f =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count ~name
       (QCheck.make ~print:string_of_int QCheck.Gen.(int_range 0 1_000_000))
       f)

let suite =
  [
    prop "incremental verdict = scratch verdict on growing graphs" 1000
      run_scenario;
    prop "speculative verdict = scratch verdict; abort restores" 1000
      run_spec_scenario;
  ]
