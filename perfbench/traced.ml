(** The traced run's instrumentation, all of it outside the program:
    layer ids, an oracle-list wrapper that gives each check and the
    two shared lazy analyses their own spans, and a fuzz-case driver
    that replays {!Fuzz.Campaign.eval_case} step by step with a span
    around each call. *)

(* Layer ids; [names] gives their metric prefixes. *)
let gen = 0
let sim = 1
let abc_check = 2
let xi_search = 3
let cuts = 4
let delay_assignment = 5
let oracle_other = 6
let shrink = 7
let explore = 8
let frontier = 9
let merge = 10
let supervisor = 11
let wire = 12
let exec_capture = 13
let exec_plain = 14

let names =
  [|
    "fuzz.gen";
    "sim";
    "execgraph.abc_check";
    "core.abc.xi_search";
    "core.clock_sync.cuts";
    "core.delay_assignment";
    "fuzz.oracle.other";
    "fuzz.shrink";
    "mc.explore";
    "mc.driver.frontier";
    "mc.driver.merge";
    "dist.supervisor";
    "dist.wire";
    "dist.work.capture";
    "dist.work.plain";
  |]

let layers = Array.length names

(* Which layer a check's own time belongs to. *)
let oracle_layer = function
  | "precision-cuts" | "precision-rt" -> cuts
  | "delay-assignment" -> delay_assignment
  | _ -> oracle_other

(** Counts kept by the wrapped oracles: checks run, checks whose
    verdict was not [Skip], and battery evaluations (calls of the
    list's first oracle — {!Fuzz.Oracle.evaluate_run} calls every
    oracle once per execution, in order). *)
type tally = { checks : int Atomic.t; useful : int Atomic.t; batteries : int Atomic.t }

let tally = { checks = Atomic.make 0; useful = Atomic.make 0; batteries = Atomic.make 0 }

let reset_tally () =
  Atomic.set tally.checks 0;
  Atomic.set tally.useful 0;
  Atomic.set tally.batteries 0

(* A fresh lazy whose force forces [l], timed as [layer] the first time
   — so a check that never forces the analysis never pays for it. *)
let first_force layer (l : 'a Lazy.t) : 'a Lazy.t =
  lazy (if Lazy.is_val l then Lazy.force l else Spans.span layer (fun () -> Lazy.force l))

(** The same oracles with the same names and verdicts, each check
    recorded as a span.  The check sees a ctx whose [adm] and
    [xi_eff] are new lazies over the shared ones: the first force of
    [adm] is an [execgraph.abc_check] span, that of [xi_eff] a
    [core.abc.xi_search] span.  [xi_eff] forces [adm] first, as
    {!Fuzz.Oracle.make_ctx}'s own [xi_eff] does, so the checker's
    time never lands in the search's span. *)
let wrap (oracles : Fuzz.Oracle.t list) : Fuzz.Oracle.t list =
  List.mapi
    (fun k (o : Fuzz.Oracle.t) ->
      let layer = oracle_layer o.Fuzz.Oracle.name in
      let check (ctx : Fuzz.Oracle.ctx) =
        if k = 0 then Atomic.incr tally.batteries;
        Atomic.incr tally.checks;
        let adm = first_force abc_check ctx.Fuzz.Oracle.adm in
        let xi_eff =
          lazy
            (if Lazy.is_val ctx.Fuzz.Oracle.xi_eff then Lazy.force ctx.Fuzz.Oracle.xi_eff
             else begin
               ignore (Lazy.force adm);
               Spans.span xi_search (fun () -> Lazy.force ctx.Fuzz.Oracle.xi_eff)
             end)
        in
        match Spans.span layer (fun () -> o.Fuzz.Oracle.check { ctx with adm; xi_eff }) with
        | Fuzz.Oracle.Skip _ as v -> v
        | v ->
            Atomic.incr tally.useful;
            v
        | exception e ->
            Atomic.incr tally.useful;
            raise e
      in
      { o with Fuzz.Oracle.check })
    oracles

(** {!Fuzz.Campaign.eval_case} of a boundary campaign with shrinking
    on, as separate timed calls: {!Fuzz.Gen.generate_boundary} →
    {!Fuzz.Gen.run_case} → {!Fuzz.Oracle.evaluate_run} →
    {!Fuzz.Shrink.shrink}.  Pass wrapped oracles.  Also returns the
    run's delivered-message count. *)
let eval_case ~oracles ~seed i : Fuzz.Campaign.case_eval * int =
  let case =
    Spans.span gen (fun () -> Fuzz.Gen.generate_boundary ~seed:(Fuzz.Campaign.case_seed ~seed i))
  in
  let results, events =
    match Spans.span sim (fun () -> Fuzz.Gen.run_case case) with
    | exception e -> ([ ("no-crash", Fuzz.Oracle.Fail (Printexc.to_string e)) ], 0)
    | run -> (Fuzz.Oracle.evaluate_run oracles case run, Fuzz.Gen.delivered_of_run run)
  in
  let failures =
    List.map
      (fun (fl_oracle, fl_detail) ->
        let shrunk =
          Spans.span shrink (fun () -> Fuzz.Shrink.shrink ~oracles ~oracle:fl_oracle case)
        in
        { Fuzz.Campaign.fl_oracle; fl_detail; fl_case = case; fl_shrunk = Some shrunk })
      (Fuzz.Oracle.failures results)
  in
  ({ Fuzz.Campaign.ce_case = case; ce_results = results; ce_failures = failures }, events)
