(* Direct unit tests for the model checker's internals, which until
   now were exercised only end-to-end: the canonicalizer's key on
   hand-built step arrays (idempotence; commuting deliveries at
   different processes collapse, same-process reorderings do not) and
   against the list-and-Buffer construction kept here as its reference,
   a terminal whose pending list outgrows a node's ready arrays, and
   Sim.Session's wake-up gating (messages to an unbooted process are
   posted but not offered as choices until its wake-up is delivered). *)

open Fuzz

let q = Rat.of_ints

(* the key of a whole step array *)
let canon_key ~nprocs steps = Mc.Canon.key ~nprocs ~len:(Array.length steps) steps

let clock_box ~nprocs ~budget =
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

(* Hand-built steps: a wake-up at [dst] and a delivery of the [o]-th
   envelope posted by the step at delivery index [c]. *)
let wake ~env ~dst ~first_env =
  {
    Mc.Schedule.sp_env = env;
    sp_dst = dst;
    sp_posted_at = -1;
    sp_first_env = first_env;
  }

let msg ~env ~dst ~posted_at ~first_env =
  {
    Mc.Schedule.sp_env = env;
    sp_dst = dst;
    sp_posted_at = posted_at;
    sp_first_env = first_env;
  }

let canon_tests =
  [
    Alcotest.test_case "key is a pure function of the steps" `Quick (fun () ->
        let steps =
          [| wake ~env:0 ~dst:0 ~first_env:2; wake ~env:1 ~dst:1 ~first_env:4 |]
        in
        Alcotest.(check string)
          "same input, same key"
          (canon_key ~nprocs:2 steps)
          (canon_key ~nprocs:2 steps));
    Alcotest.test_case "wake-ups delivered in either order share a key"
      `Quick (fun () ->
        (* deliveries at different processes commute: the per-process
           sequences are both ["w"], whatever the interleaving *)
        let ab =
          [| wake ~env:0 ~dst:0 ~first_env:2; wake ~env:1 ~dst:1 ~first_env:4 |]
        in
        let ba =
          [| wake ~env:1 ~dst:1 ~first_env:2; wake ~env:0 ~dst:0 ~first_env:4 |]
        in
        Alcotest.(check string)
          "commute" (canon_key ~nprocs:2 ab) (canon_key ~nprocs:2 ba));
    Alcotest.test_case "same-process reorderings get distinct keys" `Quick
      (fun () ->
        (* step 0 (the wake-up of p0) posts envelopes 2 and 3, both to
           p1: delivering them in the two orders is behaviourally
           different, so the keys must differ *)
        let base =
          [| wake ~env:0 ~dst:0 ~first_env:2; wake ~env:1 ~dst:1 ~first_env:4 |]
        in
        let order a b =
          Array.append base
            [|
              msg ~env:a ~dst:1 ~posted_at:0 ~first_env:4;
              msg ~env:b ~dst:1 ~posted_at:0 ~first_env:4;
            |]
        in
        let k23 = canon_key ~nprocs:2 (order 2 3) in
        let k32 = canon_key ~nprocs:2 (order 3 2) in
        if k23 = k32 then
          Alcotest.failf "dependent reorder collapsed: %s" k23);
    Alcotest.test_case "message identity is structural, not envelope ids"
      `Quick (fun () ->
        (* the same per-process delivery sequences reached through
           different interleavings assign different envelope ids to the
           same structural message; the keys must still agree.  Here
           p0's wake-up posts one message to p1 in both runs, but the
           wake-up order shifts the posting watermark. *)
        let run1 =
          [|
            wake ~env:0 ~dst:0 ~first_env:2;
            (* p0 posts env 2 to p1 *)
            wake ~env:1 ~dst:1 ~first_env:3;
            msg ~env:2 ~dst:1 ~posted_at:0 ~first_env:3;
          |]
        in
        let run2 =
          [|
            wake ~env:1 ~dst:1 ~first_env:2;
            wake ~env:0 ~dst:0 ~first_env:2;
            (* p0 posts env 2 to p1 — same structural message "0.0.0" *)
            msg ~env:2 ~dst:1 ~posted_at:1 ~first_env:3;
          |]
        in
        Alcotest.(check string)
          "isomorphic" (canon_key ~nprocs:2 run1)
          (canon_key ~nprocs:2 run2));
    Alcotest.test_case "replayed wake-up orders collapse to one key" `Quick
      (fun () ->
        (* the same commutation through the real replay machinery *)
        let case = clock_box ~nprocs:2 ~budget:2 in
        let key_of choices =
          let _, steps = Mc.Schedule.replay case choices in
          Alcotest.(check int) "two steps" 2 (Array.length steps);
          canon_key ~nprocs:2 steps
        in
        (* [0;0] wakes p0 then p1; [1;0] wakes p1 then p0 *)
        Alcotest.(check string) "commute" (key_of [ 0; 0 ]) (key_of [ 1; 0 ]));
    Alcotest.test_case "replayed distinct third deliveries keep distinct keys"
      `Quick (fun () ->
        let case = clock_box ~nprocs:2 ~budget:3 in
        let key_of choices =
          let _, steps = Mc.Schedule.replay case choices in
          canon_key ~nprocs:2 steps
        in
        let a = key_of [ 0; 0; 0 ] and b = key_of [ 0; 0; 1 ] in
        if a = b then Alcotest.failf "distinct deliveries collapsed: %s" a);
    Alcotest.test_case "a terminal may hold more pending messages than a node"
      `Quick (fun () ->
        (* n = 8, e = 8 below seven wake-ups: a branching node holds at
           most 57 visible entries, but the terminal after the eighth
           wake-up holds all 64 broadcasts, past the 63 slots a node's
           ready arrays start with; its cut-race pass must read them
           all, on both engines alike *)
        let case = clock_box ~nprocs:8 ~budget:8 in
        let classes engine =
          let sb =
            Mc.Explore.explore ~engine ~tt:true ~oracles:[] ~dpor:true
              ~owns:(fun _ -> true) ~case ~prefix:[ 0; 0; 0; 0; 0; 0; 0 ]
          in
          List.map
            (fun (c : Mc.Explore.class_rec) -> (c.Mc.Explore.cl_key, c.Mc.Explore.cl_choices))
            sb.Mc.Explore.sb_classes
        in
        let s, _ = Mc.Schedule.replay case [ 0; 0; 0; 0; 0; 0; 0; 0 ] in
        Alcotest.(check int) "pending at the terminal" 64 (List.length (s.Gen.ms_ready ()));
        let inc = classes Mc.Explore.Incremental in
        Alcotest.(check bool) "classes found" true (inc <> []);
        if inc <> classes Mc.Explore.Replay then Alcotest.fail "the engines disagree");
    Alcotest.test_case "short form is a 10-char hex prefix" `Quick (fun () ->
        let s = Mc.Canon.short "w|w" in
        Alcotest.(check int) "length" 10 (String.length s);
        String.iter
          (fun c ->
            match c with
            | '0' .. '9' | 'a' .. 'f' -> ()
            | c -> Alcotest.failf "non-hex %c" c)
          s;
        Alcotest.(check string) "stable" s (Mc.Canon.short "w|w"));
  ]

(* The key as it was built before it was written in place: per-step
   label tuples, per-process lists and one Buffer.  Kept only as the
   reference {!Mc.Canon.key} must equal. *)
let reference_key ~nprocs (steps : Mc.Schedule.step array) : string =
  let k = Array.length steps in
  let labels = Array.make k (0, 0) in
  let seq = Array.make nprocs 0 in
  for i = 0 to k - 1 do
    let d = steps.(i).Mc.Schedule.sp_dst in
    labels.(i) <- (d, seq.(d));
    seq.(d) <- seq.(d) + 1
  done;
  let buf = Buffer.create (16 * k) in
  let cause i =
    let c = steps.(i).Mc.Schedule.sp_posted_at in
    if c < 0 then Buffer.add_char buf 'w'
    else begin
      let p, s = labels.(c) in
      let offset = steps.(i).Mc.Schedule.sp_env - steps.(c).Mc.Schedule.sp_first_env in
      Buffer.add_string buf (string_of_int p);
      Buffer.add_char buf '.';
      Buffer.add_string buf (string_of_int s);
      Buffer.add_char buf '.';
      Buffer.add_string buf (string_of_int offset)
    end
  in
  let per_proc = Array.make nprocs [] in
  for i = k - 1 downto 0 do
    let d = steps.(i).Mc.Schedule.sp_dst in
    per_proc.(d) <- i :: per_proc.(d)
  done;
  for d = 0 to nprocs - 1 do
    if d > 0 then Buffer.add_char buf '|';
    List.iteri
      (fun j i ->
        if j > 0 then Buffer.add_char buf ',';
        cause i)
      per_proc.(d)
  done;
  Buffer.contents buf

(* Hand-built step arrays, with the process count each is keyed under.
   The last two reach the multi-digit names no clock box of n <= 5
   produces: a process id of 10 and a send offset of 11. *)
let fixtures =
  let base =
    [| wake ~env:0 ~dst:0 ~first_env:2; wake ~env:1 ~dst:1 ~first_env:4 |]
  in
  [
    (2, [||]);
    (3, [| wake ~env:2 ~dst:2 ~first_env:3 |]);
    (2, base);
    (2, [| wake ~env:1 ~dst:1 ~first_env:2; wake ~env:0 ~dst:0 ~first_env:4 |]);
    ( 2,
      Array.append base
        [|
          msg ~env:3 ~dst:1 ~posted_at:0 ~first_env:4;
          msg ~env:2 ~dst:1 ~posted_at:0 ~first_env:4;
          msg ~env:4 ~dst:0 ~posted_at:1 ~first_env:4;
        |] );
    ( 12,
      [|
        wake ~env:10 ~dst:10 ~first_env:12;
        wake ~env:11 ~dst:11 ~first_env:14;
        msg ~env:13 ~dst:11 ~posted_at:0 ~first_env:14;
        msg ~env:12 ~dst:11 ~posted_at:0 ~first_env:14;
      |] );
    ( 2,
      [|
        wake ~env:0 ~dst:0 ~first_env:2;
        wake ~env:1 ~dst:1 ~first_env:14;
        msg ~env:13 ~dst:1 ~posted_at:0 ~first_env:14;
      |] );
  ]

(* Whether [k] holds a name part of two or more digits. *)
let has_long_part k =
  let is_digit c = c >= '0' && c <= '9' in
  let rec go i = i + 1 < String.length k && ((is_digit k.[i] && is_digit k.[i + 1]) || go (i + 1)) in
  go 0

let reference_tests =
  [
    Alcotest.test_case "key equals the list-and-Buffer reference" `Quick (fun () ->
        let check ~what ~nprocs ?(pad = 0) steps =
          let len = Array.length steps in
          (* a live prefix of a longer buffer: the tail must not count *)
          let buffer =
            Array.append steps
              (Array.make pad (msg ~env:99 ~dst:(nprocs - 1) ~posted_at:0 ~first_env:0))
          in
          let want = reference_key ~nprocs steps in
          let got = Mc.Canon.key ~nprocs ~len buffer in
          if got <> want then Alcotest.failf "%s: key %S, reference %S" what got want;
          got
        in
        List.iteri
          (fun i (nprocs, steps) ->
            ignore (check ~what:(Printf.sprintf "fixture %d" i) ~nprocs steps);
            ignore (check ~what:(Printf.sprintf "padded fixture %d" i) ~nprocs ~pad:3 steps))
          fixtures;
        (* random replayed schedules of clock boxes, n = 2-5, budgets up
           to 60: long enough for a tenth receipt at one process *)
        let rng = Random.State.make [| 33 |] in
        let long = ref 0 in
        for t = 1 to 1000 do
          let nprocs = 2 + Random.State.int rng 4 in
          let budget = nprocs + Random.State.int rng (61 - nprocs) in
          let choices = List.init budget (fun _ -> Random.State.int rng (2 * nprocs)) in
          let _, steps = Mc.Schedule.replay (clock_box ~nprocs ~budget) choices in
          let k =
            check ~what:(Printf.sprintf "schedule %d" t) ~nprocs ~pad:(t mod 3) steps
          in
          if has_long_part k then incr long
        done;
        if !long < 100 then
          Alcotest.failf "only %d of 1000 keys hold a multi-digit name part" !long);
  ]

let visible_tests =
  [
    Alcotest.test_case "fresh session offers exactly the wake-ups" `Quick
      (fun () ->
        let s = Gen.open_session (clock_box ~nprocs:3 ~budget:9) in
        let r = s.Gen.ms_ready () in
        Alcotest.(check int) "three choices" 3 (List.length r);
        List.iter
          (fun (i : Sim.Session.info) ->
            Alcotest.(check bool)
              "a wake-up" true
              (i.Sim.Session.i_sender < 0))
          r);
    Alcotest.test_case "messages to unbooted processes are hidden" `Quick
      (fun () ->
        let s = Gen.open_session (clock_box ~nprocs:3 ~budget:9) in
        ignore (s.Gen.ms_deliver 0);
        (* p0 booted; its step broadcast to everyone *)
        let r = s.Gen.ms_ready () in
        List.iter
          (fun (i : Sim.Session.info) ->
            if i.Sim.Session.i_sender >= 0 then
              Alcotest.(check int)
                "real messages only to the booted process" 0
                i.Sim.Session.i_dst)
          r;
        (* the hidden messages exist: more envelopes are undelivered
           than the ready list offers *)
        let undelivered = s.Gen.ms_envelopes () - s.Gen.ms_delivered () in
        Alcotest.(check bool)
          "some posted messages are gated" true
          (List.length r < undelivered);
        (* both remaining wake-ups stay visible despite their
           destinations being unbooted: the gate is for real messages *)
        let wakes =
          List.filter (fun i -> i.Sim.Session.i_sender < 0) r
        in
        Alcotest.(check int) "wake-ups still offered" 2 (List.length wakes));
    Alcotest.test_case "delivering the wake-up reveals the queued messages"
      `Quick (fun () ->
        let s = Gen.open_session (clock_box ~nprocs:3 ~budget:9) in
        ignore (s.Gen.ms_deliver 0);
        let to_p1_before =
          List.filter
            (fun (i : Sim.Session.info) ->
              i.Sim.Session.i_sender >= 0 && i.Sim.Session.i_dst = 1)
            (s.Gen.ms_ready ())
        in
        Alcotest.(check int) "gated while unbooted" 0
          (List.length to_p1_before);
        (* find and deliver p1's wake-up *)
        let rec index k = function
          | [] -> Alcotest.fail "p1 wake-up not offered"
          | (i : Sim.Session.info) :: _
            when i.Sim.Session.i_sender < 0 && i.Sim.Session.i_dst = 1 ->
              k
          | _ :: rest -> index (k + 1) rest
        in
        ignore (s.Gen.ms_deliver (index 0 (s.Gen.ms_ready ())));
        let to_p1_after =
          List.filter
            (fun (i : Sim.Session.info) ->
              i.Sim.Session.i_sender >= 0 && i.Sim.Session.i_dst = 1)
            (s.Gen.ms_ready ())
        in
        Alcotest.(check bool)
          "revealed after boot" true
          (List.length to_p1_after > 0));
    Alcotest.test_case "gating never empties the choice set" `Quick (fun () ->
        (* no visible-emptiness deadlock: drive a session to its
           maximal point always picking the last visible choice — the
           poundings that starve wake-ups longest — and every step must
           find at least one offered message *)
        let s = Gen.open_session (clock_box ~nprocs:3 ~budget:12) in
        let steps = ref 0 in
        while not (s.Gen.ms_finished ()) do
          let m = List.length (s.Gen.ms_ready ()) in
          Alcotest.(check bool) "nonempty while unfinished" true (m > 0);
          ignore (s.Gen.ms_deliver (m - 1));
          incr steps
        done;
        Alcotest.(check int) "budget reached" 12 !steps);
  ]

let suite = canon_tests @ reference_tests @ visible_tests
