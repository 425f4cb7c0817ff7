(** Deterministic work units and their results.

    A sharded run is described by a {!spec} — everything a worker
    needs to reproduce its slice of the campaign from scratch — and
    partitioned into fixed-size {e units} of consecutive item indices
    (fuzz case indices, mc frontier-task indices).  The partition is a
    pure function of the spec, {e independent of the shard count}:
    unit [k] always covers the same items no matter how many workers
    exist, which worker runs it, or how many times it is retried.
    That is what makes unit ids valid checkpoint keys and lets the
    merge produce byte-identical output for any shard count.

    A unit's result travels as a {!blob}: the marshaled payload plus
    two independent integrity witnesses.  [b_checksum] is recomputed
    {e by the supervisor} from the deserialized payload
    ({!payload_checksum}), so a worker whose computation diverged — or
    whose payload bytes were damaged in a way [Marshal] survives — is
    caught at merge time, not at report time.  [b_digest] is the
    worker's jobs-invariant Obs trace digest over the unit's scoped
    events; two executions of the same unit must agree on it, which
    arbitrates duplicate and re-dispatched replies. *)

type spec =
  | W_fuzz of {
      wf_seed : int;
      wf_cases : int;
      wf_boundary : bool;
      wf_shrink : bool;
      wf_oracles : string option;  (** raw [--oracles] spec; [None] = registry *)
    }
  | W_mc of {
      wm_line : string;  (** {!Fuzz.Replay.to_string} of the schedule-free box *)
      wm_dpor : bool;
      wm_incremental : bool;
      wm_tt : bool;
      wm_frontier : int;
    }

(* Unit sizes: small enough that a shard dying late loses little work
   and the dist-smoke matrix exercises many dispatches, large enough
   that framing cost stays invisible next to the work. *)
let fuzz_unit_cases = 16
let mc_unit_tasks = 4

let resolve_oracles = function
  | None -> Ok Fuzz.Oracle.registry
  | Some spec -> Fuzz.Oracle.select spec

let mc_case (line : string) : (Fuzz.Gen.case, string) result =
  match Fuzz.Replay.of_string line with
  | Error e -> Error (Printf.sprintf "dist mc spec line: %s" e)
  | Ok case ->
      if case.Fuzz.Gen.c_schedule <> [] then Error "dist mc spec line carries a schedule"
      else Ok case

let engine_of (s : spec) =
  match s with
  | W_mc { wm_incremental = false; _ } -> Mc.Explore.Replay
  | _ -> Mc.Explore.Incremental

(** Canonical one-line description of the spec {e and} its partition:
    the checkpoint fingerprint is the MD5 of this string, so resuming
    with a different seed, case count, oracle selection, mc flags or
    unit size fails the fingerprint check instead of merging
    mismatched units. *)
let canonical (s : spec) : string =
  match s with
  | W_fuzz { wf_seed; wf_cases; wf_boundary; wf_shrink; wf_oracles } ->
      Printf.sprintf "fuzz;seed=%d;cases=%d;boundary=%b;shrink=%b;oracles=%s;unit=%d"
        wf_seed wf_cases wf_boundary wf_shrink
        (match wf_oracles with None -> "-" | Some o -> o)
        fuzz_unit_cases
  | W_mc { wm_line; wm_dpor; wm_incremental; wm_tt; wm_frontier } ->
      Printf.sprintf "mc;line=%s;dpor=%b;engine=%s;tt=%b;frontier=%d;unit=%d"
        wm_line wm_dpor
        (if wm_incremental then "incremental" else "replay")
        wm_tt wm_frontier mc_unit_tasks

let fingerprint (s : spec) : string = Digest.to_hex (Digest.string (canonical s))

(** Inverse of {!canonical}, and the only way a worker learns its spec:
    the text travels in [M_spec] from whatever connected, and
    unmarshalling peer bytes is not memory-safe.  Accepts exactly the
    strings {!canonical} prints. *)
let spec_of_string (s : string) : (spec, string) result =
  let parse () =
    if String.starts_with ~prefix:"fuzz;" s then
      Scanf.sscanf s "fuzz;seed=%d;cases=%d;boundary=%B;shrink=%B;oracles=%s@;unit=%_d%!"
        (fun wf_seed wf_cases wf_boundary wf_shrink o ->
          let wf_oracles = if o = "-" then None else Some o in
          W_fuzz { wf_seed; wf_cases; wf_boundary; wf_shrink; wf_oracles })
    else
      (* the box line holds ';' itself: the fixed fields follow its
         last ";dpor=" *)
      let rec dpor i = if String.sub s i 6 = ";dpor=" then i else dpor (i - 1) in
      let i = dpor (String.length s - 6) in
      Scanf.sscanf (String.sub s i (String.length s - i))
        ";dpor=%B;engine=%s@;tt=%B;frontier=%d;unit=%_d%!"
        (fun wm_dpor engine wm_tt wm_frontier ->
          let wm_line = String.sub s 8 (i - 8) in
          W_mc { wm_line; wm_dpor; wm_incremental = engine = "incremental"; wm_tt; wm_frontier })
  in
  match parse () with
  | sp when canonical sp = s -> Ok sp
  | _ | (exception (Scanf.Scan_failure _ | Failure _ | End_of_file | Invalid_argument _)) ->
      Error (Printf.sprintf "malformed work spec %S" s)

(** Total number of shardable items.  For mc this enumerates the
    frontier — cheap, deterministic, and re-done identically by every
    worker.  @raise Invalid_argument on an invalid spec. *)
let total_items (s : spec) : int =
  match s with
  | W_fuzz { wf_cases; _ } -> wf_cases
  | W_mc ({ wm_frontier; _ } as m) -> (
      match mc_case m.wm_line with
      | Error e -> invalid_arg e
      | Ok case ->
          Array.length
            (Obs.muted @@ fun () -> Mc.Driver.frontier_tasks ~frontier:wm_frontier case))

(** The unit partition: [(lo, hi)] item ranges, unit id = array index.
    A pure function of the spec. *)
let units (s : spec) : (int * int) array =
  let total = total_items s in
  let size = match s with W_fuzz _ -> fuzz_unit_cases | W_mc _ -> mc_unit_tasks in
  let n = (total + size - 1) / size in
  Array.init n (fun k -> (k * size, min total ((k + 1) * size)))

(* ------------------------------------------------------------------ *)
(* Execution *)

type fuzz_payload = {
  fp_evals : Fuzz.Campaign.case_eval array;  (** cases [lo..hi), in order *)
  fp_wall : float array;
  fp_alloc : float array;
}

type mc_payload = { mp_subtrees : Mc.Explore.subtree array }
(** frontier tasks [lo..hi), in order *)

type blob = {
  b_unit : int;
  b_digest : string;  (** worker Obs digest over the unit; [""] = not captured *)
  b_checksum : string;  (** {!payload_checksum} of [b_payload] *)
  b_payload : string;  (** marshaled {!fuzz_payload} / {!mc_payload} *)
}

let encode_blob (b : blob) : string = Marshal.to_string b []

let decode_blob (s : string) : (blob, string) result =
  match (Marshal.from_string s 0 : blob) with
  | b -> Ok b
  | exception _ -> Error "undecodable result blob"

(* Execute the raw unit work.  Fuzz cases carry their absolute index
   so Obs scopes (and hence digests) are placement-invariant. *)
let exec_payload (s : spec) ~lo ~hi : string =
  match s with
  | W_fuzz { wf_seed; wf_boundary; wf_shrink; wf_oracles; _ } ->
      let oracles =
        match resolve_oracles wf_oracles with
        | Ok os -> os
        | Error e -> invalid_arg ("dist fuzz spec: " ^ e)
      in
      let n = hi - lo in
      let evals = Array.make n None in
      let wall = Array.make n 0.0 in
      let alloc = Array.make n 0.0 in
      for k = 0 to n - 1 do
        let t0 = Mclock.now () in
        let a0 = Gc.minor_words () in
        evals.(k) <-
          Some
            (Fuzz.Campaign.eval_case ~oracles ~shrink:wf_shrink
               ~boundary:wf_boundary ~seed:wf_seed (lo + k));
        wall.(k) <- Mclock.now () -. t0;
        alloc.(k) <- Gc.minor_words () -. a0
      done;
      let evals = Array.map (function Some e -> e | None -> assert false) evals in
      Marshal.to_string { fp_evals = evals; fp_wall = wall; fp_alloc = alloc } []
  | W_mc ({ wm_dpor; wm_tt; wm_frontier; _ } as m) ->
      let case =
        match mc_case m.wm_line with Ok c -> c | Error e -> invalid_arg e
      in
      let tasks = Mc.Driver.frontier_tasks ~frontier:wm_frontier case in
      let engine = engine_of s in
      let subtrees =
        Array.init (hi - lo) (fun k ->
            Mc.Driver.explore_task ~oracles:Fuzz.Oracle.registry ~dpor:wm_dpor
              ~engine ~tt:wm_tt ~case ~tasks (lo + k))
      in
      Marshal.to_string { mp_subtrees = subtrees } []

(** Recompute the oracle-verdict checksum from a deserialized payload:
    an MD5 over every deterministic fact the merge will consume —
    cases, verdicts, failure details, shrunk lines for fuzz; class
    keys, schedules, verdicts and subtree counters for mc.  Two
    correct executions of a unit agree on it by campaign determinism;
    a divergent or damaged payload does not.  [Error] when the payload
    does not even deserialize. *)
let payload_checksum (s : spec) (payload : string) : (string, string) result =
  let buf = Buffer.create 4096 in
  let outcome_line name (o : Fuzz.Oracle.outcome) =
    Buffer.add_string buf name;
    Buffer.add_char buf '=';
    (match o with
    | Fuzz.Oracle.Pass -> Buffer.add_string buf "pass"
    | Fuzz.Oracle.Skip d ->
        Buffer.add_string buf "skip:";
        Buffer.add_string buf d
    | Fuzz.Oracle.Fail d ->
        Buffer.add_string buf "fail:";
        Buffer.add_string buf d);
    Buffer.add_char buf '\n'
  in
  match s with
  | W_fuzz _ -> (
      match (Marshal.from_string payload 0 : fuzz_payload) with
      | exception _ -> Error "undecodable fuzz payload"
      | { fp_evals; _ } ->
          Array.iter
            (fun (ce : Fuzz.Campaign.case_eval) ->
              Buffer.add_string buf (Fuzz.Replay.to_string ce.Fuzz.Campaign.ce_case);
              Buffer.add_char buf '\n';
              List.iter
                (fun (n, o) -> outcome_line n o)
                ce.Fuzz.Campaign.ce_results;
              List.iter
                (fun (f : Fuzz.Campaign.failure) ->
                  Buffer.add_string buf f.Fuzz.Campaign.fl_oracle;
                  Buffer.add_char buf '|';
                  Buffer.add_string buf f.Fuzz.Campaign.fl_detail;
                  Buffer.add_char buf '|';
                  (match f.Fuzz.Campaign.fl_shrunk with
                  | None -> Buffer.add_string buf "-"
                  | Some r ->
                      Buffer.add_string buf
                        (Fuzz.Replay.to_string r.Fuzz.Shrink.shrunk);
                      Buffer.add_string buf
                        (Printf.sprintf "|%d|%d" r.Fuzz.Shrink.steps
                           r.Fuzz.Shrink.evaluations));
                  Buffer.add_char buf '\n')
                ce.Fuzz.Campaign.ce_failures)
            fp_evals;
          Ok (Digest.to_hex (Digest.string (Buffer.contents buf))))
  | W_mc _ -> (
      match (Marshal.from_string payload 0 : mc_payload) with
      | exception _ -> Error "undecodable mc payload"
      | { mp_subtrees } ->
          Array.iter
            (fun (sb : Mc.Explore.subtree) ->
              Buffer.add_string buf
                (Printf.sprintf "sb:%d:%d:%d\n" sb.Mc.Explore.sb_execs
                   sb.Mc.Explore.sb_sleep_blocked
                   (List.length sb.Mc.Explore.sb_classes));
              List.iter
                (fun (cl : Mc.Explore.class_rec) ->
                  Buffer.add_string buf cl.Mc.Explore.cl_key;
                  Buffer.add_char buf '|';
                  Buffer.add_string buf
                    (String.concat "." (List.map string_of_int cl.Mc.Explore.cl_choices));
                  Buffer.add_char buf '\n';
                  List.iter (fun (n, o) -> outcome_line n o) cl.Mc.Explore.cl_results)
                sb.Mc.Explore.sb_classes)
            mp_subtrees;
          Ok (Digest.to_hex (Digest.string (Buffer.contents buf))))

(** Execute one unit and package the result.  [capture:true] (the
    worker path) wraps the work in an {!Obs} capture session to
    compute the per-shard trace digest; the in-process fallback passes
    [false] and leaves the digest empty. *)
let exec_unit (s : spec) ~unit_id ~lo ~hi ~capture : blob =
  let payload, digest =
    if capture then begin
      let payload, trace =
        Obs.capture ~capacity:(1 lsl 18) (fun () -> exec_payload s ~lo ~hi)
      in
      (payload, Obs.digest trace)
    end
    else (exec_payload s ~lo ~hi, "")
  in
  let checksum =
    match payload_checksum s payload with
    | Ok c -> c
    | Error e -> invalid_arg ("Work.exec_unit: " ^ e)
  in
  { b_unit = unit_id; b_digest = digest; b_checksum = checksum; b_payload = payload }

(** Human repro pointer for a shard, for divergence hard errors. *)
let shard_repro (s : spec) ~lo : string =
  match s with
  | W_fuzz { wf_seed; wf_boundary; _ } ->
      let gen = if wf_boundary then Fuzz.Gen.generate_boundary else Fuzz.Gen.generate in
      Fuzz.Replay.repro_command
        (gen ~seed:(Fuzz.Campaign.case_seed ~seed:wf_seed lo))
  | W_mc { wm_line; _ } -> Printf.sprintf "abc mc box %s (frontier task %d)" wm_line lo

(* ------------------------------------------------------------------ *)
(* Merging (supervisor side; unit order = item order) *)

let merge_fuzz (s : spec) ~(cost_wall : float) ~(shards : int)
    (payloads : string array) : Fuzz.Campaign.outcome =
  match s with
  | W_mc _ -> invalid_arg "Work.merge_fuzz: mc spec"
  | W_fuzz { wf_seed; wf_cases; wf_boundary; wf_oracles; _ } ->
      let oracles =
        match resolve_oracles wf_oracles with
        | Ok os -> os
        | Error e -> invalid_arg ("dist fuzz spec: " ^ e)
      in
      let parts =
        Array.map
          (fun p -> (Marshal.from_string p 0 : fuzz_payload))
          payloads
      in
      let evals =
        Array.concat (Array.to_list (Array.map (fun p -> p.fp_evals) parts))
      in
      let cost =
        {
          Fuzz.Campaign.ct_jobs = shards;
          ct_wall = cost_wall;
          ct_case_wall =
            Array.concat (Array.to_list (Array.map (fun p -> p.fp_wall) parts));
          ct_case_alloc =
            Array.concat (Array.to_list (Array.map (fun p -> p.fp_alloc) parts));
        }
      in
      Fuzz.Campaign.merge_evals ~oracles ~seed:wf_seed ~cases:wf_cases
        ~boundary:wf_boundary ~cost evals

let merge_mc (s : spec) (payloads : string array) : Mc.Driver.outcome =
  match s with
  | W_fuzz _ -> invalid_arg "Work.merge_mc: fuzz spec"
  | W_mc ({ wm_dpor; wm_frontier; _ } as m) ->
      let case =
        match mc_case m.wm_line with Ok c -> c | Error e -> invalid_arg e
      in
      let subtrees =
        Array.concat
          (Array.to_list
             (Array.map
                (fun p -> (Marshal.from_string p 0 : mc_payload).mp_subtrees)
                payloads))
      in
      Mc.Driver.merge_tasks ~oracles:Fuzz.Oracle.registry ~dpor:wm_dpor
        ~engine:(engine_of s) ~frontier:wm_frontier ~case subtrees
