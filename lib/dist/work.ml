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

    A unit's result is one typed value, a {!blob}: the unit id, the
    {!payload} (case evaluations or mc subtrees) and two independent
    integrity witnesses.  It is marshalled once, by {!encode_blob},
    for the wire and the checkpoint journal alike, and decoded once,
    by {!decode_blob}; no part of it is itself a marshalled string.
    [b_checksum] is recomputed {e by the supervisor} from the decoded
    payload ({!payload_checksum}, whose comment says why its bytes are
    stable), so a worker whose computation diverged — or whose blob
    bytes were damaged in a way [Marshal] survives — is caught at
    merge time, not at report time.  [b_digest] is the worker's
    jobs-invariant Obs trace digest over the unit's scoped events; two
    executions of the same unit must agree on it, which arbitrates
    duplicate and re-dispatched replies. *)

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
  | W_mc { wm_line; wm_dpor; wm_tt; wm_frontier } ->
      Printf.sprintf "mc;line=%s;dpor=%b;tt=%b;frontier=%d;unit=%d" wm_line wm_dpor wm_tt
        wm_frontier mc_unit_tasks

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
        ";dpor=%B;tt=%B;frontier=%d;unit=%_d%!"
        (fun wm_dpor wm_tt wm_frontier ->
          let wm_line = String.sub s 8 (i - 8) in
          W_mc { wm_line; wm_dpor; wm_tt; wm_frontier })
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

type payload = P_fuzz of fuzz_payload | P_mc of mc_payload

type blob = {
  b_unit : int;
  b_digest : string;  (** worker Obs digest over the unit; [""] = not captured *)
  b_checksum : string;  (** {!payload_checksum} of [b_payload] *)
  b_payload : payload;
}

let encode_blob (b : blob) : string = Marshal.to_string b []

let decode_blob (s : string) : (blob, string) result =
  match (Marshal.from_string s 0 : blob) with
  | b -> Ok b
  | exception _ -> Error "undecodable result blob"

(* Execute the raw unit work.  Fuzz cases carry their absolute index
   so Obs scopes (and hence digests) are placement-invariant. *)
let exec_payload (s : spec) ~lo ~hi : payload =
  match s with
  | W_fuzz { wf_seed; wf_boundary; wf_shrink; wf_oracles; _ } ->
      let oracles =
        match resolve_oracles wf_oracles with
        | Ok os -> os
        | Error e -> invalid_arg ("dist fuzz spec: " ^ e)
      in
      let evals, stats =
        Pool.map_stats ~jobs:1 (hi - lo) (fun k ->
            Fuzz.Campaign.eval_case ~oracles ~shrink:wf_shrink
              ~boundary:wf_boundary ~seed:wf_seed (lo + k))
      in
      P_fuzz
        {
          fp_evals = evals;
          fp_wall = Array.map (fun s -> s.Pool.st_wall) stats;
          fp_alloc = Array.map (fun s -> s.Pool.st_alloc_words) stats;
        }
  | W_mc ({ wm_dpor; wm_tt; wm_frontier; _ } as m) ->
      let case =
        match mc_case m.wm_line with Ok c -> c | Error e -> invalid_arg e
      in
      let tasks = Mc.Driver.frontier_tasks ~frontier:wm_frontier case in
      P_mc
        {
          mp_subtrees =
            Pool.map ~jobs:1 (hi - lo) (fun k ->
                Mc.Driver.explore_task ~oracles:Fuzz.Oracle.registry ~dpor:wm_dpor
                  ~engine:Mc.Explore.Incremental ~tt:wm_tt ~case ~tasks (lo + k));
        }

(** The payload's checksum: the MD5 of its deterministic part ---
    every case evaluation (cases, verdicts, failures, shrinks) for
    fuzz, every subtree (classes, schedules, verdicts and counters,
    deliveries, undos and table hits included) for mc; everything the
    merge reads but the per-case walls and allocations.  Two correct
    executions of a unit agree on it by campaign determinism (dist
    always explores with the incremental engine, so the mc counters
    are deterministic too); a divergent payload does not.  [Error]
    when the payload is of the other kind than the spec.

    The hashed bytes are [Marshal]'s, and they are stable: both ends
    run the same binary (the {!Frame.hello} and {!Checkpoint.version}
    bumps refuse any other format); the hashed values hold no floats,
    closures or cycles; and [No_sharing] makes the bytes independent
    of physical sharing, so a decoded value hashes like the original. *)
let payload_checksum (s : spec) (p : payload) : (string, string) result =
  let md5 v = Ok (Digest.to_hex (Digest.string (Marshal.to_string v [ No_sharing ]))) in
  match (s, p) with
  | W_fuzz _, P_fuzz { fp_evals; _ } -> md5 fp_evals
  | W_mc _, P_mc { mp_subtrees } -> md5 mp_subtrees
  | W_fuzz _, P_mc _ -> Error "mc payload for a fuzz spec"
  | W_mc _, P_fuzz _ -> Error "fuzz payload for an mc spec"

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
    (payloads : payload array) : Fuzz.Campaign.outcome =
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
          (function P_fuzz p -> p | P_mc _ -> invalid_arg "Work.merge_fuzz: mc payload")
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

let merge_mc (s : spec) (payloads : payload array) : Mc.Driver.outcome =
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
                (function
                  | P_mc p -> p.mp_subtrees
                  | P_fuzz _ -> invalid_arg "Work.merge_mc: fuzz payload")
                payloads))
      in
      Mc.Driver.merge_tasks ~oracles:Fuzz.Oracle.registry ~dpor:wm_dpor
        ~engine:Mc.Explore.Incremental ~frontier:wm_frontier ~case subtrees
