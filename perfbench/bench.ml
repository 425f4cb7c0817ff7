(* Benchmark entry point:

     bench.exe --workload NAME --seed N --seconds S --trace 0|1

   runs one workload (see README.md), checks its output, and prints
   notes, its exact counters and, as the last line, one JSON object:
   {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
   metrics are the end-to-end ones; with --trace 1 the per-layer ones
   of a separate traced run.  perfbench/run.py builds and runs it. *)

let usage () =
  prerr_endline
    ("usage: bench.exe --workload NAME --seed N --seconds S --trace 0|1\n  workloads: "
    ^ String.concat ", " (List.map fst Workloads.all));
  exit 2

(* Exact counters are kept per (workload, seed, run length, mode,
   executable) under this directory of the checkout; a later run of
   the same key must repeat them.  The executable's digest is in the
   key, so only runs of one build are compared: a change to the code
   starts a fresh record instead of failing against the old one. *)
let state_dir = ".perfbench"

let check_state ~key (counters : (string * string) list) =
  let text = String.concat "" (List.map (fun (k, v) -> k ^ "=" ^ v ^ "\n") counters) in
  let path = Filename.concat state_dir key in
  if Sys.file_exists path then begin
    let previous = In_channel.with_open_bin path In_channel.input_all in
    if previous = text then []
    else [ Printf.sprintf "exact counters differ from an earlier run of the same seed (%s)" path ]
  end
  else begin
    if not (Sys.file_exists state_dir) then Sys.mkdir state_dir 0o755;
    let tmp = path ^ ".tmp" in
    Out_channel.with_open_bin tmp (fun oc -> output_string oc text);
    Sys.rename tmp path;
    []
  end

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let () =
  Dist.Worker.maybe_run ();
  let args = List.tl (Array.to_list Sys.argv) in
  if args = [ "--probe-start" ] then begin
    Printf.printf "%.6f\n" (Unix.gettimeofday ());
    exit 0
  end;
  let rec parse (w, seed, seconds, trace) = function
    | [] -> (w, seed, seconds, trace)
    | "--workload" :: v :: rest ->
        let w = Option.map (fun x -> (v, x)) (List.assoc_opt v Workloads.all) in
        parse (w, seed, seconds, trace) rest
    | "--seed" :: v :: rest -> parse (w, int_of_string_opt v, seconds, trace) rest
    | "--seconds" :: v :: rest -> parse (w, seed, int_of_string_opt v, trace) rest
    | "--trace" :: v :: rest ->
        let trace = match v with "0" -> Some false | "1" -> Some true | _ -> None in
        parse (w, seed, seconds, trace) rest
    | _ -> usage ()
  in
  match parse (None, None, None, Some false) args with
  | Some (name, w), Some seed, Some seconds, Some trace when seconds >= 1 ->
      let r =
        if trace then Workloads.run_traced w ~seed ~seconds
        else Workloads.run_untraced w ~seed ~seconds
      in
      let mode = if trace then 1 else 0 in
      let key =
        Printf.sprintf "%s.seed%d.s%d.trace%d.%s" name seed seconds mode
          (Digest.to_hex (Digest.file Sys.executable_name))
      in
      let bad_metrics =
        List.filter_map
          (fun (n, v, _) -> if Float.is_finite v then None else Some ("metric " ^ n ^ " is not finite"))
          r.Workloads.metrics
      in
      let problems = r.Workloads.problems @ bad_metrics @ check_state ~key r.Workloads.counters in
      Printf.printf "workload %s, seed %d, run length %d s, trace %d\n" name seed seconds mode;
      List.iter print_endline r.Workloads.notes;
      let counter (k, v) = json_string k ^ ": " ^ json_string v in
      Printf.printf "exact counters: {%s}\n"
        (String.concat ", " (List.map counter r.Workloads.counters));
      List.iter (fun p -> print_endline ("CHECK FAILED: " ^ p)) problems;
      let metric (n, v, u) =
        Printf.sprintf "%s: {\"value\": %.12g, \"unit\": %s}" (json_string n)
          (if Float.is_finite v then v else 0.0)
          (json_string u)
      in
      Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
        (problems = []) r.Workloads.attempted r.Workloads.failed
        (String.concat ", " (List.map metric r.Workloads.metrics))
  | _ -> usage ()
