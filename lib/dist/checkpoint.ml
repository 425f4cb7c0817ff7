(** Write-ahead checkpoint journal for sharded runs.

    Layout:
    {v
      header : "ABCDIST" <version:1> <fingerprint:32>   (40 bytes)
      record : <len:4 BE> <crc32:4 BE> <unit_id:4 BE> <blob:len-4>  (repeated)
    v}

    A record's length and CRC cover the unit id and the blob bytes
    ({!Work.encode_blob}, stored as the supervisor received them).
    {!load} unmarshals nothing: it reads the framing with
    {!Frame.get_u32} and hands the blob bytes back untouched, so it is
    total on any file, and the supervisor decodes and validates each
    blob on the same path as a worker's reply.  Version 1 journals
    marshalled the [(unit_id, blob)] pair; they are refused.

    The fingerprint is the hex MD5 of the {e canonical spec string}
    ({!Work.fingerprint}): a journal can only resume the exact
    campaign that wrote it — same seed, same case count, same oracle
    selection, same unit size — because unit ids are only meaningful
    against that partition.

    Durability contract: the header is written to a temp file,
    fsync'd, and renamed into place ([create]), so a journal either
    exists with a complete header or not at all; each accepted unit is
    appended as one CRC'd record and fsync'd before the supervisor
    counts it as merged ([append]).  A crash mid-append leaves a
    truncated or CRC-broken {e tail}, which [load] silently drops —
    that unit simply re-runs on resume.  A bad magic, unsupported
    version, or foreign fingerprint is a {e hard} error: resuming a
    different campaign's journal must fail loudly, not quietly re-run
    everything.

    On replayed or re-dispatched units the journal may contain several
    records for one id — the {e last} valid one wins, so a supervisor
    that re-ran a divergent shard just appends the arbitrated result. *)

let magic = "ABCDIST"
let version = '\002'

type t = { fd : Unix.file_descr; path : string }

let fsync fd = try Unix.fsync fd with Unix.Unix_error _ -> ()

let header ~fingerprint =
  if String.length fingerprint <> 32 then
    invalid_arg "Checkpoint: fingerprint must be 32 hex chars";
  magic ^ String.make 1 version ^ fingerprint

let header_len = 7 + 1 + 32

(** Create a fresh journal (truncating any previous file at [path]):
    header goes to [path ^ ".tmp"], fsync, rename — atomic on POSIX. *)
let create ~path ~fingerprint : t =
  let tmp = path ^ ".tmp" in
  let fd = Unix.openfile tmp [ O_WRONLY; O_CREAT; O_TRUNC ] 0o644 in
  let h = header ~fingerprint in
  let n = Unix.write_substring fd h 0 (String.length h) in
  if n <> String.length h then failwith "Checkpoint.create: short header write";
  fsync fd;
  Unix.close fd;
  Unix.rename tmp path;
  let fd = Unix.openfile path [ O_WRONLY; O_APPEND ] 0o644 in
  { fd; path }

(* The first [limit] bytes of the journal, then header validation
   shared by {!load} and {!reopen}: magic, version and campaign
   fingerprint must all match before any byte of the journal is
   trusted. *)
let read_checked ~path ~fingerprint ~limit : (string, string) result =
  match
    In_channel.with_open_bin path (fun ic ->
        really_input_string ic (min limit (Int64.to_int (In_channel.length ic))))
  with
  | exception Sys_error e -> Error (Printf.sprintf "cannot open checkpoint %s" e)
  | data ->
      if String.length data < header_len then
        Error (Printf.sprintf "checkpoint %s: truncated header" path)
      else if String.sub data 0 7 <> magic then
        Error (Printf.sprintf "checkpoint %s: bad magic (not a journal)" path)
      else if data.[7] <> version then
        Error
          (Printf.sprintf "checkpoint %s: version %d, this binary writes version %d"
             path (Char.code data.[7]) (Char.code version))
      else if String.sub data 8 32 <> fingerprint then
        Error
          (Printf.sprintf
             "checkpoint %s: fingerprint %s does not match this campaign (%s) — \
              wrong seed, case count, oracle selection or shard layout"
             path (String.sub data 8 32) fingerprint)
      else Ok data

(** Reopen an existing journal for appending (after {!load}).
    Re-verifies the header even though {!load} already did: between
    the validation and the append — or between a [--resume] flag and
    whatever worker endpoint set it is mixed with — the path can have
    been swapped for a different campaign's journal, and appending
    foreign-partition unit ids must fail loudly, not corrupt a
    journal that would later resume cleanly. *)
let reopen ~path ~fingerprint : (t, string) result =
  match read_checked ~path ~fingerprint ~limit:header_len with
  | Error _ as e -> e
  | Ok _ -> Ok { fd = Unix.openfile path [ O_WRONLY; O_APPEND ] 0o644; path }

let append (t : t) ~unit_id ~(blob : string) =
  let body = Buffer.create (String.length blob + 4) in
  Frame.put_u32 body unit_id;
  Buffer.add_string body blob;
  let body = Buffer.contents body in
  let b = Buffer.create (String.length body + 8) in
  Frame.put_u32 b (String.length body);
  Frame.put_u32 b
    (Int32.to_int (Frame.crc32 body ~pos:0 ~len:(String.length body)) land 0xFFFFFFFF);
  Buffer.add_string b body;
  let s = Buffer.contents b in
  let rec w pos len =
    if len > 0 then begin
      let n = Unix.write_substring t.fd s pos len in
      w (pos + n) (len - n)
    end
  in
  w 0 (String.length s);
  fsync t.fd

let close (t : t) = try Unix.close t.fd with Unix.Unix_error _ -> ()

(** Load every valid record.  [Ok l] lists [(unit_id, blob)] in append
    order (callers apply last-wins); a corrupt or truncated {e tail}
    ends the list silently — that is the crash-mid-write recovery
    path.  [Error _] means the file cannot belong to this run: bad
    magic, unsupported version, or a fingerprint from a different
    campaign — each diagnostic says which. *)
let load ~path ~fingerprint : ((int * string) list, string) result =
  match read_checked ~path ~fingerprint ~limit:max_int with
  | Error _ as e -> e
  | Ok data ->
      (* a record cut short or failing its CRC ends the valid prefix *)
      let rec from pos acc =
        let len = if pos + 8 <= String.length data then Frame.get_u32 data pos else 0 in
        if
          len < 4
          || pos + 8 + len > String.length data
          || Frame.get_u32 data (pos + 4)
             <> Int32.to_int (Frame.crc32 data ~pos:(pos + 8) ~len) land 0xFFFFFFFF
        then Ok (List.rev acc)
        else
          from (pos + 8 + len)
            ((Frame.get_u32 data (pos + 8), String.sub data (pos + 12) (len - 4)) :: acc)
      in
      from header_len []
