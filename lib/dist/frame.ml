(** Length-prefixed, CRC-guarded frames over byte streams.

    The shard protocol runs over plain byte streams ({!Net.Transport}:
    a pipe pair or a socket), so a dying or malicious peer can hand
    the other end {e any} byte sequence: a frame cut mid-header, a
    frame whose payload was scribbled over, a valid frame repeated.  Every frame therefore
    carries a magic, a type byte, a big-endian payload length and a
    CRC-32 of the payload:

    {v 'A' 'B' <type> <len:4 BE> <crc32:4 BE> <payload:len> v}

    Both ends parse incrementally ({!parser}); any violation — bad
    magic, unknown type, implausible length, CRC mismatch — is
    {e unrecoverable} for that stream ([Error]), because after
    corruption there is no way to find the next frame boundary without
    trusting the corrupted bytes.  The supervisor's move is to kill the
    worker and re-dispatch its work, the worker's to drop the
    connection; neither ever resynchronizes.

    {!garbage} and {!truncated} exist for the harness nemesis: a
    deliberately CRC-broken frame and a frame cut short mid-header. *)

(* CRC-32 (IEEE 802.3, reflected, poly 0xEDB88320) — table-based, no
   external dependency.  Int32 keeps it exact on 32- and 64-bit. *)
let crc_table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref (Int32.of_int n) in
         for _ = 0 to 7 do
           c :=
             if Int32.logand !c 1l <> 0l then
               Int32.logxor 0xEDB88320l (Int32.shift_right_logical !c 1)
             else Int32.shift_right_logical !c 1
         done;
         !c))

let crc32 (s : string) ~pos ~len : int32 =
  let table = Lazy.force crc_table in
  let c = ref 0xFFFFFFFFl in
  for i = pos to pos + len - 1 do
    let idx =
      Int32.to_int (Int32.logand (Int32.logxor !c (Int32.of_int (Char.code s.[i]))) 0xFFl)
    in
    c := Int32.logxor table.(idx) (Int32.shift_right_logical !c 8)
  done;
  Int32.logxor !c 0xFFFFFFFFl

type msg =
  | M_spec of string  (** {!Work.canonical} text, supervisor → worker *)
  | M_request of { unit_id : int; lo : int; hi : int }
  | M_heartbeat  (** worker liveness, sent while a unit computes *)
  | M_done of { unit_id : int; blob : string }  (** marshaled {!Work.blob} *)
  | M_error of { unit_id : int; message : string }
      (** the unit raised in the worker; the worker itself is alive *)
  | M_quit  (** supervisor → worker: drain and exit 0 *)

(* A payload length beyond the cap is treated as corruption, not as a
   frame to wait for — it would otherwise make the reader buffer (or
   [Bytes.create]) unbounded garbage before detecting the bad CRC.
   The default is generous; [--max-frame] tightens it per run, and
   the parser enforces it {e before} buffering the payload. *)
let max_payload = 256 * 1024 * 1024

let type_byte = function
  | M_spec _ -> 'S'
  | M_request _ -> 'R'
  | M_heartbeat -> 'H'
  | M_done _ -> 'D'
  | M_error _ -> 'E'
  | M_quit -> 'Q'

let put_u32 b v =
  Buffer.add_char b (Char.chr ((v lsr 24) land 0xFF));
  Buffer.add_char b (Char.chr ((v lsr 16) land 0xFF));
  Buffer.add_char b (Char.chr ((v lsr 8) land 0xFF));
  Buffer.add_char b (Char.chr (v land 0xFF))

let get_u32 s pos =
  (Char.code s.[pos] lsl 24)
  lor (Char.code s.[pos + 1] lsl 16)
  lor (Char.code s.[pos + 2] lsl 8)
  lor Char.code s.[pos + 3]

let payload_of = function
  | M_spec s -> s
  | M_request { unit_id; lo; hi } -> Printf.sprintf "%d %d %d" unit_id lo hi
  | M_heartbeat -> ""
  | M_done { unit_id; blob } ->
      let b = Buffer.create (String.length blob + 4) in
      put_u32 b unit_id;
      Buffer.add_string b blob;
      Buffer.contents b
  | M_error { unit_id; message } ->
      let b = Buffer.create (String.length message + 4) in
      put_u32 b unit_id;
      Buffer.add_string b message;
      Buffer.contents b
  | M_quit -> ""

let msg_of_payload ty payload =
  match ty with
  | 'S' -> Ok (M_spec payload)
  | 'R' -> (
      match String.split_on_char ' ' payload with
      | [ u; l; h ] -> (
          match (int_of_string_opt u, int_of_string_opt l, int_of_string_opt h) with
          | Some unit_id, Some lo, Some hi -> Ok (M_request { unit_id; lo; hi })
          | _ -> Error "malformed request payload")
      | _ -> Error "malformed request payload")
  | 'H' -> Ok M_heartbeat
  | 'D' ->
      if String.length payload < 4 then Error "short done payload"
      else
        Ok
          (M_done
             {
               unit_id = get_u32 payload 0;
               blob = String.sub payload 4 (String.length payload - 4);
             })
  | 'E' ->
      if String.length payload < 4 then Error "short error payload"
      else
        Ok
          (M_error
             {
               unit_id = get_u32 payload 0;
               message = String.sub payload 4 (String.length payload - 4);
             })
  | 'Q' -> Ok M_quit
  | c -> Error (Printf.sprintf "unknown frame type %C" c)

let encode (m : msg) : string =
  let payload = payload_of m in
  let b = Buffer.create (String.length payload + 11) in
  Buffer.add_string b "AB";
  Buffer.add_char b (type_byte m);
  put_u32 b (String.length payload);
  put_u32 b
    (Int32.to_int (crc32 payload ~pos:0 ~len:(String.length payload))
    land 0xFFFFFFFF);
  Buffer.add_string b payload;
  Buffer.contents b

(** A frame whose CRC cannot match its payload: an otherwise valid
    heartbeat with one CRC byte flipped.  For the nemesis. *)
let garbage =
  String.mapi (fun i c -> if i = 7 then Char.chr (Char.code c lxor 0xFF) else c)
    (encode M_heartbeat)

(** Half a header, then nothing — what a worker killed mid-write
    leaves on the stream.  For the nemesis. *)
let truncated = String.sub (encode (M_done { unit_id = 0; blob = "truncated" })) 0 7

(* ------------------------------------------------------------------ *)
(* Incremental parsing *)

(** The worker handshake: the first thing a worker writes on its frame
    channel.  Everything {e before} it is preamble the host binary
    leaked (a test-harness banner, a stray printf during module
    initialization — anything that ran before {!Worker.maybe_run}
    could claim the fd) and is discarded; everything after is framed,
    strictly.  A stream that produces this much output without the
    marker is not a worker. *)
let hello = "ABCDIST-WORKER-1\n"

let max_preamble = 65536

type parser = { buf : Buffer.t; mutable await_hello : bool; max : int }

let parser_create ?(await_hello = false) ?(max_payload = max_payload) () =
  if max_payload < 1 then invalid_arg "Frame.parser_create: max_payload must be >= 1";
  { buf = Buffer.create 4096; await_hello; max = max_payload }

let awaiting_hello p = p.await_hello

let feed p (b : Bytes.t) n = Buffer.add_subbytes p.buf b 0 n

(* First index of [hello] in [data], if any. *)
let find_hello data =
  let n = String.length data and hn = String.length hello in
  let rec go i =
    if i + hn > n then None
    else if String.sub data i hn = hello then Some i
    else go (i + 1)
  in
  go 0

(** Extract the next complete frame.  [Ok None] = need more bytes;
    [Error _] = the stream is corrupt and must be abandoned. *)
let rec next (p : parser) : (msg option, string) result =
  if p.await_hello then begin
    let data = Buffer.contents p.buf in
    match find_hello data with
    | Some i ->
        p.await_hello <- false;
        Buffer.clear p.buf;
        let tail = i + String.length hello in
        Buffer.add_substring p.buf data tail (String.length data - tail);
        next p
    | None ->
        if String.length data > max_preamble then
          Error "no worker handshake in the first 64KiB"
        else Ok None
  end
  else
  let data = Buffer.contents p.buf in
  let have = String.length data in
  if have < 11 then Ok None
  else if not (data.[0] = 'A' && data.[1] = 'B') then Error "bad frame magic"
  else
    let len = get_u32 data 3 in
    if len < 0 || len > p.max then
      Error (Printf.sprintf "frame length %d exceeds the %d-byte cap" len p.max)
    else if have < 11 + len then Ok None
    else
      let crc_hdr = get_u32 data 7 in
      let crc_real = Int32.to_int (crc32 data ~pos:11 ~len) land 0xFFFFFFFF in
      if crc_hdr <> crc_real then Error "frame crc mismatch"
      else
        match msg_of_payload data.[2] (String.sub data 11 len) with
        | Error _ as e -> e
        | Ok m ->
            Buffer.clear p.buf;
            Buffer.add_substring p.buf data (11 + len) (have - 11 - len);
            Ok (Some m)
