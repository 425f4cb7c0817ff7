(* See the interface for the contract.  Implementation notes:

   - the enabled flag is one Atomic.t read on the guarded path;
   - each domain owns a ring buffer reached through Domain.DLS; the
     buffer carries the current scope and both sequence counters, so
     emission is entirely domain-local;
   - capture sessions are numbered by a generation counter: a buffer
     whose generation is stale is reset and re-registered (one mutexed
     list append per domain per session) on its first emission, which
     also lets buffers of long-dead pool domains be recognised and
     skipped at drain time. *)

type arg = I of int | S of string | B of bool

type kind = K_span_begin | K_span_end | K_instant | K_counter of int

type event = {
  ev_cat : string;
  ev_name : string;
  ev_kind : kind;
  ev_scope : int;
  ev_seq : int;
  ev_args : (string * arg) list;
  ev_wall : float;
  ev_dom : int;
}

let dummy_event =
  {
    ev_cat = "";
    ev_name = "";
    ev_kind = K_instant;
    ev_scope = -1;
    ev_seq = 0;
    ev_args = [];
    ev_wall = 0.0;
    ev_dom = 0;
  }

type buf = {
  mutable bf_evs : event array;  (* grows by doubling up to bf_cap *)
  mutable bf_next : int;  (* total events ever emitted this session *)
  mutable bf_cap : int;
  mutable bf_gen : int;  (* capture session this buffer belongs to *)
  mutable bf_reg : int;  (* registration index within the session *)
  mutable bf_scope : int;  (* -1 = ambient *)
  mutable bf_sseq : int;  (* next seq within bf_scope *)
  mutable bf_aseq : int;  (* next ambient seq *)
  mutable bf_mute : int;  (* {!muted} nesting depth; > 0 silences [on] *)
}

let enabled = Atomic.make false
let generation = Atomic.make 0
let cap_setting = Atomic.make (1 lsl 20)
let registry : buf list ref = ref []
let registry_lock = Mutex.create ()

let key : buf Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      {
        bf_evs = [||];
        bf_next = 0;
        bf_cap = 0;
        bf_gen = -1;
        bf_reg = 0;
        bf_scope = -1;
        bf_sseq = 0;
        bf_aseq = 0;
        bf_mute = 0;
      })

(* The mute depth is checked only behind the enabled flag, so the
   disabled hot path stays one atomic read. *)
let on () = Atomic.get enabled && (Domain.DLS.get key).bf_mute = 0

(* No [Fun.protect]: its closures would be allocated on every call,
   and the model checker mutes every delivery it makes. *)
let muted f =
  let b = Domain.DLS.get key in
  b.bf_mute <- b.bf_mute + 1;
  match f () with
  | v ->
      b.bf_mute <- b.bf_mute - 1;
      v
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      b.bf_mute <- b.bf_mute - 1;
      Printexc.raise_with_backtrace e bt

(* First emission of a domain in a session: reset the counters and
   register the buffer — the only locked operation on the hot path,
   once per domain per session. *)
let adopt b gen =
  b.bf_next <- 0;
  b.bf_scope <- -1;
  b.bf_sseq <- 0;
  b.bf_aseq <- 0;
  b.bf_cap <- Atomic.get cap_setting;
  if Array.length b.bf_evs > b.bf_cap then b.bf_evs <- [||];
  Mutex.lock registry_lock;
  b.bf_reg <- List.length !registry;
  registry := b :: !registry;
  Mutex.unlock registry_lock;
  b.bf_gen <- gen

let get_buf () =
  let b = Domain.DLS.get key in
  let gen = Atomic.get generation in
  if b.bf_gen <> gen then adopt b gen;
  b

let append b e =
  let len = Array.length b.bf_evs in
  if b.bf_next < len then begin
    b.bf_evs.(b.bf_next) <- e;
    b.bf_next <- b.bf_next + 1
  end
  else if len < b.bf_cap then begin
    (* grow towards the cap *)
    let len' = min b.bf_cap (max 256 (2 * len)) in
    let evs = Array.make len' dummy_event in
    Array.blit b.bf_evs 0 evs 0 len;
    b.bf_evs <- evs;
    b.bf_evs.(b.bf_next) <- e;
    b.bf_next <- b.bf_next + 1
  end
  else begin
    (* ring full: overwrite the oldest *)
    b.bf_evs.(b.bf_next mod b.bf_cap) <- e;
    b.bf_next <- b.bf_next + 1
  end

let emit cat name kind args =
  let b = get_buf () in
  let scope, seq =
    if b.bf_scope >= 0 then begin
      let s = b.bf_sseq in
      b.bf_sseq <- s + 1;
      (b.bf_scope, s)
    end
    else begin
      let s = b.bf_aseq in
      b.bf_aseq <- s + 1;
      (-1, s)
    end
  in
  append b
    {
      ev_cat = cat;
      ev_name = name;
      ev_kind = kind;
      ev_scope = scope;
      ev_seq = seq;
      ev_args = args;
      ev_wall = Mclock.now ();
      ev_dom = (Domain.self () :> int);
    }

let span_begin cat name args = emit cat name K_span_begin args
let span_end cat name args = emit cat name K_span_end args
let instant cat name args = emit cat name K_instant args
let counter cat name args v = emit cat name (K_counter v) args

let with_scope id f =
  if not (on ()) then f ()
  else begin
    if id < 0 then invalid_arg "Obs.with_scope: negative scope id";
    let b = get_buf () in
    let saved_scope = b.bf_scope and saved_seq = b.bf_sseq in
    b.bf_scope <- id;
    b.bf_sseq <- 0;
    Fun.protect
      ~finally:(fun () ->
        let b = get_buf () in
        b.bf_scope <- saved_scope;
        b.bf_sseq <- saved_seq)
      f
  end

(* ------------------------------------------------------------------ *)
(* Capture sessions *)

type trace = { t_events : event array; t_dropped : int }

let start ?(capacity = 1 lsl 20) () =
  if capacity < 256 then invalid_arg "Obs.start: capacity < 256";
  Atomic.set cap_setting capacity;
  Mutex.lock registry_lock;
  registry := [];
  Mutex.unlock registry_lock;
  Atomic.incr generation;
  Atomic.set enabled true

let drain () =
  Atomic.set enabled false;
  let gen = Atomic.get generation in
  Mutex.lock registry_lock;
  let bufs =
    List.filter (fun b -> b.bf_gen = gen) !registry |> List.rev
    (* registration order *)
  in
  registry := [];
  Mutex.unlock registry_lock;
  let dropped = ref 0 in
  let all = ref [] in
  List.iter
    (fun b ->
      let kept = min b.bf_next b.bf_cap in
      dropped := !dropped + (b.bf_next - kept);
      let first = b.bf_next - kept in
      for i = first to b.bf_next - 1 do
        all := b.bf_evs.(i mod b.bf_cap) :: !all
      done;
      b.bf_next <- 0;
      b.bf_gen <- -1)
    bufs;
  let evs = List.rev !all in
  (* canonical order: scoped by (scope, seq); ambient events follow in
     (registration order, emission order), which the per-buffer sweep
     already produced *)
  let scoped = Array.of_list (List.filter (fun e -> e.ev_scope >= 0) evs) in
  let ambient = List.filter (fun e -> e.ev_scope < 0) evs in
  Array.sort
    (fun a b ->
      let c = compare a.ev_scope b.ev_scope in
      if c <> 0 then c else compare a.ev_seq b.ev_seq)
    scoped;
  { t_events = Array.append scoped (Array.of_list ambient); t_dropped = !dropped }

let capture ?capacity f =
  start ?capacity ();
  match f () with
  | v -> (v, drain ())
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      ignore (drain ());
      Printexc.raise_with_backtrace e bt

(* ------------------------------------------------------------------ *)
(* Sinks *)

let filter ~cats t =
  {
    t with
    t_events = Array.of_list (List.filter (fun e -> List.mem e.ev_cat cats) (Array.to_list t.t_events));
  }

let json_escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 32 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let ph_of = function
  | K_span_begin -> "B"
  | K_span_end -> "E"
  | K_instant -> "i"
  | K_counter _ -> "C"

let add_args buf ev =
  Buffer.add_char buf '{';
  let args =
    match ev.ev_kind with
    | K_counter v -> ev.ev_args @ [ ("value", I v) ]
    | _ -> ev.ev_args
  in
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_char buf '"';
      Buffer.add_string buf (json_escape k);
      Buffer.add_string buf "\":";
      match v with
      | I n -> Buffer.add_string buf (string_of_int n)
      | B b -> Buffer.add_string buf (if b then "true" else "false")
      | S s ->
          Buffer.add_char buf '"';
          Buffer.add_string buf (json_escape s);
          Buffer.add_char buf '"')
    args;
  Buffer.add_char buf '}'

let add_canonical buf ev =
  Printf.bprintf buf "{\"cat\":\"%s\",\"name\":\"%s\",\"ph\":\"%s\",\"scope\":%d,\"seq\":%d,\"args\":"
    (json_escape ev.ev_cat) (json_escape ev.ev_name) (ph_of ev.ev_kind)
    ev.ev_scope ev.ev_seq;
  add_args buf ev;
  Buffer.add_char buf '}'

let canonical_line ev =
  let buf = Buffer.create 128 in
  add_canonical buf ev;
  Buffer.contents buf

let digest t =
  let buf = Buffer.create 4096 in
  Array.iter
    (fun ev ->
      if ev.ev_scope >= 0 then begin
        add_canonical buf ev;
        Buffer.add_char buf '\n'
      end)
    t.t_events;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let to_jsonl ?(wall = true) buf t =
  Array.iter
    (fun ev ->
      if wall then begin
        Printf.bprintf buf "{\"cat\":\"%s\",\"name\":\"%s\",\"ph\":\"%s\",\"scope\":%d,\"seq\":%d,\"args\":"
          (json_escape ev.ev_cat) (json_escape ev.ev_name) (ph_of ev.ev_kind)
          ev.ev_scope ev.ev_seq;
        add_args buf ev;
        Printf.bprintf buf ",\"wall\":%.6f,\"dom\":%d}" ev.ev_wall ev.ev_dom
      end
      else add_canonical buf ev;
      Buffer.add_char buf '\n')
    t.t_events

let to_chrome ?(wall = true) buf t =
  Buffer.add_string buf "{\"traceEvents\":[\n";
  Array.iteri
    (fun i ev ->
      if i > 0 then Buffer.add_string buf ",\n";
      let ts =
        if wall then ev.ev_wall *. 1e6 else float_of_int i
      in
      let tid = if ev.ev_scope >= 0 then ev.ev_scope else 900 + ev.ev_dom in
      Printf.bprintf buf
        "  {\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"%s\",\"ts\":%.3f,\"pid\":0,\"tid\":%d,\"args\":"
        (json_escape ev.ev_name) (json_escape ev.ev_cat) (ph_of ev.ev_kind) ts
        tid;
      add_args buf ev;
      Buffer.add_char buf '}')
    t.t_events;
  Printf.bprintf buf "\n],\"otherData\":{\"digest\":\"%s\",\"dropped\":%d}}\n"
    (digest t) t.t_dropped
