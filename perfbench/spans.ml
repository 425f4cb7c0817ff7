(** In-memory span recording for the traced run.

    A span is one timed call into a layer, made from the benchmark's
    own code.  Each domain appends its spans to its own buffer, so
    recording takes no lock on the hot path; the buffers are read only
    after the traced work has joined.  A span remembers the innermost
    span open on its domain when it began (its parent), which is all
    that {!self_times} needs: a layer's self time is the duration of
    its spans minus the durations of their direct children. *)

type span = {
  sp_layer : int;
  sp_start : float;
  sp_stop : float;
  sp_parent : int;  (** index of the parent in the same domain's array; -1 at top *)
}

type buf = {
  mutable layer : int array;
  mutable start : float array;
  mutable stop : float array;
  mutable parent : int array;
  mutable n : int;
  mutable top : int;  (** innermost open span, -1 when none *)
}

let recording = Atomic.make false
let registry : buf list ref = ref []
let registry_lock = Mutex.create ()

let new_buf () =
  let cap = 4096 in
  let b =
    {
      layer = Array.make cap 0;
      start = Array.make cap 0.0;
      stop = Array.make cap 0.0;
      parent = Array.make cap (-1);
      n = 0;
      top = -1;
    }
  in
  Mutex.lock registry_lock;
  registry := b :: !registry;
  Mutex.unlock registry_lock;
  b

let key = Domain.DLS.new_key new_buf

let grow b =
  let cap = 2 * Array.length b.layer in
  let extend a fill =
    let a' = Array.make cap fill in
    Array.blit a 0 a' 0 b.n;
    a'
  in
  b.layer <- extend b.layer 0;
  b.start <- extend b.start 0.0;
  b.stop <- extend b.stop 0.0;
  b.parent <- extend b.parent (-1)

(** [span layer f] runs [f ()], recording it as a span of [layer] while
    recording is on; otherwise it is just [f ()]. *)
let span layer f =
  if not (Atomic.get recording) then f ()
  else begin
    let b = Domain.DLS.get key in
    if b.n = Array.length b.layer then grow b;
    let i = b.n in
    b.layer.(i) <- layer;
    b.parent.(i) <- b.top;
    b.n <- i + 1;
    b.top <- i;
    b.start.(i) <- Mclock.now ();
    let close () =
      b.stop.(i) <- Mclock.now ();
      b.top <- b.parent.(i)
    in
    match f () with
    | v ->
        close ();
        v
    | exception e ->
        close ();
        raise e
  end

(** Clear every buffer and start recording.  Call with no traced work
    running. *)
let start () =
  Mutex.lock registry_lock;
  List.iter
    (fun b ->
      b.n <- 0;
      b.top <- -1)
    !registry;
  Mutex.unlock registry_lock;
  Atomic.set recording true

(** Stop recording and hand over each domain's spans (domains that
    recorded nothing are omitted), emptying the buffers.  Call after
    the traced work joined. *)
let stop () : span array list =
  Atomic.set recording false;
  Mutex.lock registry_lock;
  let bufs = !registry in
  Mutex.unlock registry_lock;
  List.filter_map
    (fun b ->
      if b.n = 0 then None
      else begin
        let spans =
          Array.init b.n (fun i ->
              {
                sp_layer = b.layer.(i);
                sp_start = b.start.(i);
                sp_stop = b.stop.(i);
                sp_parent = b.parent.(i);
              })
        in
        b.n <- 0;
        b.top <- -1;
        Some spans
      end)
    bufs

(** Per-layer self time (seconds) and span count over one domain's
    spans: every span adds its duration to its own layer and takes it
    away from its parent's layer. *)
let self_times ~layers (spans : span array) : float array * int array =
  let self = Array.make layers 0.0 and calls = Array.make layers 0 in
  Array.iter
    (fun s ->
      let d = s.sp_stop -. s.sp_start in
      self.(s.sp_layer) <- self.(s.sp_layer) +. d;
      calls.(s.sp_layer) <- calls.(s.sp_layer) + 1;
      if s.sp_parent >= 0 then begin
        let p = spans.(s.sp_parent).sp_layer in
        self.(p) <- self.(p) -. d
      end)
    spans;
  (self, calls)

(** {!self_times} summed over domains. *)
let fold ~layers (per_domain : span array list) : float array * int array =
  let self = Array.make layers 0.0 and calls = Array.make layers 0 in
  List.iter
    (fun spans ->
      let s, c = self_times ~layers spans in
      Array.iteri (fun l v -> self.(l) <- self.(l) +. v) s;
      Array.iteri (fun l v -> calls.(l) <- calls.(l) + v) c)
    per_domain;
  (self, calls)
