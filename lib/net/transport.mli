(** Byte-stream transports with deadlines: the one stream type every
    shard worker is reached over.

    A {!t} is a bidirectional byte stream — a pipe pair to a child
    process, a connected TCP socket, or a connected Unix-domain
    socket — with deadline-bounded reads and writes driven by
    {!Mclock.now}.  The frame protocol above this layer
    ([Dist.Frame]) never learns which it is talking over: framing,
    CRC validation, heartbeats and retry policy are identical on
    every transport, which is what keeps sharded reports
    byte-identical to serial ones no matter where the workers run.

    Nothing here retries: a timeout or a peer reset surfaces as
    {!Timeout} or [0]/[Unix_error] and the caller (the supervisor's
    endpoint registry) decides whether to reconnect.  Deadlines are
    absolute {!Mclock.now} values, so a caller can budget one
    deadline across several reads. *)

exception Timeout of string
(** A read, write, connect or accept missed its deadline.  The
    payload names the operation and the peer. *)

(** A dialable address.  [Tcp ("::1", 7001)] and
    [Unix_sock "/tmp/w.sock"] both serve the same protocol. *)
type addr = Tcp of string * int | Unix_sock of string

val addr_to_string : addr -> string
(** ["host:port"] / ["unix:PATH"] — inverse of {!addr_of_string}. *)

val addr_of_string : string -> (addr, string) result
(** Parse ["host:port"] or ["unix:PATH"].  Hostnames resolve at
    connect time, not here; the port must be in [1..65535]. *)

type t
(** A connected bidirectional byte stream. *)

val peer : t -> string
(** Human-readable peer name, for diagnostics ("pipe", the address,
    or the accepted peer). *)

val of_pipe : read_fd:Unix.file_descr -> write_fd:Unix.file_descr -> t
(** Wrap a read fd and a write fd as one stream — a spawned worker's
    own stdin/stdout, or any pipe pair. *)

val of_fd : Unix.file_descr -> peer:string -> t
(** Wrap an already-connected socket (or socketpair end). *)

val spawn : string -> env:string array -> (t, string) result
(** [spawn exe ~env] starts [exe] with environment [env] as a child
    whose stdin and stdout are the two ends of the returned stream
    (stderr is shared).  A child that dies shows up as EOF, after
    everything it wrote has been read.  {!close} SIGKILLs and reaps
    the child.  [Error] when the process cannot be started. *)

val connect : ?deadline:float -> addr -> (t, string) result
(** Dial [addr], non-blocking, bounded by [deadline] ({!Mclock.now}
    scale; default 5 s from now).  [Error] covers refusal, timeout,
    and resolution failure — connect errors are data to the retry
    policy above, never exceptions. *)

type listener

val listen : ?backlog:int -> addr -> (listener, string) result
(** Bind and listen.  For [Unix_sock] a stale socket file is
    unlinked first.  [Tcp] binds with [SO_REUSEADDR]. *)

val listener_fd : listener -> Unix.file_descr
(** For [select]-style readiness polling alongside other fds. *)

val bound_addr : listener -> addr
(** The actual bound address — resolves port 0 to the kernel's
    choice, which is how tests get collision-free TCP ports. *)

val accept : ?deadline:float -> listener -> (t, string) result
(** Accept one connection; [Error "timeout"] when the deadline
    passes first (default: block). *)

val close_listener : listener -> unit

val read : ?deadline:float -> t -> Bytes.t -> int -> int -> int
(** [read t buf pos len]: one read of up to [len] bytes, waiting for
    readability until [deadline] (default: block).  [0] = EOF.
    @raise Timeout when the deadline passes with nothing readable.
    @raise Unix.Unix_error as [Unix.read] does. *)

val readable_fd : t -> Unix.file_descr
(** The fd to [select] on for incoming bytes. *)

val write : ?deadline:float -> t -> string -> unit
(** Write the whole string, waiting for writability before each
    chunk.  @raise Timeout if the peer stops draining before the
    deadline; @raise Unix.Unix_error on a reset. *)

val close : t -> unit
(** Idempotent; closes both directions, and kills and reaps the child
    of a {!spawn}ed stream. *)
