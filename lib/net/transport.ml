(* Byte-stream transports with deadlines.  See transport.mli. *)

exception Timeout of string

type addr = Tcp of string * int | Unix_sock of string

let addr_to_string = function
  | Tcp (h, p) -> Printf.sprintf "%s:%d" h p
  | Unix_sock p -> "unix:" ^ p

let addr_of_string (s : string) : (addr, string) result =
  let s = String.trim s in
  if s = "" then Error "empty address"
  else if String.length s > 5 && String.sub s 0 5 = "unix:" then begin
    let path = String.sub s 5 (String.length s - 5) in
    if path = "" then Error "unix: address needs a path" else Ok (Unix_sock path)
  end
  else
    match String.rindex_opt s ':' with
    | None -> Error (Printf.sprintf "address %S: expected host:port or unix:PATH" s)
    | Some i -> (
        let host = String.sub s 0 i in
        let port = String.sub s (i + 1) (String.length s - i - 1) in
        match int_of_string_opt port with
        | Some p when p >= 1 && p <= 65535 ->
            if host = "" then Error (Printf.sprintf "address %S: empty host" s)
            else Ok (Tcp (host, p))
        | _ -> Error (Printf.sprintf "address %S: bad port %S" s port))

type t = {
  t_read : Unix.file_descr;
  t_write : Unix.file_descr;  (** = [t_read] for sockets *)
  t_peer : string;
  t_child : int option;  (** pid behind a {!spawn}ed pipe pair *)
  mutable t_closed : bool;
}

let peer t = t.t_peer
let readable_fd t = t.t_read

let of_pipe ~read_fd ~write_fd =
  { t_read = read_fd; t_write = write_fd; t_peer = "pipe"; t_child = None; t_closed = false }

let of_fd fd ~peer =
  { t_read = fd; t_write = fd; t_peer = peer; t_child = None; t_closed = false }

let close_quiet fd = try Unix.close fd with Unix.Unix_error _ -> ()

let spawn exe ~env =
  let child_in, to_child = Unix.pipe ~cloexec:true () in
  let from_child, child_out = Unix.pipe ~cloexec:true () in
  let pid =
    try Ok (Unix.create_process_env exe [| exe |] env child_in child_out Unix.stderr)
    with e -> Error (Printf.sprintf "spawn %s: %s" exe (Printexc.to_string e))
  in
  close_quiet child_in;
  close_quiet child_out;
  match pid with
  | Error _ as e ->
      close_quiet to_child;
      close_quiet from_child;
      e
  | Ok pid ->
      Ok
        {
          t_read = from_child;
          t_write = to_child;
          t_peer = Printf.sprintf "pid %d" pid;
          t_child = Some pid;
          t_closed = false;
        }

let close t =
  if not t.t_closed then begin
    t.t_closed <- true;
    close_quiet t.t_read;
    if t.t_write <> t.t_read then close_quiet t.t_write;
    Option.iter
      (fun pid ->
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
      t.t_child
  end

let obs name args = if Obs.on () then Obs.instant "net" name args

(* Wait until [fd] is ready in direction [dir], or the deadline
   passes.  [None] deadline blocks.  EINTR restarts with the
   remaining budget — deadlines are absolute, so this cannot extend
   the wait. *)
let rec wait_ready ~dir ~deadline ~what fd =
  let tmo =
    match deadline with
    | None -> -1.0 (* select: block *)
    | Some d ->
        let left = d -. Mclock.now () in
        if left <= 0.0 then raise (Timeout what) else left
  in
  let r, w = match dir with `R -> ([ fd ], []) | `W -> ([], [ fd ]) in
  match Unix.select r w [] tmo with
  | [], [], [] -> raise (Timeout what)
  | _ -> ()
  | exception Unix.Unix_error (EINTR, _, _) -> wait_ready ~dir ~deadline ~what fd

let read ?deadline t buf pos len =
  wait_ready ~dir:`R ~deadline ~what:("read from " ^ t.t_peer) t.t_read;
  let rec go () =
    match Unix.read t.t_read buf pos len with
    | n -> n
    | exception Unix.Unix_error (EINTR, _, _) -> go ()
    | exception Unix.Unix_error ((ECONNRESET | EPIPE), _, _) -> 0
  in
  go ()

let write ?deadline t s =
  let len = String.length s in
  let pos = ref 0 in
  while !pos < len do
    wait_ready ~dir:`W ~deadline ~what:("write to " ^ t.t_peer) t.t_write;
    match Unix.write_substring t.t_write s !pos (len - !pos) with
    | n -> pos := !pos + n
    | exception Unix.Unix_error (EINTR, _, _) -> ()
    | exception Unix.Unix_error (EAGAIN, _, _) -> ()
  done

(* ------------------------------------------------------------------ *)
(* Dialing *)

let sockaddr_of (a : addr) : (Unix.socket_domain * Unix.sockaddr, string) result =
  match a with
  | Unix_sock path -> Ok (Unix.PF_UNIX, Unix.ADDR_UNIX path)
  | Tcp (host, port) -> (
      match Unix.inet_addr_of_string host with
      | ip -> Ok (Unix.PF_INET, Unix.ADDR_INET (ip, port))
      | exception _ -> (
          match Unix.getaddrinfo host (string_of_int port) [ AI_SOCKTYPE SOCK_STREAM ] with
          | { ai_addr = Unix.ADDR_INET (ip, _); _ } :: _ ->
              Ok (Unix.PF_INET, Unix.ADDR_INET (ip, port))
          | _ -> Error (Printf.sprintf "cannot resolve %S" host)))

let default_connect_timeout = 5.0

let connect ?deadline (a : addr) : (t, string) result =
  let deadline =
    match deadline with
    | Some d -> d
    | None -> Mclock.now () +. default_connect_timeout
  in
  match sockaddr_of a with
  | Error e -> Error e
  | Ok (dom, sa) -> (
      let fd = Unix.socket ~cloexec:true dom SOCK_STREAM 0 in
      Unix.set_nonblock fd;
      let peer = addr_to_string a in
      let fail msg =
        close_quiet fd;
        obs "connect-fail" [ ("peer", Obs.S peer); ("why", Obs.S msg) ];
        Error (Printf.sprintf "connect %s: %s" peer msg)
      in
      let finish () =
        (* non-blocking connect completion: writable, then check
           SO_ERROR — a refused connection is writable too *)
        match
          wait_ready ~dir:`W ~deadline:(Some deadline) ~what:("connect " ^ peer) fd
        with
        | exception Timeout _ -> fail "timeout"
        | () -> (
            match Unix.getsockopt_error fd with
            | Some e -> fail (Unix.error_message e)
            | None ->
                Unix.clear_nonblock fd;
                obs "connect" [ ("peer", Obs.S peer) ];
                Ok (of_fd fd ~peer))
      in
      match Unix.connect fd sa with
      | () ->
          Unix.clear_nonblock fd;
          obs "connect" [ ("peer", Obs.S peer) ];
          Ok (of_fd fd ~peer)
      | exception Unix.Unix_error ((EINPROGRESS | EWOULDBLOCK | EAGAIN), _, _) ->
          finish ()
      | exception Unix.Unix_error (e, _, _) -> fail (Unix.error_message e))

(* ------------------------------------------------------------------ *)
(* Listening *)

type listener = { l_fd : Unix.file_descr; l_addr : addr; mutable l_closed : bool }

let listener_fd l = l.l_fd

let listen ?(backlog = 16) (a : addr) : (listener, string) result =
  match sockaddr_of a with
  | Error e -> Error e
  | Ok (dom, sa) -> (
      let fd = Unix.socket ~cloexec:true dom SOCK_STREAM 0 in
      (match a with
      | Tcp _ -> Unix.setsockopt fd SO_REUSEADDR true
      | Unix_sock path -> ( try Unix.unlink path with Unix.Unix_error _ -> ()));
      match
        Unix.bind fd sa;
        Unix.listen fd backlog
      with
      | () ->
          let bound =
            match (a, Unix.getsockname fd) with
            | Tcp (h, _), Unix.ADDR_INET (_, p) -> Tcp (h, p)
            | _ -> a
          in
          obs "listen" [ ("addr", Obs.S (addr_to_string bound)) ];
          Ok { l_fd = fd; l_addr = bound; l_closed = false }
      | exception Unix.Unix_error (e, _, _) ->
          close_quiet fd;
          Error
            (Printf.sprintf "listen %s: %s" (addr_to_string a)
               (Unix.error_message e)))

let bound_addr l = l.l_addr

let accept ?deadline (l : listener) : (t, string) result =
  match wait_ready ~dir:`R ~deadline ~what:"accept" l.l_fd with
  | exception Timeout _ -> Error "timeout"
  | () -> (
      match Unix.accept ~cloexec:true l.l_fd with
      | fd, sa ->
          let peer =
            match sa with
            | Unix.ADDR_INET (ip, p) ->
                Printf.sprintf "%s:%d" (Unix.string_of_inet_addr ip) p
            | Unix.ADDR_UNIX _ -> addr_to_string l.l_addr
          in
          obs "accept" [ ("peer", Obs.S peer) ];
          Ok (of_fd fd ~peer)
      | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e))

let close_listener l =
  if not l.l_closed then begin
    l.l_closed <- true;
    close_quiet l.l_fd;
    match l.l_addr with
    | Unix_sock path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
    | Tcp _ -> ()
  end
