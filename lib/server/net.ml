module Json = Obs.Json
module P = Protocol

type addr =
  | Unix_sock of string
  | Tcp of int

(* The JSONL plane mutates sessions; the admin plane is read-only
   HTTP/1.0 (one request, one response, close) for scrapers. *)
type kind =
  | Jsonl
  | Admin

(* ------------------------------------------------------------------ *)
(* Framing                                                             *)

let max_frame_bytes = 64 * 1024 * 1024
let max_request_line_bytes = 8 * 1024

(* The unterminated tail of the stream: its chunks newest first, so a
   read appends in O(1) and a line is assembled once, when its newline
   arrives. *)
type partial = {
  parts : string list;
  len : int;
}

let empty = { parts = []; len = 0 }

(* Split [chunk] into the lines it completes. Only the new bytes are
   scanned for a newline, and each byte is copied once more, into its
   line: framing a stream is linear in its length. Lines completed
   before an oversized one are still returned. *)
let frames ~limit pending chunk =
  let n = String.length chunk in
  let rec go acc pending start =
    match String.index_from_opt chunk start '\n' with
    | None ->
      let len = pending.len + (n - start) in
      if len > limit then (List.rev acc, Error len)
      else
        ( List.rev acc,
          Ok
            (if start = n then pending
             else { parts = String.sub chunk start (n - start) :: pending.parts; len }) )
    | Some i ->
      let len = pending.len + (i - start) in
      if len > limit then (List.rev acc, Error len)
      else
        let line =
          String.concat "" (List.rev (String.sub chunk start (i - start) :: pending.parts))
        in
        go (line :: acc) empty (i + 1)
  in
  go [] pending 0

type conn = {
  fd : Unix.file_descr;
  kind : kind;
  mutable pending : partial;  (** bytes read, not yet framed into lines *)
  wmu : Mutex.t;  (** serializes reply writes from pool workers *)
  proto_errors : int ref;  (** malformed frames on this connection *)
  mutable alive : bool;
}

let write_all fd s =
  let b = Bytes.of_string s in
  let n = Bytes.length b in
  let off = ref 0 in
  while !off < n do
    off := !off + Unix.write fd b !off (n - !off)
  done

(* Replies race with connection teardown (client gone, worker still
   finishing); a failed write just marks the connection dead. *)
let send conn line =
  Mutex.lock conn.wmu;
  (try if conn.alive then write_all conn.fd (line ^ "\n")
   with Unix.Unix_error _ | Sys_error _ -> conn.alive <- false);
  Mutex.unlock conn.wmu

(* Best-effort id recovery from an unparseable frame, so the error
   reply can still be correlated. *)
let recover_id line =
  match Json.of_string line with
  | Ok j -> Option.value ~default:(-1) (Json.to_int_opt (Json.member "id" j))
  | Error _ -> -1

let m_errors = Obs.Metrics.counter "server.errors"
let m_proto = Obs.Metrics.counter "server.protocol_errors"
let g_conns = Obs.Metrics.gauge "server.connections"

(* One JSONL frame. Split out (and exported) so tests can drive the
   framing/error path without a socket. Frames that fail strict
   parsing never reach the engine: they are counted globally
   ([server.protocol_errors]), tallied per connection, and answered
   with an error that carries the tally — a client that keeps sending
   garbage can see its own error budget grow. *)
let feed ~engine ~proto_errors ~send line =
  if String.trim line <> "" then
    match P.parse_request line with
    | Error err ->
      Obs.Metrics.incr m_errors;
      Obs.Metrics.incr m_proto;
      incr proto_errors;
      let err =
        Printf.sprintf "%s (protocol error %d on this connection)" err
          !proto_errors
      in
      send
        (P.response_to_string ~verb:"error"
           { P.s_id = recover_id line; s_result = Error err })
    | Ok req ->
      let verb = P.verb_of_request req.P.q_req in
      Engine.submit engine req (fun resp ->
          send (P.response_to_string ~verb resp))

(* A frame over [limit] ends the connection: one error reply naming
   the limit, counted like any malformed frame. [None] means close. *)
let receive ?(limit = max_frame_bytes) ~engine ~proto_errors ~send pending chunk =
  let lines, rest = frames ~limit pending chunk in
  List.iter (feed ~engine ~proto_errors ~send) lines;
  match rest with
  | Ok pending -> Some pending
  | Error len ->
    Obs.Metrics.incr m_errors;
    Obs.Metrics.incr m_proto;
    incr proto_errors;
    send
      (P.response_to_string ~verb:"error"
         {
           P.s_id = -1;
           s_result =
             Error
               (Printf.sprintf
                  "frame of at least %d bytes exceeds the %d-byte limit; closing \
                   (protocol error %d on this connection)"
                  len limit !proto_errors);
         });
    None

(* ------------------------------------------------------------------ *)
(* Admin plane: minimal HTTP/1.0, GET only, one response then close.  *)

let http_response ~status ~content_type body =
  Printf.sprintf
    "HTTP/1.0 %s\r\nContent-Type: %s\r\nContent-Length: %d\r\nConnection: \
     close\r\n\r\n%s"
    status content_type (String.length body) body

(* [request_line] is the first line of the HTTP request, e.g.
   "GET /metrics HTTP/1.0". Exported for tests. *)
let admin_response ~engine request_line =
  match String.split_on_char ' ' (String.trim request_line) with
  | meth :: _ when meth <> "GET" ->
    http_response ~status:"405 Method Not Allowed" ~content_type:"text/plain"
      "admin plane is read-only: GET /metrics, /healthz, /sessions\n"
  | [ "GET"; target ] | [ "GET"; target; _ ] -> (
    match target with
    | "/metrics" ->
      (* refresh engine gauges so a scrape between requests still sees
         current depths; the registry render itself is lock-free *)
      ignore (Engine.stats_json engine);
      http_response ~status:"200 OK"
        ~content_type:"text/plain; version=0.0.4"
        (Obs.Metrics.to_prometheus ())
    | "/healthz" ->
      http_response ~status:"200 OK" ~content_type:"text/plain" "ok\n"
    | "/sessions" ->
      http_response ~status:"200 OK" ~content_type:"application/json"
        (Json.to_string (Engine.sessions_json engine) ^ "\n")
    | _ ->
      http_response ~status:"404 Not Found" ~content_type:"text/plain"
        "unknown admin path: try /metrics, /healthz, /sessions\n")
  | _ ->
    http_response ~status:"400 Bad Request" ~content_type:"text/plain"
      "malformed request line\n"

(* An admin connection is done as soon as we have the request line;
   HTTP/1.0 clients send headers after it but we never need them. A
   request line over [max_request_line_bytes] gets a 400. *)
let admin_step ~engine conn chunk =
  let reply =
    match frames ~limit:max_request_line_bytes conn.pending chunk with
    | line :: _, _ -> Some (admin_response ~engine line)
    | [], Ok pending ->
      conn.pending <- pending;
      None
    | [], Error _ ->
      Some
        (http_response ~status:"400 Bad Request" ~content_type:"text/plain"
           (Printf.sprintf "request line exceeds %d bytes\n" max_request_line_bytes))
  in
  Option.iter
    (fun reply ->
      Mutex.lock conn.wmu;
      (try if conn.alive then write_all conn.fd reply
       with Unix.Unix_error _ | Sys_error _ -> ());
      conn.alive <- false;
      (try Unix.close conn.fd with Unix.Unix_error _ -> ());
      Mutex.unlock conn.wmu)
    reply

(* ------------------------------------------------------------------ *)

let bind_tcp port =
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt sock Unix.SO_REUSEADDR true;
  Unix.bind sock (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  sock

let serve ?(ready = fun () -> ()) ?admin ~engine addr =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  match
    let main =
      match addr with
      | Unix_sock path ->
        (try Unix.unlink path with Unix.Unix_error _ -> ());
        let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.bind sock (Unix.ADDR_UNIX path);
        sock
      | Tcp port -> bind_tcp port
    in
    let admin_sock = Option.map bind_tcp admin in
    (main, admin_sock)
  with
  | exception Unix.Unix_error (e, _, arg) ->
    Error (Printf.sprintf "serve: %s: %s" arg (Unix.error_message e))
  | sock, admin_sock ->
    Unix.listen sock 64;
    Option.iter (fun s -> Unix.listen s 64) admin_sock;
    ready ();
    let conns = ref [] in
    let chunk = Bytes.create 65536 in
    let accept_into kind lsock =
      match Unix.accept lsock with
      | client, _ ->
        conns :=
          {
            fd = client;
            kind;
            pending = empty;
            wmu = Mutex.create ();
            proto_errors = ref 0;
            alive = true;
          }
          :: !conns
      | exception Unix.Unix_error _ -> ()
    in
    let close_conn conn =
      Mutex.lock conn.wmu;
      conn.alive <- false;
      (try Unix.close conn.fd with Unix.Unix_error _ -> ());
      Mutex.unlock conn.wmu
    in
    let rec loop () =
      conns := List.filter (fun c -> c.alive) !conns;
      Obs.Metrics.set_gauge g_conns (float_of_int (List.length !conns));
      let listeners =
        sock :: (match admin_sock with Some s -> [ s ] | None -> [])
      in
      let fds = listeners @ List.map (fun c -> c.fd) !conns in
      let readable, _, _ =
        try
          let r, w, x = Unix.select fds [] [] (-1.0) in
          (r, w, x)
        with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
      in
      List.iter
        (fun fd ->
          if fd = sock then accept_into Jsonl sock
          else if admin_sock = Some fd then accept_into Admin fd
          else
            match List.find_opt (fun c -> c.fd = fd) !conns with
            | None -> ()
            | Some conn -> (
              match Unix.read conn.fd chunk 0 (Bytes.length chunk) with
              | 0 -> close_conn conn
              | n -> (
                let data = Bytes.sub_string chunk 0 n in
                match conn.kind with
                | Jsonl -> (
                  match
                    receive ~engine ~proto_errors:conn.proto_errors ~send:(send conn)
                      conn.pending data
                  with
                  | Some pending -> conn.pending <- pending
                  | None -> close_conn conn)
                | Admin -> admin_step ~engine conn data)
              | exception Unix.Unix_error _ -> close_conn conn))
        readable;
      loop ()
    in
    loop ()
