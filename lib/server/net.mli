(** Socket front end for {!Engine}: newline-framed JSONL over a Unix
    domain socket or loopback TCP, plus an optional read-only HTTP
    admin plane for operational telemetry.

    One JSONL connection carries any number of interleaved sessions;
    frames are {!Protocol} requests, one per line, answered with one
    response line each. Responses to a single session come back in
    request order; responses across sessions (and to [stats]) may
    interleave, which is why every frame carries the client's [id]. A
    frame that fails strict parsing is answered immediately with
    [{"id":<recovered id or -1>,"ok":false,"error":...}] — the
    connection stays up, the [server.protocol_errors] counter is
    bumped, and the error message carries this connection's running
    tally of malformed frames. A frame longer than {!max_frame_bytes}
    (a client that never sends a newline) is counted the same way and
    answered with one error naming the limit, then the connection is
    closed.

    The admin plane ([?admin] port, loopback only) speaks minimal
    HTTP/1.0, GET only, one request per connection:
    - [GET /metrics] — the whole {!Obs.Metrics} registry in Prometheus
      text exposition format ([text/plain; version=0.0.4]);
    - [GET /healthz] — [200 ok] while the loop is serving;
    - [GET /sessions] — {!Engine.sessions_json} as JSON.

    A request line longer than {!max_request_line_bytes} gets [400]
    and the connection is closed.

    Replies are written by whichever pool worker finished the request,
    serialized per connection with a write lock; the accept/read loop
    itself never blocks on engine work. The [server.connections] gauge
    tracks open connections across both planes. *)

type addr =
  | Unix_sock of string  (** path; unlinked and re-bound on start *)
  | Tcp of int  (** loopback only — the server is not authenticated *)

val serve :
  ?ready:(unit -> unit) ->
  ?admin:int ->
  engine:Engine.t ->
  addr ->
  (unit, string) result
(** Bind, listen and run the accept/read loop forever (the [qvtr
    serve] process exits by signal). [ready] fires once the socket(s)
    are listening — the bench and the CI smoke test use it to know
    when to connect. [admin] additionally binds the HTTP admin plane
    on that loopback TCP port. [Error] covers bind/listen failures;
    per-connection I/O errors just drop that connection. *)

(** {2 Exposed for tests} *)

val max_frame_bytes : int
(** 64 MiB: the longest JSONL frame, newline excluded. *)

val max_request_line_bytes : int
(** 8 KiB: the longest admin-plane request line. *)

type partial
(** The bytes of a stream after its last newline. *)

val empty : partial

val frames : limit:int -> partial -> string -> string list * (partial, int) result
(** [frames ~limit pending chunk]: the lines (newline dropped) that
    [chunk] completes, in order, and then the new unterminated tail —
    or [Error n] when the next line, complete or not, already holds
    [n > limit] bytes (the lines before it are still returned). Only
    [chunk] is scanned, and each byte is copied into its line once,
    so framing is linear in the stream. *)

val receive :
  ?limit:int ->
  engine:Engine.t ->
  proto_errors:int ref ->
  send:(string -> unit) ->
  partial ->
  string ->
  partial option
(** One read of a JSONL connection: {!frames} ([limit] defaults to
    {!max_frame_bytes}), then {!feed} of every completed line.
    [Some tail] keeps the connection; [None] after an oversized frame,
    which is counted as a protocol error and answered with one error
    naming the limit — the caller then closes the connection. *)

val feed :
  engine:Engine.t ->
  proto_errors:int ref ->
  send:(string -> unit) ->
  string ->
  unit
(** Process one JSONL frame exactly as a live connection would:
    blank lines are ignored, malformed frames bump
    [server.errors]/[server.protocol_errors] and the per-connection
    [proto_errors] tally and get an error reply via [send], valid
    frames are submitted to the engine with replies routed to
    [send]. *)

val admin_response : engine:Engine.t -> string -> string
(** [admin_response ~engine request_line] is the full HTTP/1.0
    response (status line, headers, body) for one admin-plane request
    line such as ["GET /metrics HTTP/1.0"]. *)
