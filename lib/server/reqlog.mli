(** Structured JSONL request log: one record per protocol frame the
    engine answers, written at reply time so the record carries the
    full measured timing split.

    Record schema (one JSON object per line):
    {v
    {"ts": <unix epoch seconds of the reply>,
     "id": <request id from the frame>,
     "session": <session name>,
     "verb": "open" | "recheck" | ... | "stats",
     "queue_wait_s": <enqueue -> dequeue>,
     "service_s": <dequeue -> reply>,
     "outcome": "ok" | "error",
     "slow": true | false}
    v}

    A log without a path is a pure counter sink: the engine still
    funnels every reply through it, so [count] == frames served holds
    (and is asserted by the server tests) whether or not records hit
    disk. Writes are serialized by an internal mutex — pool workers
    reply concurrently. *)

type t

val create : ?path:string -> unit -> t
(** [create ~path ()] opens (appends to) a JSONL file; without [path]
    the log only counts. @raise Sys_error if the path is unwritable. *)

val log :
  t ->
  ts:float ->
  id:int ->
  session:string ->
  verb:string ->
  queue_wait_s:float ->
  service_s:float ->
  outcome:string ->
  slow:bool ->
  unit

val count : t -> int
(** Records logged so far (== protocol frames answered by the engine
    this log is attached to). *)

val path : t -> string option
val close : t -> unit
(** Flush and close the file, if any. Further [log] calls still
    count but no longer write. *)
