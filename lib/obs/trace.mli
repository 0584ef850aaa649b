(** Hierarchical spans with per-domain buffers and Chrome/JSONL sinks.

    {2 Model}

    A span is a named begin/end pair recorded on the buffer of the
    domain that executes it, so every domain renders as its own track.
    Spans nest through a per-domain stack; a span's logical parent is
    the top of that stack, or — when the stack is empty — the
    {e context} installed by {!with_context}. [Parallel.Pool.submit]
    captures {!current} at submission time and wraps the task in
    {!with_context}, so spans opened inside a pool task attach to the
    submitting span while still rendering on the worker's track (the
    exporter draws a flow arrow between the two).

    {2 Cost}

    Recording is enabled by {!set_enabled} (or the [MDQVTR_TRACE_LOG]
    environment variable, which also installs an [at_exit] JSONL
    flush). When disabled, every entry point is a single atomic load
    and a direct tail call — no closure is allocated by this module and
    the [args] thunk is never run, so permanent instrumentation is free
    on hot paths. Buffers are domain-local: recording never takes a
    lock and never contends across domains. *)

val set_enabled : bool -> unit
val enabled : unit -> bool

val clear : unit -> unit
(** Drop all recorded events (every domain's buffer). Call only while
    no traced work is in flight. *)

(** {2 Context handoff} *)

type context = int
(** The span id a task should attach to; [0] means "no parent". *)

val current : unit -> context
(** The innermost open span of the calling domain (or its installed
    context when no span is open); [0] when tracing is
    disabled. Capture this where work is {e submitted}. *)

val with_context : context -> (unit -> 'a) -> 'a
(** Run a thunk with the given parent context installed on the calling
    domain. Restores the previous context afterwards (exceptions
    included). Where work is {e executed}. *)

(** {2 Recording} *)

val with_span :
  ?args:(unit -> (string * Json.t) list) -> name:string -> (unit -> 'a) -> 'a
(** [with_span ~name f] records a begin event, runs [f], and records
    the end event even if [f] raises. [args] is evaluated only when
    tracing is enabled. *)

val instant : ?args:(unit -> (string * Json.t) list) -> string -> unit
(** A zero-duration marker event (cache hits, race winners, ...). *)

val counter : string -> (string * float) list -> unit
(** A counter sample; Chrome renders each series as a stacked area
    chart on the emitting domain's track. Call sites on hot paths
    should guard with {!enabled} to avoid building the value list. *)

(** {2 Inspection and export} *)

type event = {
  ph : [ `Begin | `End | `Instant | `Counter ];
  name : string;
  ts : float;  (** {!Clock.now} seconds *)
  tid : int;  (** recording domain's id *)
  id : int;  (** span id ([`Begin] only; 0 otherwise) *)
  parent : int;  (** parent span id, 0 = root ([`Begin]/[`Instant]) *)
  args : (string * Json.t) list;
}

val events : unit -> event list
(** Snapshot of all recorded events, sorted by timestamp. Call while
    traced work is quiescent (same caveat as {!clear}). *)

val export_chrome : string -> unit
(** Write the Chrome trace-event JSON ([{"traceEvents": [...]}]) to a
    file — loadable in Perfetto / [about://tracing]. One track per
    domain ([pid] 1, [tid] = domain id), thread-name metadata, [B]/[E]
    duration events (args carry [span]/[parent] ids plus user args),
    [i] instants, [C] counter series, and [s]/[f] flow arrows for every
    cross-domain parent handoff. *)

val export_jsonl : string -> unit
(** Write one JSON object per line ([ph]/[name]/[ts]/[tid]/[span]/
    [parent]/[args]) — the structured event log for machine
    consumption. Setting [MDQVTR_TRACE_LOG=FILE] in the environment
    enables tracing at startup and writes this log at exit. *)
