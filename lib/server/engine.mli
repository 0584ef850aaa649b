(** The multi-session request engine behind [qvtr serve].

    The engine owns a table of named sessions, each an
    {!Incr.Session.t} plus a FIFO of pending requests, and schedules
    their work on a {!Parallel.Pool}:

    - {b one in-flight request per session} — requests to one session
      are answered strictly in arrival order, so a client that sends
      [apply_edits] then [recheck] always sees the recheck of its own
      edit;
    - {b fair across sessions} — each turn processes one request (or
      one coalesced edit burst) and then re-enqueues the session at
      the back of the pool queue, so a chatty session cannot starve
      the others;
    - {b edit coalescing} — consecutive [apply_edits] frames queued on
      one session collapse into a single {!Incr.Session.apply_edits}
      batch (each frame still gets its own reply); an editor that
      saves five times between rechecks pays one re-pin, not five;
    - {b LRU eviction} — at most [max_live] sessions keep their
      solver state in memory. Opening or reviving one more evicts the
      least-recently-used idle session to a durable {!Snapshot} in
      [snapshot_dir]; the next request addressed to an evicted
      session transparently revives it (same verdicts, menus and
      distances — {!Snapshot}'s round-trip guarantee). A snapshot
      that cannot be written leaves the session live (the engine runs
      over [max_live]) and counts in [server.snapshot_errors].

    Instrumentation: per-verb latency histograms
    ([server.latency.<verb>_s], enqueue to reply), split into
    [server.queue_wait.<verb>_s] (enqueue to dequeue — how long the
    frame sat behind its session's earlier work) and
    [server.service.<verb>_s] (dequeue to reply — the work itself);
    [server.recheck.warm_s]/[server.recheck.scratch_s] (split on
    whether the recheck had to translate), counters
    [server.requests], [server.errors], [server.slow_requests]
    (replies whose end-to-end latency crossed [slow_ms]),
    [server.sessions_opened], [server.sessions_evicted],
    [server.sessions_revived], [server.sessions_closed],
    [server.edits_coalesced], [server.snapshot_errors] (evictions
    whose snapshot save failed), and gauges [server.sessions_live],
    [server.sessions_cold], [server.queue_depth],
    [server.queue_depth_max] / [server.queue_age_max_s] (the worst
    single session's backlog — the runaway-client signal). Every verb
    runs under an [server.<verb>] {!Obs.Trace} span, and every reply
    is appended to a {!Reqlog} (counting even when no file is
    attached), so reqlog records == frames served always holds. *)

type t

val create :
  ?jobs:int ->
  ?max_live:int ->
  ?snapshot_dir:string ->
  ?slow_ms:float ->
  ?reqlog:Reqlog.t ->
  unit ->
  t
(** [jobs] (default 1) sizes the worker pool — with 1, requests run
    inline at {!submit} time (deterministic; what the [qvtr session]
    CLI uses). [max_live] (default 64) caps in-memory sessions.
    [snapshot_dir] (default ["./qvtr-sessions"]) receives eviction
    snapshots; it is created on first use. [slow_ms] (default: never)
    sets the end-to-end latency above which a reply bumps
    [server.slow_requests] and is flagged [slow] in the request log.
    [reqlog] (default: a counter-only log) receives one record per
    reply. *)

val jobs : t -> int

val submit : t -> Protocol.req -> (Protocol.resp -> unit) -> unit
(** Enqueue a request; the reply callback runs exactly once, on a
    pool worker ([jobs >= 2]) or inline before [submit] returns
    ([jobs = 1]). Callbacks must be thread-safe and non-blocking
    ({!Net} serializes socket writes under a per-connection lock).
    [stats] and addressing errors (unknown session, re-opening a live
    name) are answered immediately on the submitting thread. *)

val call : t -> Protocol.req -> Protocol.resp
(** Synchronous {!submit}. Must not be called from a task running on
    the engine's own pool (it would wait on itself); external threads
    and the CLI only. *)

val drain : t -> unit
(** Block until every submitted request has been replied to. *)

val stats_json : t -> Obs.Json.t
(** The [stats] verb's payload: live/cold session counts, queue
    depth, and the full {!Obs.Metrics} snapshot. *)

val sessions_json : t -> Obs.Json.t
(** The admin plane's [/sessions] payload:
    [{"sessions": [{"session", "state", "queue_depth", "queue_age_s",
    "busy", "lru_stamp"}, ...]}], sorted by session name. [state] is
    ["live"], ["cold"] (evicted to snapshot) or ["opening"] (open
    accepted, not yet hydrated). *)

val frames_served : t -> int
(** Total protocol frames answered (every reply path counts exactly
    once — equals {!Reqlog.count} of the engine's request log). *)

val shutdown : t -> unit
(** {!drain}, then stop the pool. Live sessions are {e not}
    snapshotted — [close]/[snapshot] are the durability verbs. *)
