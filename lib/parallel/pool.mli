(** A dependency-free domain pool: worker domains pulling
    fire-and-forget thunks from a shared queue.

    The pool is the scheduler of the transformation server
    ({!Server.Engine} runs each session's turns on it) but carries no
    knowledge of any layer above it; any subsystem can submit work.
    Enforcement itself is serial: parallelism is across sessions. *)

type t
(** A pool of worker domains. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()] — the hardware parallelism
    available to a pool. This is also the job count [--jobs 0]/auto
    resolves to in the CLI. *)

val create : jobs:int -> t
(** A pool with exactly [jobs] worker domains ([jobs >= 1]).
    With [jobs = 1] no domain is spawned: tasks run inline at
    {!submit} time on the calling domain (deterministic, zero
    overhead), which keeps [jobs = 1] paths identical to serial
    code. Raises [Invalid_argument] on [jobs < 1]. *)

val jobs : t -> int
(** Worker count the pool was created with. *)

val submit : t -> (unit -> unit) -> unit
(** Enqueue a task. Nothing waits on it: a task reports its own
    outcome, and an exception it raises is dropped (the worker goes on
    with the next task). Raises [Invalid_argument] on a pool that has
    been shut down.

    The submitter's {!Obs.Trace.current} context is captured here and
    installed around the task ({!Obs.Trace.with_context}), so spans the
    task opens attach to the submitting span while rendering on the
    worker domain's own trace track. *)

val shutdown : t -> unit
(** Drain the queue, stop and join the workers. Idempotent. Once it
    returns, every task submitted before it has run, so their effects
    can be read. *)
