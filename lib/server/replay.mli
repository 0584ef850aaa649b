(** Edit-script replay on the engine path — the driver behind
    [qvtr session], and the one experiment E9 is checked on.

    A replay script is a text file of labelled snapshot blocks:

    {v
    == step rename feature
    model fm : FM { ... }

    == step drop config entry
    model cf1 : CF { ... }
    v}

    Each block holds one or more models in {!Mdl.Serialize} concrete
    syntax; parameters not restated in a block are unchanged. A block
    is exactly the payload of one [apply_edits] request, which diffs
    it against the session's state — so a script is just "what the
    models looked like after each save", the natural editor-session
    trace.

    {!run} drives a private {!Engine} (one job) through the daemon's
    own request values. It opens a [main] session and rechecks it
    once, unrecorded, so [main] has paid for its check stage before
    step 1. Each step then sends [apply_edits] + [recheck] to [main]
    (the warm path), and [open] + [recheck] + [close] to a fresh
    session over the same post-edit models (the baseline: cold solves,
    and a check stage cloned from the translation template of its
    shape, which after the first step the process usually has). *)

type step = {
  label : string;
  edits : int;  (** edit operations in the step's diff *)
  rebuilt : bool;  (** the warm recheck had to take a new check stage *)
  consistent : bool;  (** the warm recheck's verdict *)
  verdicts_match : bool;
      (** the warm and fresh rechecks return identical verdicts *)
  warm : Incr.Session.step_stats;  (** [main]'s recheck *)
  scratch : Incr.Session.step_stats;  (** the fresh session's recheck *)
}

val blocks : string -> ((string * int * string) list, string) result
(** Split a replay script into [(label, marker_line, body)] blocks:
    lines starting with [==] open a block, the rest of the marker line
    is the label, and [marker_line] is the marker's 1-based line in
    the script. Each body is newline-padded to its file position, so
    parse errors raised on it report absolute script-file lines.
    Errors (e.g. text before the first marker) carry line numbers. *)

val run : Protocol.open_spec -> string -> (step list, string) result
(** [run spec script] replays [script] from the session [spec] opens.
    Every block is parsed against [spec]'s metamodels, and its models'
    names checked against [spec]'s models (the session's parameters),
    before the engine starts, so a malformed script, or a block naming
    a parameter the session lacks, fails with
    [replay script: step "<label>" (marker at line N): <error>] and
    absolute script lines before any solver work. A request the
    engine refuses (an [open] whose transformation does not parse or
    typecheck) ends the replay with that reply's error. The engine is
    shut down on every return. *)
