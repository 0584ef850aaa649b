(** Edit-script replay: drive a {!Session} through a sequence of model
    snapshots and measure each step against a from-scratch baseline.

    A replay script is a text file of labelled snapshot blocks:

    {v
    == step rename feature
    model fm : FM { ... }

    == step drop config entry
    model cf1 : CF { ... }
    v}

    Each block holds one or more models in {!Mdl.Serialize} concrete
    syntax; parameters not re-stated in a block are unchanged. The
    block is diffed against the running state with {!Mdl.Diff.script},
    which makes the step's edit batch — so a script is just "what the
    models looked like after each save", the natural editor-session
    trace.

    {!run} replays the steps twice per step: on the long-lived session
    ([apply_edits] + [recheck], the warm path) and on a fresh session
    over the same post-edit models (paying cold solves and its check
    stage — a clone of the translation template of its shape when
    that shape was seen before in the process, which after the first
    step it usually was; a full translation otherwise). Both report
    {!Session.step_stats}; test_incr's "warm recheck beats
    from-scratch (E9)" asserts on them. *)

type step = {
  s_label : string;
  s_batch : (Mdl.Ident.t * Mdl.Edit.t list) list;
}

type step_record = {
  sr_label : string;
  sr_edits : int;  (** edit operations in the step's batch *)
  sr_rebuilt : bool;  (** the live session had to re-encode *)
  sr_session_consistent : bool;
  sr_scratch_consistent : bool;
  sr_verdicts_match : bool;
      (** per-direction verdicts of warm and scratch recheck agree *)
  sr_session : Session.step_stats;  (** warm [recheck] *)
  sr_scratch : Session.step_stats;  (** fresh open + [recheck] *)
}

val steps_of_snapshots :
  base:(Mdl.Ident.t * Mdl.Model.t) list ->
  (string * (Mdl.Ident.t * Mdl.Model.t) list) list ->
  step list
(** Turn labelled snapshots into diff-derived steps, starting from
    [base]. Parameters absent from a snapshot are unchanged; an empty
    diff yields an empty batch (the step is kept, with no edits). *)

val blocks : string -> ((string * int * string) list, string) result
(** Split a replay script into [(label, marker_line, body)] blocks:
    lines starting with [==] open a block, the rest of the marker line
    is the label, and [marker_line] is the marker's 1-based line in
    the script. Each body is newline-padded to its file position, so
    parse errors raised on it report absolute script-file lines. The
    transformation server's [apply_edits] verb and the [qvtr session]
    CLI both feed these bodies through the same snapshot-diff path.
    Errors (e.g. text before the first marker) carry line numbers. *)

val parse :
  metamodels:Mdl.Metamodel.t list ->
  base:(Mdl.Ident.t * Mdl.Model.t) list ->
  string ->
  (step list, string) result
(** Parse a replay script (see above): blocks separated by lines
    starting with [==], the rest of the marker line being the step
    label. Every error — stray text before the first marker, a
    malformed model block, an unknown declaration keyword — is
    reported with its 1-based line (and, for model-syntax errors,
    column) in the script file. *)

val run :
  ?mode:Qvtr.Semantics.mode ->
  ?slack_budget:int ->
  ?headroom:int ->
  transformation:Qvtr.Ast.transformation ->
  metamodels:(Mdl.Ident.t * Mdl.Metamodel.t) list ->
  models:(Mdl.Ident.t * Mdl.Model.t) list ->
  targets:Echo.Target.t ->
  step list ->
  (step_record list, string) result
(** Replay the steps. The session's first [recheck] (building its
    check stage) happens before step 1 and is not recorded — records
    compare steady-state warm rechecks against the first recheck of a
    fresh session on identical models. *)
