(** Incremental consistency-maintenance sessions.

    A session holds a parsed transformation, a cache of translations
    keyed on the exact (metamodels, bounds) they encode, and
    persistent backend solvers. Model {e facts} — which tuples the
    current models contain — are never asserted: every solve pins them
    through solver assumptions over the frozen encoding, so an edit
    batch is just a different assumption set and re-checking after an
    edit re-uses everything the solver already learnt (clauses, VSIDS
    activity, saved phases).

    One finder (translation + solver) serves the whole session.
    Every formula — the top directional checks, the targets'
    structural conformance, the slack symmetry chains — is translated
    to a guard literal over one shared, memoized lowering
    ({!Relog.Translate}); [recheck] solves once per direction under
    the fact pins plus that direction's guard, and on violation the
    solver's unsat core — minimized with {!Sat.Solver.minimize_core}
    — names the {e blame set} of model facts. [rerepair] reuses the
    very same translation: it defines one reference/difference
    variable pair per target primary (the difference variables feed a
    totalizer) and runs the least-change distance ladder purely
    through assumptions: fact pins for frozen models, reference pins
    for targets, the conformance and direction guards, cardinality
    bounds, and a per-call scope literal that retracts the call's
    blocking clauses afterwards.

    A re-encode (new value, slack exhaustion) does {e delta
    retranslation}: the new universe extends the old one
    prefix-compatibly, the finder is {!Relog.Finder.rebind}-ed, and
    only relations whose bounds actually changed are re-lowered —
    matrices, memoized circuits, guard literals and learnt clauses
    all carry over. Returning to a previously seen state revives that
    generation's guards outright.

    Object creation is served from the encoding's slack atoms: each
    session keeps [slack_budget + headroom] fresh atoms per parameter,
    consumes one per created object, and always exposes exactly
    [slack_budget] unconsumed atoms to the repair search — the same
    search space a from-scratch {!Echo.Engine} run with
    [slack_objects = slack_budget] sees. Edits the frozen universe
    cannot express (a brand-new attribute value, slack exhaustion)
    trigger a re-encode over the current models; re-encodes hit the
    translation cache when they return to a previously seen state. *)

type t

type fact = {
  f_rel : Mdl.Ident.t;  (** relation name, e.g. [m$ft$name] *)
  f_atoms : Mdl.Ident.t array;  (** tuple, as universe atom names *)
}
(** One model fact: a tuple the current models assert. *)

type step_stats = {
  wall : float;  (** seconds inside the operation *)
  solver_calls : int;
  conflicts : int;
  propagations : int;
  decisions : int;
  translated : bool;
      (** whether the operation had to (re)translate — [false] on the
          warm assumption-flip path *)
  translate_s : float;
      (** wall seconds the operation spent inside the translation
          layer (lowering + CNF); 0 on the warm path, and small even
          on re-encodes thanks to delta retranslation *)
}
(** Solver-effort delta attributed to one [recheck]/[rerepair] call
    (read off the session's shared finder, including translation-time
    propagation when a build was needed). *)

type verdict = {
  v_relation : Mdl.Ident.t;
  v_direction : Qvtr.Ast.dependency;
  v_holds : bool;
  v_blame : fact list;
      (** when violated and blame was requested: a minimal set of
          model facts that together with the direction's semantics is
          already inconsistent *)
}

type check_report = {
  consistent : bool;
  verdicts : verdict list;  (** same order as {!Qvtr.Check.run} *)
  check_stats : step_stats;
}

type repair = {
  r_models : (Mdl.Ident.t * Mdl.Model.t) list;
      (** full binding: targets replaced, others as current *)
  r_relational_distance : int;
  r_edit_distance : int;
}

type repair_outcome =
  | Already_consistent
  | Cannot_restore
  | Repaired of repair list
      (** all minimal repairs (up to the limit), deduplicated and in
          canonical order — the same menu {!Echo.Engine.enforce_all}
          computes from scratch *)

type repair_report = {
  outcome : repair_outcome;
  repair_stats : step_stats;
}

val open_session :
  ?mode:Qvtr.Semantics.mode ->
  ?unroll:int ->
  ?slack_budget:int ->
  ?headroom:int ->
  ?extra_values:Mdl.Value.t list ->
  ?symmetry:bool ->
  transformation:Qvtr.Ast.transformation ->
  metamodels:(Mdl.Ident.t * Mdl.Metamodel.t) list ->
  models:(Mdl.Ident.t * Mdl.Model.t) list ->
  targets:Echo.Target.t ->
  unit ->
  (t, string) result
(** [slack_budget] (default 2) is the number of fresh objects a single
    repair may create — {!Echo.Engine}'s [slack_objects]. [headroom]
    (default 6) is how many object creations the session absorbs by
    edits before the universe must be re-encoded. [extra_values]
    (default none) seeds the value accumulator beyond what the models
    mention — the revival path of a durable session snapshot passes
    the evicted session's {!value_universe} here, so a resurrected
    session searches exactly the space the evicted one did.
    [symmetry] (default true) assumes the guarded slack-symmetry
    chains on repair solves; sessions pin repairs by assumption, so
    the general lex-leader SBPs of {!Relog.Symmetry} are unsound here
    and the chains are the symmetry breaking sessions get —
    [~symmetry:false] (the server's [--no-sbp]) drops even those,
    enumerating every slack-permutation variant. Solvers
    are built lazily: the first [recheck]/[rerepair] pays the
    translation. *)

val models : t -> (Mdl.Ident.t * Mdl.Model.t) list
(** The current (post-edit) models. *)

val targets : t -> Echo.Target.t
val slack_budget : t -> int

val value_universe : t -> Mdl.Value.t list
(** Every value with an atom in the session universe. A from-scratch
    run over the current models reproduces the session's search space
    exactly when given these as [extra_values] (and [slack_budget] as
    [slack_objects]) — the equivalence the test suite checks. *)

val rebuilds : t -> int
(** Number of re-encodes so far (0 right after [open_session]). *)

val solver_totals : t -> Sat.Solver.stats
(** Cumulative solver effort of the session's shared solver. *)

val apply_edits : t -> (Mdl.Ident.t * Mdl.Edit.t list) list -> (unit, string) result
(** Apply one edit batch, each script against the named parameter's
    current model. All-or-nothing: on [Error] no model changed. No
    solver work happens here — facts are re-pinned at the next solve;
    only an edit the universe cannot express schedules a re-encode
    (performed lazily with the next solve and counted in its
    {!step_stats}). *)

val recheck : ?blame:bool -> t -> (check_report, string) result
(** Re-check consistency of the current models: one assumption-solve
    per top directional check on the warm check finder. With
    [blame] (default [false]), each violated direction carries a
    minimized fact blame set (extra solves). Verdicts agree with
    {!Qvtr.Check.run} on the current models. *)

val rerepair : ?limit:int -> t -> (repair_report, string) result
(** Least-change repair of the current models over the session's
    target set: the distance ladder and minimal-repair enumeration
    (up to [limit], default 16) run as assumption solves on the warm
    repair finder. The outcome (distance and canonical repair menu)
    matches a from-scratch {!Echo.Engine.enforce_all} over the
    current models with aligned [extra_values]/[slack_objects]. The
    session's models are not changed — see {!commit}. [Error] when
    [limit < 1]. *)

val commit : t -> repair -> (unit, string) result
(** Make a repair the session's current state, routed through
    {!apply_edits} of the {!Mdl.Diff} script so slack accounting and
    re-encode triggers apply as for any other edit. *)

val pp_fact : Format.formatter -> fact -> unit
val pp_step_stats : Format.formatter -> step_stats -> unit
