(** Incremental consistency-maintenance sessions.

    A session holds a parsed transformation, one encoding of its
    current models (a {e generation}) and that generation's check
    stage. Model {e facts} — which tuples the current models contain
    — are never asserted there: every check solve pins them through
    solver assumptions over the frozen encoding, so an edit batch is
    just a different assumption set and re-checking after an edit
    re-uses everything the solver already learnt (clauses, VSIDS
    activity, saved phases).

    Each top directional check is translated to a guard literal over
    one shared, memoized lowering ({!Relog.Translate}); [recheck]
    solves once per direction under the fact pins plus that
    direction's guard, and on violation the solver's unsat core —
    minimized with {!Sat.Solver.minimize_core} — names the {e blame
    set} of model facts, each with the polarity it was pinned at.

    [rerepair] checks consistency the same warm way, and repairs with
    the one-shot core: {!Echo.Space.build} over the current models,
    with the session's value universe, slack budget, mode and [sbp],
    then {!Echo.Repair.run_all}. Its menu is therefore the menu of a
    from-scratch {!Echo.Engine.enforce_all} over the same models by
    construction, symmetry breaking ({!Echo.Space.sbp_orbits})
    included. The repair translates exact bounds afresh on every call;
    the check stage carries no repair clauses.

    The check stage (every relation materialized, one guard per top
    formula) depends only on the bounds and the top formulas, and the
    translation keys everything by universe index, so sessions of
    equal shape share it whatever their object ids. A process-wide
    table keeps a {e translation template} for each of the
    [template_cap] = 32 most recently used shapes: a never-solved
    {!Sat.Solver.clone} of the stage's solver, its guards, and its
    primary table (primary variables in pin order, and variable ->
    fact for blame). The translation itself is dropped once these are
    taken. A generation's first [recheck]/[rerepair] takes its check
    stage as a {!Sat.Solver.clone} of its template's solver, building
    and inserting the template first on a miss; the session owns that
    solver, and reads the template's primary table, which nothing
    writes once the template is in the table. A session keeps no
    other part of the template, so a template the table drops is
    freed with it. [incr.template_hits], [incr.template_misses] and
    the [incr.templates] gauge count them.

    Object creation is served from the check encoding's slack atoms:
    the check stage holds [headroom] fresh atoms per parameter and an
    edit consumes one per created object (a repair's [slack_budget]
    fresh objects live in its own {!Echo.Space}). Edits the frozen
    universe cannot express (a brand-new attribute value, slack
    exhaustion) trigger a {e re-encode}: a fresh encoding of the
    current models replaces the generation, its check stage goes with
    it, and the next solve takes the check stage of the new shape from
    its template, as opening does. *)

type t

type fact = {
  f_rel : Mdl.Ident.t;  (** relation name, e.g. [m$ft$name] *)
  f_atoms : Mdl.Ident.t array;  (** tuple, as universe atom names *)
  f_present : bool;
      (** whether the current models contain the tuple: a blame set
          pins facts absent as well as present *)
}
(** One model fact: a tuple the current models assert or deny. *)

type step_stats = {
  wall : float;  (** seconds inside the operation *)
  solver_calls : int;
  conflicts : int;
  propagations : int;
  decisions : int;
  translated : bool;
      (** whether the operation had to (re)translate — [false] on the
          warm assumption-flip path, [true] on every [rerepair] that
          repairs *)
  translate_s : float;
      (** wall seconds the operation spent taking a check stage: the
          solver clone, plus the template's full translation on a
          miss (a clone never translates); 0 on the warm path. A
          [rerepair] that repairs adds its repair's translation. *)
}
(** Solver effort attributed to one [recheck]/[rerepair] call: the
    delta of the session's check solver over the call — counted from
    zero when the call re-encoded, since its check solver is then new
    — plus, for a [rerepair] that repairs, the whole telemetry of its
    {!Echo.Repair.run_all}. *)

type verdict = {
  v_relation : Mdl.Ident.t;
  v_direction : Qvtr.Ast.dependency;
  v_holds : bool;
  v_blame : fact list;
      (** when violated and blame was requested: a minimal set of
          model facts that together with the direction's semantics is
          already inconsistent, named by the client's own atoms (an
          object created by an edit under [p#id], as {!Qvtr.Check.run}
          names it); facts about slack atoms that stand for no current
          object are left out *)
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
      (** all distinct minimal repairs (up to the limit), in canonical
          order — the menu {!Echo.Engine.enforce_all} computes over
          the current models with the same [sbp] *)

type repair_report = {
  outcome : repair_outcome;
  repair_stats : step_stats;
}

val open_session :
  ?mode:Qvtr.Semantics.mode ->
  ?slack_budget:int ->
  ?headroom:int ->
  ?extra_values:Mdl.Value.t list ->
  ?sbp:bool ->
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
    [sbp] (default true) is the [sbp] of every repair's
    {!Echo.Space.build}: the one-shot symmetry pass collapses
    isomorphic variants of a menu; with [~sbp:false] no symmetry is
    broken and the menu lists every variant (the reference the tests
    compare the symmetry pass against; the server always breaks
    symmetry).

    Opening translates nothing: the first [recheck]/[rerepair] builds
    the check stage, as a solver clone of the translation template of
    the session's shape — after a full translation, kept as the
    template, where no session of that shape built one yet. Either
    way that call reports [translated = true], with the clone or
    translation wall in [translate_s]. Every re-encode takes its check stage the same way.
    The server's [open] verb and its snapshot revival both open
    sessions here, so a revived session costs a clone once its shape
    is in the table. *)

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

val apply_edits : t -> (Mdl.Ident.t * Mdl.Edit.t list) list -> (unit, string) result
(** Apply one edit batch, each script against the named parameter's
    current model. All-or-nothing: on [Error] no model changed. No
    solver work happens here — facts are re-pinned at the next solve;
    only an edit the universe cannot express schedules a re-encode
    (performed lazily with the next solve and counted in its
    {!step_stats}). *)

val recheck : ?blame:bool -> t -> (check_report, string) result
(** Re-check consistency of the current models: one assumption-solve
    per top directional check on the warm check solver. With
    [blame] (default [false]), each violated direction carries a
    minimized fact blame set (extra solves). Verdicts agree with
    {!Qvtr.Check.run} on the current models. *)

val rerepair : ?limit:int -> t -> (repair_report, string) result
(** Least-change repair of the current models over the session's
    target set. Consistency is checked first, as one assumption solve
    on the warm check solver ([Already_consistent] then). Otherwise
    the repair is {!Echo.Repair.run_all} (up to [limit] distinct
    repairs, default 16) over {!Echo.Space.build} of the current
    models with [extra_values = value_universe], [slack_objects =
    slack_budget] and the session's mode and [sbp], so the outcome
    (distance and canonical menu) is a from-scratch
    {!Echo.Engine.enforce_all}'s by construction. The session's models
    are not changed — see {!commit}. [Error] when [limit < 1]. *)

val commit : t -> repair -> (unit, string) result
(** Make a repair the session's current state, routed through
    {!apply_edits} of the {!Mdl.Diff} script so slack accounting and
    re-encode triggers apply as for any other edit. *)

val pp_fact : Format.formatter -> fact -> unit
(** [R(a, b)] for a present fact, [not R(a, b)] for an absent one. *)
