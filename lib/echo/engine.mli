(** The Echo-style engine façade: check consistency, enforce it in a
    chosen direction (target set), explain failures.

    This is the API the examples and the CLI drive. [checkonly] is
    {!Qvtr.Check}; [enforce] builds the search space, evaluates
    consistency on it ({!Space.consistent}) and, when that fails, runs
    {!Repair.run_all} with the chosen backend, one of its two rung
    orders over one search, so both backends return least-change
    repairs at the same minimal distance (experiment E7). *)

type backend = Repair.backend =
  | Iterative  (** increasing-distance search (Echo FASE'13) *)
  | Maxsat
      (** weighted partial MaxSAT (FASE'14 extension), as a linear
          SAT-UNSAT descent over the same totalizer *)

type enforce_result = {
  repaired : (Mdl.Ident.t * Mdl.Model.t) list;
  relational_distance : int;
  edit_distance : int;
  iterations : int;
  backend : backend;
  stats : Telemetry.t;
      (** instrumentation roll-up of the repair: translation size,
          solver counters, per-distance iterations, timings *)
}

type enforce_outcome =
  | Enforced of enforce_result
  | Already_consistent
      (** the models were consistent; nothing to repair *)
  | Cannot_restore
      (** consistency cannot be restored by changing only the target
          models (within the bounded search space) *)

val check :
  ?mode:Qvtr.Semantics.mode ->
  Qvtr.Ast.transformation ->
  metamodels:(Mdl.Ident.t * Mdl.Metamodel.t) list ->
  models:(Mdl.Ident.t * Mdl.Model.t) list ->
  (Qvtr.Check.report, string) result

val enforce :
  ?backend:backend ->
  ?mode:Qvtr.Semantics.mode ->
  ?slack_objects:int ->
  ?extra_values:Mdl.Value.t list ->
  ?model_weights:(Mdl.Ident.t * int) list ->
  ?sbp:bool ->
  Qvtr.Ast.transformation ->
  metamodels:(Mdl.Ident.t * Mdl.Metamodel.t) list ->
  models:(Mdl.Ident.t * Mdl.Model.t) list ->
  targets:Target.t ->
  (enforce_outcome, string) result
(** [Already_consistent] when every top directional check holds on
    the space's original models; the space is built first, so an
    invalid target set, slack or weight is an [Error] whatever the
    models. Default backend {!Iterative}; [slack_objects] fresh
    objects are available per target model (default 2; negative is an
    [Error]); [extra_values] widens the value universe available to
    repairs; [model_weights] prioritises models in the aggregated
    distance.

    [sbp] (default [true]) enables the bounds-level symmetry analysis
    and its lex-leader symmetry-breaking predicates
    ({!Space.sbp_orbits}); with [~sbp:false] (the CLI's [--no-sbp]) no
    symmetry is broken. Either way the minimal distance is unchanged.
    Either backend is {!Repair.run_all} with [~limit:1]. *)

val enforce_all :
  ?limit:int ->
  ?mode:Qvtr.Semantics.mode ->
  ?slack_objects:int ->
  ?extra_values:Mdl.Value.t list ->
  ?model_weights:(Mdl.Ident.t * int) list ->
  ?sbp:bool ->
  Qvtr.Ast.transformation ->
  metamodels:(Mdl.Ident.t * Mdl.Metamodel.t) list ->
  models:(Mdl.Ident.t * Mdl.Model.t) list ->
  targets:Target.t ->
  (enforce_outcome list, string) result
(** All distinct minimal repairs (iterative backend), up to [limit]
    (default 16) distinct ones, in the canonical order of
    {!Repair.run_all}: a
    singleton [Already_consistent] or [Cannot_restore], or one
    [Enforced] per repair — the menu a multidirectional Echo UI would
    offer the user (paper §4). [Error] when the models are
    inconsistent and [limit < 1]. *)

type diagnosis = {
  d_relation : Mdl.Ident.t;
  d_direction : Qvtr.Ast.dependency;
  d_satisfiable : bool;
      (** can this directional check alone be satisfied by changing
          only the target models (within the bounded space)? *)
}

val diagnose :
  ?mode:Qvtr.Semantics.mode ->
  ?slack_objects:int ->
  ?extra_values:Mdl.Value.t list ->
  Qvtr.Ast.transformation ->
  metamodels:(Mdl.Ident.t * Mdl.Metamodel.t) list ->
  models:(Mdl.Ident.t * Mdl.Model.t) list ->
  targets:Target.t ->
  (diagnosis list, string) result
(** Explain a [Cannot_restore]: test each top directional check in
    isolation (together with the structural constraints) against the
    target set, on one translation — the structural constraints
    asserted, each check solved under its own guard literal. Checks with [d_satisfiable = false] pinpoint the
    obstruction — typically a direction whose target models are all
    frozen, the situation §3 warns about. (All checks individually
    satisfiable with the conjunction unsatisfiable indicates genuinely
    conflicting requirements.) *)

val pp_diagnosis : Format.formatter -> diagnosis -> unit

val pp_outcome : Format.formatter -> enforce_outcome -> unit
