(** Construction of the repair search space shared by both enforcement
    backends.

    Builds, from a transformation and a target set: the relational
    encoding, the consistency formula (all top directional checks),
    the structural (conformance) constraints of every mutable model,
    and the {e change literals} — one per primary variable, true
    exactly when the repaired instance differs from the original on
    that tuple. The total weight of true change literals is the
    relational distance Δ that both backends minimize (Echo's metric:
    symmetric difference of the relational encodings). *)

type t

val build :
  ?mode:Qvtr.Semantics.mode ->
  ?slack_objects:int ->
  ?extra_values:Mdl.Value.t list ->
  ?model_weights:(Mdl.Ident.t * int) list ->
  ?sbp:bool ->
  transformation:Qvtr.Ast.transformation ->
  metamodels:(Mdl.Ident.t * Mdl.Metamodel.t) list ->
  models:(Mdl.Ident.t * Mdl.Model.t) list ->
  targets:Target.t ->
  unit ->
  (t, string) result
(** Validates the target set, then typechecks and encodes through
    {!Qvtr.Front.create} and compiles the top directional checks once.
    [model_weights] prioritises models in the aggregated distance
    (default 1 each — the paper's summed aggregation; other weights
    realise the prioritisation it leaves as future work).

    [sbp] (default [true]) turns on the one-shot symmetry pass
    ({!sbp_orbits}); with [sbp] false no symmetry is broken at all.
    The structural formulas never break symmetry themselves. *)

val encoding : t -> Qvtr.Encode.t

val directional_formulas :
  t -> (Mdl.Ident.t * Qvtr.Ast.dependency * Relog.Ast.formula) list
(** The individual top directional checks (relation, dependency,
    compiled formula), as {!build} compiled them once — used by the
    diagnosis of unrepairable target sets. *)

val consistent : t -> bool
(** Whether every top directional check holds on the original models
    (the space's own check instance, evaluated by {!Relog.Eval}): the
    test {!Engine.enforce} makes before repairing.
    @raise Relog.Eval.Eval_error on a formula naming an unknown atom or
    an unbound variable. *)

val structural : t -> Relog.Ast.formula list
(** Only the structural (conformance) constraints of the mutable
    models. *)

val use_sbp : t -> bool
(** Whether this space was built with [sbp] on. *)

val sbp_orbits : t -> Relog.Symmetry.orbit list
(** The orbits {!Repair} breaks with lex-leader predicates
    ({!Relog.Symmetry.break}) when {!use_sbp} holds. Only the target
    models' object and slack atoms may move: value atoms (their
    identity is observable in a repair menu), frozen models' objects
    and every atom a formula names stay fixed. The original target
    tuples are respected, so every permutation keeps the relational
    distance of every instance, which keeps the distance ladder
    sound. *)

val formulas : t -> Relog.Ast.formula list
(** Consistency plus structural constraints. *)

val bounds : t -> Relog.Bounds.t

val change_literals : t -> Relog.Translate.t -> (Sat.Lit.t * int) list
(** For a translation over {!bounds}: one (literal, weight) per
    primary variable; the literal is true iff the tuple's membership
    differs from the original models'. *)

val decode_targets :
  t -> Relog.Instance.t -> ((Mdl.Ident.t * Mdl.Model.t) list, string) result
(** Decoded (and conformance-checked) target models; non-target models
    are returned unchanged. [Error] when a decoded model does not
    conform (the caller should block the instance and continue). *)

val relational_distance : t -> Relog.Instance.t -> int
(** Weighted symmetric difference between an instance and the original
    encoding, over the target models' relations. *)

val edit_distance : t -> (Mdl.Ident.t * Mdl.Model.t) list -> int
(** Structural edit distance ({!Mdl.Distance}) summed over target
    models, between the originals and the given repaired binding. *)
