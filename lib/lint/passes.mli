(** Static-analysis passes over typed QVT-R transformations.

    Each pass is a pure function from the AST (plus metamodels, plus
    — for the bounded pass — example models) to a list of
    {!Diagnostic.t}. Codes:

    - [W001] relation unreachable from any top relation
    - [W002] dependency entailed by the rest of its block
      ({!Qvtr.Dependency.entails})
    - [W003] model parameter never a dependency target of a top
      relation — nothing ever checks towards it
    - [W004] declared variable never used
    - [W005] variable bound in a single domain and used nowhere else
    - [W006] variable shadows a model parameter or relation name
    - [W007] template over an abstract class in an enforceable target
      domain
    - [W008] a template binds more distinct values to a feature than
      its multiplicity upper bound admits
    - [W009] a top directional check simplifies to a constant under
      the given example models ({!Relog.Simplify}) *)

val unreachable_relations : Qvtr.Ast.transformation -> Diagnostic.t list
val redundant_dependencies : Qvtr.Ast.transformation -> Diagnostic.t list
val unenforceable_parameters : Qvtr.Ast.transformation -> Diagnostic.t list
val unused_variables : Qvtr.Ast.transformation -> Diagnostic.t list
val single_domain_variables : Qvtr.Ast.transformation -> Diagnostic.t list
val shadowed_names : Qvtr.Ast.transformation -> Diagnostic.t list

val abstract_enforce_templates :
  Qvtr.Ast.transformation ->
  metamodels:(Mdl.Ident.t * Mdl.Metamodel.t) list ->
  Diagnostic.t list

val multiplicity_conflicts :
  Qvtr.Ast.transformation ->
  metamodels:(Mdl.Ident.t * Mdl.Metamodel.t) list ->
  Diagnostic.t list

val constant_checks :
  Qvtr.Ast.transformation ->
  metamodels:(Mdl.Ident.t * Mdl.Metamodel.t) list ->
  models:(Mdl.Ident.t * Mdl.Model.t) list ->
  Diagnostic.t list

val analyze :
  ?models:(Mdl.Ident.t * Mdl.Model.t) list ->
  Qvtr.Ast.transformation ->
  metamodels:(Mdl.Ident.t * Mdl.Metamodel.t) list ->
  Diagnostic.t list
(** All passes, sorted by source position. [W009] runs only when
    [models] is given. Assumes the transformation typechecks:
    [lint_ast] runs the passes only on one that does. *)
