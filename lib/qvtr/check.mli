(** The [checkonly] engine: evaluate a transformation's consistency
    on concrete models.

    Each top relation contributes one directional check per effective
    dependency; the models are consistent when all checks hold. This
    evaluates the compiled formulas directly ({!Relog.Eval}) — no
    solver involved. *)

type verdict = {
  v_relation : Mdl.Ident.t;
  v_direction : Ast.dependency;
  v_holds : bool;
  v_witness : (Mdl.Ident.t * Mdl.Ident.t) list;
      (** for violated checks: a binding of the universally quantified
          variables to atoms exhibiting the failure (Echo-style
          inconsistency reporting); empty when the check holds or the
          failure is unquantified *)
}

type report = {
  consistent : bool;
  verdicts : verdict list;
  elapsed : float;
      (** wall seconds for the whole check: type checking, encoding,
          semantics compilation and evaluation *)
}

val pp_report : Format.formatter -> report -> unit

val run :
  ?mode:Semantics.mode ->
  Ast.transformation ->
  metamodels:(Mdl.Ident.t * Mdl.Metamodel.t) list ->
  models:(Mdl.Ident.t * Mdl.Model.t) list ->
  (report, string) result
(** Type-checks and encodes without slack ({!Front.create}), then
    compiles and evaluates (span [check.eval]). [Error] carries the
    type errors or the encoding error rendered as text. *)

val run_exn :
  ?mode:Semantics.mode ->
  Ast.transformation ->
  metamodels:(Mdl.Ident.t * Mdl.Metamodel.t) list ->
  models:(Mdl.Ident.t * Mdl.Model.t) list ->
  report

(** {2 Traces}

    QVT-R's trace (relation-instance) concept: which tuples of objects
    a relation actually matches on the given models. Echo displays
    these as inter-model links. *)

type trace = {
  tr_relation : Mdl.Ident.t;
  tr_roots : (Mdl.Ident.t * Mdl.Ident.t) list;
      (** one (root variable, atom) pair per domain, in domain order *)
}

val pp_trace : Format.formatter -> trace -> unit

val traces :
  ?mode:Semantics.mode ->
  Ast.transformation ->
  metamodels:(Mdl.Ident.t * Mdl.Metamodel.t) list ->
  models:(Mdl.Ident.t * Mdl.Model.t) list ->
  (trace list, string) result
(** All matches of all top relations: bindings of the domain roots for
    which the patterns, [when] and [where] hold. *)
