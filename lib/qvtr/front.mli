(** The front end every consumer of a transformation shares: type
    check it, encode the models, and compile the checking semantics.

    {!Check.run}, {!Check.traces}, the enforcement space
    ([Echo.Space.build]), each incremental-session generation and the
    linter's bounded pass all start here, so they typecheck and encode
    alike and compile each top directional check once. *)

type t = {
  encoding : Encode.t;
  semantics : Semantics.t;
  top : (Ast.relation * Ast.dependency * Relog.Ast.formula) list Lazy.t;
      (** {!Semantics.top_formulas}, compiled at the first
          [Lazy.force] and shared after it. Forcing may raise
          {!Semantics.Compile_error}. Compiling interns identifiers,
          whose tags order a translation's primaries, so callers force
          it where their CNF expects it. *)
}

val create :
  ?mode:Semantics.mode ->
  ?extra_values:Mdl.Value.t list ->
  slack_objects:int ->
  Ast.transformation ->
  metamodels:(Mdl.Ident.t * Mdl.Metamodel.t) list ->
  models:(Mdl.Ident.t * Mdl.Model.t) list ->
  (t, string) result
(** Type-checks (span [typecheck]) and encodes at [slack_objects] and
    [extra_values] (span [encode]; see {!Encode.create}). [Error]
    carries every type error, rendered and joined by ["; "], or the
    encoding error. *)
