(** Kodkod-style translation of bounded relational problems into
    boolean circuits, memoized over hash-consed formulas.

    Every free relation becomes a sparse boolean matrix over the
    universe: tuples in the lower bound map to the constant true,
    tuples in [upper \ lower] map to fresh SAT variables (the
    {e primary variables}), everything else is false. Relational
    operators become matrix algebra over circuits; quantifiers are
    grounded over the (symbolic) domain matrix; the resulting circuit
    is CNF-encoded through {!Sat.Tseitin}.

    Formulas are first interned into a {!Hc.store} and simplified
    there, then lowered with a per-node memo keyed on (node id,
    environment restricted to the node's free variables). A ground
    subtree shared by 10,000 quantifier groundings is lowered once;
    the circuit layer and Tseitin cache already deduplicate
    downstream, so the whole pipeline is incremental. *)

type t
(** A translation context: circuit builder, SAT solver, hash-consing
    store and the primary-variable registry. *)

val create : Bounds.t -> t
(** A fresh context over a fresh solver and a fresh hash-consing
    store. *)

val solver : t -> Sat.Solver.t
val bounds : t -> Bounds.t

exception Unsupported of string
(** Raised on ill-formed input: unbound relation names, arity abuse,
    unbound variables, or atoms outside the universe. *)

val assert_formula : t -> Ast.formula -> unit
(** Translate the formula and assert it (conjunctively with previous
    assertions) in the solver. *)

val formula_lit : t -> Ast.formula -> Sat.Lit.t
(** Translate the formula to a literal equivalent to it (for use in
    assumptions), without asserting it. *)

val primary_var : t -> Mdl.Ident.t -> Rel.Tuple.t -> Sat.Lit.var option
(** The primary variable deciding this tuple's membership, when the
    tuple lies in [upper \ lower] of the given relation and the
    matrix has been materialized. Matrices for every relation
    mentioned in an asserted formula are materialized; call
    {!materialize} for relations only referenced by the decoder. *)

val materialize : t -> Mdl.Ident.t -> unit
(** Force creation of the relation's matrix (and primary variables). *)

val fold_primaries :
  t -> (Mdl.Ident.t -> Rel.Tuple.t -> Sat.Lit.var -> 'a -> 'a) -> 'a -> 'a
(** Iterate the primary variables: one per tuple in [upper \ lower]
    of each materialized relation. *)

val decode : t -> Instance.t
(** Read the model of the last satisfiable [solve] off the solver:
    each bound relation's value is its lower bound plus the optional
    tuples whose primary variable is true. *)

type stats = {
  primary_vars : int;  (** registry size: free tuples allocated *)
  vars : int;  (** total SAT variables (primaries + Tseitin + shared) *)
  clauses : int;  (** problem clauses in the underlying solver *)
  relations : int;  (** relation matrices currently materialized *)
  formulas : int;  (** translation entry points run (materialize/assert) *)
  translate_time : float;  (** wall seconds spent translating *)
}

val stats : t -> stats
(** Translation-size and -time telemetry. [vars]/[clauses] read the
    context's solver, so they cover everything encoded into it,
    translation or not. *)
