(** Tseitin encoding of circuits into a solver.

    Each distinct circuit node gets at most one definition literal; the
    memo table lives in the context so repeated encodings across
    several [assert_true] calls share definitions. Top-level
    conjunctions and disjunctions are asserted directly (no definition
    variable), which keeps the CNF close to hand-written size. *)

type ctx

val create : Solver.t -> ctx
val solver : ctx -> Solver.t

val lit_of : ctx -> Circuit.t -> Lit.t
(** A literal equivalent to the node (definition clauses added to the
    solver as needed). Constants map to a dedicated true variable. *)

val assert_true : ctx -> Circuit.t -> unit
(** Constrain the node to be true. *)

val assert_false : ctx -> Circuit.t -> unit
