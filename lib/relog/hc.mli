(** Hash-consed relational formulas and expressions.

    A {!store} interns every distinct expression/formula node exactly
    once, so structurally equal subtrees share one node with one
    integer id — physical equality coincides with structural equality
    within a store, and node ids key the per-node memo tables of
    {!Simplify} and {!Translate}. Each node carries its free variables,
    precomputed: the translation's memo key projects the environment
    onto them.

    Import ([of_ast]) and export ([to_ast]) are exact 1:1 view
    mappings: [to_ast (of_ast st f) = f] structurally, and both are
    linear in the DAG size (export memoizes shared nodes into shared
    OCaml values). *)

type store

val store : unit -> store
(** A fresh, empty intern table. Stores grow monotonically; one
    long-lived store per long-lived {!Translate.t} is the intended
    shape, a throwaway store per call is fine for one-shot use. *)

type expr = private {
  e_id : int;  (** unique within the store *)
  e_view : expr_view;
  e_free_vars : Mdl.Ident.Set.t;
}

and expr_view =
  | Rel of Mdl.Ident.t
  | Var of Mdl.Ident.t
  | Atom of Mdl.Ident.t
  | Univ
  | Iden
  | None_
  | Union of expr * expr
  | Inter of expr * expr
  | Diff of expr * expr
  | Join of expr * expr
  | Product of expr * expr
  | Transpose of expr
  | Closure of expr
  | RClosure of expr

type formula = private {
  f_id : int;
  f_view : formula_view;
  f_free_vars : Mdl.Ident.Set.t;
}

and formula_view =
  | True
  | False
  | Subset of expr * expr
  | Equal of expr * expr
  | Some_ of expr
  | No of expr
  | Lone of expr
  | One of expr
  | Not of formula
  | And of formula list
  | Or of formula list
  | Implies of formula * formula
  | Iff of formula * formula
  | Forall of (Mdl.Ident.t * expr) list * formula
  | Exists of (Mdl.Ident.t * expr) list * formula

(** {2 Import / export} *)

val of_ast : store -> Ast.formula -> formula
val expr_of_ast : store -> Ast.expr -> expr
val to_ast : formula -> Ast.formula
val expr_to_ast : expr -> Ast.expr

(** {2 Interning constructors}

    Each returns the unique node of the store with that view. The
    [conj]/[disj]/[implies_]/[not_] smart constructors mirror
    {!Ast.conj} etc. (flattening, unit/absorbing elements). *)

val rel : store -> Mdl.Ident.t -> expr
val var : store -> Mdl.Ident.t -> expr
val atom : store -> Mdl.Ident.t -> expr
val univ : store -> expr
val iden : store -> expr
val none : store -> expr
val union : store -> expr -> expr -> expr
val inter : store -> expr -> expr -> expr
val diff : store -> expr -> expr -> expr
val join : store -> expr -> expr -> expr
val product : store -> expr -> expr -> expr
val transpose : store -> expr -> expr
val closure : store -> expr -> expr
val rclosure : store -> expr -> expr

val true_ : store -> formula
val false_ : store -> formula
val subset : store -> expr -> expr -> formula
val equal : store -> expr -> expr -> formula
val some : store -> expr -> formula
val no : store -> expr -> formula
val lone : store -> expr -> formula
val one : store -> expr -> formula
val not_ : store -> formula -> formula
val conj : store -> formula list -> formula
val disj : store -> formula list -> formula
val implies_ : store -> formula -> formula -> formula
val iff_ : store -> formula -> formula -> formula
val forall : store -> (Mdl.Ident.t * expr) list -> formula -> formula
val exists : store -> (Mdl.Ident.t * expr) list -> formula -> formula

(** {2 Simplification memo slots}

    Hosted here so the tables live and die with the intern tables
    whose ids key them (see {!Simplify}). *)

val simp_formula_memo : store -> (int * bool, formula) Hashtbl.t
val simp_expr_memo : store -> (int, expr) Hashtbl.t

val nodes : store -> int
(** Interned node count (exprs + formulas), for stats and tests. *)
