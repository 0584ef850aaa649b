(** The QVT-R checking semantics, standard and extended (paper §2).

    For a relation [R] with domains over models [M₁..Mₙ] and a
    checking dependency [S -> T], the directional check [R_{S->T}] is

    {v ∀ xs | ψ ∧ ⋀_{j∈S} πⱼ  ⇒  ∃ ys | π_T ∧ φ v}

    where [ψ]/[φ] are the when/where predicates, [πᵢ] the domain
    patterns, [xs] the variables of the source side and [ys] the
    remaining variables of the target side (§2.2). Domains outside
    [S ∪ {T}] are ignored — precisely the extra expressive power the
    paper adds over the standard semantics, which always universally
    quantifies over all other domains.

    The standard semantics (§2) is recovered by compiling with
    [`Standard], which forces the full dependency set
    [⋃ᵢ (dom R ∖ Mᵢ -> Mᵢ)] — the paper's conservativity remark
    makes this exactly the OMG semantics.

    Relation invocations in [when]/[where] are inlined with hygienic
    renaming, in the projected direction (§2.3); [where]-calls keep
    the caller's target, [when]-calls (and where-calls to relations
    with no target-side domain) check the callee's own directional
    conjunction at the bound roots. Inlining is at most 8 calls deep;
    beyond that a call compiles to [False], an under-approximation
    (only relevant when recursion was explicitly allowed at type-check
    time). *)

type mode =
  | Extended  (** honour [dependencies] blocks (paper §2.2) *)
  | Standard  (** ignore them: OMG standard semantics *)

type t

exception Compile_error of string
(** Raised on inputs the type checker should have rejected (used
    directly only when callers skip {!Typecheck}). *)

val create : ?mode:mode -> ?narrow:bool -> Encode.t -> Typecheck.info -> t
(** [narrow] (default true) restricts the quantifier domain of a
    value variable matched by an attribute pattern [x.a = v] to the
    slot [x.a] instead of the whole value type — semantics-preserving
    (outside the slot the pattern equation is false anyway) and the
    key to polynomial-degree reduction in grounding; disable for the
    ablation benchmark. *)

val direction_formula :
  t -> Ast.relation -> Ast.dependency -> Relog.Ast.formula
(** The directional check [R_d] as a closed relational formula. *)

val relation_formulas : t -> Ast.relation -> (Ast.dependency * Relog.Ast.formula) list
(** One formula per effective dependency of the relation (under
    [Standard] mode the effective set is always the full one). *)

val top_formulas : t -> (Ast.relation * Ast.dependency * Relog.Ast.formula) list
(** Directional checks of all top relations. *)

val consistency_formula : t -> Relog.Ast.formula
(** The conjunction of all top directional checks — "the models are
    consistent". *)

val match_formula : t -> Ast.relation -> Relog.Ast.formula
(** The {e match} predicate of a relation: its domain root variables
    are free; all other variables are existentially quantified over
    patterns, [when] and [where]. Evaluating it under a binding of the
    roots tells whether those objects are related — the basis of QVT's
    trace (relation-instance) extraction, see {!Check.traces}. *)

val directional_consistency : t -> target:Mdl.Ident.t -> Relog.Ast.formula
(** Conjunction of only those top directional checks whose dependency
    target is [target] (used by the repair engine: when repairing
    model [T] one must enforce every check that constrains [T]). *)
