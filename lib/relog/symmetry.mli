(** Bounds-level symmetry analysis: atom orbits and lex-leader
    symmetry-breaking predicates (SBPs).

    Two atoms are interchangeable when swapping them maps every
    relation's lower and upper bound (and every extra [respect]
    tupleset) to itself — the construction of Kodkod's
    [SymmetryDetector]. The orbits of the group generated by all such
    transpositions partition the universe; within an orbit, any
    permutation of the atoms maps instances of the bounds to instances,
    so the model finder only needs one representative per orbit class
    of instances. {!break} prunes the rest by asserting, for each
    adjacent transposition [π] of each orbit, the lex-leader predicate
    [V ≤lex π(V)] over the primary variables in canonical
    (relation, tuple) order.

    The analysis is purely syntactic over {!Bounds}; semantic
    constraints the caller knows about enter through two escape
    hatches: [fixed] names atoms that must not be permuted (atoms
    mentioned in asserted formulas, value atoms whose identity is
    observable), and [respect] adds tuplesets every permutation must
    additionally preserve (e.g. the original instance of the repair
    engine, so least-change distance is invariant under the orbit
    group). *)

type orbit = int list
(** Atom indices of one nontrivial orbit, strictly ascending. *)

val orbits :
  ?fixed:Mdl.Ident.Set.t ->
  ?respect:Rel.Tupleset.t list ->
  Bounds.t ->
  orbit list
(** The nontrivial (size ≥ 2) classes of the coarsest partition of the
    universe such that every transposition within a class is an
    automorphism of the bounds (and of each [respect] tupleset), with
    [fixed] atoms left in singleton classes. Classes are built
    greedily against a representative; by conjugation
    ([(c d) = (r c)(r d)(r c)]) the representative check is exact, so
    the full symmetric group on each class preserves the bounds.

    Bumps [relog.symmetry.orbits] and observes
    [relog.symmetry.analysis_s]. *)

val is_automorphism :
  ?respect:Rel.Tupleset.t list -> Bounds.t -> (int -> int) -> bool
(** [is_automorphism bounds pi]: does the atom-index permutation [pi]
    map every relation's lower and upper bound (and every [respect]
    tupleset) onto itself? The soundness oracle for {!orbits}, used by
    the QCheck properties. *)

val break :
  ?guard:Sat.Lit.t ->
  ?max_length:int ->
  Translate.t ->
  orbit list ->
  int
(** Assert lex-leader SBPs for each adjacent transposition of each
    orbit into the translation's solver, over the primary variables in
    canonical (relation-name, tuple) order, restricted to the
    positions the transposition moves. Uses the standard chained
    encoding (one auxiliary prefix-equality variable and ≤ 3 clauses
    per position). [guard], when given, is ORed into each main clause
    negated, so the predicates are active only while [guard] is
    assumed; {!Echo.Repair} assumes its guard first on every solve.
    [max_length] truncates each chain to a prefix, which is sound.

    Returns the number of clauses emitted and bumps
    [relog.symmetry.sbp_clauses]. *)
