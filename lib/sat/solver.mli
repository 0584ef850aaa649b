(** A CDCL SAT solver.

    MiniSat-style conflict-driven clause learning: two-watched-literal
    propagation, 1-UIP conflict analysis with clause learning, VSIDS
    branching with phase saving, Luby restarts, and incremental solving
    under assumptions. This is the search backend of the relational
    model finder ({!Relog.Finder}) and of the MaxSAT solver
    ({!Maxsat}). *)

type t

val create : unit -> t

val new_var : t -> Lit.var
(** Allocate a fresh variable. *)

val nb_vars : t -> int
val nb_clauses : t -> int
(** Problem clauses added so far (not learnt clauses). *)

val add_clause : t -> Lit.t list -> unit
(** Add a problem clause. Tautologies are dropped, duplicate literals
    merged. Adding the empty clause (or a clause false under level-0
    assignments) makes the instance permanently unsatisfiable.
    Same as {!add_clause_array} on [Array.of_list]. *)

val add_clause_array : t -> Lit.t array -> unit
(** {!add_clause} without the list: the one clause normaliser (sort,
    merge duplicates, drop tautologies and clauses satisfied at level
    0, remove literals false at level 0). The solver takes the array
    over: it is sorted and compacted in place, so the caller must not
    rely on its contents afterwards. *)

val fold_clauses : (Lit.t array -> 'a -> 'a) -> t -> 'a -> 'a
(** Fold over the problem clause database in order: first every
    root-level assignment as a unit clause, in assignment order (unit
    clauses are assigned, not stored), then every stored problem
    clause in the order it was added, with its literals as normalised
    by {!add_clause_array}. Learnt clauses are not included. The
    arrays are fresh copies. *)

type result =
  | Sat
  | Unsat

val solve : ?assumptions:Lit.t list -> t -> result
(** Solve under the given assumption literals. The solver is
    incremental: more clauses and variables may be added after a call
    and [solve] called again.

    After a [Sat] answer the trail is kept warm: the next [solve]
    backtracks only to the longest prefix of assumptions shared with
    the previous call (re-propagating just the changed suffix) rather
    than to level 0 — callers that keep a stable assumption prefix
    across calls get cheaper re-solves for free. [Unsat], clause
    addition and {!interrupt} all fall back to a cold (level-0)
    restart, so answers are unaffected either way.
    @raise Interrupted if {!interrupt} was called while solving; the
    solver stays usable (backtracked to the root level, flag cleared)
    and [solve] may simply be called again. *)

exception Interrupted

val interrupt : t -> unit
(** Ask a running [solve] to stop. Safe to call from any domain; a
    flag set while no solve is running makes the next solve raise
    immediately. Cheap (one atomic store). The flag is polled at
    every CDCL decision boundary {e and} inside long propagation
    waves (every 64 trail positions), so cancellation latency is
    bounded by a few dozen clause visits — a portfolio loser or a
    retired ladder probe stops promptly even mid-propagation. *)

val clone : t -> t
(** An independent snapshot of the solver: problem clauses, learnt
    clauses, level-0 assignments and VSIDS/phase heuristic state all
    carry over, so the clone resumes with everything the original
    already deduced. The clause store is a few flat int segments,
    copied as blocks with no per-clause allocation, and the watch
    lists are rebuilt from it: cloning costs O(stored literals +
    vars). The original is only read, so several clones may be taken
    concurrently — but only while the original is at rest (between
    solves, as for {!add_clause}). The clone starts with fresh
    per-instance {!stats} and no pending {!interrupt}. *)

val set_learnt_cap : t -> int -> unit
(** Override the adaptive learnt-database reduction threshold (normally
    sized from the problem at the first [solve] and grown
    geometrically after each reduction). Mainly for tests that need to
    force reductions on small instances, and for embedders with tight
    memory budgets. *)

val value : t -> Lit.var -> bool
(** Value of a variable in the model found by the last [solve] that
    returned [Sat]. Variables irrelevant to the formula default to
    [false]. Unspecified after [Unsat]. *)

val lit_value : t -> Lit.t -> bool

val unsat_core : t -> Lit.t list
(** After [solve ~assumptions] returned [Unsat]: a subset of the
    assumptions sufficient for unsatisfiability (the final conflict
    clause over assumptions). Deduplicated and sorted, so the result
    is canonical as a set. Empty when the instance is unsatisfiable
    regardless of assumptions. The core is {e not} guaranteed minimal;
    see {!minimize_core}. *)

val minimize_core : ?core:Lit.t list -> t -> Lit.t list
(** Greedy deletion-based minimization of an unsatisfiable assumption
    set ([core], default {!unsat_core}): drop each literal whose
    removal keeps the remaining set unsatisfiable. The result
    is minimal (removing any single literal makes the set
    satisfiable), sorted, and — because candidates are canonicalized
    before the sweep — depends only on the input {e set}, not the
    order its literals were passed in. Runs O(|core|) incremental
    solves on this solver (counted in {!stats}); the solver remains
    usable, and {!unsat_core} afterwards returns the minimized core. *)

val phase_flips : t -> int
(** Number of assignments (propagations and decisions) that overwrote
    a variable's saved phase with the opposite polarity. Decisions
    always reuse the saved phase, so every flip is forced by the
    clauses: a low flip rate means phase saving is preserving partial
    assignments across restarts and backjumps as intended.
    Process-wide total: the [sat.phase_flips] metrics counter. *)

val minimized_lits : t -> int
(** Literals removed from learnt clauses by recursive minimization
    (self-subsumption over the implication graph) during conflict
    analysis. Minimization only ever shrinks a learnt clause.
    Process-wide total: the [sat.minimized_lits] metrics counter. *)

val saved_phase : t -> Lit.var -> bool
(** The saved phase of a variable — the polarity the next decision on
    it would pick. Variables never assigned default to [false].
    {!clone} preserves saved phases; {!interrupt} leaves them intact
    (the backtrack to root does not erase phases). *)

type stats = {
  decisions : int;
  propagations : int;
  conflicts : int;
  restarts : int;
  learnt : int;
      (** for {!stats}: current learnt-clause database size; for
          {!global_stats}: learnt clauses ever recorded *)
  reduces : int;  (** learnt-clause database reductions performed *)
  solves : int;  (** completed [solve] calls *)
  solve_time : float;  (** wall seconds spent inside [solve] *)
}

val stats : t -> stats

val global_stats : unit -> stats
(** Cumulative counters across every solver instance of the process
    (deltas accumulated per [solve] call). Bench drivers snapshot
    this before/after a workload to measure total search effort even
    when many solvers are created internally. *)

val reset_global_stats : unit -> unit

val pp_stats : Format.formatter -> stats -> unit
