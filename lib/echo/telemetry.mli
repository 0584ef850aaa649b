(** Per-repair instrumentation roll-up (SAT → relog → echo).

    Aggregates the measurements of a single enforcement run: the
    translation size ({!Relog.Translate.stats}), the SAT search
    counters ({!Sat.Solver.stats}), the repair loop's own shape
    (iterations per distance level, blocked non-conformant instances,
    cardinality-circuit size) and wall-clock timings. Exposed on
    {!Engine.enforce_result} and printed by the CLI's [--stats] flag. *)

type t = {
  backend : string;  (** ["iterative"] or ["maxsat"] *)
  translation : Relog.Translate.stats;
  solver : Sat.Solver.stats;
  solver_calls : int;  (** SAT [solve] calls made by the repair loop *)
  solve_time : float;  (** seconds spent inside the solver *)
  distance_levels : (int * int) list;
      (** [(distance bound, solver calls at that bound)] in search
          order; the iterative backend's core-guided solves count at
          their running lower bound, and the MaxSAT backend's first
          entry is its unbounded solve, at the total weight *)
  blocked_nonconformant : int;
      (** instances that satisfied the encoding but failed full
          conformance and were excluded by a blocking clause *)
  cardinality_inputs : int;  (** change literals (weight-expanded) *)
  cardinality_aux_vars : int;
      (** variables of the ladder's totalizer (not the core-guided
          bound's core totalizers) *)
  cardinality_clauses : int;  (** clauses of the ladder's totalizer *)
  total_time : float;  (** wall seconds for the whole repair *)
}

val pp : Format.formatter -> t -> unit
