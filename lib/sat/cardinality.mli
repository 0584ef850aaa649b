(** Totalizer cardinality constraints.

    Builds, for input literals [x₁..xₙ], output literals [o₁..oₙ]
    such that the clauses force [oₖ] whenever at least [k] inputs are
    true (the upper-bound direction of the totalizer of Bailleux &
    Boufkhad). Asserting [¬oₖ₊₁] — directly or as a solver
    assumption — then caps the count at [k].

    The enforcement engine ({!Echo.Repair}) builds one over the
    weight-expanded change literals of a repair and assumes its
    bounds rung by rung, in either order: climbing from a core-guided
    lower bound (Echo's iterative search) or tightening below each
    model's distance (the PMax-SAT backend's linear SAT-UNSAT search).
    The core-guided bound builds one more per UNSAT core of more than
    one literal, over the core's negated assumptions, and assumes its
    bounds as soft literals (OLL). *)

type t

val build : Solver.t -> Lit.t list -> t
(** Encode the totalizer tree for these inputs. O(n log n) auxiliary
    variables and O(n²) clauses. *)

val aux_vars : t -> int
(** Auxiliary solver variables allocated by {!build} for this
    totalizer (circuit-size telemetry). *)

val aux_clauses : t -> int
(** Solver clauses added by {!build} for this totalizer. *)

val at_most : t -> int -> Lit.t list
(** Assumption literals capping the true-input count at [k]:
    [[¬oₖ₊₁]], or [[]] when [k >= n]. Raises [Invalid_argument] on
    negative [k]. *)
