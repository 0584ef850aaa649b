(** Totalizer cardinality constraints.

    Builds, for input literals [x₁..xₙ], output literals [o₁..oₙ]
    such that the clauses force [oₖ] whenever at least [k] inputs are
    true (the upper-bound direction of the totalizer of Bailleux &
    Boufkhad). Asserting [¬oₖ₊₁] — directly or as a solver
    assumption — then caps the count at [k].

    The enforcement engine uses this twice: the iterative Echo-style
    repair asserts increasing bounds as assumptions over one shared
    encoding, and the MaxSAT solver bounds relaxation variables the
    same way. *)

type t

val build : ?cap:int -> Solver.t -> Lit.t list -> t
(** Encode the totalizer tree for these inputs. O(n log n) auxiliary
    variables and O(n²) clauses.

    [?cap] builds the k-bounded variant: callers that will never ask
    for a bound above [cap] (e.g. a repair search with a distance
    cap) get every unary counter truncated at [cap + 1] outputs —
    counts beyond the cap are detected but not distinguished — which
    drops aux variables and merge clauses; the savings are reported
    by {!saved_vars}/{!saved_clauses}. Bounds above [cap] are then
    rejected by {!at_most}/{!assert_at_most}/{!output}. *)

val cap : t -> int
(** Largest bound the encoding can express ([n - 1] when built
    without [?cap]). *)

val aux_vars : t -> int
(** Auxiliary solver variables allocated by {!build} for this
    totalizer (circuit-size telemetry). *)

val aux_clauses : t -> int
(** Solver clauses added by {!build} for this totalizer. *)

val saved_vars : t -> int
(** Auxiliary variables the [?cap] truncation avoided relative to the
    full-width build (0 when built uncapped). *)

val saved_clauses : t -> int
(** Merge clauses the [?cap] truncation avoided. *)

val output : t -> int -> Lit.t
(** [output t k] (1-based, [1 <= k <= count t]) is [oₖ]: true when at
    least [k] inputs are true. *)

val at_most : t -> int -> Lit.t list
(** Assumption literals capping the true-input count at [k]:
    [[¬oₖ₊₁]], or [[]] when [k >= count t]. Raises
    [Invalid_argument] on negative [k]. *)

val assert_at_most : Solver.t -> t -> int -> unit
(** Permanently cap the count (adds unit clauses [¬oⱼ] for
    [j > k]). *)
