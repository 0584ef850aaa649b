(** The bounded relational model finder (Kodkod/Alloy-Analyzer
    substitute).

    Wraps {!Translate} with a solve/enumerate interface: find an
    instance within the bounds satisfying the asserted formulas, add
    blocking clauses to enumerate further instances, and solve under
    cardinality assumptions (how the Echo-style repair engine runs its
    increasing-distance iteration on one shared encoding). *)

type t

val prepare : Bounds.t -> Ast.formula list -> t
(** Translate and assert the conjunction of the formulas. All bound
    relations are materialized, so {!Translate.decode} covers them.
    Raises {!Translate.Unsupported} on ill-formed input. *)

val create : Bounds.t -> t
(** A finder over the bounds with nothing asserted yet: all bound
    relations are materialized, formulas arrive later through
    {!guard}. How a session's check-stage template is built, before
    it keeps only a {!Sat.Solver.clone} of the finder's solver. *)

val guard : t -> Ast.formula -> Sat.Lit.t
(** Translate one formula to a {e guard literal} equivalent to it,
    asserting nothing. Solving with a subset of the guards as
    assumptions is solving under exactly those formulas;
    {!Sat.Solver.unsat_core} then names the guards (and any other
    assumptions) participating in an inconsistency. This is how the
    incremental-session subsystem pins model facts and checked
    formulas purely through assumptions, so one translation and
    solver serve every edit state its universe can express. Thanks to
    the memoized lowering, guarding a formula already seen costs a
    memo lookup and returns the same literal. *)

val translation : t -> Translate.t
val solver : t -> Sat.Solver.t

type outcome =
  | Sat of Instance.t
  | Unsat

val solve : ?assumptions:Sat.Lit.t list -> t -> outcome

val block : t -> unit
(** Add a blocking clause excluding the last found instance's primary
    assignment. Repeated [solve]/[block] enumerates all instances.
    The clause covers the full primary assignment, including
    primaries the last solve's assumptions pinned. *)

val enumerate : ?limit:int -> t -> Instance.t list
(** All satisfying instances (up to [limit], default unlimited).
    Mutates the finder by blocking each found instance. *)

val count : ?limit:int -> t -> int
(** Number of satisfying instances, counted by enumeration. *)

type stats = {
  translation : Translate.stats;  (** size/time of the encoding *)
  solver : Sat.Solver.stats;  (** search counters of the backend *)
  solves : int;  (** {!solve} calls through this finder *)
  solve_time : float;  (** wall seconds inside {!solve} *)
}

val stats : t -> stats
(** Per-finder telemetry: translation size vs. solve effort. *)
