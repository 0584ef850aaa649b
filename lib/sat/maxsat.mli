(** Weighted partial MaxSAT.

    Finds an assignment satisfying all hard clauses while minimizing
    the total weight of falsified soft clauses. This is the optimizing
    backend the paper's §3 refers to via the PMax-SAT extension of
    Echo (Cunha, Macedo & Guimarães, FASE'14): "keep this tuple as it
    was" becomes a soft clause, so the optimum is a least-change
    repair.

    Algorithm: each soft clause gets a relaxation variable; relaxation
    variables enter a totalizer (duplicated [weight] times), and the
    solver searches upward from cost 0 using solver assumptions —
    mirroring Echo's "increasing distance" iteration — until the first
    satisfiable bound, which is the optimum. *)

type t

val create : unit -> t

val solver : t -> Solver.t

val new_var : t -> Lit.var

val add_hard : t -> Lit.t list -> unit
val add_soft : t -> weight:int -> Lit.t list -> unit
(** [weight] must be positive. *)

type outcome =
  | Optimum of int  (** minimal total weight of falsified soft clauses *)
  | Hard_unsat

val solve : t -> outcome
(** Solving is one-shot per instance mutation: further clauses may be
    added afterwards and [solve] called again (a fresh totalizer is
    built each time). *)

val value : t -> Lit.var -> bool
(** Model access after [Optimum]. *)

val hard_count : t -> int
(** Hard clauses currently in the solver database: everything that is
    neither a relaxed soft clause nor a totalizer clause added during
    {!solve}. Stable across solves — the auxiliary cardinality
    clauses are accounted separately (see {!clause_counts}). *)

type clause_counts = {
  hard : int;  (** hard clauses (consistency + structure + blocking) *)
  soft : int;  (** relaxed soft clauses in the database *)
  aux : int;  (** totalizer clauses added by {!solve} *)
  aux_vars : int;  (** totalizer variables added by {!solve} *)
  saved_vars : int;
      (** totalizer variables avoided by k-bounding at the initial
          model's cost *)
  saved_clauses : int;  (** totalizer clauses avoided likewise *)
}

val clause_counts : t -> clause_counts
(** The exact hard/soft/auxiliary split of the clause database. *)
