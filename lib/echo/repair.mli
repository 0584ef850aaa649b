(** Iterative least-change repair (Echo, FASE'13).

    Searches for consistent instances at increasing relational
    distance from the original models: one shared SAT encoding, a
    totalizer over the change literals, and per-iteration cardinality
    assumptions [distance ≤ k] for k = 0, 1, 2, ... The first
    satisfiable bound yields a minimal repair; exhausting the total
    weight proves the target set cannot restore consistency (the
    situation §3 warns about for single-target updates). The ladder is
    serial: one solver, one rung at a time. *)

type success = {
  repaired : (Mdl.Ident.t * Mdl.Model.t) list;
      (** full binding: targets replaced, others as given *)
  relational_distance : int;
  edit_distance : int;
  iterations : int;  (** number of solver calls *)
  stats : Telemetry.t;
      (** instrumentation roll-up for the run; for {!run_all} every
          returned repair carries the cumulative stats of the whole
          enumeration *)
}

type outcome =
  | Repaired of success
  | Cannot_restore
      (** no consistent instance exists within the bounded space for
          this target set *)

val run : Space.t -> (outcome, string) result
(** One minimal repair. The ladder climbs to the total weight of the
    space's change literals (the totalizer's input count) before it
    answers [Cannot_restore]. [Error] on translation or decode
    failures. With several equally-minimal repairs the witness is
    whichever the solver finds first; {!run_all} enumerates all of
    them. *)

val run_all : ?limit:int -> Space.t -> (success list, string) result
(** All distinct minimal repairs (every consistent instance at the
    optimal distance), up to [limit] (default 16), in a canonical
    deterministic order (sorted on the serialized repair, independent
    of discovery order). The empty list means consistency cannot be
    restored. [Error] when [limit < 1]. This realises the workflow the
    paper's §4 sketches for the multidirectional Echo: "when
    inconsistencies are found, [users] select which models are to be
    updated" — and here, also which of the equally-minimal repairs to
    take. *)
