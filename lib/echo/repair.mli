(** Iterative least-change repair (Echo, FASE'13).

    Searches for consistent instances at increasing relational
    distance from the original models: one shared SAT encoding, a
    totalizer over the change literals, and per-iteration cardinality
    assumptions [distance ≤ k] for k = 0, 1, 2, ... The first
    satisfiable bound yields the minimal repairs; exhausting the total
    weight proves the target set cannot restore consistency (the
    situation §3 warns about for single-target updates). The ladder is
    serial: one solver, one rung at a time. One-shot runs and
    {!Incr.Session.rerepair} both repair through {!run_all}. *)

type success = {
  repaired : (Mdl.Ident.t * Mdl.Model.t) list;
      (** full binding: targets replaced, others as given *)
  relational_distance : int;
  edit_distance : int;
  iterations : int;  (** solver calls made up to this repair's find *)
  stats : Telemetry.t;
      (** instrumentation roll-up of the whole run; every returned
          repair carries the same one *)
}

val run_all :
  ?limit:int -> Space.t -> (success list * Telemetry.t, string) result
(** All distinct minimal repairs (every consistent instance at the
    optimal distance), up to [limit] (default 16), with the run's
    telemetry. The ladder climbs rung by rung from distance 0 to the
    total weight, blocking non-conformant and duplicate instances
    without counting them ([echo.repair.dedup_discards] counts the
    duplicates); the first rung with a repair ends it. The repairs
    come in canonical order (sorted on the serialized binding,
    independent of discovery order). The empty list means consistency
    cannot be restored; the telemetry then still counts the ladder's
    solves. [Error] when [limit < 1], and on translation or decode
    failures. With [~limit:1] this is one minimal repair, the first
    the solver finds. This realises the workflow the paper's §4
    sketches for the multidirectional Echo: "when inconsistencies are
    found, [users] select which models are to be updated" — and here,
    also which of the equally-minimal repairs to take. *)
