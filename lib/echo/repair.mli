(** Least-change repair: one search core, two rung orders.

    Searches for consistent instances at a bounded relational distance
    from the original models: one shared SAT encoding, a totalizer
    over the change literals, and per-solve cardinality assumptions
    [distance ≤ k]. The ladder collects the repairs of the lowest
    satisfiable rung; proving every distance below it unsatisfiable
    makes them minimal. Two orders reach that rung:

    - {!Iterative} (Echo, FASE'13, with a core-guided start) proves
      the lower bound with core-guided MaxSAT (OLL, Morgado, Dodaro
      and Marques-Silva, CP 2014; weights split as in RC2, Ignatiev,
      Morgado and Marques-Silva, JSAT 2019): it first assumes no
      change, raises the bound by each UNSAT core's least weight and
      relaxes the core with a totalizer over its literals. The first
      satisfiable solve is at the optimum, where the ladder starts
      with that model as its first candidate. A core that holds
      neither a change literal nor a totalizer bound proves the
      target set cannot restore consistency (the situation §3 warns
      about for single-target updates).
    - {!Maxsat} (Echo's PMax-SAT extension, FASE'14, as a linear
      SAT-UNSAT search) solves once with no bound, then bounds each
      solve just below the last model's distance until one is
      unsatisfiable, and runs the ladder from the rung above it. An
      unsatisfiable first solve is [Cannot_restore] at once.

    Both orders share the finder, the symmetry guard, the totalizer,
    blocking, decoding and telemetry, so they return the same minimal
    distance. The search is serial: one solver, one solve at a time.
    One-shot runs and {!Incr.Session.rerepair} both repair through
    {!run_all}. *)

type backend =
  | Iterative
      (** rungs from the core-guided lower bound, whose first model
          is the first candidate *)
  | Maxsat  (** one unbounded solve, then descending rungs *)

val backend_name : backend -> string
(** ["iterative"] or ["maxsat"], as {!Telemetry.t}'s [backend]. *)

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
  ?backend:backend ->
  ?limit:int ->
  Space.t ->
  (success list * Telemetry.t, string) result
(** All distinct minimal repairs (every consistent instance at the
    optimal distance), up to [limit] (default 16), with the run's
    telemetry. [backend] (default {!Iterative}) picks the order that
    finds the optimal rung; from there the ladder climbs rung by rung
    up to the total weight, blocking non-conformant and duplicate
    instances without counting them ([echo.repair.dedup_discards]
    counts the duplicates); the first rung with a repair ends it. The
    repairs come in canonical order (sorted on the serialized binding,
    independent of discovery order). The empty list means consistency
    cannot be restored; the telemetry then still counts the solves,
    the core-guided ones included (each at its running bound in
    [distance_levels]). [Error] when [limit < 1], and on translation
    or decode failures. With [~limit:1] this is one minimal repair,
    the first the solver finds: with {!Iterative}, at distance d* in
    at most d* + 1 solves when it conforms. This realises the
    workflow the paper's §4 sketches for the
    multidirectional Echo: "when inconsistencies are found, [users]
    select which models are to be updated" — and here, also which of
    the equally-minimal repairs to take. *)
