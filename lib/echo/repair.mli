(** Iterative least-change repair (Echo, FASE'13).

    Searches for consistent instances at increasing relational
    distance from the original models: one shared SAT encoding, a
    totalizer over the change literals, and per-iteration cardinality
    assumptions [distance ≤ k] for k = 0, 1, 2, ... The first
    satisfiable bound yields the minimal repairs; exhausting the total
    weight proves the target set cannot restore consistency (the
    situation §3 warns about for single-target updates). The ladder is
    serial: one solver, one rung at a time, and one-shot runs and
    {!Incr.Session} climb it through the same {!ladder}. *)

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

val ladder :
  limit:int ->
  total:int ->
  solve:(int -> Relog.Finder.outcome) ->
  block:(unit -> unit) ->
  decode:(Relog.Instance.t -> ('a, string) result) ->
  models:('a -> (Mdl.Ident.t * Mdl.Model.t) list) ->
  'a list
(** The least-change distance ladder, over any encoding. [solve k]
    solves once under [distance ≤ k]; [block ()] excludes the instance
    it last found; [decode] turns an instance into a repair, or
    rejects it (a decoded model that does not conform). Rung by rung
    from 0 to [total], the ladder collects up to [limit] repairs that
    are distinct by their [models], blocking rejected and duplicate
    instances without counting them ([echo.repair.dedup_discards]
    counts the duplicates). The first rung with a repair ends it: the
    result is that rung's repairs, in canonical order (sorted on the
    serialized [models], independent of discovery order). The empty
    list means no repair within [total]. Raises [Invalid_argument]
    when [limit < 1]. *)

val run_all : ?limit:int -> Space.t -> (success list, string) result
(** All distinct minimal repairs (every consistent instance at the
    optimal distance), up to [limit] (default 16), in {!ladder}'s
    canonical order. The empty list means consistency cannot be
    restored. [Error] when [limit < 1], and on translation or decode
    failures. With [~limit:1] this is one minimal repair, the first
    the solver finds. This realises the workflow the paper's §4
    sketches for the multidirectional Echo: "when inconsistencies are
    found, [users] select which models are to be updated" — and here,
    also which of the equally-minimal repairs to take. *)
