(** Model distance Δ (paper §3).

    The enforcement semantics of the paper is parametric on a distance
    [Δ_M : M × M → ℕ] per metamodel; repairs minimize the distance to
    the original. This is the graph-edit distance induced by {!Diff}
    (the metric Echo uses), every edit costing 1: the edit distance
    that {!Echo.Space.edit_distance} reports next to the relational
    one. *)

val delta : Model.t -> Model.t -> int
(** [delta a b] is the length of [Diff.script a b]: a metric on models
    sharing an id space (zero iff equal, symmetric, triangle
    inequality). *)
