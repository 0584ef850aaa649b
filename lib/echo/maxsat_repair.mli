(** MaxSAT-based least-change repair — the "target oriented relational
    model finding" extension of Echo (Cunha, Macedo & Guimarães,
    FASE'14, ref [2] of the paper).

    Same search space as {!Repair}, but optimality is delegated to a
    weighted partial MaxSAT solver: each change literal becomes (the
    relaxation of) a soft clause "keep this tuple as it was", weighted
    by the model's priority; hard clauses are the consistency and
    structural constraints. *)

val run : Space.t -> (Repair.success option, string) result
(** One minimal repair by a SAT-driven descent on the weighted
    objective, or [None] when consistency cannot be restored; [Error]
    on translation or decode failures. *)
