(** Bounds on free relations — the model-finding search space.

    As in Kodkod, each free relation gets a lower bound (tuples it
    must contain) and an upper bound (tuples it may contain). Tuples
    in [upper \ lower] become propositional variables; everything else
    is constant. An exact bound ([lower = upper]) makes the relation a
    constant — how the enforcement engine freezes non-target models. *)

type t

val make : Rel.Universe.t -> t
val universe : t -> Rel.Universe.t

val bound :
  t -> Mdl.Ident.t -> lower:Rel.Tupleset.t -> upper:Rel.Tupleset.t -> t
(** Raises [Invalid_argument] unless [lower ⊆ upper] and arities
    agree (or one side is empty), or if the relation is already
    bound. *)

val exact : t -> Mdl.Ident.t -> Rel.Tupleset.t -> t
(** [exact b r ts] = [bound b r ~lower:ts ~upper:ts]. *)

val get : t -> Mdl.Ident.t -> (Rel.Tupleset.t * Rel.Tupleset.t) option
val arity : t -> Mdl.Ident.t -> int option
(** Declared arity of a bound relation, [None] when unbound or
    bound to the empty relation on both sides. *)

val relations : t -> Mdl.Ident.t list
(** Bound relation names, sorted. *)

val loosen : t -> Mdl.Ident.t -> lower:Rel.Tupleset.t -> upper:Rel.Tupleset.t -> t
(** Replace an existing bound (used by the repair engine to relax the
    target models' relations). Adds the bound if absent. *)

val pp : Format.formatter -> t -> unit
