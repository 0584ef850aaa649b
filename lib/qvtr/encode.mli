(** Encoding of models and metamodels into bounded relational logic.

    Mirrors Echo's embedding of EMF models in Alloy:

    - every object of model parameter [p] becomes an atom [p#i];
    - every primitive value becomes a shared value atom;
    - each class [C] of [p] yields a unary relation [p$cls$C] holding
      its {e exact} extent (subclass inclusion is expressed by union
      expressions, see {!extent_expr});
    - each feature [f] yields a binary relation [p$ft$f] relating
      objects to attribute values or reference targets.

    For [checkonly] the encoding is a concrete {!Relog.Instance}; for
    enforcement it is a {!Relog.Bounds}: frozen models are bound
    exactly, target models range over their current tuples plus
    everything constructible from the universe — including [slack]
    fresh object atoms per model, which is how the bounded search can
    {e create} objects (Echo's incremental scope extension).

    Bounded-universe caveat (as in Alloy): attribute values available
    to a repair are the values occurring in the models, literals in
    the transformation text, plus caller-supplied [extra_values]. *)

type t

val create :
  transformation:Ast.transformation ->
  metamodels:(Mdl.Ident.t * Mdl.Metamodel.t) list ->
  models:(Mdl.Ident.t * Mdl.Model.t) list ->
  ?extra_values:Mdl.Value.t list ->
  ?slack_objects:int ->
  unit ->
  (t, string) result
(** [metamodels] maps metamodel names to metamodels; [models] maps
    every transformation parameter to a model of its declared
    metamodel. [slack_objects] (default 2, negative is an [Error]) is
    the number of fresh object atoms added per target model. Fails
    on: missing/mistyped parameter bindings, or a metamodel whose
    same-named features have incompatible declarations (the encoding
    keys feature relations by name). *)

val transformation : t -> Ast.transformation
val universe : t -> Relog.Rel.Universe.t
val model_of_param : t -> Mdl.Ident.t -> Mdl.Model.t
val metamodel_of_param : t -> Mdl.Ident.t -> Mdl.Metamodel.t
val params : t -> Mdl.Ident.t list

val check_instance : t -> Relog.Instance.t
(** Exact encoding of all bound models (the input to {!Relog.Eval}). *)

val bounds : t -> targets:Mdl.Ident.Set.t -> Relog.Bounds.t
(** Bounds for enforcement: parameters in [targets] are mutable. *)

val structural_formulas : t -> param:Mdl.Ident.t -> Relog.Ast.formula list
(** Conformance of a mutable model as relational constraints:
    disjoint class extents, feature domains/ranges, slot
    multiplicities, opposite symmetry and containment (unique
    container, no cycles). No formula names a slack atom, so the slack
    atoms of a parameter stay interchangeable for the symmetry pass
    ({!Relog.Symmetry}). *)

val decode_model :
  t -> Relog.Instance.t -> param:Mdl.Ident.t -> (Mdl.Model.t, string) result
(** Rebuild a {!Mdl.Model} from a (possibly repaired) instance.
    Existing atoms keep their object ids; slack atoms get fresh ids,
    from one past the largest id of the bound model. *)

(** {2 Incremental-session support}

    A long-lived session re-states the {e facts} of an edited model as
    solver assumptions over one frozen encoding. These accessors
    expose what it needs: the fact tuples of a model whose objects may
    live on slack atoms, the slack atoms available per parameter, and
    the value universe (whose growth forces a re-encode). *)

val model_facts :
  t ->
  ?atom_of_id:(Mdl.Model.obj_id -> Mdl.Ident.t option) ->
  param:Mdl.Ident.t ->
  Mdl.Model.t ->
  (Mdl.Ident.t * Relog.Rel.Tuple.t) list
(** [(relation, tuple)] pairs encoding [model] exactly — the tuples
    that are {e true} of it; relations of the parameter not listed
    hold no tuple. Like the internal exact encoding, except objects
    need not be objects of the originally bound model: ids unknown to
    the encoding are resolved through [atom_of_id] (typically to a
    consumed slack atom). Raises [Invalid_argument] on an id neither
    bound nor resolved, or a value outside the universe. *)

val slack_atom_names : t -> Mdl.Ident.t -> Mdl.Ident.t list
(** Fresh object atoms of a parameter, in ascending universe index:
    the [k]-th is the one an incremental session hands to its [k]-th
    created object. *)

val param_of_rel : Mdl.Ident.t -> Mdl.Ident.t option
(** The parameter owning a relation: relation names are namespaced
    ["<param>$..."], so this is the prefix before the first ['$']
    ([None] without one). *)

val values : t -> Mdl.Value.t list
(** All values with atoms in the universe (sorted). Feeding these back
    as [extra_values] of a later {!create} reproduces the same value
    universe plus whatever the new models add. *)

val atom_index : t -> Mdl.Ident.t -> int
(** Universe index of an atom name. Raises [Invalid_argument] on
    unknown atoms. *)

(** {2 Expression building blocks for the semantics compiler} *)

val extent_expr : t -> param:Mdl.Ident.t -> cls:Mdl.Ident.t -> Relog.Ast.expr
(** Union of the exact extents of all concrete subclasses. *)

val feature_rel : t -> param:Mdl.Ident.t -> feature:Mdl.Ident.t -> Relog.Ast.expr

val type_expr : t -> Ast.var_type -> Relog.Ast.expr
(** The unary relation of values/objects inhabiting a variable type. *)

val lt_rel : Relog.Ast.expr
(** The constant strict-order relation over the integer atoms of the
    universe (used to compile [<] / [<=]). *)

val value_atom : t -> Mdl.Value.t -> Relog.Ast.expr
(** Singleton expression for a literal. Raises [Invalid_argument] if
    the value is outside the universe (it never is for literals the
    transformation mentions). *)

val obj_atom_name : Mdl.Ident.t -> Mdl.Model.obj_id -> Mdl.Ident.t
(** The atom naming scheme, exposed for tests: [p#i]. *)
