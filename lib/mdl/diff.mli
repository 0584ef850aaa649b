(** Model differencing.

    Computes a structured diff (and from it an edit script) turning
    one model into another, assuming the two share the metamodel and
    an id space (the "same" object has the same id in both — the
    situation after an enforcement run, whose decoder preserves ids). *)

type object_diff = {
  od_id : Model.obj_id;
  od_cls : Ident.t;
  od_attrs : (Ident.t * Value.t list * Value.t list) list;
      (** attribute, value list before, value list after *)
  od_ref_dels : (Ident.t * Model.obj_id) list;  (** reference, target *)
  od_ref_adds : (Ident.t * Model.obj_id) list;
}
(** Slot-level changes of one object. For an object only in [a]
    ([removed]) the after-sides are empty; for an object only in [b]
    ([added]) the before-sides are. *)

type t = {
  removed : object_diff list;  (** in [a] only (full old contents) *)
  added : object_diff list;  (** in [b] only (full new contents) *)
  changed : object_diff list;  (** in both, with differing slots *)
}
(** An object present in both models under a different class is
    treated as deleted and re-created: it appears in both [removed]
    and [added]. *)

val diff : Model.t -> Model.t -> t
(** [diff a b] is the structured difference from [a] to [b]. Raises
    [Invalid_argument] when metamodels differ. *)

val is_empty : t -> bool

val to_edits : t -> Edit.t list
(** Linearize a diff into an applicable edit script: removed objects
    are emptied then deleted, added objects created, stable objects'
    slots edited, added objects populated — in that order, so every
    cross-reference resolves when its edit applies. *)

val script : Model.t -> Model.t -> Edit.t list
(** [to_edits (diff a b)]: an edit script s.t.
    [Edit.apply_script a (script a b)] equals [b] (up to reference
    order). Raises [Invalid_argument] when metamodels differ. *)
