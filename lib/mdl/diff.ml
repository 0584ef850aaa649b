let same_value_list a b = List.equal Value.equal a b

let sorted l = List.sort_uniq Int.compare l

(* ------------------------------------------------------------------ *)
(* The structured diff                                                  *)

type object_diff = {
  od_id : Model.obj_id;
  od_cls : Ident.t;
  od_attrs : (Ident.t * Value.t list * Value.t list) list;
  od_ref_dels : (Ident.t * Model.obj_id) list;
  od_ref_adds : (Ident.t * Model.obj_id) list;
}

type t = {
  removed : object_diff list;
  added : object_diff list;
  changed : object_diff list;
}

let is_empty d = d.removed = [] && d.added = [] && d.changed = []

(* Slot-level changes turning [a]'s view of object [id] into [b]'s.
   The object exists in both models with the same class. Edges of [a]
   pointing at [reclassed] objects are treated as absent: the edit
   script deletes and re-creates those targets, which implicitly
   severs such edges, so they must be re-added even when both models
   contain them. *)
let slot_diff a b ~reclassed id =
  let mm = Model.metamodel a in
  let cls = Model.class_of a id in
  let attrs =
    Metamodel.all_attributes mm cls
    |> List.concat_map (fun (at : Metamodel.attribute) ->
           let va = Model.get_attr a id at.attr_name in
           let vb = Model.get_attr b id at.attr_name in
           if same_value_list va vb then [] else [ (at.attr_name, va, vb) ])
  in
  let dels, adds =
    Metamodel.all_references mm cls
    |> List.fold_left
         (fun (dels, adds) (rf : Metamodel.reference) ->
           let ra =
             sorted (Model.get_refs a id rf.ref_name)
             |> List.filter (fun d -> not (List.mem d reclassed))
           in
           let rb = sorted (Model.get_refs b id rf.ref_name) in
           let d =
             List.filter (fun d -> not (List.mem d rb)) ra
             |> List.map (fun dst -> (rf.ref_name, dst))
           in
           let a =
             List.filter (fun d -> not (List.mem d ra)) rb
             |> List.map (fun dst -> (rf.ref_name, dst))
           in
           (dels @ d, adds @ a))
         ([], [])
  in
  { od_id = id; od_cls = cls; od_attrs = attrs; od_ref_dels = dels; od_ref_adds = adds }

(* The full slot contents of object [id] in [m], as an [object_diff]
   against empty slots: [removed] entries read it as before-content,
   [added] entries as after-content (see [flip]). *)
let slot_contents m id ~as_before =
  let mm = Model.metamodel m in
  let cls = Model.class_of m id in
  let attrs =
    Metamodel.all_attributes mm cls
    |> List.concat_map (fun (at : Metamodel.attribute) ->
           match Model.get_attr m id at.attr_name with
           | [] -> []
           | vs -> if as_before then [ (at.attr_name, vs, []) ] else [ (at.attr_name, [], vs) ])
  in
  let edges =
    Metamodel.all_references mm cls
    |> List.concat_map (fun (rf : Metamodel.reference) ->
           Model.get_refs m id rf.ref_name |> List.map (fun dst -> (rf.ref_name, dst)))
  in
  {
    od_id = id;
    od_cls = cls;
    od_attrs = attrs;
    od_ref_dels = (if as_before then edges else []);
    od_ref_adds = (if as_before then [] else edges);
  }

let diff a b =
  if not (Metamodel.equal (Model.metamodel a) (Model.metamodel b)) then
    invalid_arg "Diff.diff: models have different metamodels";
  let in_a = Model.objects a and in_b = Model.objects b in
  let only_a = List.filter (fun id -> not (Model.mem b id)) in_a in
  let only_b = List.filter (fun id -> not (Model.mem a id)) in_b in
  let common = List.filter (fun id -> Model.mem b id) in_a in
  (* An id present in both but with a different class is treated as a
     delete + create: it contributes to both [removed] and [added]. *)
  let reclassed, stable =
    List.partition
      (fun id -> not (Ident.equal (Model.class_of a id) (Model.class_of b id)))
      common
  in
  {
    removed = List.map (slot_contents a ~as_before:true) (only_a @ reclassed);
    added = List.map (slot_contents b ~as_before:false) (only_b @ reclassed);
    changed =
      List.filter_map
        (fun id ->
          let od = slot_diff a b ~reclassed id in
          if od.od_attrs = [] && od.od_ref_dels = [] && od.od_ref_adds = [] then None
          else Some od)
        stable;
  }

(* ------------------------------------------------------------------ *)
(* Edit-script output                                                   *)

let slot_edits od =
  List.map
    (fun (attr, before, after) -> Edit.Set_attr { id = od.od_id; attr; before; after })
    od.od_attrs
  @ List.map
      (fun (ref_, dst) -> Edit.Del_ref { src = od.od_id; ref_; dst })
      od.od_ref_dels
  @ List.map
      (fun (ref_, dst) -> Edit.Add_ref { src = od.od_id; ref_; dst })
      od.od_ref_adds

let to_edits d =
  (* Order: empty + delete old objects first, then create new ones,
     then slot edits on stable objects, then populate the new objects —
     so every cross reference resolves when its edit applies. *)
  let deletions =
    List.concat_map
      (fun od -> slot_edits od @ [ Edit.Delete_object { id = od.od_id } ])
      d.removed
  in
  let creations =
    List.map (fun od -> Edit.Add_object { id = od.od_id; cls = od.od_cls }) d.added
  in
  let stable_edits = List.concat_map slot_edits d.changed in
  let populate = List.concat_map slot_edits d.added in
  deletions @ creations @ stable_edits @ populate

let script a b = to_edits (diff a b)
