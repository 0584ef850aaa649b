module Ident = Mdl.Ident
module Value = Mdl.Value
module MM = Mdl.Metamodel
module Model = Mdl.Model
module TS = Relog.Rel.Tupleset
module RAst = Relog.Ast

type t = {
  trans : Ast.transformation;
  (* param -> (model, metamodel) *)
  binding : (Model.t * MM.t) Ident.Map.t;
  universe : Relog.Rel.Universe.t;
  (* object atoms: param -> obj id -> atom index; and the reverse *)
  obj_index : int Ident.Map.t;  (* atom -> universe index, all atoms *)
  atom_kind : kind Ident.Map.t;
  value_index : Ident.t Value.Map.t;  (* value -> atom name *)
  slack : Ident.t list Ident.Map.t;  (* param -> slack atom names *)
}

and kind =
  | K_obj of Ident.t * Model.obj_id  (* param, id *)
  | K_slack of Ident.t * int  (* param, slack ordinal *)
  | K_value of Value.t

let obj_atom_name p i = Ident.make (Printf.sprintf "%s#%d" (Ident.name p) i)
let slack_atom_name p k = Ident.make (Printf.sprintf "%s#s%d" (Ident.name p) k)

let value_atom_name (v : Value.t) =
  Ident.make
    (match v with
    | Value.Str s -> "s~" ^ s
    | Value.Int i -> "i~" ^ string_of_int i
    | Value.Bool b -> "b~" ^ string_of_bool b
    | Value.Enum e -> "e~" ^ Ident.name e)

(* Relation naming. *)
let cls_rel_name p c = Ident.make (Printf.sprintf "%s$cls$%s" (Ident.name p) (Ident.name c))
let ft_rel_name p f = Ident.make (Printf.sprintf "%s$ft$%s" (Ident.name p) (Ident.name f))
let val_string = Ident.make "val$string"
let val_int = Ident.make "val$int"
let val_bool = Ident.make "val$bool"
let val_enum e = Ident.make ("val$enum$" ^ Ident.name e)
let val_lt = Ident.make "val$lt"

let param_of_rel r =
  match String.index_opt (Ident.name r) '$' with
  | None -> None
  | Some i -> Some (Ident.make (String.sub (Ident.name r) 0 i))

(* ------------------------------------------------------------------ *)
(* Literal collection                                                  *)

let rec oexpr_values (e : Ast.oexpr) acc =
  match e with
  | Ast.O_str s -> Value.Set.add (Value.Str s) acc
  | Ast.O_int i -> Value.Set.add (Value.Int i) acc
  | Ast.O_bool b -> Value.Set.add (Value.Bool b) acc
  | Ast.O_enum l -> Value.Set.add (Value.Enum l) acc
  | Ast.O_var _ | Ast.O_all _ -> acc
  | Ast.O_nav (e, _) -> oexpr_values e acc
  | Ast.O_union (a, b) | Ast.O_inter (a, b) | Ast.O_diff (a, b) ->
    oexpr_values a (oexpr_values b acc)

let rec pred_values (p : Ast.pred) acc =
  match p with
  | Ast.P_true | Ast.P_call _ -> acc
  | Ast.P_eq (a, b) | Ast.P_neq (a, b) | Ast.P_in (a, b) | Ast.P_lt (a, b)
  | Ast.P_le (a, b) ->
    oexpr_values a (oexpr_values b acc)
  | Ast.P_empty a | Ast.P_nonempty a -> oexpr_values a acc
  | Ast.P_not p -> pred_values p acc
  | Ast.P_and (a, b) | Ast.P_or (a, b) | Ast.P_implies (a, b) ->
    pred_values a (pred_values b acc)

let rec template_values (tpl : Ast.template) acc =
  List.fold_left
    (fun acc (prop : Ast.property) ->
      match prop.Ast.p_value with
      | Ast.PV_expr e -> oexpr_values e acc
      | Ast.PV_template t -> template_values t acc)
    acc tpl.Ast.t_props

let transformation_values (trans : Ast.transformation) =
  List.fold_left
    (fun acc (r : Ast.relation) ->
      let acc =
        List.fold_left
          (fun acc (d : Ast.domain) -> template_values d.Ast.d_template acc)
          acc r.Ast.r_domains
      in
      let acc =
        List.fold_left
          (fun acc (c : Ast.clause) -> pred_values c.Ast.c_pred acc)
          acc r.Ast.r_when
      in
      List.fold_left
        (fun acc (c : Ast.clause) -> pred_values c.Ast.c_pred acc)
        acc r.Ast.r_where)
    Value.Set.empty trans.Ast.t_relations

(* ------------------------------------------------------------------ *)
(* Feature compatibility: relations are keyed by feature name within a
   model, so same-named features of one metamodel must agree. *)

type feature_kind =
  | F_attr of MM.prim
  | F_ref

let feature_table mm =
  let tbl : (Ident.t, feature_kind) Hashtbl.t = Hashtbl.create 16 in
  let conflict = ref None in
  List.iter
    (fun (c : MM.cls) ->
      List.iter
        (fun (a : MM.attribute) ->
          match Hashtbl.find_opt tbl a.MM.attr_name with
          | None -> Hashtbl.add tbl a.MM.attr_name (F_attr a.MM.attr_type)
          | Some (F_attr t) when t = a.MM.attr_type -> ()
          | Some _ ->
            conflict :=
              Some
                (Printf.sprintf "feature %s declared incompatibly in metamodel %s"
                   (Ident.name a.MM.attr_name)
                   (Ident.name (MM.name mm))))
        c.MM.cls_attrs;
      List.iter
        (fun (r : MM.reference) ->
          match Hashtbl.find_opt tbl r.MM.ref_name with
          | None -> Hashtbl.add tbl r.MM.ref_name F_ref
          | Some F_ref -> ()
          | Some (F_attr _) ->
            conflict :=
              Some
                (Printf.sprintf "feature %s declared incompatibly in metamodel %s"
                   (Ident.name r.MM.ref_name)
                   (Ident.name (MM.name mm))))
        c.MM.cls_refs)
    (MM.classes mm);
  match !conflict with Some msg -> Error msg | None -> Ok tbl

(* ------------------------------------------------------------------ *)
(* Creation                                                            *)

let default_slack = 2

let create ~transformation:trans ~metamodels ~models ?(extra_values = [])
    ?(slack_objects = default_slack) () =
  let ( let* ) = Result.bind in
  let* () =
    if slack_objects < 0 then
      Error (Printf.sprintf "slack objects must be >= 0 (got %d)" slack_objects)
    else Ok ()
  in
  (* Resolve the parameter binding. *)
  let* binding =
    List.fold_left
      (fun acc ({ Ast.par_name = p; par_mm = mm_name; par_loc = _ } : Ast.param) ->
        let* acc = acc in
        match List.find_opt (fun (pm, _) -> Ident.equal pm p) models with
        | None -> Error (Printf.sprintf "no model bound to parameter %s" (Ident.name p))
        | Some (_, model) -> (
          match
            List.find_opt (fun (n, _) -> Ident.equal n mm_name) metamodels
          with
          | None ->
            Error (Printf.sprintf "unknown metamodel %s" (Ident.name mm_name))
          | Some (_, mm) ->
            if not (Ident.equal (MM.name (Model.metamodel model)) mm_name) then
              Error
                (Printf.sprintf "model for %s conforms to %s, expected %s"
                   (Ident.name p)
                   (Ident.name (MM.name (Model.metamodel model)))
                   (Ident.name mm_name))
            else Ok (Ident.Map.add p (model, mm) acc)))
      (Ok Ident.Map.empty) trans.Ast.t_params
  in
  (* Validate feature tables. *)
  let* () =
    Ident.Map.fold
      (fun _ (_, mm) acc ->
        let* () = acc in
        let* _ = feature_table mm in
        Ok ())
      binding (Ok ())
  in
  (* Value universe. *)
  let values =
    Ident.Map.fold
      (fun _ (model, _) acc -> Value.Set.union acc (Model.all_values model))
      binding Value.Set.empty
  in
  let values = Value.Set.union values (transformation_values trans) in
  let values =
    List.fold_left (fun acc v -> Value.Set.add v acc) values extra_values
  in
  let values = Value.Set.add (Value.Bool true) (Value.Set.add (Value.Bool false) values) in
  let values =
    Ident.Map.fold
      (fun _ (_, mm) acc ->
        List.fold_left
          (fun acc (e : MM.enum) ->
            List.fold_left
              (fun acc lit -> Value.Set.add (Value.Enum lit) acc)
              acc e.MM.enum_literals)
          acc (MM.enums mm))
      binding values
  in
  (* Atoms. *)
  let atoms = ref [] and kinds = ref Ident.Map.empty in
  let add_atom name kind =
    atoms := name :: !atoms;
    kinds := Ident.Map.add name kind !kinds
  in
  Ident.Map.iter
    (fun p (model, _) ->
      List.iter (fun id -> add_atom (obj_atom_name p id) (K_obj (p, id))) (Model.objects model))
    binding;
  let slack =
    Ident.Map.mapi
      (fun p _ ->
        List.init slack_objects (fun k ->
            let a = slack_atom_name p k in
            add_atom a (K_slack (p, k));
            a))
      binding
  in
  let value_index =
    Value.Set.fold
      (fun v acc ->
        let a = value_atom_name v in
        add_atom a (K_value v);
        Value.Map.add v a acc)
      values Value.Map.empty
  in
  let atom_list = List.rev !atoms in
  let universe = Relog.Rel.Universe.make atom_list in
  let obj_index =
    List.fold_left
      (fun acc a -> Ident.Map.add a (Relog.Rel.Universe.index universe a) acc)
      Ident.Map.empty atom_list
  in
  Ok
    {
      trans;
      binding;
      universe;
      obj_index;
      atom_kind = !kinds;
      value_index;
      slack;
    }

let transformation t = t.trans
let universe t = t.universe

let lookup_param t p =
  match Ident.Map.find_opt p t.binding with
  | Some b -> b
  | None -> invalid_arg (Printf.sprintf "Encode: unknown parameter %s" (Ident.name p))

let model_of_param t p = fst (lookup_param t p)
let metamodel_of_param t p = snd (lookup_param t p)
let params t = Ast.param_names t.trans

let slack_atom_names t p =
  Option.value ~default:[] (Ident.Map.find_opt p t.slack)

let values t = List.map fst (Value.Map.bindings t.value_index)

let atom_idx t name =
  match Ident.Map.find_opt name t.obj_index with
  | Some i -> i
  | None ->
    invalid_arg (Printf.sprintf "Encode: unknown atom %s" (Ident.name name))

let atom_index = atom_idx

let value_idx t v =
  match Value.Map.find_opt v t.value_index with
  | Some a -> atom_idx t a
  | None ->
    invalid_arg
      (Printf.sprintf "Encode: value %s outside the universe" (Value.to_string v))

(* ------------------------------------------------------------------ *)
(* Exact encoding of models                                            *)

let tuples_with t p model ~obj =
  (* (relation name, tuple) pairs for one model, object atoms resolved
     through [obj]. *)
  let cls_tuples =
    Model.fold_objects
      (fun id cls acc ->
        let r = cls_rel_name p cls in
        (r, [| obj id |]) :: acc)
      model []
  in
  let attr_tuples =
    Model.fold_attr_slots
      (fun id a vs acc ->
        let r = ft_rel_name p a in
        List.fold_left (fun acc v -> (r, [| obj id; value_idx t v |]) :: acc) acc vs)
      model []
  in
  let ref_tuples =
    Model.fold_ref_edges
      (fun src rf dst acc -> (ft_rel_name p rf, [| obj src; obj dst |]) :: acc)
      model []
  in
  cls_tuples @ attr_tuples @ ref_tuples

let model_tuples t p model =
  tuples_with t p model ~obj:(fun i -> atom_idx t (obj_atom_name p i))

let model_facts t ?atom_of_id ~param model =
  let p = param in
  let obj i =
    let a = obj_atom_name p i in
    if Ident.Map.mem a t.atom_kind then atom_idx t a
    else
      match Option.bind atom_of_id (fun f -> f i) with
      | Some a -> atom_idx t a
      | None ->
        invalid_arg
          (Printf.sprintf "Encode.model_facts: no atom for object #%d of %s" i
             (Ident.name p))
  in
  tuples_with t p model ~obj

(* Relation names that must exist (possibly empty) for a model: every
   class and feature of its metamodel. *)
let declared_rels t p =
  let mm = metamodel_of_param t p in
  let cls_rels = List.map (fun (c : MM.cls) -> cls_rel_name p c.MM.cls_name) (MM.classes mm) in
  let ft_rels =
    List.concat_map
      (fun (c : MM.cls) ->
        List.map (fun (a : MM.attribute) -> ft_rel_name p a.MM.attr_name) c.MM.cls_attrs
        @ List.map (fun (r : MM.reference) -> ft_rel_name p r.MM.ref_name) c.MM.cls_refs)
      (MM.classes mm)
  in
  List.sort_uniq Ident.compare (cls_rels @ ft_rels)

let value_relations t =
  let by_pred pred =
    Value.Map.fold
      (fun v a acc -> if pred v then TS.union acc (TS.singleton [| atom_idx t a |]) else acc)
      t.value_index TS.empty
  in
  let strings = by_pred (function Value.Str _ -> true | _ -> false) in
  let ints = by_pred (function Value.Int _ -> true | _ -> false) in
  let bools = by_pred (function Value.Bool _ -> true | _ -> false) in
  let enums =
    (* one relation per enum of any bound metamodel *)
    Ident.Map.fold
      (fun _ (_, mm) acc ->
        List.fold_left
          (fun acc (e : MM.enum) ->
            let ts =
              List.fold_left
                (fun ts lit ->
                  TS.union ts (TS.singleton [| value_idx t (Value.Enum lit) |]))
                TS.empty e.MM.enum_literals
            in
            (val_enum e.MM.enum_name, ts) :: acc)
          acc (MM.enums mm))
      t.binding []
  in
  (* strict order over the integer atoms of the (bounded) universe *)
  let int_pairs =
    Value.Map.fold
      (fun v a acc ->
        match v with
        | Value.Int x ->
          Value.Map.fold
            (fun w b acc ->
              match w with
              | Value.Int y when x < y ->
                TS.union acc (TS.singleton [| atom_idx t a; atom_idx t b |])
              | _ -> acc)
            t.value_index acc
        | _ -> acc)
      t.value_index TS.empty
  in
  [ (val_string, strings); (val_int, ints); (val_bool, bools); (val_lt, int_pairs) ]
  @ enums

let group_tuples pairs =
  List.fold_left
    (fun acc (r, tuple) ->
      let cur = Option.value ~default:TS.empty (Ident.Map.find_opt r acc) in
      Ident.Map.add r (TS.union cur (TS.singleton tuple)) acc)
    Ident.Map.empty pairs

let check_instance t =
  let inst = Relog.Instance.make t.universe in
  let inst =
    List.fold_left
      (fun inst (r, ts) -> Relog.Instance.set inst r ts)
      inst (value_relations t)
  in
  Ident.Map.fold
    (fun p (model, _) inst ->
      let grouped = group_tuples (model_tuples t p model) in
      (* Declared-but-empty relations must still be present. *)
      let inst =
        List.fold_left
          (fun inst r ->
            if Relog.Instance.mem inst r then inst else Relog.Instance.set inst r TS.empty)
          (Ident.Map.fold (fun r ts inst -> Relog.Instance.set inst r ts) grouped inst)
          (declared_rels t p)
      in
      inst)
    t.binding inst

(* ------------------------------------------------------------------ *)
(* Bounds for enforcement                                              *)

let all_obj_atoms t p =
  let model = model_of_param t p in
  let existing = List.map (fun i -> obj_atom_name p i) (Model.objects model) in
  let slack = Option.value ~default:[] (Ident.Map.find_opt p t.slack) in
  List.map (fun a -> [| atom_idx t a |]) (existing @ slack)

let type_tupleset t p (kind : feature_kind) =
  (* Upper bound of the second column of a feature relation. *)
  match kind with
  | F_ref ->
    TS.of_list (all_obj_atoms t p)
  | F_attr prim ->
    let pred (v : Value.t) =
      match (prim, v) with
      | MM.P_string, Value.Str _ -> true
      | MM.P_int, Value.Int _ -> true
      | MM.P_bool, Value.Bool _ -> true
      | MM.P_enum e, Value.Enum lit ->
        Ident.Map.exists
          (fun _ (_, mm) -> MM.has_enum_literal mm e lit)
          t.binding
      | (MM.P_string | MM.P_int | MM.P_bool | MM.P_enum _), _ -> false
    in
    Value.Map.fold
      (fun v a acc -> if pred v then TS.union acc (TS.singleton [| atom_idx t a |]) else acc)
      t.value_index TS.empty

let bounds t ~targets =
  let b = Relog.Bounds.make t.universe in
  (* Constant value relations. *)
  let b =
    List.fold_left
      (fun b (r, ts) -> Relog.Bounds.exact b r ts)
      b (value_relations t)
  in
  Ident.Map.fold
    (fun p (model, mm) b ->
      let grouped = group_tuples (model_tuples t p model) in
      let get r = Option.value ~default:TS.empty (Ident.Map.find_opt r grouped) in
      if not (Ident.Set.mem p targets) then
        (* Frozen: exact bounds, including declared-empty relations. *)
        List.fold_left (fun b r -> Relog.Bounds.exact b r (get r)) b (declared_rels t p)
      else begin
        let objs = TS.of_list (all_obj_atoms t p) in
        let ftbl = match feature_table mm with Ok x -> x | Error e -> invalid_arg e in
        List.fold_left
          (fun b (c : MM.cls) ->
            let b =
              if c.MM.cls_abstract then b
              else
                Relog.Bounds.bound b (cls_rel_name p c.MM.cls_name) ~lower:TS.empty
                  ~upper:objs
            in
            b)
          b (MM.classes mm)
        |> fun b ->
        (* Feature relations: collect feature names over the whole
           metamodel. *)
        let fts =
          Hashtbl.fold (fun f kind acc -> (f, kind) :: acc) ftbl []
          |> List.sort (fun (a, _) (b, _) -> Ident.compare_name a b)
        in
        List.fold_left
          (fun b (f, kind) ->
            let range = type_tupleset t p kind in
            Relog.Bounds.bound b (ft_rel_name p f) ~lower:TS.empty
              ~upper:(TS.product objs range))
          b fts
      end)
    t.binding b

(* ------------------------------------------------------------------ *)
(* Expressions                                                         *)

let extent_expr t ~param ~cls =
  let mm = metamodel_of_param t param in
  let concrete = MM.concrete_subclasses mm cls in
  let exprs =
    Ident.Set.fold
      (fun c acc -> RAst.Rel (cls_rel_name param c) :: acc)
      concrete []
  in
  match exprs with
  | [] -> RAst.None_
  | [ e ] -> e
  | e :: rest -> List.fold_left (fun acc e -> RAst.Union (acc, e)) e rest

let feature_rel _t ~param ~feature = RAst.Rel (ft_rel_name param feature)

let type_expr t (ty : Ast.var_type) =
  match ty with
  | Ast.T_string -> RAst.Rel val_string
  | Ast.T_int -> RAst.Rel val_int
  | Ast.T_bool -> RAst.Rel val_bool
  | Ast.T_enum e -> RAst.Rel (val_enum e)
  | Ast.T_class (p, c) -> extent_expr t ~param:p ~cls:c

let lt_rel = RAst.Rel val_lt

let value_atom t v =
  match Value.Map.find_opt v t.value_index with
  | Some a -> RAst.Atom a
  | None ->
    invalid_arg
      (Printf.sprintf "Encode.value_atom: %s outside the universe" (Value.to_string v))

(* ------------------------------------------------------------------ *)
(* Structural (conformance) formulas for mutable models                *)

let mult_formula (m : MM.mult) (e : RAst.expr) : RAst.formula list =
  let lower =
    match m.MM.lower with
    | 0 -> []
    | 1 -> [ RAst.Some_ e ]
    | _ ->
      (* Bounds above 1 are not expressible without counting; the
         decoder re-checks conformance, so approximate with Some. *)
      [ RAst.Some_ e ]
  in
  let upper =
    match m.MM.upper with
    | Some 0 -> [ RAst.No e ]
    | Some 1 -> [ RAst.Lone e ]
    | Some _ | None -> []
  in
  lower @ upper

let structural_formulas t ~param =
  let mm = metamodel_of_param t param in
  let p = param in
  let x = Ident.make "$x" in
  let concrete =
    List.filter (fun (c : MM.cls) -> not c.MM.cls_abstract) (MM.classes mm)
  in
  let exts = List.map (fun (c : MM.cls) -> RAst.Rel (cls_rel_name p c.MM.cls_name)) concrete in
  let union_exts =
    match exts with
    | [] -> RAst.None_
    | e :: rest -> List.fold_left (fun acc e -> RAst.Union (acc, e)) e rest
  in
  (* 1. Disjoint class extents. *)
  let rec disjoint = function
    | [] | [ _ ] -> []
    | e :: rest ->
      List.map (fun e' -> RAst.No (RAst.Inter (e, e'))) rest @ disjoint rest
  in
  let disjointness = disjoint exts in
  (* 2. Feature domains, ranges, multiplicities. *)
  let feature_constraints =
    List.concat_map
      (fun (c : MM.cls) ->
        if c.MM.cls_abstract then []
        else begin
          let ext = RAst.Rel (cls_rel_name p c.MM.cls_name) in
          let attrs = MM.all_attributes mm c.MM.cls_name in
          let refs = MM.all_references mm c.MM.cls_name in
          let per_attr (a : MM.attribute) =
            let fr = RAst.Rel (ft_rel_name p a.MM.attr_name) in
            let slot = RAst.Join (RAst.Var x, fr) in
            let ty =
              match a.MM.attr_type with
              | MM.P_string -> RAst.Rel val_string
              | MM.P_int -> RAst.Rel val_int
              | MM.P_bool -> RAst.Rel val_bool
              | MM.P_enum e -> RAst.Rel (val_enum e)
            in
            let body =
              RAst.Subset (slot, ty) :: mult_formula a.MM.attr_mult slot
            in
            [ RAst.Forall ([ (x, ext) ], RAst.And body) ]
          in
          let per_ref (r : MM.reference) =
            let fr = RAst.Rel (ft_rel_name p r.MM.ref_name) in
            let slot = RAst.Join (RAst.Var x, fr) in
            let target = extent_expr t ~param:p ~cls:r.MM.ref_target in
            let body = RAst.Subset (slot, target) :: mult_formula r.MM.ref_mult slot in
            [ RAst.Forall ([ (x, ext) ], RAst.And body) ]
          in
          List.concat_map per_attr attrs @ List.concat_map per_ref refs
        end)
      (MM.classes mm)
  in
  (* 3. Feature relations live on existing objects only (no slots on
     atoms outside every extent). *)
  let ftbl = match feature_table mm with Ok x -> x | Error e -> invalid_arg e in
  let domain_constraints =
    Hashtbl.fold
      (fun f _kind acc ->
        let fr = RAst.Rel (ft_rel_name p f) in
        (* domain of fr within union of extents of classes having f *)
        let owners =
          List.filter
            (fun (c : MM.cls) ->
              (not c.MM.cls_abstract)
              && (MM.find_attribute mm c.MM.cls_name f <> None
                 || MM.find_reference mm c.MM.cls_name f <> None))
            (MM.classes mm)
        in
        let owner_ext =
          match owners with
          | [] -> RAst.None_
          | c :: rest ->
            List.fold_left
              (fun acc (c : MM.cls) -> RAst.Union (acc, RAst.Rel (cls_rel_name p c.MM.cls_name)))
              (RAst.Rel (cls_rel_name p c.MM.cls_name))
              rest
        in
        RAst.Subset (RAst.Join (fr, RAst.Univ), owner_ext) :: acc)
      ftbl []
  in
  (* 4. Key (ID) attributes: injective within each class extent. *)
  let y = Ident.make "$y" in
  let key_constraints =
    List.concat_map
      (fun (c : MM.cls) ->
        if c.MM.cls_abstract then []
        else
          let ext = RAst.Rel (cls_rel_name p c.MM.cls_name) in
          MM.all_attributes mm c.MM.cls_name
          |> List.filter_map (fun (a : MM.attribute) ->
                 if not a.MM.attr_key then None
                 else
                   let fr = RAst.Rel (ft_rel_name p a.MM.attr_name) in
                   Some
                     (RAst.Forall
                        ( [ (x, ext); (y, ext) ],
                          RAst.implies
                            (RAst.Equal
                               (RAst.Join (RAst.Var x, fr), RAst.Join (RAst.Var y, fr)))
                            (RAst.Equal (RAst.Var x, RAst.Var y)) )))
      )
      (MM.classes mm)
  in
  (* 5. Opposites and containment. *)
  let opposite_constraints =
    List.concat_map
      (fun (c : MM.cls) ->
        List.filter_map
          (fun (r : MM.reference) ->
            match r.MM.ref_opposite with
            | None -> None
            | Some opp ->
              Some
                (RAst.Equal
                   ( RAst.Rel (ft_rel_name p r.MM.ref_name),
                     RAst.Transpose (RAst.Rel (ft_rel_name p opp)) )))
          c.MM.cls_refs)
      (MM.classes mm)
  in
  let containment_refs =
    List.concat_map
      (fun (c : MM.cls) ->
        List.filter (fun (r : MM.reference) -> r.MM.ref_containment) c.MM.cls_refs)
      (MM.classes mm)
  in
  let containment_constraints =
    match containment_refs with
    | [] -> []
    | r :: rest ->
      let contains =
        List.fold_left
          (fun acc (r : MM.reference) -> RAst.Union (acc, RAst.Rel (ft_rel_name p r.MM.ref_name)))
          (RAst.Rel (ft_rel_name p r.MM.ref_name))
          rest
      in
      [
        (* unique container *)
        RAst.Forall
          ([ (x, union_exts) ], RAst.Lone (RAst.Join (contains, RAst.Var x)));
        (* no containment cycles *)
        RAst.No (RAst.Inter (RAst.Closure contains, RAst.Iden));
      ]
  in
  disjointness @ feature_constraints @ domain_constraints @ key_constraints
  @ opposite_constraints @ containment_constraints

(* ------------------------------------------------------------------ *)
(* Decoding                                                            *)

let decode_model t inst ~param =
  let p = param in
  let model0 = model_of_param t p in
  let mm = metamodel_of_param t p in
  (* slack atoms get ids past the bound model's largest *)
  let fresh = ref (List.fold_left max (-1) (Model.objects model0)) in
  (* atom index -> chosen object id *)
  let atom_obj_id : (int, Model.obj_id) Hashtbl.t = Hashtbl.create 16 in
  let id_of_atom_idx idx =
    match Hashtbl.find_opt atom_obj_id idx with
    | Some id -> id
    | None ->
      let name = Relog.Rel.Universe.atom t.universe idx in
      let id =
        match Ident.Map.find_opt name t.atom_kind with
        | Some (K_obj (_, id)) -> id
        | Some (K_slack _) ->
          incr fresh;
          !fresh
        | Some (K_value _) | None -> invalid_arg "decode: non-object atom in extent"
      in
      Hashtbl.replace atom_obj_id idx id;
      id
  in
  try
    (* Objects: read class extents. *)
    let model = Model.empty ~name:(Ident.name (Model.name model0)) mm in
    let model = ref model in
    let assigned : (Model.obj_id, Ident.t) Hashtbl.t = Hashtbl.create 16 in
    List.iter
      (fun (c : MM.cls) ->
        if not c.MM.cls_abstract then begin
          let ext = Relog.Instance.get inst (cls_rel_name p c.MM.cls_name) in
          TS.fold
            (fun tuple () ->
              let id = id_of_atom_idx tuple.(0) in
              (match Hashtbl.find_opt assigned id with
              | Some other when not (Ident.equal other c.MM.cls_name) ->
                invalid_arg
                  (Printf.sprintf "decode: object #%d in two class extents" id)
              | Some _ -> ()
              | None ->
                Hashtbl.add assigned id c.MM.cls_name;
                model := Model.add_object_with_id !model ~id ~cls:c.MM.cls_name))
            ext ()
        end)
      (MM.classes mm);
    (* Features. *)
    let ftbl = match feature_table mm with Ok x -> x | Error e -> invalid_arg e in
    Hashtbl.iter
      (fun f kind ->
        let rel = Relog.Instance.get inst (ft_rel_name p f) in
        TS.fold
          (fun tuple () ->
            let src = id_of_atom_idx tuple.(0) in
            if Model.mem !model src then begin
              match kind with
              | F_ref ->
                let dst = id_of_atom_idx tuple.(1) in
                if Model.mem !model dst then
                  model := Model.add_ref !model ~src ~ref_:f ~dst
              | F_attr _ ->
                let a = Relog.Rel.Universe.atom t.universe tuple.(1) in
                (match Ident.Map.find_opt a t.atom_kind with
                | Some (K_value v) ->
                  let cur = Model.get_attr !model src f in
                  model := Model.set_attr !model src f (cur @ [ v ])
                | _ -> invalid_arg "decode: non-value atom in attribute slot")
            end)
          rel ())
      ftbl;
    Ok !model
  with
  | Invalid_argument msg -> Error msg
  | Model.Type_error msg -> Error msg
