module Ident = Mdl.Ident
module MM = Mdl.Metamodel
module Ast = Qvtr.Ast
module Dependency = Qvtr.Dependency

let diag = Diagnostic.make

(* ------------------------------------------------------------------ *)
(* Shared shape helpers                                                *)

let relation_calls (r : Ast.relation) =
  List.concat_map
    (fun (c : Ast.clause) -> Ast.pred_calls c.Ast.c_pred)
    (r.Ast.r_when @ r.Ast.r_where)

(* The metamodel bound to a model parameter, resolved through the
   transformation's parameter list. *)
let mm_of_param (t : Ast.transformation) metamodels p =
  match Ast.find_param t p with
  | None -> None
  | Some par ->
    Option.map snd
      (List.find_opt (fun (n, _) -> Ident.equal n par.Ast.par_mm) metamodels)

(* Variables used by a template's property values (not the variables
   it binds). *)
let rec template_used (tpl : Ast.template) acc =
  List.fold_left
    (fun acc (prop : Ast.property) ->
      match prop.Ast.p_value with
      | Ast.PV_expr e -> Ident.Set.union (Ast.oexpr_vars e) acc
      | Ast.PV_template nested -> template_used nested acc)
    acc tpl.Ast.t_props

let clause_vars clauses =
  List.fold_left
    (fun acc (c : Ast.clause) -> Ident.Set.union (Ast.pred_vars c.Ast.c_pred) acc)
    Ident.Set.empty clauses

(* ------------------------------------------------------------------ *)
(* W001: relations unreachable from any top relation                   *)

let unreachable_relations (t : Ast.transformation) =
  let tops =
    List.filter_map
      (fun (r : Ast.relation) -> if r.Ast.r_top then Some r.Ast.r_name else None)
      t.Ast.t_relations
  in
  let rec reach seen = function
    | [] -> seen
    | name :: rest ->
      if Ident.Set.mem name seen then reach seen rest
      else
        let seen = Ident.Set.add name seen in
        let callees =
          match Ast.find_relation t name with
          | None -> []
          | Some r -> relation_calls r
        in
        reach seen (callees @ rest)
  in
  let reachable = reach Ident.Set.empty tops in
  List.filter_map
    (fun (r : Ast.relation) ->
      if (not r.Ast.r_top) && not (Ident.Set.mem r.Ast.r_name reachable) then
        Some
          (diag ~code:"W001" ~loc:r.Ast.r_loc ~relation:r.Ast.r_name
             (Printf.sprintf
                "relation %s is not invoked from any top relation; it never \
                 constrains the models"
                (Ident.name r.Ast.r_name)))
      else None)
    t.Ast.t_relations

(* ------------------------------------------------------------------ *)
(* W002: redundant dependencies (entailed by the rest of the block)    *)

let redundant_dependencies (t : Ast.transformation) =
  List.concat_map
    (fun (r : Ast.relation) ->
      match r.Ast.r_deps with
      | [] | [ _ ] -> []
      | deps ->
        List.mapi (fun i d -> (i, d)) deps
        |> List.filter_map (fun (i, (d : Ast.dependency)) ->
               let rest = List.filteri (fun j _ -> j <> i) deps in
               if Dependency.entails rest d then
                 Some
                   (diag ~code:"W002" ~loc:d.Ast.dep_loc ~relation:r.Ast.r_name
                      (Printf.sprintf
                         "dependency %s is entailed by the other dependencies \
                          of the block"
                         (Format.asprintf "%a" Ast.pp_dependency d)))
               else None))
    t.Ast.t_relations

(* ------------------------------------------------------------------ *)
(* W003: model parameters that are never a dependency target — no top
   relation ever checks towards them, so no run of the tool can
   enforce (or even report on) that model.                             *)

let unenforceable_parameters (t : Ast.transformation) =
  let targets =
    List.fold_left
      (fun acc (r : Ast.relation) ->
        if not r.Ast.r_top then acc
        else
          List.fold_left
            (fun acc (d : Ast.dependency) -> Ident.Set.add d.Ast.dep_target acc)
            acc
            (Dependency.effective r))
      Ident.Set.empty t.Ast.t_relations
  in
  List.filter_map
    (fun (p : Ast.param) ->
      if Ident.Set.mem p.Ast.par_name targets then None
      else
        Some
          (diag ~code:"W003" ~loc:p.Ast.par_loc
             (Printf.sprintf
                "model parameter %s is never the target of a top relation's \
                 dependency; its conformance is never checked"
                (Ident.name p.Ast.par_name))))
    t.Ast.t_params

(* ------------------------------------------------------------------ *)
(* W004 / W005: variable usage                                         *)

(* Per-relation usage census: where does each declared variable occur?
   [in_domains] counts domains whose template (bindings or property
   expressions) mention the variable; [in_clauses] covers when/where. *)
let variable_usage (r : Ast.relation) =
  let domain_uses =
    List.map
      (fun (d : Ast.domain) ->
        let bound =
          List.fold_left
            (fun acc (v, _) -> Ident.Set.add v acc)
            Ident.Set.empty
            (Ast.template_vars d.Ast.d_template)
        in
        Ident.Set.union bound (template_used d.Ast.d_template Ident.Set.empty))
      r.Ast.r_domains
  in
  let clause_use = clause_vars (r.Ast.r_when @ r.Ast.r_where) in
  fun v ->
    let in_domains =
      List.length (List.filter (fun s -> Ident.Set.mem v s) domain_uses)
    in
    let in_clauses = Ident.Set.mem v clause_use in
    (in_domains, in_clauses)

let unused_variables (t : Ast.transformation) =
  List.concat_map
    (fun (r : Ast.relation) ->
      let usage = variable_usage r in
      List.filter_map
        (fun (vd : Ast.vardecl) ->
          let in_domains, in_clauses = usage vd.Ast.v_name in
          if in_domains = 0 && not in_clauses then
            Some
              (diag ~code:"W004" ~loc:vd.Ast.v_loc ~relation:r.Ast.r_name
                 (Printf.sprintf "variable %s is declared but never used"
                    (Ident.name vd.Ast.v_name)))
          else None)
        (r.Ast.r_vars @ r.Ast.r_prims))
    t.Ast.t_relations

let single_domain_variables (t : Ast.transformation) =
  List.concat_map
    (fun (r : Ast.relation) ->
      let usage = variable_usage r in
      List.filter_map
        (fun (vd : Ast.vardecl) ->
          let in_domains, in_clauses = usage vd.Ast.v_name in
          if in_domains = 1 && not in_clauses then
            Some
              (diag ~code:"W005" ~loc:vd.Ast.v_loc ~relation:r.Ast.r_name
                 (Printf.sprintf
                    "variable %s is bound in a single domain and used nowhere \
                     else; it relates nothing across models"
                    (Ident.name vd.Ast.v_name)))
          else None)
        r.Ast.r_vars)
    t.Ast.t_relations

(* ------------------------------------------------------------------ *)
(* W006: shadowing of transformation-level names                       *)

let shadowed_names (t : Ast.transformation) =
  let params =
    List.fold_left
      (fun acc (p : Ast.param) -> Ident.Set.add p.Ast.par_name acc)
      Ident.Set.empty t.Ast.t_params
  in
  let relations =
    List.fold_left
      (fun acc (r : Ast.relation) -> Ident.Set.add r.Ast.r_name acc)
      Ident.Set.empty t.Ast.t_relations
  in
  let describe v =
    if Ident.Set.mem v params then Some "model parameter"
    else if Ident.Set.mem v relations then Some "relation"
    else None
  in
  List.concat_map
    (fun (r : Ast.relation) ->
      let decl_diags =
        List.filter_map
          (fun (vd : Ast.vardecl) ->
            match describe vd.Ast.v_name with
            | Some what ->
              Some
                (diag ~code:"W006" ~loc:vd.Ast.v_loc ~relation:r.Ast.r_name
                   (Printf.sprintf "variable %s shadows the %s of the same name"
                      (Ident.name vd.Ast.v_name) what))
            | None -> None)
          (r.Ast.r_vars @ r.Ast.r_prims)
      in
      let template_diags =
        List.concat_map
          (fun (d : Ast.domain) ->
            List.filter_map
              (fun (tpl : Ast.template) ->
                match describe tpl.Ast.t_var with
                | Some what ->
                  Some
                    (diag ~code:"W006" ~loc:tpl.Ast.t_loc ~relation:r.Ast.r_name
                       (Printf.sprintf
                          "template variable %s shadows the %s of the same name"
                          (Ident.name tpl.Ast.t_var) what))
                | None -> None)
              (Ast.template_templates d.Ast.d_template))
          r.Ast.r_domains
      in
      decl_diags @ template_diags)
    t.Ast.t_relations

(* ------------------------------------------------------------------ *)
(* W007: abstract classes in enforceable target templates              *)

let abstract_enforce_templates (t : Ast.transformation) ~metamodels =
  List.concat_map
    (fun (r : Ast.relation) ->
      let targets =
        List.fold_left
          (fun acc (d : Ast.dependency) -> Ident.Set.add d.Ast.dep_target acc)
          Ident.Set.empty
          (Dependency.effective r)
      in
      List.concat_map
        (fun (d : Ast.domain) ->
          if not (d.Ast.d_enforceable && Ident.Set.mem d.Ast.d_model targets)
          then []
          else
            match mm_of_param t metamodels d.Ast.d_model with
            | None -> []
            | Some mm ->
              List.filter_map
                (fun (tpl : Ast.template) ->
                  match MM.find_class mm tpl.Ast.t_class with
                  | Some cls when cls.MM.cls_abstract ->
                    let concrete =
                      Ident.Set.cardinal
                        (MM.concrete_subclasses mm tpl.Ast.t_class)
                    in
                    Some
                      (diag ~code:"W007" ~loc:tpl.Ast.t_loc
                         ~relation:r.Ast.r_name
                         (Printf.sprintf
                            "template over abstract class %s in enforceable \
                             target domain %s: enforcement cannot instantiate \
                             it directly (%d concrete subclass%s)"
                            (Ident.name tpl.Ast.t_class)
                            (Ident.name d.Ast.d_model)
                            concrete
                            (if concrete = 1 then "" else "es")))
                  | _ -> None)
                (Ast.template_templates d.Ast.d_template))
        r.Ast.r_domains)
    t.Ast.t_relations

(* ------------------------------------------------------------------ *)
(* W008: more template values than the feature multiplicity admits     *)

let multiplicity_conflicts (t : Ast.transformation) ~metamodels =
  let distinct_values props =
    (* Syntactic distinctness: two different literals on a [0..1] slot
       can never both hold; two different variables force an equality
       the author probably did not intend. *)
    List.sort_uniq compare
      (List.map
         (fun (p : Ast.property) ->
           match p.Ast.p_value with
           | Ast.PV_expr e -> Format.asprintf "%a" Ast.pp_oexpr e
           | Ast.PV_template tpl -> Ident.name tpl.Ast.t_var)
         props)
  in
  List.concat_map
    (fun (r : Ast.relation) ->
      List.concat_map
        (fun (d : Ast.domain) ->
          match mm_of_param t metamodels d.Ast.d_model with
          | None -> []
          | Some mm ->
            List.concat_map
              (fun (tpl : Ast.template) ->
                (* group this template's properties by feature *)
                let feats =
                  List.sort_uniq Ident.compare
                    (List.map (fun (p : Ast.property) -> p.Ast.p_feature) tpl.Ast.t_props)
                in
                List.filter_map
                  (fun f ->
                    let props =
                      List.filter
                        (fun (p : Ast.property) -> Ident.equal p.Ast.p_feature f)
                        tpl.Ast.t_props
                    in
                    if List.length props < 2 then None
                    else
                      let upper =
                        match MM.find_reference mm tpl.Ast.t_class f with
                        | Some rf -> rf.MM.ref_mult.MM.upper
                        | None -> (
                          match MM.find_attribute mm tpl.Ast.t_class f with
                          | Some a -> a.MM.attr_mult.MM.upper
                          | None -> None)
                      in
                      match upper with
                      | Some u when List.length (distinct_values props) > u ->
                        let offending = List.nth props 1 in
                        Some
                          (diag ~code:"W008" ~loc:offending.Ast.p_loc
                             ~relation:r.Ast.r_name
                             (Printf.sprintf
                                "feature %s of class %s admits at most %d \
                                 value%s but the template binds %d distinct \
                                 ones"
                                (Ident.name f)
                                (Ident.name tpl.Ast.t_class)
                                u
                                (if u = 1 then "" else "s")
                                (List.length (distinct_values props))))
                      | _ -> None)
                  feats)
              (Ast.template_templates d.Ast.d_template))
        r.Ast.r_domains)
    t.Ast.t_relations

(* ------------------------------------------------------------------ *)
(* W009: directional checks that are constant under example models     *)

(* Specialize a formula to a concrete instance: free relations that
   are empty in the instance become [None_], after which
   {!Relog.Simplify} collapses quantifiers over them and constant
   checks surface as [True]/[False]. Purely syntactic — the formula
   is never evaluated, so mixed arities are harmless. *)
let rec specialize_expr inst (e : Relog.Ast.expr) =
  let go = specialize_expr inst in
  match e with
  | Relog.Ast.Rel r ->
    if Relog.Rel.Tupleset.is_empty (Relog.Instance.get inst r) then
      Relog.Ast.None_
    else e
  | Relog.Ast.Var _ | Relog.Ast.Atom _ | Relog.Ast.Univ | Relog.Ast.Iden
  | Relog.Ast.None_ ->
    e
  | Relog.Ast.Union (a, b) -> Relog.Ast.Union (go a, go b)
  | Relog.Ast.Inter (a, b) -> Relog.Ast.Inter (go a, go b)
  | Relog.Ast.Diff (a, b) -> Relog.Ast.Diff (go a, go b)
  | Relog.Ast.Join (a, b) -> Relog.Ast.Join (go a, go b)
  | Relog.Ast.Product (a, b) -> Relog.Ast.Product (go a, go b)
  | Relog.Ast.Transpose a -> Relog.Ast.Transpose (go a)
  | Relog.Ast.Closure a -> Relog.Ast.Closure (go a)
  | Relog.Ast.RClosure a -> Relog.Ast.RClosure (go a)

let rec specialize_formula inst (f : Relog.Ast.formula) =
  let go = specialize_formula inst in
  let goe = specialize_expr inst in
  match f with
  | Relog.Ast.True | Relog.Ast.False -> f
  | Relog.Ast.Subset (a, b) -> Relog.Ast.Subset (goe a, goe b)
  | Relog.Ast.Equal (a, b) -> Relog.Ast.Equal (goe a, goe b)
  | Relog.Ast.Some_ e -> Relog.Ast.Some_ (goe e)
  | Relog.Ast.No e -> Relog.Ast.No (goe e)
  | Relog.Ast.Lone e -> Relog.Ast.Lone (goe e)
  | Relog.Ast.One e -> Relog.Ast.One (goe e)
  | Relog.Ast.Not f -> Relog.Ast.Not (go f)
  | Relog.Ast.And fs -> Relog.Ast.And (List.map go fs)
  | Relog.Ast.Or fs -> Relog.Ast.Or (List.map go fs)
  | Relog.Ast.Implies (a, b) -> Relog.Ast.Implies (go a, go b)
  | Relog.Ast.Iff (a, b) -> Relog.Ast.Iff (go a, go b)
  | Relog.Ast.Forall (bs, f) ->
    Relog.Ast.Forall (List.map (fun (v, d) -> (v, goe d)) bs, go f)
  | Relog.Ast.Exists (bs, f) ->
    Relog.Ast.Exists (List.map (fun (v, d) -> (v, goe d)) bs, go f)

let constant_checks (t : Ast.transformation) ~metamodels ~models =
  match Qvtr.Front.create ~slack_objects:0 t ~metamodels ~models with
  | Error _ -> []  (* typecheck errors are reported separately *)
  | Ok fe -> (
    try
      let inst = Qvtr.Encode.check_instance fe.Qvtr.Front.encoding in
      List.filter_map
        (fun ((r : Ast.relation), (d : Ast.dependency), f) ->
          match Relog.Simplify.formula (specialize_formula inst f) with
          | Relog.Ast.True ->
            Some
              (diag ~code:"W009" ~loc:r.Ast.r_loc ~relation:r.Ast.r_name
                 (Printf.sprintf
                    "check %s simplifies to TRUE under the given models: \
                     the relation constrains nothing here"
                    (Format.asprintf "%a" Ast.pp_dependency d)))
          | Relog.Ast.False ->
            Some
              (diag ~code:"W009" ~loc:r.Ast.r_loc ~relation:r.Ast.r_name
                 (Printf.sprintf
                    "check %s simplifies to FALSE under the given models: \
                     it can never be satisfied"
                    (Format.asprintf "%a" Ast.pp_dependency d)))
          | _ -> None)
        (Lazy.force fe.Qvtr.Front.top)
    with Qvtr.Semantics.Compile_error _ -> [])

(* ------------------------------------------------------------------ *)
(* Assembly                                                            *)

let analyze ?models (t : Ast.transformation) ~metamodels =
  let static =
    unreachable_relations t
    @ redundant_dependencies t
    @ unenforceable_parameters t
    @ unused_variables t
    @ single_domain_variables t
    @ shadowed_names t
    @ abstract_enforce_templates t ~metamodels
    @ multiplicity_conflicts t ~metamodels
  in
  let bounded =
    match models with
    | Some models -> constant_checks t ~metamodels ~models
    | None -> []
  in
  List.stable_sort Diagnostic.compare_by_pos (static @ bounded)
