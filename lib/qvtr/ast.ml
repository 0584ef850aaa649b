module Ident = Mdl.Ident

type var_type =
  | T_string
  | T_int
  | T_bool
  | T_enum of Ident.t
  | T_class of Ident.t * Ident.t

type oexpr =
  | O_var of Ident.t
  | O_str of string
  | O_int of int
  | O_bool of bool
  | O_enum of Ident.t
  | O_nav of oexpr * Ident.t
  | O_all of Ident.t * Ident.t
  | O_union of oexpr * oexpr
  | O_inter of oexpr * oexpr
  | O_diff of oexpr * oexpr

type pred =
  | P_true
  | P_eq of oexpr * oexpr
  | P_neq of oexpr * oexpr
  | P_in of oexpr * oexpr
  | P_lt of oexpr * oexpr
  | P_le of oexpr * oexpr
  | P_empty of oexpr
  | P_nonempty of oexpr
  | P_not of pred
  | P_and of pred * pred
  | P_or of pred * pred
  | P_implies of pred * pred
  | P_call of Ident.t * Ident.t list

type clause = {
  c_pred : pred;
  c_loc : Loc.t;
}

type property = {
  p_feature : Ident.t;
  p_value : pvalue;
  p_loc : Loc.t;
}

and pvalue =
  | PV_expr of oexpr
  | PV_template of template

and template = {
  t_var : Ident.t;
  t_class : Ident.t;
  t_props : property list;
  t_loc : Loc.t;
}

type domain = {
  d_model : Ident.t;
  d_template : template;
  d_enforceable : bool;
  d_loc : Loc.t;
}

type dependency = {
  dep_sources : Ident.t list;
  dep_target : Ident.t;
  dep_loc : Loc.t;
}

type vardecl = {
  v_name : Ident.t;
  v_type : var_type;
  v_loc : Loc.t;
}

type relation = {
  r_name : Ident.t;
  r_top : bool;
  r_vars : vardecl list;
  r_prims : vardecl list;
  r_domains : domain list;
  r_when : clause list;
  r_where : clause list;
  r_deps : dependency list;
  r_loc : Loc.t;
}

type param = {
  par_name : Ident.t;
  par_mm : Ident.t;
  par_loc : Loc.t;
}

type transformation = {
  t_name : Ident.t;
  t_params : param list;
  t_relations : relation list;
  t_loc : Loc.t;
}

let clause ?(loc = Loc.none) p = { c_pred = p; c_loc = loc }
let clauses ps = List.map (fun p -> clause p) ps
let preds cs = List.map (fun c -> c.c_pred) cs

let find_relation t name =
  List.find_opt (fun r -> Ident.equal r.r_name name) t.t_relations

let find_param t name =
  List.find_opt (fun p -> Ident.equal p.par_name name) t.t_params

let param_names t = List.map (fun p -> p.par_name) t.t_params

let domain_for r model =
  List.find_opt (fun d -> Ident.equal d.d_model model) r.r_domains

let rec template_vars_acc tpl acc =
  let acc = (tpl.t_var, tpl.t_class) :: acc in
  List.fold_left
    (fun acc prop ->
      match prop.p_value with
      | PV_expr _ -> acc
      | PV_template t -> template_vars_acc t acc)
    acc tpl.t_props

let template_vars tpl = List.rev (template_vars_acc tpl [])

let rec template_templates_acc tpl acc =
  List.fold_left
    (fun acc prop ->
      match prop.p_value with
      | PV_expr _ -> acc
      | PV_template t -> template_templates_acc t acc)
    (tpl :: acc) tpl.t_props

let template_templates tpl = List.rev (template_templates_acc tpl [])

let rec oexpr_vars_acc e acc =
  match e with
  | O_var v -> Ident.Set.add v acc
  | O_str _ | O_int _ | O_bool _ | O_enum _ | O_all _ -> acc
  | O_nav (e, _) -> oexpr_vars_acc e acc
  | O_union (a, b) | O_inter (a, b) | O_diff (a, b) ->
    oexpr_vars_acc a (oexpr_vars_acc b acc)

let oexpr_vars e = oexpr_vars_acc e Ident.Set.empty

let rec pred_vars_acc p acc =
  match p with
  | P_true -> acc
  | P_eq (a, b) | P_neq (a, b) | P_in (a, b) | P_lt (a, b) | P_le (a, b) ->
    oexpr_vars_acc a (oexpr_vars_acc b acc)
  | P_empty a | P_nonempty a -> oexpr_vars_acc a acc
  | P_not p -> pred_vars_acc p acc
  | P_and (a, b) | P_or (a, b) | P_implies (a, b) ->
    pred_vars_acc a (pred_vars_acc b acc)
  | P_call (_, args) -> List.fold_left (fun acc v -> Ident.Set.add v acc) acc args

let pred_vars p = pred_vars_acc p Ident.Set.empty

let rec pred_calls_acc p acc =
  match p with
  | P_call (name, _) -> name :: acc
  | P_not q -> pred_calls_acc q acc
  | P_and (a, b) | P_or (a, b) | P_implies (a, b) ->
    pred_calls_acc a (pred_calls_acc b acc)
  | P_true | P_eq _ | P_neq _ | P_in _ | P_lt _ | P_le _ | P_empty _
  | P_nonempty _ -> acc

let pred_calls p = List.rev (pred_calls_acc p [])

(* ------------------------------------------------------------------ *)
(* Location erasure (round-trip tests, programmatic equality)          *)

let rec strip_template tpl =
  {
    tpl with
    t_loc = Loc.none;
    t_props =
      List.map
        (fun p ->
          {
            p with
            p_loc = Loc.none;
            p_value =
              (match p.p_value with
              | PV_expr _ as e -> e
              | PV_template t -> PV_template (strip_template t));
          })
        tpl.t_props;
  }

let strip_relation r =
  {
    r with
    r_loc = Loc.none;
    r_vars = List.map (fun v -> { v with v_loc = Loc.none }) r.r_vars;
    r_prims = List.map (fun v -> { v with v_loc = Loc.none }) r.r_prims;
    r_domains =
      List.map
        (fun d -> { d with d_loc = Loc.none; d_template = strip_template d.d_template })
        r.r_domains;
    r_when = List.map (fun c -> { c with c_loc = Loc.none }) r.r_when;
    r_where = List.map (fun c -> { c with c_loc = Loc.none }) r.r_where;
    r_deps = List.map (fun d -> { d with dep_loc = Loc.none }) r.r_deps;
  }

let strip_locs t =
  {
    t with
    t_loc = Loc.none;
    t_params = List.map (fun p -> { p with par_loc = Loc.none }) t.t_params;
    t_relations = List.map strip_relation t.t_relations;
  }

(* ------------------------------------------------------------------ *)
(* Printing (concrete syntax; parses back)                             *)

let rec pp_oexpr ppf = function
  | O_var v -> Ident.pp ppf v
  | O_str s -> Format.fprintf ppf "%S" s
  | O_int i -> Format.pp_print_int ppf i
  | O_bool b -> Format.pp_print_bool ppf b
  | O_enum e -> Format.fprintf ppf "#%a" Ident.pp e
  | O_nav (e, f) -> Format.fprintf ppf "%a.%a" pp_oexpr e Ident.pp f
  | O_all (m, c) -> Format.fprintf ppf "%a@@%a" Ident.pp c Ident.pp m
  | O_union (a, b) -> Format.fprintf ppf "(%a ++ %a)" pp_oexpr a pp_oexpr b
  | O_inter (a, b) -> Format.fprintf ppf "(%a ** %a)" pp_oexpr a pp_oexpr b
  | O_diff (a, b) -> Format.fprintf ppf "(%a -- %a)" pp_oexpr a pp_oexpr b

let rec pp_pred ppf = function
  | P_true -> Format.pp_print_string ppf "true"
  | P_eq (a, b) -> Format.fprintf ppf "%a = %a" pp_oexpr a pp_oexpr b
  | P_neq (a, b) -> Format.fprintf ppf "%a <> %a" pp_oexpr a pp_oexpr b
  | P_in (a, b) -> Format.fprintf ppf "%a in %a" pp_oexpr a pp_oexpr b
  | P_lt (a, b) -> Format.fprintf ppf "%a < %a" pp_oexpr a pp_oexpr b
  | P_le (a, b) -> Format.fprintf ppf "%a <= %a" pp_oexpr a pp_oexpr b
  | P_empty a -> Format.fprintf ppf "empty %a" pp_oexpr a
  | P_nonempty a -> Format.fprintf ppf "nonempty %a" pp_oexpr a
  | P_not p -> Format.fprintf ppf "not (%a)" pp_pred p
  | P_and (a, b) -> Format.fprintf ppf "(%a and %a)" pp_pred a pp_pred b
  | P_or (a, b) -> Format.fprintf ppf "(%a or %a)" pp_pred a pp_pred b
  | P_implies (a, b) -> Format.fprintf ppf "(%a implies %a)" pp_pred a pp_pred b
  | P_call (r, args) ->
    Format.fprintf ppf "%a(%s)" Ident.pp r
      (String.concat ", " (List.map Ident.name args))

let pp_var_type ppf = function
  | T_string -> Format.pp_print_string ppf "String"
  | T_int -> Format.pp_print_string ppf "Integer"
  | T_bool -> Format.pp_print_string ppf "Boolean"
  | T_enum e -> Ident.pp ppf e
  | T_class (m, c) -> Format.fprintf ppf "%a@@%a" Ident.pp c Ident.pp m

let rec pp_template ppf tpl =
  Format.fprintf ppf "%a : %a {" Ident.pp tpl.t_var Ident.pp tpl.t_class;
  List.iteri
    (fun i prop ->
      if i > 0 then Format.pp_print_string ppf ",";
      Format.fprintf ppf " %a = " Ident.pp prop.p_feature;
      match prop.p_value with
      | PV_expr e -> pp_oexpr ppf e
      | PV_template t -> pp_template ppf t)
    tpl.t_props;
  Format.pp_print_string ppf " }"

let pp_dependency ppf d =
  Format.fprintf ppf "%s -> %a"
    (String.concat " " (List.map Ident.name d.dep_sources))
    Ident.pp d.dep_target

let pp_relation ppf r =
  Format.fprintf ppf "@[<v 2>%srelation %a {" (if r.r_top then "top " else "")
    Ident.pp r.r_name;
  List.iter
    (fun vd ->
      Format.fprintf ppf "@,%a : %a;" Ident.pp vd.v_name pp_var_type vd.v_type)
    r.r_vars;
  List.iter
    (fun vd ->
      Format.fprintf ppf "@,primitive domain %a : %a;" Ident.pp vd.v_name
        pp_var_type vd.v_type)
    r.r_prims;
  List.iter
    (fun d ->
      Format.fprintf ppf "@,%sdomain %a %a;"
        (if d.d_enforceable then "" else "checkonly ")
        Ident.pp d.d_model pp_template d.d_template)
    r.r_domains;
  let pp_block kw = function
    | [] -> ()
    | cs ->
      Format.fprintf ppf "@,%s {" kw;
      List.iteri
        (fun i c ->
          if i > 0 then Format.pp_print_string ppf ";";
          Format.fprintf ppf " %a" pp_pred c.c_pred)
        cs;
      Format.pp_print_string ppf " }"
  in
  pp_block "when" r.r_when;
  pp_block "where" r.r_where;
  (match r.r_deps with
  | [] -> ()
  | deps ->
    Format.fprintf ppf "@,dependencies {";
    List.iter (fun d -> Format.fprintf ppf " %a;" pp_dependency d) deps;
    Format.pp_print_string ppf " }");
  Format.fprintf ppf "@]@,}"

let pp_transformation ppf t =
  Format.fprintf ppf "@[<v 2>transformation %a(%s) {" Ident.pp t.t_name
    (String.concat ", "
       (List.map
          (fun p ->
            Printf.sprintf "%s : %s" (Ident.name p.par_name) (Ident.name p.par_mm))
          t.t_params));
  List.iter (fun r -> Format.fprintf ppf "@,%a" pp_relation r) t.t_relations;
  Format.fprintf ppf "@]@,}"
