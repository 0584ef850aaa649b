module Ident = Mdl.Ident
module RAst = Relog.Ast

type mode =
  | Extended
  | Standard

type t = {
  enc : Encode.t;
  info : Typecheck.info;
  mode : mode;
  narrow : bool;
  mutable gensym : int;
}

(* Inlining depth of relation calls (see the interface). *)
let unroll = 8

let create ?(mode = Extended) ?(narrow = true) enc info =
  { enc; info; mode; narrow; gensym = 0 }

exception Compile_error of string

let error fmt = Format.kasprintf (fun s -> raise (Compile_error s)) fmt

let effective_deps t (r : Ast.relation) =
  match t.mode with
  | Extended -> Dependency.effective r
  | Standard ->
    Dependency.standard (List.map (fun (d : Ast.domain) -> d.Ast.d_model) r.Ast.r_domains)

(* A variable mapping handles hygienic renaming of inlined callees:
   callee variables are either renamed with a fresh prefix or
   substituted by the caller's argument variables. *)
type vmap = Ident.t -> Ident.t

let id_vmap : vmap = fun v -> v

(* ------------------------------------------------------------------ *)
(* Expressions                                                         *)

let rec compile_oexpr t (env : Typecheck.tyenv) (vmap : vmap) (e : Ast.oexpr) :
    RAst.expr =
  match e with
  | Ast.O_var v -> RAst.Var (vmap v)
  | Ast.O_str s -> Encode.value_atom t.enc (Mdl.Value.Str s)
  | Ast.O_int i -> Encode.value_atom t.enc (Mdl.Value.Int i)
  | Ast.O_bool b -> Encode.value_atom t.enc (Mdl.Value.Bool b)
  | Ast.O_enum l -> Encode.value_atom t.enc (Mdl.Value.Enum l)
  | Ast.O_all (p, c) -> Encode.extent_expr t.enc ~param:p ~cls:c
  | Ast.O_nav (e0, f) -> (
    match Typecheck.infer_in t.info env e0 with
    | Ok (Ast.T_class (p, _)) ->
      RAst.Join (compile_oexpr t env vmap e0, Encode.feature_rel t.enc ~param:p ~feature:f)
    | Ok _ -> error "navigation .%s on non-object expression" (Ident.name f)
    | Error msg -> error "%s" msg)
  | Ast.O_union (a, b) ->
    RAst.Union (compile_oexpr t env vmap a, compile_oexpr t env vmap b)
  | Ast.O_inter (a, b) ->
    RAst.Inter (compile_oexpr t env vmap a, compile_oexpr t env vmap b)
  | Ast.O_diff (a, b) ->
    RAst.Diff (compile_oexpr t env vmap a, compile_oexpr t env vmap b)

(* ------------------------------------------------------------------ *)
(* Patterns                                                            *)

(* Compile a domain template into (variable declarations, constraint,
   narrowings). The declarations pair each bound object variable
   (through vmap) with its extent expression; the constraint is the
   conjunction of the property equations.

   Narrowings record, for each declared (value) variable [v] matched
   by an attribute pattern [x.a = v], the slot expression [x.a]. A
   quantifier for [v] may then range over [x.a] instead of the whole
   type: if [v ∉ x.a] the pattern equation is false anyway, so the
   restriction preserves the semantics while shrinking the grounding
   from |type| to |slot| — this is the natural reading of the
   standard's "for all elements such that πᵢ holds". *)
let compile_template t env vmap ~param (tpl : Ast.template) :
    (Ident.t * RAst.expr) list * RAst.formula * (Ident.t * RAst.expr) list =
  let decls = ref [] and constraints = ref [] and narrowings = ref [] in
  let rec go (tpl : Ast.template) =
    let x = RAst.Var (vmap tpl.Ast.t_var) in
    decls :=
      (vmap tpl.Ast.t_var, Encode.extent_expr t.enc ~param ~cls:tpl.Ast.t_class)
      :: !decls;
    List.iter
      (fun (prop : Ast.property) ->
        let slot =
          RAst.Join (x, Encode.feature_rel t.enc ~param ~feature:prop.Ast.p_feature)
        in
        let mm = Typecheck.metamodel_of_param t.info param in
        let attr =
          Mdl.Metamodel.find_attribute mm tpl.Ast.t_class prop.Ast.p_feature
        in
        match prop.Ast.p_value with
        | Ast.PV_expr e -> (
          let e' = compile_oexpr t env vmap e in
          match attr with
          | Some a ->
            (* Single-valued attribute patterns equate the whole slot
               (the paper's examples); multi-valued attribute patterns
               — like reference patterns — are membership constraints. *)
            let single = a.Mdl.Metamodel.attr_mult.Mdl.Metamodel.upper = Some 1 in
            if single then constraints := RAst.Equal (slot, e') :: !constraints
            else constraints := RAst.Subset (e', slot) :: !constraints;
            (match e with
            | Ast.O_var v -> (
              match Ident.Map.find_opt v env with
              | Some (Ast.T_class _) | None -> ()
              | Some _ -> narrowings := (v, slot) :: !narrowings)
            | _ -> ())
          | None -> constraints := RAst.Subset (e', slot) :: !constraints)
        | Ast.PV_template nested ->
          constraints := RAst.Subset (RAst.Var (vmap nested.Ast.t_var), slot) :: !constraints;
          go nested)
      tpl.Ast.t_props
  in
  go tpl;
  (List.rev !decls, RAst.conj (List.rev !constraints), List.rev !narrowings)

(* ------------------------------------------------------------------ *)
(* Directional compilation                                             *)

(* Variables of a clause list (for the xs/ys split). *)
let preds_vars clauses =
  List.fold_left
    (fun acc (c : Ast.clause) -> Ident.Set.union acc (Ast.pred_vars c.Ast.c_pred))
    Ident.Set.empty clauses

let template_var_set tpl =
  List.fold_left
    (fun acc (v, _) -> Ident.Set.add v acc)
    Ident.Set.empty (Ast.template_vars tpl)

(* Every variable syntactically present in a template's property
   expressions (value variables and referenced object variables). *)
let rec template_used_vars (tpl : Ast.template) acc =
  List.fold_left
    (fun acc (prop : Ast.property) ->
      match prop.Ast.p_value with
      | Ast.PV_expr e -> Ident.Set.union acc (Ast.oexpr_vars e)
      | Ast.PV_template nested -> template_used_vars nested acc)
    acc tpl.Ast.t_props

(* Type-based declaration for a leftover variable (one not bound by a
   source/target pattern in this direction). *)
let type_decl t env vmap v =
  match Ident.Map.find_opt v env with
  | Some ty -> (vmap v, Encode.type_expr t.enc ty)
  | None -> error "variable %s has no declared type" (Ident.name v)

let rec compile_pred t env vmap ~(direction : Ast.dependency) ~depth
    (p : Ast.pred) : RAst.formula =
  let cexp = compile_oexpr t env vmap in
  match p with
  | Ast.P_true -> RAst.True
  | Ast.P_eq (a, b) -> RAst.Equal (cexp a, cexp b)
  | Ast.P_neq (a, b) -> RAst.not_ (RAst.Equal (cexp a, cexp b))
  | Ast.P_in (a, b) -> RAst.Subset (cexp a, cexp b)
  | Ast.P_lt (a, b) -> RAst.Subset (RAst.Product (cexp a, cexp b), Encode.lt_rel)
  | Ast.P_le (a, b) ->
    (* a <= b over singletons: a < b or a = b *)
    RAst.disj
      [
        RAst.Subset (RAst.Product (cexp a, cexp b), Encode.lt_rel);
        RAst.Equal (cexp a, cexp b);
      ]
  | Ast.P_empty a -> RAst.No (cexp a)
  | Ast.P_nonempty a -> RAst.Some_ (cexp a)
  | Ast.P_not q -> RAst.not_ (compile_pred t env vmap ~direction ~depth q)
  | Ast.P_and (a, b) ->
    RAst.conj
      [ compile_pred t env vmap ~direction ~depth a;
        compile_pred t env vmap ~direction ~depth b ]
  | Ast.P_or (a, b) ->
    RAst.disj
      [ compile_pred t env vmap ~direction ~depth a;
        compile_pred t env vmap ~direction ~depth b ]
  | Ast.P_implies (a, b) ->
    RAst.implies
      (compile_pred t env vmap ~direction ~depth a)
      (compile_pred t env vmap ~direction ~depth b)
  | Ast.P_call (callee, args) -> compile_call t vmap ~direction ~depth callee args

and compile_call t vmap ~direction ~depth callee args =
  if depth <= 0 then RAst.False
  else begin
    let trans = Encode.transformation t.enc in
    let s =
      match Ast.find_relation trans callee with
      | Some s -> s
      | None -> error "call to unknown relation %s" (Ident.name callee)
    in
    let dom_s = List.map (fun (d : Ast.domain) -> d.Ast.d_model) s.Ast.r_domains in
    (* Hygienic renaming for the callee's variables, with the roots
       substituted by the caller's (already-mapped) argument
       variables. *)
    t.gensym <- t.gensym + 1;
    let prefix = Printf.sprintf "%s'%d'" (Ident.name callee) t.gensym in
    let n_doms = List.length s.Ast.r_domains in
    let rec split n = function
      | xs when n = 0 -> ([], xs)
      | x :: xs ->
        let a, b = split (n - 1) xs in
        (x :: a, b)
      | [] -> ([], [])
    in
    let dom_args, prim_args = split n_doms args in
    let roots =
      List.map2
        (fun (d : Ast.domain) arg -> (d.Ast.d_template.Ast.t_var, vmap arg))
        s.Ast.r_domains dom_args
      @ List.map2
          (fun (vd : Ast.vardecl) arg -> (vd.Ast.v_name, vmap arg))
          s.Ast.r_prims prim_args
    in
    let callee_vmap v =
      match List.find_opt (fun (r, _) -> Ident.equal r v) roots with
      | Some (_, arg) -> arg
      | None -> Ident.make (prefix ^ Ident.name v)
    in
    let root_set =
      List.fold_left (fun acc (r, _) -> Ident.Set.add r acc) Ident.Set.empty roots
    in
    let in_s m = List.exists (Ident.equal m) dom_s in
    if in_s direction.Ast.dep_target then begin
      (* Projected direction (§2.3). *)
      let projected =
        {
          Ast.dep_sources = List.filter in_s direction.Ast.dep_sources;
          dep_target = direction.Ast.dep_target;
          dep_loc = Loc.none;
        }
      in
      compile_direction t s projected ~vmap:callee_vmap ~bound_roots:root_set
        ~depth:(depth - 1)
    end
    else begin
      (* No target-side domain: check the callee's own directional
         conjunction at the bound roots (all of its models are caller
         sources; type checking guarantees it). *)
      let deps = effective_deps t s in
      RAst.conj
        (List.map
           (fun d ->
             compile_direction t s d ~vmap:callee_vmap ~bound_roots:root_set
               ~depth:(depth - 1))
           deps)
    end
  end

(* The heart of the paper: R_{S->T} =
     ∀ xs | ψ ∧ ⋀_{j∈S} πⱼ  ⇒  ∃ ys | π_T ∧ φ
   [bound_roots] are variables already fixed by an enclosing call —
   they are excluded from the quantifier lists but their extent
   membership is conjoined into the corresponding pattern side. *)
and compile_direction t (r : Ast.relation) (direction : Ast.dependency)
    ~(vmap : vmap) ~(bound_roots : Ident.Set.t) ~depth : RAst.formula =
  let env = Typecheck.tyenv t.info r.Ast.r_name in
  let in_sources m = List.exists (Ident.equal m) direction.Ast.dep_sources in
  let source_domains =
    List.filter (fun (d : Ast.domain) -> in_sources d.Ast.d_model) r.Ast.r_domains
  in
  let target_domain =
    match
      List.find_opt
        (fun (d : Ast.domain) -> Ident.equal d.Ast.d_model direction.Ast.dep_target)
        r.Ast.r_domains
    with
    | Some d -> d
    | None ->
      error "relation %s has no domain over %s" (Ident.name r.Ast.r_name)
        (Ident.name direction.Ast.dep_target)
  in
  (* Compile a domain pattern, turning bound roots' declarations into
     membership constraints. *)
  let compile_domain (d : Ast.domain) =
    let decls, constr, narrowings =
      compile_template t env vmap ~param:d.Ast.d_model d.Ast.d_template
    in
    let bound_names = Ident.Set.map vmap bound_roots in
    let free_decls, bound_decls =
      List.partition (fun (v, _) -> not (Ident.Set.mem v bound_names)) decls
    in
    let membership =
      List.map (fun (v, ext) -> RAst.Subset (RAst.Var v, ext)) bound_decls
    in
    (free_decls, RAst.conj (membership @ [ constr ]), narrowings)
  in
  let src = List.map compile_domain source_domains in
  let src_decls = List.concat_map (fun (d, _, _) -> d) src in
  let src_constr = RAst.conj (List.map (fun (_, c, _) -> c) src) in
  let src_narrowings = List.concat_map (fun (_, _, n) -> n) src in
  let tgt_decls, tgt_constr, tgt_narrowings = compile_domain target_domain in
  let psi =
    RAst.conj
      (List.map (compile_pred t env vmap ~direction ~depth) (Ast.preds r.Ast.r_when))
  in
  let phi =
    RAst.conj
      (List.map (compile_pred t env vmap ~direction ~depth) (Ast.preds r.Ast.r_where))
  in
  (* xs: variables of ψ and the source patterns; ys: variables of the
     target pattern and φ not already in xs. Leftover variables (used
     but bound by neither side's pattern) are declared by type. *)
  let pattern_vars domains =
    List.fold_left
      (fun acc (d : Ast.domain) ->
        Ident.Set.union acc (template_var_set d.Ast.d_template))
      Ident.Set.empty domains
  in
  let xs_vars =
    Ident.Set.union (pattern_vars source_domains) (preds_vars r.Ast.r_when)
  in
  (* Value variables referenced by the source patterns also belong to
     xs. *)
  let xs_vars =
    List.fold_left
      (fun acc (d : Ast.domain) -> template_used_vars d.Ast.d_template acc)
      xs_vars source_domains
  in
  let xs_vars = Ident.Set.diff xs_vars bound_roots in
  let tgt_pattern_vars = template_var_set target_domain.Ast.d_template in
  let tgt_used =
    Ident.Set.union
      (template_used_vars target_domain.Ast.d_template Ident.Set.empty)
      (preds_vars r.Ast.r_where)
  in
  let ys_vars =
    Ident.Set.diff (Ident.Set.union tgt_pattern_vars tgt_used)
      (Ident.Set.union xs_vars bound_roots)
  in
  (* Declarations. Object variables keep their pattern extents and are
     declared first; value variables follow, narrowed to the slot
     expression that matches them when possible (the narrowing depends
     on the earlier object variables — quantifier domains may refer to
     previously bound variables). Everything else falls back to its
     declared type. *)
  let build_decls pattern_decls narrowings vars =
    let obj_decls =
      List.filter (fun (v, _) -> Ident.Set.exists (fun w -> Ident.equal (vmap w) v) vars)
        pattern_decls
    in
    let is_obj v =
      List.exists (fun (v', _) -> Ident.equal v' (vmap v)) pattern_decls
    in
    let value_decls =
      Ident.Set.elements vars
      |> List.filter (fun v -> not (is_obj v))
      |> List.map (fun v ->
             match
               if t.narrow then
                 List.find_opt (fun (w, _) -> Ident.equal w v) narrowings
               else None
             with
             | Some (_, slot) -> (vmap v, slot)
             | None -> type_decl t env vmap v)
    in
    obj_decls @ value_decls
  in
  let xs_decls = build_decls src_decls src_narrowings xs_vars in
  let ys_decls = build_decls tgt_decls tgt_narrowings ys_vars in
  let body =
    RAst.implies
      (RAst.conj [ psi; src_constr ])
      (match ys_decls with
      | [] -> RAst.conj [ tgt_constr; phi ]
      | ys -> RAst.Exists (ys, RAst.conj [ tgt_constr; phi ]))
  in
  match xs_decls with
  | [] -> body
  | xs -> RAst.Forall (xs, body)

(* ------------------------------------------------------------------ *)
(* Public API                                                          *)

(* The match predicate: roots free, everything else existential. A
   pseudo-direction whose target is outside the relation's domains
   makes relation calls compile as "callee holds at these roots". *)
let match_formula t (r : Ast.relation) =
  let env = Typecheck.tyenv t.info r.Ast.r_name in
  let vmap = id_vmap in
  let pseudo =
    {
      Ast.dep_sources = List.map (fun (d : Ast.domain) -> d.Ast.d_model) r.Ast.r_domains;
      dep_target = Ident.make "$trace";
      dep_loc = Loc.none;
    }
  in
  let compiled =
    List.map
      (fun (d : Ast.domain) ->
        compile_template t env vmap ~param:d.Ast.d_model d.Ast.d_template)
      r.Ast.r_domains
  in
  let decls = List.concat_map (fun (d, _, _) -> d) compiled in
  let constr = RAst.conj (List.map (fun (_, c, _) -> c) compiled) in
  let narrowings = List.concat_map (fun (_, _, n) -> n) compiled in
  let preds =
    List.map
      (compile_pred t env vmap ~direction:pseudo ~depth:unroll)
      (Ast.preds (r.Ast.r_when @ r.Ast.r_where))
  in
  let roots =
    List.fold_left
      (fun acc (d : Ast.domain) -> Ident.Set.add d.Ast.d_template.Ast.t_var acc)
      Ident.Set.empty r.Ast.r_domains
  in
  let used =
    List.fold_left
      (fun acc (d : Ast.domain) ->
        Ident.Set.union
          (Ident.Set.union acc (template_var_set d.Ast.d_template))
          (template_used_vars d.Ast.d_template Ident.Set.empty))
      (Ident.Set.union (preds_vars r.Ast.r_when) (preds_vars r.Ast.r_where))
      r.Ast.r_domains
  in
  let quantified = Ident.Set.diff used roots in
  let obj_decls =
    List.filter (fun (v, _) -> Ident.Set.mem v quantified) decls
  in
  let is_obj v = List.exists (fun (v', _) -> Ident.equal v' v) decls in
  let value_decls =
    Ident.Set.elements quantified
    |> List.filter (fun v -> not (is_obj v))
    |> List.map (fun v ->
           match
             if t.narrow then
               List.find_opt (fun (w, _) -> Ident.equal w v) narrowings
             else None
           with
           | Some (_, slot) -> (v, slot)
           | None -> type_decl t env vmap v)
  in
  let body = RAst.conj (constr :: preds) in
  let quantified_decls = obj_decls @ value_decls in
  Relog.Simplify.formula
    (match quantified_decls with
    | [] -> body
    | qs -> RAst.Exists (qs, body))

let direction_formula t r dep =
  compile_direction t r dep ~vmap:id_vmap ~bound_roots:Ident.Set.empty ~depth:unroll
  |> Relog.Simplify.formula

let relation_formulas t r =
  List.map (fun d -> (d, direction_formula t r d)) (effective_deps t r)

let top_formulas t =
  let trans = Encode.transformation t.enc in
  List.concat_map
    (fun (r : Ast.relation) ->
      if r.Ast.r_top then
        List.map (fun (d, f) -> (r, d, f)) (relation_formulas t r)
      else [])
    trans.Ast.t_relations

let consistency_formula t =
  RAst.conj (List.map (fun (_, _, f) -> f) (top_formulas t))

let directional_consistency t ~target =
  RAst.conj
    (List.filter_map
       (fun (_, (d : Ast.dependency), f) ->
         if Ident.equal d.Ast.dep_target target then Some f else None)
       (top_formulas t))
