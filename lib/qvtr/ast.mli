(** Abstract syntax of QVT-R transformations, restricted to the
    relational fragment the paper works with, plus the paper's
    extension: per-relation {e checking dependencies}.

    A transformation declares typed model parameters and a set of
    relations; each relation has one domain pattern per model
    parameter it constrains, optional [when]/[where] predicates, and —
    our extension — an optional [dependencies { S -> T; ... }] block
    (paper §2.2). An empty block means the standard QVT-R semantics
    (every model checked against all the others), which by the paper's
    conservativity remark equals attaching the full dependency set.

    Declaration-level nodes (parameters, variable declarations,
    domains, templates, properties, clauses, dependencies, relations)
    carry {!Loc.t} source spans, stamped by {!Parser} and defaulting to
    {!Loc.none} in programmatic ASTs; {!strip_locs} erases them for
    structural comparison. *)

type var_type =
  | T_string
  | T_int
  | T_bool
  | T_enum of Mdl.Ident.t
  | T_class of Mdl.Ident.t * Mdl.Ident.t  (** (model parameter, class) *)

(** OCL-lite expressions. Expressions denote sets of values/objects;
    literals and variables are singletons, navigation is set-valued. *)
type oexpr =
  | O_var of Mdl.Ident.t
  | O_str of string
  | O_int of int
  | O_bool of bool
  | O_enum of Mdl.Ident.t  (** enum literal *)
  | O_nav of oexpr * Mdl.Ident.t  (** [e.f]: attribute or reference navigation *)
  | O_all of Mdl.Ident.t * Mdl.Ident.t
      (** [Class@model]: all instances of the class in a model
          parameter (OCL [allInstances]) *)
  | O_union of oexpr * oexpr
  | O_inter of oexpr * oexpr
  | O_diff of oexpr * oexpr

(** Predicates for [when] / [where] clauses. *)
type pred =
  | P_true
  | P_eq of oexpr * oexpr  (** set equality (on singletons: value equality) *)
  | P_neq of oexpr * oexpr
  | P_in of oexpr * oexpr  (** inclusion *)
  | P_lt of oexpr * oexpr
      (** integer comparison — both sides singleton integers; bounded
          to the integer atoms of the universe *)
  | P_le of oexpr * oexpr
  | P_empty of oexpr
  | P_nonempty of oexpr
  | P_not of pred
  | P_and of pred * pred
  | P_or of pred * pred
  | P_implies of pred * pred
  | P_call of Mdl.Ident.t * Mdl.Ident.t list
      (** relation invocation: callee name, argument variables (one per
          callee domain, positional) *)

(** A located [when]/[where] conjunct. *)
type clause = {
  c_pred : pred;
  c_loc : Loc.t;
}

(** A property constraint inside an object template. *)
type property = {
  p_feature : Mdl.Ident.t;
  p_value : pvalue;
  p_loc : Loc.t;
}

and pvalue =
  | PV_expr of oexpr
      (** [feature = e] — for attributes: slot equals the (singleton)
          value; for references: the object [e] is among the targets *)
  | PV_template of template  (** [feature = obj (...)] — nested pattern *)

and template = {
  t_var : Mdl.Ident.t;
  t_class : Mdl.Ident.t;
  t_props : property list;
  t_loc : Loc.t;
}

type domain = {
  d_model : Mdl.Ident.t;  (** model parameter this domain constrains *)
  d_template : template;
  d_enforceable : bool;  (** [enforce] vs [checkonly] marker (informational) *)
  d_loc : Loc.t;
}

(** A checking dependency [S -> T] (paper §2.2): the model conforming
    to [T] depends on the models in [S]. *)
type dependency = {
  dep_sources : Mdl.Ident.t list;
  dep_target : Mdl.Ident.t;
  dep_loc : Loc.t;
}

(** A declared (or primitive-domain) variable. *)
type vardecl = {
  v_name : Mdl.Ident.t;
  v_type : var_type;
  v_loc : Loc.t;
}

type relation = {
  r_name : Mdl.Ident.t;
  r_top : bool;
  r_vars : vardecl list;  (** declared shared variables *)
  r_prims : vardecl list;
      (** primitive domains (QVT-R spec): value parameters supplied by
          callers after the model-domain root arguments; non-top
          relations only *)
  r_domains : domain list;
  r_when : clause list;  (** conjunction; [] = true *)
  r_where : clause list;
  r_deps : dependency list;  (** [] = standard semantics *)
  r_loc : Loc.t;
}

(** A transformation model parameter [name : Metamodel]. *)
type param = {
  par_name : Mdl.Ident.t;
  par_mm : Mdl.Ident.t;  (** metamodel name *)
  par_loc : Loc.t;
}

type transformation = {
  t_name : Mdl.Ident.t;
  t_params : param list;
  t_relations : relation list;
  t_loc : Loc.t;
}

val clause : ?loc:Loc.t -> pred -> clause
val clauses : pred list -> clause list
(** Wrap bare predicates with {!Loc.none} (programmatic ASTs). *)

val preds : clause list -> pred list
(** Forget locations. *)

val find_relation : transformation -> Mdl.Ident.t -> relation option
val find_param : transformation -> Mdl.Ident.t -> param option

val param_names : transformation -> Mdl.Ident.t list
(** The model parameters' names, in declaration order. *)

val domain_for : relation -> Mdl.Ident.t -> domain option
(** The relation's domain over a given model parameter. *)

val template_vars : template -> (Mdl.Ident.t * Mdl.Ident.t) list
(** All object variables bound by a template (root and nested), with
    their classes, in binding order. *)

val template_templates : template -> template list
(** The template and all nested templates, outermost first. *)

val pred_vars : pred -> Mdl.Ident.Set.t
(** Variables mentioned by a predicate. *)

val oexpr_vars : oexpr -> Mdl.Ident.Set.t

val pred_calls : pred -> Mdl.Ident.t list
(** Names of relations invoked in a predicate, in syntactic order. *)

val strip_locs : transformation -> transformation
(** Replace every location by {!Loc.none}; use before structural
    comparison of a parsed AST against a programmatic or re-parsed
    one. *)

val pp_oexpr : Format.formatter -> oexpr -> unit
val pp_pred : Format.formatter -> pred -> unit
val pp_dependency : Format.formatter -> dependency -> unit
val pp_relation : Format.formatter -> relation -> unit
val pp_transformation : Format.formatter -> transformation -> unit
