module Ident = Mdl.Ident

type expr = {
  e_id : int;
  e_view : expr_view;
  e_free_vars : Ident.Set.t;
}

and expr_view =
  | Rel of Ident.t
  | Var of Ident.t
  | Atom of Ident.t
  | Univ
  | Iden
  | None_
  | Union of expr * expr
  | Inter of expr * expr
  | Diff of expr * expr
  | Join of expr * expr
  | Product of expr * expr
  | Transpose of expr
  | Closure of expr
  | RClosure of expr

type formula = {
  f_id : int;
  f_view : formula_view;
  f_free_vars : Ident.Set.t;
}

and formula_view =
  | True
  | False
  | Subset of expr * expr
  | Equal of expr * expr
  | Some_ of expr
  | No of expr
  | Lone of expr
  | One of expr
  | Not of formula
  | And of formula list
  | Or of formula list
  | Implies of formula * formula
  | Iff of formula * formula
  | Forall of (Ident.t * expr) list * formula
  | Exists of (Ident.t * expr) list * formula

(* Structural keys over child ids: two nodes get the same key iff
   their views are equal given that children are already interned.
   Ident tags are the intern ids of Mdl.Ident, so they identify the
   ident. *)
type ekey =
  | EK_leaf of int * int  (* constructor code, ident tag (0 if none) *)
  | EK_un of int * int  (* constructor code, child id *)
  | EK_bin of int * int * int

type fkey =
  | FK_const of bool
  | FK_cmp of int * int * int  (* code, expr id, expr id *)
  | FK_mult of int * int  (* code, expr id *)
  | FK_not of int
  | FK_list of int * int list  (* code, formula ids *)
  | FK_bin of int * int * int  (* code, formula id, formula id *)
  | FK_quant of int * (int * int) list * int
      (* code, (var tag, domain id) decls, body id *)

type store = {
  mutable next : int;  (* shared id counter for exprs and formulas *)
  e_tbl : (ekey, expr) Hashtbl.t;
  f_tbl : (fkey, formula) Hashtbl.t;
  sfm : (int * bool, formula) Hashtbl.t;
  sem : (int, expr) Hashtbl.t;
}

let store () =
  {
    next = 0;
    e_tbl = Hashtbl.create 1024;
    f_tbl = Hashtbl.create 1024;
    sfm = Hashtbl.create 256;
    sem = Hashtbl.create 256;
  }

let simp_formula_memo st = st.sfm
let simp_expr_memo st = st.sem
let nodes st = st.next

let fresh_id st =
  let id = st.next in
  st.next <- id + 1;
  id

(* ------------------------------------------------------------------ *)
(* Expressions                                                         *)

let ekey (v : expr_view) : ekey =
  match v with
  | Rel r -> EK_leaf (0, Ident.hash r)
  | Var x -> EK_leaf (1, Ident.hash x)
  | Atom a -> EK_leaf (2, Ident.hash a)
  | Univ -> EK_leaf (3, 0)
  | Iden -> EK_leaf (4, 0)
  | None_ -> EK_leaf (5, 0)
  | Union (a, b) -> EK_bin (6, a.e_id, b.e_id)
  | Inter (a, b) -> EK_bin (7, a.e_id, b.e_id)
  | Diff (a, b) -> EK_bin (8, a.e_id, b.e_id)
  | Join (a, b) -> EK_bin (9, a.e_id, b.e_id)
  | Product (a, b) -> EK_bin (10, a.e_id, b.e_id)
  | Transpose a -> EK_un (11, a.e_id)
  | Closure a -> EK_un (12, a.e_id)
  | RClosure a -> EK_un (13, a.e_id)

let intern_e st (v : expr_view) : expr =
  let key = ekey v in
  match Hashtbl.find_opt st.e_tbl key with
  | Some e -> e
  | None ->
    let fv =
      match v with
      | Var x -> Ident.Set.singleton x
      | Rel _ | Atom _ | None_ | Univ | Iden -> Ident.Set.empty
      | Union (a, b) | Inter (a, b) | Diff (a, b) | Join (a, b) | Product (a, b)
        ->
        Ident.Set.union a.e_free_vars b.e_free_vars
      | Transpose a | Closure a | RClosure a -> a.e_free_vars
    in
    let e = { e_id = fresh_id st; e_view = v; e_free_vars = fv } in
    Hashtbl.add st.e_tbl key e;
    e

let rel st r = intern_e st (Rel r)
let var st x = intern_e st (Var x)
let atom st a = intern_e st (Atom a)
let univ st = intern_e st Univ
let iden st = intern_e st Iden
let none st = intern_e st None_
let union st a b = intern_e st (Union (a, b))
let inter st a b = intern_e st (Inter (a, b))
let diff st a b = intern_e st (Diff (a, b))
let join st a b = intern_e st (Join (a, b))
let product st a b = intern_e st (Product (a, b))
let transpose st a = intern_e st (Transpose a)
let closure st a = intern_e st (Closure a)
let rclosure st a = intern_e st (RClosure a)

(* ------------------------------------------------------------------ *)
(* Formulas                                                            *)

let fkey (v : formula_view) : fkey =
  match v with
  | True -> FK_const true
  | False -> FK_const false
  | Subset (a, b) -> FK_cmp (0, a.e_id, b.e_id)
  | Equal (a, b) -> FK_cmp (1, a.e_id, b.e_id)
  | Some_ a -> FK_mult (0, a.e_id)
  | No a -> FK_mult (1, a.e_id)
  | Lone a -> FK_mult (2, a.e_id)
  | One a -> FK_mult (3, a.e_id)
  | Not f -> FK_not f.f_id
  | And fs -> FK_list (0, List.map (fun f -> f.f_id) fs)
  | Or fs -> FK_list (1, List.map (fun f -> f.f_id) fs)
  | Implies (a, b) -> FK_bin (0, a.f_id, b.f_id)
  | Iff (a, b) -> FK_bin (1, a.f_id, b.f_id)
  | Forall (decls, f) ->
    FK_quant (0, List.map (fun (x, d) -> (Ident.hash x, d.e_id)) decls, f.f_id)
  | Exists (decls, f) ->
    FK_quant (1, List.map (fun (x, d) -> (Ident.hash x, d.e_id)) decls, f.f_id)

(* Free variables of a quantifier mirror Ast.fv_formula: domains may
   mention earlier variables of the same block. *)
let quant_free decls (body : formula) =
  let bound, acc =
    List.fold_left
      (fun (bound, acc) (x, d) ->
        let acc = Ident.Set.union acc (Ident.Set.diff d.e_free_vars bound) in
        (Ident.Set.add x bound, acc))
      (Ident.Set.empty, Ident.Set.empty)
      decls
  in
  Ident.Set.union acc (Ident.Set.diff body.f_free_vars bound)

let intern_f st (v : formula_view) : formula =
  let key = fkey v in
  match Hashtbl.find_opt st.f_tbl key with
  | Some f -> f
  | None ->
    let fv =
      match v with
      | True | False -> Ident.Set.empty
      | Subset (a, b) | Equal (a, b) -> Ident.Set.union a.e_free_vars b.e_free_vars
      | Some_ a | No a | Lone a | One a -> a.e_free_vars
      | Not f -> f.f_free_vars
      | And fs | Or fs ->
        List.fold_left (fun fv f -> Ident.Set.union fv f.f_free_vars) Ident.Set.empty fs
      | Implies (a, b) | Iff (a, b) -> Ident.Set.union a.f_free_vars b.f_free_vars
      | Forall (decls, f) | Exists (decls, f) -> quant_free decls f
    in
    let f = { f_id = fresh_id st; f_view = v; f_free_vars = fv } in
    Hashtbl.add st.f_tbl key f;
    f

let true_ st = intern_f st True
let false_ st = intern_f st False
let subset st a b = intern_f st (Subset (a, b))
let equal st a b = intern_f st (Equal (a, b))
let some st a = intern_f st (Some_ a)
let no st a = intern_f st (No a)
let lone st a = intern_f st (Lone a)
let one st a = intern_f st (One a)
let iff_ st a b = intern_f st (Iff (a, b))
let forall st decls f = match decls with [] -> f | _ -> intern_f st (Forall (decls, f))
let exists st decls f = match decls with [] -> f | _ -> intern_f st (Exists (decls, f))

(* Smart constructors mirroring Ast.conj / Ast.disj / Ast.implies /
   Ast.not_ — hash-consing turns their structural comparisons into id
   comparisons. *)
let conj st fs =
  let fs =
    List.concat_map
      (fun f -> match f.f_view with And gs -> gs | True -> [] | _ -> [ f ])
      fs
  in
  if List.exists (fun f -> f.f_view = False) fs then false_ st
  else match fs with [] -> true_ st | [ f ] -> f | fs -> intern_f st (And fs)

let disj st fs =
  let fs =
    List.concat_map
      (fun f -> match f.f_view with Or gs -> gs | False -> [] | _ -> [ f ])
      fs
  in
  if List.exists (fun f -> f.f_view = True) fs then true_ st
  else match fs with [] -> false_ st | [ f ] -> f | fs -> intern_f st (Or fs)

let not_ st f =
  match f.f_view with
  | True -> false_ st
  | False -> true_ st
  | Not g -> g
  | _ -> intern_f st (Not f)

let implies_ st a b =
  match (a.f_view, b.f_view) with
  | True, _ -> b
  | False, _ -> true_ st
  | _, True -> true_ st
  | _, False -> not_ st a
  | _ -> intern_f st (Implies (a, b))

(* ------------------------------------------------------------------ *)
(* Import / export — exact 1:1 view mappings                           *)

let rec expr_of_ast st (e : Ast.expr) : expr =
  match e with
  | Ast.Rel r -> rel st r
  | Ast.Var x -> var st x
  | Ast.Atom a -> atom st a
  | Ast.Univ -> univ st
  | Ast.Iden -> iden st
  | Ast.None_ -> none st
  | Ast.Union (a, b) -> union st (expr_of_ast st a) (expr_of_ast st b)
  | Ast.Inter (a, b) -> inter st (expr_of_ast st a) (expr_of_ast st b)
  | Ast.Diff (a, b) -> diff st (expr_of_ast st a) (expr_of_ast st b)
  | Ast.Join (a, b) -> join st (expr_of_ast st a) (expr_of_ast st b)
  | Ast.Product (a, b) -> product st (expr_of_ast st a) (expr_of_ast st b)
  | Ast.Transpose a -> transpose st (expr_of_ast st a)
  | Ast.Closure a -> closure st (expr_of_ast st a)
  | Ast.RClosure a -> rclosure st (expr_of_ast st a)

let rec of_ast st (f : Ast.formula) : formula =
  match f with
  | Ast.True -> true_ st
  | Ast.False -> false_ st
  | Ast.Subset (a, b) -> subset st (expr_of_ast st a) (expr_of_ast st b)
  | Ast.Equal (a, b) -> equal st (expr_of_ast st a) (expr_of_ast st b)
  | Ast.Some_ a -> some st (expr_of_ast st a)
  | Ast.No a -> no st (expr_of_ast st a)
  | Ast.Lone a -> lone st (expr_of_ast st a)
  | Ast.One a -> one st (expr_of_ast st a)
  | Ast.Not g -> intern_f st (Not (of_ast st g))
  | Ast.And fs -> intern_f st (And (List.map (of_ast st) fs))
  | Ast.Or fs -> intern_f st (Or (List.map (of_ast st) fs))
  | Ast.Implies (a, b) -> intern_f st (Implies (of_ast st a, of_ast st b))
  | Ast.Iff (a, b) -> iff_ st (of_ast st a) (of_ast st b)
  | Ast.Forall (decls, g) ->
    intern_f st
      (Forall (List.map (fun (x, d) -> (x, expr_of_ast st d)) decls, of_ast st g))
  | Ast.Exists (decls, g) ->
    intern_f st
      (Exists (List.map (fun (x, d) -> (x, expr_of_ast st d)) decls, of_ast st g))

(* Export memoizes shared nodes into shared OCaml values, so it is
   linear in the DAG, not the unfolded tree. The tables are per call:
   exports are rare (tests, pretty-printing paths). *)
let expr_to_ast_memo (memo : (int, Ast.expr) Hashtbl.t) =
  let rec go (e : expr) : Ast.expr =
    match Hashtbl.find_opt memo e.e_id with
    | Some a -> a
    | None ->
      let a =
        match e.e_view with
        | Rel r -> Ast.Rel r
        | Var x -> Ast.Var x
        | Atom a -> Ast.Atom a
        | Univ -> Ast.Univ
        | Iden -> Ast.Iden
        | None_ -> Ast.None_
        | Union (a, b) -> Ast.Union (go a, go b)
        | Inter (a, b) -> Ast.Inter (go a, go b)
        | Diff (a, b) -> Ast.Diff (go a, go b)
        | Join (a, b) -> Ast.Join (go a, go b)
        | Product (a, b) -> Ast.Product (go a, go b)
        | Transpose a -> Ast.Transpose (go a)
        | Closure a -> Ast.Closure (go a)
        | RClosure a -> Ast.RClosure (go a)
      in
      Hashtbl.add memo e.e_id a;
      a
  in
  go

let expr_to_ast e = expr_to_ast_memo (Hashtbl.create 64) e

let to_ast (f : formula) : Ast.formula =
  let ememo = Hashtbl.create 64 in
  let fmemo : (int, Ast.formula) Hashtbl.t = Hashtbl.create 64 in
  let goe = expr_to_ast_memo ememo in
  let rec go (f : formula) : Ast.formula =
    match Hashtbl.find_opt fmemo f.f_id with
    | Some a -> a
    | None ->
      let a =
        match f.f_view with
        | True -> Ast.True
        | False -> Ast.False
        | Subset (a, b) -> Ast.Subset (goe a, goe b)
        | Equal (a, b) -> Ast.Equal (goe a, goe b)
        | Some_ a -> Ast.Some_ (goe a)
        | No a -> Ast.No (goe a)
        | Lone a -> Ast.Lone (goe a)
        | One a -> Ast.One (goe a)
        | Not g -> Ast.Not (go g)
        | And fs -> Ast.And (List.map go fs)
        | Or fs -> Ast.Or (List.map go fs)
        | Implies (a, b) -> Ast.Implies (go a, go b)
        | Iff (a, b) -> Ast.Iff (go a, go b)
        | Forall (decls, g) ->
          Ast.Forall (List.map (fun (x, d) -> (x, goe d)) decls, go g)
        | Exists (decls, g) ->
          Ast.Exists (List.map (fun (x, d) -> (x, goe d)) decls, go g)
      in
      Hashtbl.add fmemo f.f_id a;
      a
  in
  go f
