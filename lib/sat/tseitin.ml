type ctx = {
  solver : Solver.t;
  (* circuit node id -> definition literal, -1 where none yet; node
     ids are dense from 0 within a builder *)
  mutable cache : Lit.t array;
  mutable true_lit : Lit.t option;  (* lazily created constant *)
}

let create solver = { solver; cache = Array.make 256 (-1); true_lit = None }
let solver ctx = ctx.solver

let cached ctx id = if id < Array.length ctx.cache then ctx.cache.(id) else -1

let remember ctx id l =
  let n = Array.length ctx.cache in
  if id >= n then begin
    let cache = Array.make (max (id + 1) (2 * n)) (-1) in
    Array.blit ctx.cache 0 cache 0 n;
    ctx.cache <- cache
  end;
  ctx.cache.(id) <- l

let constant_true ctx =
  match ctx.true_lit with
  | Some l -> l
  | None ->
    let v = Solver.new_var ctx.solver in
    let l = Lit.pos v in
    Solver.add_clause_array ctx.solver [| l |];
    ctx.true_lit <- Some l;
    l

(* [head] followed by [f] of every literal of [ls]: the long clause of
   a gate definition. *)
let gate head f ls =
  let n = Array.length ls in
  let a = Array.make (n + 1) head in
  for i = 0 to n - 1 do
    a.(i + 1) <- f ls.(i)
  done;
  a

let rec lit_of ctx node =
  let id = Circuit.id node in
  let l = cached ctx id in
  if l >= 0 then l
  else begin
    let l =
      match Circuit.view node with
      | Circuit.True -> constant_true ctx
      | Circuit.False -> Lit.neg (constant_true ctx)
      | Circuit.Input l -> l
      | Circuit.Not n -> Lit.neg (lit_of ctx n)
      | Circuit.And children ->
        let ls = Array.map (lit_of ctx) children in
        let g = Lit.pos (Solver.new_var ctx.solver) in
        (* g -> c_i *)
        Array.iter (fun c -> Solver.add_clause_array ctx.solver [| Lit.neg g; c |]) ls;
        (* /\ c_i -> g *)
        Solver.add_clause_array ctx.solver (gate g Lit.neg ls);
        g
      | Circuit.Or children ->
        let ls = Array.map (lit_of ctx) children in
        let g = Lit.pos (Solver.new_var ctx.solver) in
        (* c_i -> g *)
        Array.iter (fun c -> Solver.add_clause_array ctx.solver [| Lit.neg c; g |]) ls;
        (* g -> \/ c_i *)
        Solver.add_clause_array ctx.solver (gate (Lit.neg g) Fun.id ls);
        g
    in
    remember ctx id l;
    l
  end

let rec assert_true ctx node =
  match Circuit.view node with
  | Circuit.True -> ()
  | Circuit.False -> Solver.add_clause_array ctx.solver [||]
  | Circuit.Input l -> Solver.add_clause_array ctx.solver [| l |]
  | Circuit.Not n -> assert_false ctx n
  | Circuit.And children -> Array.iter (assert_true ctx) children
  | Circuit.Or children ->
    Solver.add_clause_array ctx.solver (Array.map (lit_of ctx) children)

and assert_false ctx node =
  match Circuit.view node with
  | Circuit.True -> Solver.add_clause_array ctx.solver [||]
  | Circuit.False -> ()
  | Circuit.Input l -> Solver.add_clause_array ctx.solver [| Lit.neg l |]
  | Circuit.Not n -> assert_true ctx n
  | Circuit.Or children -> Array.iter (assert_false ctx) children
  | Circuit.And children ->
    Solver.add_clause_array ctx.solver
      (Array.map (fun c -> Lit.neg (lit_of ctx c)) children)
