type t = {
  inputs : int;
  outputs : Lit.t array;  (* outputs.(k-1) = o_k; length = inputs *)
  aux_vars : int;  (* solver variables allocated by [build] *)
  aux_clauses : int;  (* solver clauses added by [build] *)
}

(* Merge two sorted unary counters [a] and [b] into [r], adding the
   upper-bound clauses  a_i ∧ b_j → r_{i+j}  (with the i=0 / j=0
   degenerate cases a_i → r_i and b_j → r_j). *)
let merge solver a b =
  let na = Array.length a and nb = Array.length b in
  let r = Array.init (na + nb) (fun _ -> Lit.pos (Solver.new_var solver)) in
  for i = 0 to na - 1 do
    Solver.add_clause_array solver [| Lit.neg a.(i); r.(i) |]
  done;
  for j = 0 to nb - 1 do
    Solver.add_clause_array solver [| Lit.neg b.(j); r.(j) |]
  done;
  for i = 0 to na - 1 do
    for j = 0 to nb - 1 do
      Solver.add_clause_array solver [| Lit.neg a.(i); Lit.neg b.(j); r.(i + j + 1) |]
    done
  done;
  r

let rec totalize solver inputs =
  match Array.length inputs with
  | 0 -> [||]
  | 1 -> inputs
  | n ->
    let mid = n / 2 in
    let left = totalize solver (Array.sub inputs 0 mid) in
    let right = totalize solver (Array.sub inputs mid (n - mid)) in
    merge solver left right

let build solver lits =
  let inputs = Array.of_list lits in
  let vars0 = Solver.nb_vars solver and clauses0 = Solver.nb_clauses solver in
  let outputs = totalize solver inputs in
  {
    inputs = Array.length inputs;
    outputs;
    aux_vars = Solver.nb_vars solver - vars0;
    aux_clauses = Solver.nb_clauses solver - clauses0;
  }

let aux_vars t = t.aux_vars
let aux_clauses t = t.aux_clauses

let at_most t k =
  if k < 0 then invalid_arg "Cardinality.at_most: negative bound";
  if k >= t.inputs then [] else [ Lit.neg t.outputs.(k) ]
