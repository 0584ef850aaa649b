type t = {
  inputs : int;
  outputs : Lit.t array;  (* outputs.(k-1) = o_k; length = min (inputs, cap+1) *)
  cap : int;  (* largest bound the encoding can express *)
  aux_vars : int;  (* solver variables allocated by [build] *)
  aux_clauses : int;  (* solver clauses added by [build] *)
  saved_vars : int;  (* variables avoided w.r.t. the full-width build *)
  saved_clauses : int;
}

(* Merge two sorted unary counters [a] and [b] into [r], adding the
   upper-bound clauses  a_i ∧ b_j → r_{i+j}  (with the i=0 / j=0
   degenerate cases a_i → r_i and b_j → r_j).

   With a width cap [w] (k-bounded totalizer), [r] is truncated to its
   first [w] outputs and every pair summing past the top is dropped:
   counts beyond the cap need not be distinguished, only detected, and
   a smaller kept pair already detects them. Completeness of the
   truncated encoding (by induction over the tree): a node whose
   children force their first fa and fb outputs unit-propagates every
   output up to min(fa+fb, w) — index m < min(fa+fb, w) is hit by a
   row clause (m < fa or m < fb) or by the kept pair (i, j) with
   i + j + 1 = m, i < fa, j < fb. In particular the top output r_{w-1}
   fires whenever fa + fb >= w, so overflowing counts still refute
   every expressible bound. *)
let merge ~width solver a b =
  let na = Array.length a and nb = Array.length b in
  let w = min (na + nb) width in
  let r = Array.init w (fun _ -> Lit.pos (Solver.new_var solver)) in
  for i = 0 to na - 1 do
    Solver.add_clause_array solver [| Lit.neg a.(i); r.(i) |]
  done;
  for j = 0 to nb - 1 do
    Solver.add_clause_array solver [| Lit.neg b.(j); r.(j) |]
  done;
  for i = 0 to na - 1 do
    (* pairs with i + j + 1 >= w are dropped *)
    for j = 0 to min (nb - 1) (w - i - 2) do
      Solver.add_clause_array solver [| Lit.neg a.(i); Lit.neg b.(j); r.(i + j + 1) |]
    done
  done;
  r

let rec totalize ~width solver inputs =
  match Array.length inputs with
  | 0 -> [||]
  | 1 -> inputs
  | n ->
    let mid = n / 2 in
    let left = totalize ~width solver (Array.sub inputs 0 mid) in
    let right = totalize ~width solver (Array.sub inputs mid (n - mid)) in
    merge ~width solver left right

(* Variable/clause cost of the uncapped build, for the savings
   telemetry. Mirrors the [totalize] recursion exactly. *)
let rec full_cost n =
  if n <= 1 then (0, 0)
  else begin
    let mid = n / 2 in
    let va, ca = full_cost mid in
    let vb, cb = full_cost (n - mid) in
    (va + vb + n, ca + cb + n + (mid * (n - mid)))
  end

let build ?cap solver lits =
  let inputs = Array.of_list lits in
  let n = Array.length inputs in
  let cap = match cap with None -> max 0 (n - 1) | Some c -> c in
  if cap < 0 then invalid_arg "Cardinality.build: negative cap";
  let width = min n (cap + 1) in
  let vars0 = Solver.nb_vars solver and clauses0 = Solver.nb_clauses solver in
  let outputs = totalize ~width:(max 1 width) solver inputs in
  let aux_vars = Solver.nb_vars solver - vars0 in
  let aux_clauses = Solver.nb_clauses solver - clauses0 in
  let full_vars, full_clauses = full_cost n in
  {
    inputs = n;
    outputs;
    cap;
    aux_vars;
    aux_clauses;
    saved_vars = max 0 (full_vars - aux_vars);
    saved_clauses = max 0 (full_clauses - aux_clauses);
  }

let count t = t.inputs
let cap t = t.cap
let aux_vars t = t.aux_vars
let aux_clauses t = t.aux_clauses
let saved_vars t = t.saved_vars
let saved_clauses t = t.saved_clauses

let output t k =
  if k < 1 || k > Array.length t.outputs then
    invalid_arg "Cardinality.output: index out of range (truncated at cap + 1)";
  t.outputs.(k - 1)

let at_most t k =
  if k < 0 then invalid_arg "Cardinality.at_most: negative bound";
  if k >= t.inputs then []
  else if k > t.cap then invalid_arg "Cardinality.at_most: bound exceeds build cap"
  else [ Lit.neg t.outputs.(k) ]

let assert_at_most solver t k =
  if k < 0 then invalid_arg "Cardinality.assert_at_most: negative bound";
  if k < t.inputs then begin
    if k > t.cap then invalid_arg "Cardinality.assert_at_most: bound exceeds build cap";
    for j = k to Array.length t.outputs - 1 do
      Solver.add_clause_array solver [| Lit.neg t.outputs.(j) |]
    done
  end
