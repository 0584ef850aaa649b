type t = {
  solver : Solver.t;
  mutable relax : (Lit.t * int) list;  (* relaxation literal, weight *)
  mutable model : bool array;  (* snapshot of the best model found *)
  (* Clause accounting. [Solver.nb_clauses] counts every clause in the
     database, including the relaxed soft clauses and the totalizer
     clauses added during [solve]; these explicit counters keep the
     hard/soft/auxiliary split exact across repeated solves. *)
  mutable soft_clauses : int;  (* database clauses added by [add_soft] *)
  mutable aux_clauses : int;  (* totalizer clauses added by [solve] *)
  mutable aux_vars : int;  (* totalizer variables added by [solve] *)
  mutable saved_vars : int;  (* avoided by the k-bounded truncation *)
  mutable saved_clauses : int;
}

let create () =
  {
    solver = Solver.create ();
    relax = [];
    model = [||];
    soft_clauses = 0;
    aux_clauses = 0;
    aux_vars = 0;
    saved_vars = 0;
    saved_clauses = 0;
  }

let solver t = t.solver
let new_var t = Solver.new_var t.solver
let add_hard t lits = Solver.add_clause t.solver lits

let add_soft t ~weight lits =
  if weight <= 0 then invalid_arg "Maxsat.add_soft: weight must be positive";
  let r = Lit.pos (Solver.new_var t.solver) in
  let clauses0 = Solver.nb_clauses t.solver in
  Solver.add_clause t.solver (r :: lits);
  t.soft_clauses <- t.soft_clauses + (Solver.nb_clauses t.solver - clauses0);
  t.relax <- (r, weight) :: t.relax

type outcome =
  | Optimum of int
  | Hard_unsat

let snapshot t =
  t.model <-
    Array.init (Solver.nb_vars t.solver) (fun v -> Solver.value t.solver v)

(* Cost of the snapshot: total weight of true relaxation literals.
   This upper-bounds the true cost (the solver may set a relaxation
   variable even when its clause is satisfied), which is all the
   downward search needs. *)
let snapshot_cost t =
  List.fold_left
    (fun acc (r, w) -> if t.model.(Lit.var r) then acc + w else acc)
    0 t.relax

let solve t =
  match Solver.solve t.solver with
  | Solver.Unsat -> Hard_unsat
  | Solver.Sat ->
    snapshot t;
    let cost0 = snapshot_cost t in
    if t.relax = [] || cost0 = 0 then Optimum 0
    else begin
      (* Weighted inputs expand into [weight] copies, so totalizer
         outputs count total weight. The descent only ever probes
         bounds below the initial cost, so the totalizer can be
         k-bounded there — a large saving when the first model is
         already near-optimal. *)
      let inputs =
        List.concat_map (fun (r, w) -> List.init w (fun _ -> r)) t.relax
      in
      let card = Cardinality.build ~cap:(cost0 - 1) t.solver inputs in
      t.aux_clauses <- t.aux_clauses + Cardinality.aux_clauses card;
      t.aux_vars <- t.aux_vars + Cardinality.aux_vars card;
      t.saved_vars <- t.saved_vars + Cardinality.saved_vars card;
      t.saved_clauses <- t.saved_clauses + Cardinality.saved_clauses card;
      (* SAT-driven descent from the initial model's cost: each SAT
         tightens the bound, the final UNSAT proves optimality. *)
      let rec descend best =
        if best = 0 then Optimum 0
        else
          match
            Solver.solve ~assumptions:(Cardinality.at_most card (best - 1)) t.solver
          with
          | Solver.Unsat -> Optimum best
          | Solver.Sat ->
            snapshot t;
            let cost = snapshot_cost t in
            descend (min cost (best - 1))
      in
      descend cost0
    end

let value t v = v < Array.length t.model && t.model.(v)
let hard_count t = Solver.nb_clauses t.solver - t.soft_clauses - t.aux_clauses

type clause_counts = {
  hard : int;
  soft : int;
  aux : int;
  aux_vars : int;
  saved_vars : int;
  saved_clauses : int;
}

let clause_counts t =
  {
    hard = hard_count t;
    soft = t.soft_clauses;
    aux = t.aux_clauses;
    aux_vars = t.aux_vars;
    saved_vars = t.saved_vars;
    saved_clauses = t.saved_clauses;
  }
