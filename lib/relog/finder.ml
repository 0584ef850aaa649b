type t = {
  trans : Translate.t;
  mutable last : Sat.Lit.t array option;
      (* the last model's primaries, each negated: its blocking
         clause *)
  (* telemetry; only the domain that owns the finder writes them *)
  mutable solve_s : float;
  mutable n_solves : int;
}

let solver t = Translate.solver t.trans

let create bnds =
  let trans = Translate.create bnds in
  List.iter (Translate.materialize trans) (Bounds.relations bnds);
  { trans; last = None; solve_s = 0.0; n_solves = 0 }

let prepare bnds formulas =
  let t = create bnds in
  List.iter (Translate.assert_formula t.trans) formulas;
  t

let guard t f = Translate.formula_lit t.trans f

let translation t = t.trans

type outcome =
  | Sat of Instance.t
  | Unsat

let solve ?(assumptions = []) t =
  let t0 = Obs.Clock.now () in
  match
    (* an interrupted solve keeps the time it burned *)
    Fun.protect
      ~finally:(fun () -> t.solve_s <- t.solve_s +. Obs.Clock.since t0)
      (fun () -> Sat.Solver.solve ~assumptions (solver t))
  with
  | Sat.Solver.Unsat ->
    t.last <- None;
    t.n_solves <- t.n_solves + 1;
    Unsat
  | Sat.Solver.Sat ->
    let blocking =
      Translate.fold_primaries t.trans
        (fun _ _ v acc ->
          (if Sat.Solver.value (solver t) v then Sat.Lit.neg_of v else Sat.Lit.pos v)
          :: acc)
        []
    in
    t.last <- Some (Array.of_list blocking);
    t.n_solves <- t.n_solves + 1;
    Sat (Translate.decode t.trans)

let block t =
  match t.last with
  | None -> ()
  | Some lits ->
    Sat.Solver.add_clause_array (solver t) lits;
    t.last <- None

let enumerate ?limit t =
  let rec go acc n =
    match limit with
    | Some l when n >= l -> List.rev acc
    | _ -> (
      match solve t with
      | Unsat -> List.rev acc
      | Sat inst ->
        block t;
        go (inst :: acc) (n + 1))
  in
  go [] 0

let count ?limit t = List.length (enumerate ?limit t)

type stats = {
  translation : Translate.stats;
  solver : Sat.Solver.stats;
  solves : int;
  solve_time : float;
}

let stats t =
  {
    translation = Translate.stats t.trans;
    solver = Sat.Solver.stats (solver t);
    solves = t.n_solves;
    solve_time = t.solve_s;
  }
