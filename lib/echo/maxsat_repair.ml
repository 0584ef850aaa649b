let run space =
  try
    let started = Obs.Clock.now () in
    let maxsat = Sat.Maxsat.create () in
    let trans =
      Relog.Translate.create ~solver:(Sat.Maxsat.solver maxsat) (Space.bounds space)
    in
    List.iter
      (Relog.Translate.materialize trans)
      (Relog.Bounds.relations (Space.bounds space));
    List.iter (Relog.Translate.assert_formula trans) (Space.formulas space);
    (* Lex-leader SBPs as plain hard clauses: this translation lives
       for one optimization run, so no guard is needed. *)
    if Space.use_sbp space then
      ignore (Relog.Symmetry.break trans (Space.sbp_orbits space) : int);
    (* Soft clauses: keep every optional tuple at its original value. *)
    let changes = Space.change_literals space trans in
    List.iter
      (fun (change_lit, w) ->
        Sat.Maxsat.add_soft maxsat ~weight:w [ Sat.Lit.neg change_lit ])
      changes;
    let total_weight = List.fold_left (fun acc (_, w) -> acc + w) 0 changes in
    let iterations = ref 0 in
    let blocked = ref 0 in
    let telemetry () =
      let counts = Sat.Maxsat.clause_counts maxsat in
      let solver_stats = Sat.Solver.stats (Sat.Maxsat.solver maxsat) in
      {
        Telemetry.backend = "maxsat";
        translation = Relog.Translate.stats trans;
        solver = solver_stats;
        solver_calls = solver_stats.Sat.Solver.solves;
        solve_time = solver_stats.Sat.Solver.solve_time;
        distance_levels = [];
        blocked_nonconformant = !blocked;
        cardinality_inputs = total_weight;
        cardinality_aux_vars = counts.Sat.Maxsat.aux_vars;
        cardinality_clauses = counts.Sat.Maxsat.aux;
        cardinality_saved_vars = counts.Sat.Maxsat.saved_vars;
        cardinality_saved_clauses = counts.Sat.Maxsat.saved_clauses;
        total_time = Obs.Clock.now () -. started;
      }
    in
    let rec solve () =
      incr iterations;
      match
        Obs.Trace.with_span ~name:"solve"
          ~args:(fun () ->
            [
              ("backend", Obs.Json.String "maxsat");
              ("iteration", Obs.Json.Int !iterations);
            ])
          (fun () -> Sat.Maxsat.solve maxsat)
      with
      | Sat.Maxsat.Hard_unsat -> Ok None
      | Sat.Maxsat.Optimum _ -> (
        let inst = Relog.Translate.decode_with trans (Sat.Maxsat.value maxsat) in
        match Space.decode_targets space inst with
        | Ok repaired ->
          Ok
            (Some
               {
                 Repair.repaired;
                 relational_distance = Space.relational_distance space inst;
                 edit_distance = Space.edit_distance space repaired;
                 iterations = !iterations;
                 stats = telemetry ();
               })
        | Error _ ->
          (* Conformance approximation: exclude this instance (as a
             hard clause) and re-optimize. *)
          incr blocked;
          let clause =
            Relog.Translate.fold_primaries trans
              (fun _ _ v acc ->
                let l =
                  if Sat.Maxsat.value maxsat v then Sat.Lit.neg_of v
                  else Sat.Lit.pos v
                in
                l :: acc)
              []
          in
          Sat.Maxsat.add_hard maxsat clause;
          solve ())
    in
    solve ()
  with
  | Relog.Translate.Unsupported msg -> Error msg
  | Invalid_argument msg -> Error msg
