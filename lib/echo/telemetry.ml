(* Per-repair instrumentation roll-up. *)

type t = {
  backend : string;
  translation : Relog.Translate.stats;
  solver : Sat.Solver.stats;
  solver_calls : int;
  solve_time : float;
  distance_levels : (int * int) list;
  blocked_nonconformant : int;
  cardinality_inputs : int;
  cardinality_aux_vars : int;
  cardinality_clauses : int;
  total_time : float;
}

let pp ppf t =
  let tr = t.translation in
  Format.fprintf ppf "@[<v>backend: %s" t.backend;
  Format.fprintf ppf
    "@,translation: %d vars (%d primary), %d clauses, %d relations, %.3f ms"
    tr.Relog.Translate.vars tr.Relog.Translate.primary_vars
    tr.Relog.Translate.clauses tr.Relog.Translate.relations
    (tr.Relog.Translate.translate_time *. 1000.);
  Format.fprintf ppf
    "@,cardinality: %d inputs, %d aux vars, %d clauses"
    t.cardinality_inputs t.cardinality_aux_vars t.cardinality_clauses;
  Format.fprintf ppf "@,solve: %d calls, %.3f ms" t.solver_calls
    (t.solve_time *. 1000.);
  if t.distance_levels <> [] then begin
    Format.fprintf ppf "@,distance iterations:";
    List.iter
      (fun (d, n) -> Format.fprintf ppf " d=%d:%d" d n)
      t.distance_levels
  end;
  if t.blocked_nonconformant > 0 then
    Format.fprintf ppf "@,blocked non-conformant instances: %d"
      t.blocked_nonconformant;
  Format.fprintf ppf "@,solver: %a" Sat.Solver.pp_stats t.solver;
  Format.fprintf ppf "@,total: %.3f ms@]" (t.total_time *. 1000.)
