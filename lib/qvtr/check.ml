module Ident = Mdl.Ident

type verdict = {
  v_relation : Ident.t;
  v_direction : Ast.dependency;
  v_holds : bool;
  v_witness : (Ident.t * Ident.t) list;
}

type report = {
  consistent : bool;
  verdicts : verdict list;
  elapsed : float;
}

let pp_report ppf r =
  Format.fprintf ppf "@[<v>consistent: %b" r.consistent;
  List.iter
    (fun v ->
      Format.fprintf ppf "@,%a [%a]: %s" Ident.pp v.v_relation Ast.pp_dependency
        v.v_direction
        (if v.v_holds then "holds" else "VIOLATED");
      if (not v.v_holds) && v.v_witness <> [] then
        Format.fprintf ppf " at %s"
          (String.concat ", "
             (List.map
                (fun (var, atom) ->
                  Printf.sprintf "%s = %s" (Ident.name var) (Ident.name atom))
                v.v_witness)))
    r.verdicts;
  Format.fprintf ppf "@]"

let run ?mode trans ~metamodels ~models =
  let started = Obs.Clock.now () in
  Result.bind (Front.create ?mode ~slack_objects:0 trans ~metamodels ~models)
  @@ fun (fe : Front.t) ->
  try
    let inst = Encode.check_instance fe.encoding in
    let verdicts =
      Obs.Trace.with_span ~name:"check.eval" (fun () ->
          List.map
            (fun (r, d, f) ->
              let witness = Relog.Eval.counterexample inst f in
              {
                v_relation = r.Ast.r_name;
                v_direction = d;
                v_holds = Option.is_none witness;
                v_witness = Option.value witness ~default:[];
              })
            (Lazy.force fe.top))
    in
    Ok
      {
        consistent = List.for_all (fun v -> v.v_holds) verdicts;
        verdicts;
        elapsed = Obs.Clock.now () -. started;
      }
  with
  | Semantics.Compile_error msg -> Error msg
  | Relog.Eval.Eval_error msg -> Error msg

let run_exn ?mode trans ~metamodels ~models =
  match run ?mode trans ~metamodels ~models with
  | Ok r -> r
  | Error msg -> invalid_arg ("Check.run_exn: " ^ msg)

(* ------------------------------------------------------------------ *)
(* Traces                                                              *)

type trace = {
  tr_relation : Ident.t;
  tr_roots : (Ident.t * Ident.t) list;
}

let pp_trace ppf t =
  Format.fprintf ppf "%a(%s)" Ident.pp t.tr_relation
    (String.concat ", "
       (List.map
          (fun (v, atom) -> Printf.sprintf "%s=%s" (Ident.name v) (Ident.name atom))
          t.tr_roots))

let traces ?mode trans ~metamodels ~models =
  Result.bind (Front.create ?mode ~slack_objects:0 trans ~metamodels ~models)
  @@ fun { Front.encoding = enc; semantics = sem; _ } ->
  try
    let inst = Encode.check_instance enc in
    let universe = Encode.universe enc in
    let result =
      List.concat_map
        (fun (r : Ast.relation) ->
          if not r.Ast.r_top then []
          else begin
            let f = Semantics.match_formula sem r in
            (* Enumerate the product of the root extents. *)
            let roots =
              List.map
                (fun (d : Ast.domain) ->
                  let extent =
                    Relog.Eval.expr inst Relog.Eval.empty_env
                      (Encode.extent_expr enc ~param:d.Ast.d_model
                         ~cls:d.Ast.d_template.Ast.t_class)
                  in
                  ( d.Ast.d_template.Ast.t_var,
                    Relog.Rel.Tupleset.fold (fun t acc -> t.(0) :: acc) extent []
                  ))
                r.Ast.r_domains
            in
            let rec product bound = function
              | [] ->
                let env =
                  List.fold_left
                    (fun env (v, idx) -> Mdl.Ident.Map.add v idx env)
                    Relog.Eval.empty_env bound
                in
                if Relog.Eval.formula inst env f then
                  [
                    {
                      tr_relation = r.Ast.r_name;
                      tr_roots =
                        List.rev_map
                          (fun (v, idx) -> (v, Relog.Rel.Universe.atom universe idx))
                          bound;
                    };
                  ]
                else []
              | (v, idxs) :: rest ->
                List.concat_map (fun idx -> product ((v, idx) :: bound) rest) idxs
            in
            product [] roots
          end)
        trans.Ast.t_relations
    in
    Ok result
  with
  | Semantics.Compile_error msg -> Error msg
  | Relog.Eval.Eval_error msg -> Error msg
