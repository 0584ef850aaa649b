type t = {
  encoding : Encode.t;
  semantics : Semantics.t;
  top : (Ast.relation * Ast.dependency * Relog.Ast.formula) list Lazy.t;
}

let create ?mode ?extra_values ~slack_objects trans ~metamodels ~models =
  match
    Obs.Trace.with_span ~name:"typecheck" (fun () ->
        Typecheck.check trans ~metamodels)
  with
  | Error errs ->
    Error
      (String.concat "; "
         (List.map (fun e -> Format.asprintf "%a" Typecheck.pp_error e) errs))
  | Ok info ->
    Result.map
      (fun encoding ->
        let semantics = Semantics.create ?mode encoding info in
        { encoding; semantics; top = lazy (Semantics.top_formulas semantics) })
      (Obs.Trace.with_span ~name:"encode" (fun () ->
           Encode.create ~transformation:trans ~metamodels ~models
             ?extra_values ~slack_objects ()))
