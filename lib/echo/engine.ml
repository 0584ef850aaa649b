type backend = Repair.backend =
  | Iterative
  | Maxsat

type enforce_result = {
  repaired : (Mdl.Ident.t * Mdl.Model.t) list;
  relational_distance : int;
  edit_distance : int;
  iterations : int;
  backend : backend;
  stats : Telemetry.t;
}

type enforce_outcome =
  | Enforced of enforce_result
  | Already_consistent
  | Cannot_restore

let check = Qvtr.Check.run

let m_enforcements = Obs.Metrics.counter "echo.engine.enforcements"

let enforced backend (r : Repair.success) =
  Enforced
    {
      repaired = r.Repair.repaired;
      relational_distance = r.Repair.relational_distance;
      edit_distance = r.Repair.edit_distance;
      iterations = r.Repair.iterations;
      backend;
      stats = r.Repair.stats;
    }

(* The path [enforce] and [enforce_all] share: build the search space,
   evaluate consistency on its own check instance, and run [repairs]
   on it when that fails. *)
let run_enforcement ~name ?args ~backend ~repairs ?mode ?slack_objects
    ?extra_values ?model_weights ?sbp transformation ~metamodels ~models
    ~targets =
  Obs.Metrics.incr m_enforcements;
  Obs.Trace.with_span ~name ?args @@ fun () ->
  let ( let* ) = Result.bind in
  let* space =
    Obs.Trace.with_span ~name:"space.build" (fun () ->
        Space.build ?mode ?slack_objects ?extra_values ?model_weights ?sbp
          ~transformation ~metamodels ~models ~targets ())
  in
  match Obs.Trace.with_span ~name:"check.eval" (fun () -> Space.consistent space) with
  | exception Relog.Eval.Eval_error msg -> Error msg
  | true -> Ok [ Already_consistent ]
  | false -> (
    let* found = repairs space in
    match found with
    | [] -> Ok [ Cannot_restore ]
    | rs -> Ok (List.map (enforced backend) rs))

let enforce ?(backend = Iterative) ?mode ?slack_objects ?extra_values
    ?model_weights ?sbp transformation ~metamodels ~models ~targets =
  let repairs space = Result.map fst (Repair.run_all ~backend ~limit:1 space) in
  Result.map List.hd
    (run_enforcement ~name:"enforce"
       ~args:(fun () -> [ ("backend", Obs.Json.String (Repair.backend_name backend)) ])
       ~backend ~repairs ?mode ?slack_objects ?extra_values ?model_weights ?sbp
       transformation ~metamodels ~models ~targets)

let enforce_all ?(limit = 16) ?mode ?slack_objects ?extra_values ?model_weights
    ?sbp transformation ~metamodels ~models ~targets =
  run_enforcement ~name:"enforce_all" ~backend:Iterative
    ~repairs:(fun space -> Result.map fst (Repair.run_all ~limit space))
    ?mode ?slack_objects ?extra_values ?model_weights ?sbp transformation
    ~metamodels ~models ~targets

type diagnosis = {
  d_relation : Mdl.Ident.t;
  d_direction : Qvtr.Ast.dependency;
  d_satisfiable : bool;
}

let diagnose ?mode ?slack_objects ?extra_values transformation ~metamodels
    ~models ~targets =
  let ( let* ) = Result.bind in
  (* One satisfiability probe per directional formula and no
     enumeration, so no symmetry is broken. One translation serves
     every probe: the structural constraints are asserted, and each
     direction is solved under its own guard alone. *)
  let* space =
    Space.build ?mode ?slack_objects ?extra_values ~sbp:false ~transformation
      ~metamodels ~models ~targets ()
  in
  let finder = Relog.Finder.prepare (Space.bounds space) (Space.structural space) in
  Ok
    (List.map
       (fun (rel, dep, formula) ->
         let guard = Relog.Finder.guard finder formula in
         let satisfiable =
           match Relog.Finder.solve ~assumptions:[ guard ] finder with
           | Relog.Finder.Sat _ -> true
           | Relog.Finder.Unsat -> false
         in
         { d_relation = rel; d_direction = dep; d_satisfiable = satisfiable })
       (Space.directional_formulas space))

let pp_diagnosis ppf d =
  Format.fprintf ppf "%a [%a]: %s" Mdl.Ident.pp d.d_relation Qvtr.Ast.pp_dependency
    d.d_direction
    (if d.d_satisfiable then "satisfiable by the targets"
     else "UNSATISFIABLE by the targets")

let pp_outcome ppf = function
  | Already_consistent -> Format.pp_print_string ppf "already consistent"
  | Cannot_restore ->
    Format.pp_print_string ppf "cannot restore consistency with this target set"
  | Enforced r ->
    Format.fprintf ppf "repaired at relational distance %d (edit distance %d, %d solver iterations)"
      r.relational_distance r.edit_distance r.iterations
