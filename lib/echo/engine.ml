type backend =
  | Iterative
  | Maxsat
  | Portfolio

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

let backend_name = function
  | Iterative -> "iterative"
  | Maxsat -> "maxsat"
  | Portfolio -> "portfolio"

let m_enforcements = Obs.Metrics.counter "echo.engine.enforcements"

(* Portfolio accounting. The win counters only move when a race
   actually runs: [enforce ~backend:Portfolio] degrades to the plain
   ladder when [jobs < 2] (and in nested parallel regions), and no
   bench or test drove a real race for several releases — which made
   the two win counters sit at zero and look like broken
   accounting. [portfolio_races] separates the two failure modes for
   good: races = 0 means nobody raced; races > 0 with zero wins means
   both lanes failed. *)
let m_portfolio_races = Obs.Metrics.counter "echo.engine.portfolio_races"
let m_iterative_wins = Obs.Metrics.counter "echo.engine.portfolio_iterative_wins"
let m_maxsat_wins = Obs.Metrics.counter "echo.engine.portfolio_maxsat_wins"

(* Race the iterative ladder against the MaxSAT descent on two pool
   lanes; the first usable outcome wins and the loser is cancelled
   (its solver interrupted). Both backends compute the same minimal
   distance, so the result is deterministic even though the winning
   lane is not. Both futures are awaited before returning — no work
   leaks past the call. *)
let race_portfolio ?max_distance space =
  Obs.Trace.with_span ~name:"portfolio" (fun () ->
  Obs.Metrics.incr m_portfolio_races;
  let pool = Parallel.Pool.global ~jobs:2 in
  let mu = Mutex.create () in
  let cond = Condition.create () in
  let published = ref [] in  (* (lane, result) in completion order *)
  let publish tag r =
    Mutex.lock mu;
    published := !published @ [ (tag, r) ];
    Condition.signal cond;
    Mutex.unlock mu
  in
  let submit tag lane =
    Parallel.Pool.submit pool (fun token ->
        let r =
          Obs.Trace.with_span ~name:("portfolio." ^ backend_name tag) (fun () ->
              try lane token with e -> Error (Printexc.to_string e))
        in
        publish tag r)
  in
  let fi =
    submit Iterative (fun token -> Repair.run ?max_distance ~jobs:1 ~token space)
  in
  let fm = submit Maxsat (fun token -> Maxsat_repair.run ~token space) in
  (* First usable outcome wins; if a lane fails, wait out the other. *)
  let winner =
    Mutex.lock mu;
    let rec wait () =
      match List.find_opt (fun (_, r) -> Result.is_ok r) !published with
      | Some w -> w
      | None ->
        if List.length !published >= 2 then List.hd !published
        else begin
          Condition.wait cond mu;
          wait ()
        end
    in
    let w = wait () in
    Mutex.unlock mu;
    w
  in
  Obs.Trace.instant "portfolio.winner"
    ~args:(fun () -> [ ("lane", Obs.Json.String (backend_name (fst winner))) ]);
  (match winner with
  | Iterative, Ok _ -> Obs.Metrics.incr m_iterative_wins
  | Maxsat, Ok _ -> Obs.Metrics.incr m_maxsat_wins
  | _ -> ());
  Obs.Trace.instant "portfolio.cancel_loser";
  Parallel.Pool.cancel fi;
  Parallel.Pool.cancel fm;
  ignore (Parallel.Pool.result fi);
  ignore (Parallel.Pool.result fm);
  match winner with
  | tag, Ok outcome -> Ok (outcome, tag)
  | _, Error e -> Error e)

let enforce ?(backend = Iterative) ?mode ?slack_objects ?extra_values
    ?model_weights ?max_distance ?(jobs = 1) ?sbp transformation ~metamodels
    ~models ~targets =
  if jobs < 1 then invalid_arg "Engine.enforce: jobs must be >= 1";
  Obs.Metrics.incr m_enforcements;
  Obs.Trace.with_span ~name:"enforce"
    ~args:(fun () ->
      [
        ("backend", Obs.Json.String (backend_name backend));
        ("jobs", Obs.Json.Int jobs);
      ])
  @@ fun () ->
  let ( let* ) = Result.bind in
  let* report =
    Obs.Trace.with_span ~name:"check" (fun () ->
        Qvtr.Check.run ?mode transformation ~metamodels ~models)
  in
  if report.Qvtr.Check.consistent then Ok Already_consistent
  else
    let* space =
      Obs.Trace.with_span ~name:"space.build" (fun () ->
          Space.build ?mode ?slack_objects ?extra_values ?model_weights ?sbp
            ~transformation ~metamodels ~models ~targets ())
    in
    let* outcome, winner =
      match backend with
      | Iterative ->
        Result.map (fun o -> (o, Iterative)) (Repair.run ?max_distance ~jobs space)
      | Maxsat -> Result.map (fun o -> (o, Maxsat)) (Maxsat_repair.run ~jobs space)
      | Portfolio ->
        if jobs < 2 || Parallel.Pool.in_worker () then
          (* A portfolio needs two lanes of its own; degrade to the
             ladder when the budget is one job or when already running
             inside a pool worker (racing from a nested region would
             oversubscribe — and can stall behind — the outer one). *)
          Result.map (fun o -> (o, Iterative)) (Repair.run ?max_distance ~jobs space)
        else race_portfolio ?max_distance space
    in
    match outcome with
    | Repair.Cannot_restore -> Ok Cannot_restore
    | Repair.Repaired r ->
      Ok
        (Enforced
           {
             repaired = r.Repair.repaired;
             relational_distance = r.Repair.relational_distance;
             edit_distance = r.Repair.edit_distance;
             iterations = r.Repair.iterations;
             backend = winner;
             stats = r.Repair.stats;
           })

let enforce_all ?(limit = 16) ?mode ?slack_objects ?extra_values ?model_weights
    ?max_distance ?(jobs = 1) ?split_after ?sbp transformation ~metamodels
    ~models ~targets =
  if jobs < 1 then invalid_arg "Engine.enforce_all: jobs must be >= 1";
  Obs.Metrics.incr m_enforcements;
  Obs.Trace.with_span ~name:"enforce_all"
    ~args:(fun () -> [ ("jobs", Obs.Json.Int jobs) ])
  @@ fun () ->
  let ( let* ) = Result.bind in
  let* report =
    Obs.Trace.with_span ~name:"check" (fun () ->
        Qvtr.Check.run ?mode transformation ~metamodels ~models)
  in
  if report.Qvtr.Check.consistent then Ok [ Already_consistent ]
  else
    let* space =
      Obs.Trace.with_span ~name:"space.build" (fun () ->
          Space.build ?mode ?slack_objects ?extra_values ?model_weights ?sbp
            ~transformation ~metamodels ~models ~targets ())
    in
    let* repairs = Repair.run_all ?max_distance ~limit ~jobs ?split_after space in
    match repairs with
    | [] -> Ok [ Cannot_restore ]
    | rs ->
      Ok
        (List.map
           (fun (r : Repair.success) ->
             Enforced
               {
                 repaired = r.Repair.repaired;
                 relational_distance = r.Repair.relational_distance;
                 edit_distance = r.Repair.edit_distance;
                 iterations = r.Repair.iterations;
                 backend = Iterative;
                 stats = r.Repair.stats;
               })
           rs)

type diagnosis = {
  d_relation : Mdl.Ident.t;
  d_direction : Qvtr.Ast.dependency;
  d_satisfiable : bool;
}

let diagnose ?mode ?slack_objects ?extra_values transformation ~metamodels
    ~models ~targets =
  let ( let* ) = Result.bind in
  (* Diagnosis runs one satisfiability probe per directional formula
     and never enumerates, so SBPs buy nothing; keep the legacy slack
     chain so the probes see the same structural formulas as before. *)
  let* space =
    Space.build ?mode ?slack_objects ?extra_values ~sbp:false ~transformation
      ~metamodels ~models ~targets ()
  in
  let structural = Space.structural space in
  Ok
    (List.map
       (fun (rel, dep, formula) ->
         let finder =
           Relog.Finder.prepare (Space.bounds space) (formula :: structural)
         in
         let satisfiable =
           match Relog.Finder.solve finder with
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
