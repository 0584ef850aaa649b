(* Tests for the instrumentation layer: per-repair telemetry roll-ups,
   cross-backend parity on the reported optimum, and monotonicity of
   the process-global solver counters. *)

module F = Featuremodel.Fm
module Sc = Featuremodel.Scenarios
module Eng = Echo.Engine
module S = Sat.Solver

let metamodels = F.metamodels

let enforce ?backend (s : Sc.t) targets =
  Eng.enforce ?backend (F.transformation ~k:2) ~metamodels
    ~models:(F.bind ~cfs:s.Sc.cfs ~fm:s.Sc.fm)
    ~targets:(Echo.Target.of_list targets)

let repair_stats ?backend s targets =
  match enforce ?backend s targets with
  | Ok (Eng.Enforced r) -> r
  | Ok o ->
    Alcotest.failf "expected a repair, got %s"
      (Format.asprintf "%a" Eng.pp_outcome o)
  | Error e -> Alcotest.fail e

let test_iterative_stats () =
  let r = repair_stats Sc.new_mandatory_feature [ "cf1"; "cf2" ] in
  let st = r.Eng.stats in
  Alcotest.(check string) "backend" "iterative" st.Echo.Telemetry.backend;
  Alcotest.(check bool) "solver called" true
    (st.Echo.Telemetry.solver_calls > 0);
  Alcotest.(check bool) "translation vars" true
    (st.Echo.Telemetry.translation.Relog.Translate.vars > 0);
  Alcotest.(check bool) "translation clauses" true
    (st.Echo.Telemetry.translation.Relog.Translate.clauses > 0);
  Alcotest.(check bool) "relations materialized" true
    (st.Echo.Telemetry.translation.Relog.Translate.relations > 0);
  Alcotest.(check bool) "distance levels recorded" true
    (st.Echo.Telemetry.distance_levels <> []);
  (* the per-level iteration counts partition the total iterations *)
  Alcotest.(check int) "levels sum to iterations" r.Eng.iterations
    (List.fold_left
       (fun acc (_, n) -> acc + n)
       0 st.Echo.Telemetry.distance_levels);
  (* the search reached the reported optimum *)
  Alcotest.(check bool) "optimum level present" true
    (List.mem_assoc r.Eng.relational_distance st.Echo.Telemetry.distance_levels);
  Alcotest.(check bool) "cardinality inputs" true
    (st.Echo.Telemetry.cardinality_inputs > 0);
  Alcotest.(check bool) "solve time sane" true
    (st.Echo.Telemetry.solve_time >= 0.
    && st.Echo.Telemetry.solve_time <= st.Echo.Telemetry.total_time +. 1e-9);
  Alcotest.(check bool) "translate time sane" true
    (st.Echo.Telemetry.translation.Relog.Translate.translate_time >= 0.)

let test_maxsat_stats () =
  let r = repair_stats ~backend:Eng.Maxsat Sc.new_mandatory_feature
      [ "cf1"; "cf2" ]
  in
  let st = r.Eng.stats in
  Alcotest.(check string) "backend" "maxsat" st.Echo.Telemetry.backend;
  Alcotest.(check bool) "solver called" true
    (st.Echo.Telemetry.solver_calls > 0);
  Alcotest.(check bool) "solver counters flowed" true
    (st.Echo.Telemetry.solver.S.solves > 0);
  Alcotest.(check bool) "change literals counted" true
    (st.Echo.Telemetry.cardinality_inputs > 0);
  Alcotest.(check bool) "total time recorded" true
    (st.Echo.Telemetry.total_time >= 0.)

let test_backend_parity () =
  (* Iterative and Maxsat agree on the relational distance on every
     restorable direction of every scenario (experiment E7 as a test) *)
  List.iter
    (fun (s : Sc.t) ->
      List.iter
        (fun targets ->
          let it = repair_stats ~backend:Eng.Iterative s targets in
          let mx = repair_stats ~backend:Eng.Maxsat s targets in
          Alcotest.(check int)
            (Printf.sprintf "%s / %s" s.Sc.s_name (String.concat "," targets))
            it.Eng.relational_distance mx.Eng.relational_distance)
        s.Sc.restorable)
    Sc.all

let test_global_counters_monotone () =
  let solve_time_h = Obs.Metrics.histogram "sat.solve_time_s" in
  let observed0 = Obs.Metrics.histogram_count solve_time_h in
  let before = S.global_stats () in
  let _ = repair_stats Sc.new_mandatory_feature [ "fm" ] in
  let after = S.global_stats () in
  Alcotest.(check bool) "solves grew" true (after.S.solves > before.S.solves);
  Alcotest.(check bool) "every solve lands in sat.solve_time_s" true
    (Obs.Metrics.histogram_count solve_time_h - observed0
    >= after.S.solves - before.S.solves);
  Alcotest.(check bool) "decisions monotone" true
    (after.S.decisions >= before.S.decisions);
  Alcotest.(check bool) "propagations monotone" true
    (after.S.propagations >= before.S.propagations);
  Alcotest.(check bool) "conflicts monotone" true
    (after.S.conflicts >= before.S.conflicts);
  Alcotest.(check bool) "time monotone" true
    (after.S.solve_time >= before.S.solve_time)

let suite =
  [
    Alcotest.test_case "iterative roll-up" `Quick test_iterative_stats;
    Alcotest.test_case "maxsat roll-up" `Quick test_maxsat_stats;
    Alcotest.test_case "backend parity on distance" `Quick test_backend_parity;
    Alcotest.test_case "global counters monotone" `Quick
      test_global_counters_monotone;
  ]
