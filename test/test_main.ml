(* Test entry point: one alcotest run covering every library. *)

let () =
  Alcotest.run "mdqvtr"
    [
      ("mdl.ident", Test_ident.suite);
      ("mdl.value", Test_value.suite);
      ("mdl.metamodel", Test_metamodel.suite);
      ("mdl.model", Test_model.suite);
      ("mdl.conformance", Test_conformance.suite);
      ("mdl.diff", Test_diff.suite);
      ("mdl.serialize", Test_serialize.suite);
      ("mdl.serialize_random", Test_serialize_random.suite);
      ("obs", Test_obs.suite);
      ("sat.solver", Test_sat.suite);
      ("parallel", Test_parallel.suite);
      ("sat.circuit", Test_circuit.suite);
      ("sat.cardinality", Test_cardinality.suite);
      ("relog.rel", Test_rel.suite);
      ("relog.eval", Test_eval.suite);
      ("relog.simplify", Test_simplify.suite);
      ("relog.hc", Test_hc.suite);
      ("relog.finder", Test_finder.suite);
      ("relog.symmetry", Test_symmetry.suite);
      ("qvtr.dependency", Test_dependency.suite);
      ("qvtr.parser", Test_parser.suite);
      ("qvtr.parser_random", Test_parser_random.suite);
      ("qvtr.typecheck", Test_typecheck.suite);
      ("qvtr.encode", Test_encode.suite);
      ("qvtr.semantics", Test_semantics.suite);
      ("lint", Test_lint.suite);
      ("echo.engine", Test_echo.suite);
      ("echo.telemetry", Test_telemetry.suite);
      ("incr.session", Test_incr.suite);
      ("server", Test_server.suite);
      ("featuremodel", Test_featuremodel.suite);
      ("extensions", Test_extensions.suite);
      ("internals", Test_internals.suite);
    ]
