(* Tests for the extensions beyond the paper's running example:
   integer comparisons in OCL-lite, counterexample witnesses in check
   reports, and enumeration of all minimal repairs. *)

module F = Featuremodel.Fm
module I = Mdl.Ident
module MM = Mdl.Metamodel

(* ------------------------------------------------------------------ *)
(* Integer comparisons                                                 *)

let prio_mm =
  MM.make_exn ~name:"P"
    [
      MM.cls "Task"
        ~attrs:[ MM.attr ~key:true "name" MM.P_string; MM.attr "prio" MM.P_int ];
    ]

let prio_metamodels = [ (I.make "P", prio_mm) ]

(* team priority must dominate the personal one for same-named tasks *)
let prio_trans =
  Qvtr.Parser.parse_exn
    {|
transformation Prio(mine : P, team : P) {
  top relation Dominates {
    n : String;
    a : Integer;
    b : Integer;
    domain mine x : Task { name = n, prio = a };
    domain team y : Task { name = n, prio = b };
    where { a <= b }
    dependencies { mine -> team; }
  }
}
|}

let task_list mm name tasks =
  List.fold_left
    (fun m (n, p) ->
      let m, id = Mdl.Model.add_object m ~cls:(I.make "Task") in
      let m = Mdl.Model.set_attr1 m id (I.make "name") (Mdl.Value.Str n) in
      Mdl.Model.set_attr1 m id (I.make "prio") (Mdl.Value.Int p))
    (Mdl.Model.empty ~name mm)
    tasks

let prio_check mine team =
  let models =
    [ (I.make "mine", task_list prio_mm "mine" mine);
      (I.make "team", task_list prio_mm "team" team) ]
  in
  (Qvtr.Check.run_exn prio_trans ~metamodels:prio_metamodels ~models)
    .Qvtr.Check.consistent

let test_int_comparison_semantics () =
  (* the when-clause guards the source side: only tasks with a <= b
     demand a counterpart. Here every (a,b) pair of prios is related
     when a <= b, so the check requires: for all my tasks x and
     priorities b with x.prio <= b there is a team task named x.name
     with prio b... — instead keep it simple: equal names, and the
     pair is only consistent when some team prio >= mine exists. *)
  Alcotest.(check bool) "dominating team passes" true
    (prio_check [ ("t", 1) ] [ ("t", 2) ]);
  Alcotest.(check bool) "equal passes" true (prio_check [ ("t", 2) ] [ ("t", 2) ]);
  Alcotest.(check bool) "undominated fails" false
    (prio_check [ ("t", 3) ] [ ("t", 2) ])

let test_int_comparison_parsing () =
  let r = List.hd prio_trans.Qvtr.Ast.t_relations in
  (match Qvtr.Ast.preds r.Qvtr.Ast.r_where with
  | [ Qvtr.Ast.P_le (Qvtr.Ast.O_var _, Qvtr.Ast.O_var _) ] -> ()
  | _ -> Alcotest.fail "expected P_le in where clause");
  (* > and >= flip into P_lt / P_le *)
  let t2 =
    Qvtr.Parser.parse_exn
      {|
transformation T(mine : P, team : P) {
  top relation R {
    n : String; a : Integer; b : Integer;
    domain mine x : Task { name = n, prio = a };
    domain team y : Task { name = n, prio = b };
    when { a > b; a >= b; a < b }
  }
}
|}
  in
  let r2 = List.hd t2.Qvtr.Ast.t_relations in
  (match Qvtr.Ast.preds r2.Qvtr.Ast.r_when with
  | [ Qvtr.Ast.P_lt (Qvtr.Ast.O_var b1, _); Qvtr.Ast.P_le (Qvtr.Ast.O_var b2, _);
      Qvtr.Ast.P_lt (Qvtr.Ast.O_var a1, _) ] ->
    Alcotest.(check string) "> flips" "b" (I.name b1);
    Alcotest.(check string) ">= flips" "b" (I.name b2);
    Alcotest.(check string) "< direct" "a" (I.name a1)
  | _ -> Alcotest.fail "unexpected comparison structure");
  (* round-trip through the printer *)
  let printed = Qvtr.Parser.to_string prio_trans in
  match Qvtr.Parser.parse printed with
  | Ok t ->
    Alcotest.(check bool) "round-trip" true
      (Qvtr.Ast.strip_locs t = Qvtr.Ast.strip_locs prio_trans)
  | Error e -> Alcotest.failf "round-trip: %s" e

let test_int_comparison_typing () =
  let bad =
    Qvtr.Parser.parse_exn
      {|
transformation T(mine : P, team : P) {
  top relation R {
    n : String;
    domain mine x : Task { name = n };
    domain team y : Task { name = n };
    when { n < n }
  }
}
|}
  in
  match Qvtr.Typecheck.check bad ~metamodels:prio_metamodels with
  | Ok _ -> Alcotest.fail "string comparison must be rejected"
  | Error errs ->
    Alcotest.(check bool) "mentions integer comparison" true
      (List.exists
         (fun e ->
           let s = Format.asprintf "%a" Qvtr.Typecheck.pp_error e in
           String.length s > 0)
         errs)

let test_int_comparison_repair () =
  (* repair the team model so that it dominates: prio must rise to an
     int available in the bounded universe *)
  let models =
    [ (I.make "mine", task_list prio_mm "mine" [ ("t", 3) ]);
      (I.make "team", task_list prio_mm "team" [ ("t", 2) ]) ]
  in
  match
    Echo.Engine.enforce prio_trans ~metamodels:prio_metamodels ~models
      ~targets:(Echo.Target.single "team")
  with
  | Ok (Echo.Engine.Enforced r) ->
    let team = List.assoc (I.make "team") r.Echo.Engine.repaired in
    let prio =
      match
        Mdl.Model.get_attr1 team
          (List.hd (Mdl.Model.objects team))
          (I.make "prio")
      with
      | Some (Mdl.Value.Int p) -> p
      | _ -> -1
    in
    Alcotest.(check bool) "team prio raised to >= 3" true (prio >= 3)
  | Ok o ->
    Alcotest.failf "expected repair, got %s"
      (Format.asprintf "%a" Echo.Engine.pp_outcome o)
  | Error e -> Alcotest.fail e

(* ------------------------------------------------------------------ *)
(* Witnesses                                                           *)

let test_witness_in_report () =
  let trans = F.transformation ~k:2 in
  let cfs = [ F.configuration ~name:"cf1" [ "A" ]; F.configuration ~name:"cf2" [ "A" ] ] in
  let fm = F.feature_model ~name:"fm" [ ("A", true); ("N", true) ] in
  let report =
    Qvtr.Check.run_exn trans ~metamodels:F.metamodels ~models:(F.bind ~cfs ~fm)
  in
  let violated =
    List.filter (fun v -> not v.Qvtr.Check.v_holds) report.Qvtr.Check.verdicts
  in
  Alcotest.(check int) "two violated directions" 2 (List.length violated);
  List.iter
    (fun v ->
      Alcotest.(check bool) "witness present" true (v.Qvtr.Check.v_witness <> []);
      (* the failing feature is N: its atom (the fm object or the name
         value) appears in the witness *)
      let atoms = List.map (fun (_, a) -> I.name a) v.Qvtr.Check.v_witness in
      Alcotest.(check bool) "witness names the culprit" true
        (List.exists (fun a -> a = "s~N" || a = "fm#1") atoms))
    violated;
  let rendered = Format.asprintf "%a" Qvtr.Check.pp_report report in
  Alcotest.(check bool) "report renders witnesses" true
    (String.length rendered > 0)

let test_witness_none_when_consistent () =
  let trans = F.transformation ~k:2 in
  let cfs = [ F.configuration ~name:"cf1" [ "A" ]; F.configuration ~name:"cf2" [ "A" ] ] in
  let fm = F.feature_model ~name:"fm" [ ("A", true) ] in
  let report =
    Qvtr.Check.run_exn trans ~metamodels:F.metamodels ~models:(F.bind ~cfs ~fm)
  in
  Alcotest.(check bool) "all hold, no witnesses" true
    (List.for_all
       (fun v -> v.Qvtr.Check.v_holds && v.Qvtr.Check.v_witness = [])
       report.Qvtr.Check.verdicts)

let test_counterexample_direct () =
  (* relog-level: a failing forall yields its binding *)
  let u = Relog.Rel.Universe.make [ I.make "a"; I.make "b" ] in
  let inst =
    Relog.Instance.set (Relog.Instance.make u) (I.make "S")
      (Relog.Rel.Tupleset.of_list [ [| 0 |] ])
  in
  let f =
    Relog.Ast.forall
      [ ("x", Relog.Ast.Univ) ]
      (Relog.Ast.in_ (Relog.Ast.var "x") (Relog.Ast.rel "S"))
  in
  (match Relog.Eval.counterexample inst f with
  | Some [ (v, atom) ] ->
    Alcotest.(check string) "variable" "x" (I.name v);
    Alcotest.(check string) "failing atom" "b" (I.name atom)
  | Some _ | None -> Alcotest.fail "expected a one-variable witness");
  Alcotest.(check bool) "holds -> None" true
    (Relog.Eval.counterexample inst
       (Relog.Ast.in_ (Relog.Ast.rel "S") Relog.Ast.Univ)
    = None)

(* ------------------------------------------------------------------ *)
(* All minimal repairs                                                 *)

let test_enforce_all_three_minima () =
  (* cf1 = {A}, cf2 = {A}, fm = {A optional}: the three minimal repairs
     are (a) make A mandatory, (b) drop A from cf1, (c) drop A from
     cf2 — all at relational distance 2 *)
  let trans = F.transformation ~k:2 in
  let cfs = [ F.configuration ~name:"cf1" [ "A" ]; F.configuration ~name:"cf2" [ "A" ] ] in
  let fm = F.feature_model ~name:"fm" [ ("A", false) ] in
  match
    Echo.Engine.enforce_all trans ~metamodels:F.metamodels ~models:(F.bind ~cfs ~fm)
      ~targets:(Echo.Target.of_list [ "cf1"; "cf2"; "fm" ])
  with
  | Error e -> Alcotest.fail e
  | Ok outcomes ->
    let repairs =
      List.filter_map
        (function Echo.Engine.Enforced r -> Some r | _ -> None)
        outcomes
    in
    Alcotest.(check int) "three minimal repairs" 3 (List.length repairs);
    List.iter
      (fun r ->
        Alcotest.(check int) "each at distance 2" 2 r.Echo.Engine.relational_distance;
        let rep = Qvtr.Check.run_exn trans ~metamodels:F.metamodels ~models:r.Echo.Engine.repaired in
        Alcotest.(check bool) "each consistent" true rep.Qvtr.Check.consistent)
      repairs;
    (* the three repairs are pairwise distinct *)
    let states =
      List.map
        (fun r ->
          List.map
            (fun (p, m) ->
              if I.name p = "fm" then
                (I.name p, List.map (fun (n, b) -> n ^ string_of_bool b) (F.fm_features m))
              else (I.name p, F.cf_features m))
            r.Echo.Engine.repaired)
        repairs
    in
    Alcotest.(check int) "pairwise distinct" 3
      (List.length (List.sort_uniq compare states))

let test_enforce_all_cannot () =
  let trans = F.transformation ~k:2 in
  let s = Featuremodel.Scenarios.new_mandatory_feature in
  match
    Echo.Engine.enforce_all trans ~metamodels:F.metamodels
      ~models:
        (F.bind ~cfs:s.Featuremodel.Scenarios.cfs ~fm:s.Featuremodel.Scenarios.fm)
      ~targets:(Echo.Target.single "cf1")
  with
  | Ok [ Echo.Engine.Cannot_restore ] -> ()
  | Ok _ -> Alcotest.fail "expected Cannot_restore singleton"
  | Error e -> Alcotest.fail e

let test_enforce_all_consistent () =
  let trans = F.transformation ~k:2 in
  let cfs = [ F.configuration ~name:"cf1" [ "A" ]; F.configuration ~name:"cf2" [ "A" ] ] in
  let fm = F.feature_model ~name:"fm" [ ("A", true) ] in
  match
    Echo.Engine.enforce_all trans ~metamodels:F.metamodels ~models:(F.bind ~cfs ~fm)
      ~targets:(Echo.Target.single "fm")
  with
  | Ok [ Echo.Engine.Already_consistent ] -> ()
  | Ok _ -> Alcotest.fail "expected Already_consistent singleton"
  | Error e -> Alcotest.fail e

let test_enforce_all_limit () =
  let trans = F.transformation ~k:2 in
  let cfs = [ F.configuration ~name:"cf1" [ "A" ]; F.configuration ~name:"cf2" [ "A" ] ] in
  let fm = F.feature_model ~name:"fm" [ ("A", false) ] in
  (match
     Echo.Engine.enforce_all ~limit:2 trans ~metamodels:F.metamodels
       ~models:(F.bind ~cfs ~fm)
       ~targets:(Echo.Target.of_list [ "cf1"; "cf2"; "fm" ])
   with
  | Ok outcomes -> Alcotest.(check int) "limit respected" 2 (List.length outcomes)
  | Error e -> Alcotest.fail e);
  (* A limit below 1 is an argument error, not a false Cannot_restore:
     the same request repairs at distance 4 with limit 1. *)
  let s = Featuremodel.Scenarios.new_mandatory_feature in
  let run limit =
    Echo.Engine.enforce_all ~limit trans ~metamodels:F.metamodels
      ~models:
        (F.bind ~cfs:s.Featuremodel.Scenarios.cfs ~fm:s.Featuremodel.Scenarios.fm)
      ~targets:(Echo.Target.of_list [ "cf1"; "cf2" ])
  in
  (match run 1 with
  | Ok [ Echo.Engine.Enforced r ] ->
    Alcotest.(check int) "limit 1: distance" 4 r.Echo.Engine.relational_distance
  | Ok _ -> Alcotest.fail "limit 1: expected one repair"
  | Error e -> Alcotest.fail e);
  List.iter
    (fun limit ->
      match run limit with
      | Error _ -> ()
      | Ok outcomes ->
        Alcotest.failf "limit %d: expected an error, got %s" limit
          (String.concat "; "
             (List.map (Format.asprintf "%a" Echo.Engine.pp_outcome) outcomes)))
    [ 0; -1 ]

let test_enforce_all_symmetry_dedup () =
  (* object creation draws from interchangeable slack atoms; symmetry
     breaking + decoded-state dedup must collapse the isomorphic SAT
     assignments into a single repair *)
  let trans = F.transformation ~k:2 in
  let s = Featuremodel.Scenarios.new_mandatory_feature in
  match
    Echo.Engine.enforce_all trans ~metamodels:F.metamodels
      ~models:
        (F.bind ~cfs:s.Featuremodel.Scenarios.cfs ~fm:s.Featuremodel.Scenarios.fm)
      ~targets:(Echo.Target.of_list [ "cf1"; "cf2" ])
  with
  | Error e -> Alcotest.fail e
  | Ok outcomes ->
    let repairs =
      List.filter_map
        (function Echo.Engine.Enforced r -> Some r | _ -> None)
        outcomes
    in
    Alcotest.(check int) "one repair up to isomorphism" 1 (List.length repairs)

let test_repair_idempotent () =
  (* hippocraticness: enforcing an already-repaired state is a no-op *)
  let trans = F.transformation ~k:2 in
  let rng = Featuremodel.Gen.rng 23 in
  let exercised = ref 0 in
  for _ = 1 to 6 do
    let state = Featuremodel.Gen.consistent_state rng ~k:2 ~n_features:3 in
    match Featuremodel.Gen.random_perturbation rng state with
    | None -> ()
    | Some p ->
      let cfs, fm = Featuremodel.Gen.apply_perturbation state p in
      if not (F.consistent ~cfs ~fm) then begin
        let targets = Echo.Target.of_list [ "cf1"; "cf2"; "fm" ] in
        match
          Echo.Engine.enforce trans ~metamodels:F.metamodels
            ~models:(F.bind ~cfs ~fm) ~targets
        with
        | Ok (Echo.Engine.Enforced r) -> (
          incr exercised;
          match
            Echo.Engine.enforce trans ~metamodels:F.metamodels
              ~models:r.Echo.Engine.repaired ~targets
          with
          | Ok Echo.Engine.Already_consistent -> ()
          | Ok o ->
            Alcotest.failf "second enforce not a no-op: %s"
              (Format.asprintf "%a" Echo.Engine.pp_outcome o)
          | Error e -> Alcotest.fail e)
        | Ok o ->
          Alcotest.failf "expected repair: %s"
            (Format.asprintf "%a" Echo.Engine.pp_outcome o)
        | Error e -> Alcotest.fail e
      end
  done;
  Alcotest.(check bool) "exercised at least one state" true (!exercised > 0)

(* ------------------------------------------------------------------ *)
(* Primitive domains (QVT-R spec)                                      *)

let prim_trans =
  Qvtr.Parser.parse_exn
    {|
transformation T(cf1 : CF, fm : FM) {
  top relation R {
    n : String;
    domain cf1 x : Feature { name = n };
    domain fm y : Feature { };
    where { Flagged(y, n); }
    dependencies { cf1 -> fm; }
  }
  // a relation with one model domain and one primitive (value) domain:
  // checks that the fm feature carries the passed name
  relation Flagged {
    m : String;
    primitive domain v : String;
    domain fm z : Feature { name = m };
    where { m = v }
  }
}
|}

let test_primitive_domain_parse () =
  let flagged = List.nth prim_trans.Qvtr.Ast.t_relations 1 in
  Alcotest.(check int) "one primitive domain" 1 (List.length flagged.Qvtr.Ast.r_prims);
  (match flagged.Qvtr.Ast.r_prims with
  | [ { Qvtr.Ast.v_name = v; v_type = Qvtr.Ast.T_string; v_loc = _ } ] ->
    Alcotest.(check string) "named v" "v" (I.name v)
  | _ -> Alcotest.fail "unexpected primitive domain");
  (* printer round-trip *)
  match Qvtr.Parser.parse (Qvtr.Parser.to_string prim_trans) with
  | Ok t ->
    Alcotest.(check bool) "round-trip" true
      (Qvtr.Ast.strip_locs t = Qvtr.Ast.strip_locs prim_trans)
  | Error e -> Alcotest.failf "round-trip: %s" e

let test_primitive_domain_typecheck () =
  (match Qvtr.Typecheck.check prim_trans ~metamodels:F.metamodels with
  | Ok _ -> ()
  | Error errs ->
    Alcotest.failf "should typecheck: %s"
      (String.concat "; "
         (List.map (fun e -> Format.asprintf "%a" Qvtr.Typecheck.pp_error e) errs)));
  (* top relation with primitive domain is rejected *)
  let bad_top =
    Qvtr.Parser.parse_exn
      {|
transformation T(cf1 : CF, fm : FM) {
  top relation R {
    n : String;
    primitive domain v : String;
    domain cf1 x : Feature { name = n };
    domain fm y : Feature { name = n };
  }
}
|}
  in
  (match Qvtr.Typecheck.check bad_top ~metamodels:F.metamodels with
  | Ok _ -> Alcotest.fail "top relation with primitive domain must be rejected"
  | Error _ -> ());
  (* wrong arity: missing the primitive argument *)
  let bad_arity =
    Qvtr.Parser.parse_exn
      {|
transformation T(cf1 : CF, fm : FM) {
  top relation R {
    n : String;
    domain cf1 x : Feature { name = n };
    domain fm y : Feature { };
    where { Flagged(y); }
    dependencies { cf1 -> fm; }
  }
  relation Flagged {
    m : String;
    primitive domain v : String;
    domain fm z : Feature { name = m };
    where { m = v }
  }
}
|}
  in
  match Qvtr.Typecheck.check bad_arity ~metamodels:F.metamodels with
  | Ok _ -> Alcotest.fail "missing primitive argument must be rejected"
  | Error _ -> ()

let test_primitive_domain_semantics () =
  (* R says: every cf feature has an fm counterpart whose name equals
     the passed value (= the cf feature's name) *)
  let run cf_names fm_names =
    let models =
      F.bind
        ~cfs:[ F.configuration ~name:"cf1" cf_names ]
        ~fm:(F.feature_model ~name:"fm" (List.map (fun n -> (n, false)) fm_names))
    in
    (Qvtr.Check.run_exn prim_trans ~metamodels:F.metamodels ~models)
      .Qvtr.Check.consistent
  in
  Alcotest.(check bool) "matching names pass" true (run [ "A" ] [ "A" ]);
  Alcotest.(check bool) "superset fm passes" true (run [ "A" ] [ "A"; "B" ]);
  Alcotest.(check bool) "missing name fails" false (run [ "A" ] [ "B" ])

let suite =
  [
    Alcotest.test_case "int comparison semantics" `Quick test_int_comparison_semantics;
    Alcotest.test_case "int comparison parsing" `Quick test_int_comparison_parsing;
    Alcotest.test_case "int comparison typing" `Quick test_int_comparison_typing;
    Alcotest.test_case "int comparison repair" `Quick test_int_comparison_repair;
    Alcotest.test_case "witnesses in reports" `Quick test_witness_in_report;
    Alcotest.test_case "no witnesses when consistent" `Quick test_witness_none_when_consistent;
    Alcotest.test_case "relog counterexample" `Quick test_counterexample_direct;
    Alcotest.test_case "all minimal repairs" `Quick test_enforce_all_three_minima;
    Alcotest.test_case "enforce_all cannot restore" `Quick test_enforce_all_cannot;
    Alcotest.test_case "enforce_all already consistent" `Quick test_enforce_all_consistent;
    Alcotest.test_case "enforce_all limit" `Quick test_enforce_all_limit;
    Alcotest.test_case "symmetry dedup" `Quick test_enforce_all_symmetry_dedup;
    Alcotest.test_case "repair idempotent (hippocratic)" `Slow test_repair_idempotent;
    Alcotest.test_case "primitive domain parsing" `Quick test_primitive_domain_parse;
    Alcotest.test_case "primitive domain typechecking" `Quick
      test_primitive_domain_typecheck;
    Alcotest.test_case "primitive domain semantics" `Quick
      test_primitive_domain_semantics;
  ]

(* ------------------------------------------------------------------ *)
(* Traces                                                              *)

let test_traces () =
  let trans = F.transformation ~k:2 in
  let cfs =
    [ F.configuration ~name:"cf1" [ "A"; "B" ]; F.configuration ~name:"cf2" [ "A" ] ]
  in
  let fm = F.feature_model ~name:"fm" [ ("A", true); ("B", false) ] in
  match Qvtr.Check.traces trans ~metamodels:F.metamodels ~models:(F.bind ~cfs ~fm) with
  | Error e -> Alcotest.fail e
  | Ok ts ->
    let mf = List.filter (fun t -> I.name t.Qvtr.Check.tr_relation = "MF") ts in
    let of_ = List.filter (fun t -> I.name t.Qvtr.Check.tr_relation = "OF") ts in
    (* MF matches: the shared mandatory feature A across (cf1#A, cf2#A, fm#A) *)
    Alcotest.(check int) "one MF match" 1 (List.length mf);
    (match mf with
    | [ t ] ->
      let atoms = List.map (fun (_, a) -> I.name a) t.Qvtr.Check.tr_roots in
      Alcotest.(check (list string)) "MF roots"
        [ "cf1#0"; "cf2#0"; "fm#0" ] atoms
    | _ -> Alcotest.fail "expected one MF trace");
    (* OF matches: (cf1#A, cf2#A, fm#A). B is only in cf1, so no pair
       (s1, s2) shares it; the rendered traces parse as text too *)
    Alcotest.(check int) "one OF match" 1 (List.length of_);
    List.iter
      (fun t ->
        let rendered = Format.asprintf "%a" Qvtr.Check.pp_trace t in
        Alcotest.(check bool) "renders" true (String.length rendered > 0))
      ts

let test_traces_empty_when_inconsistent_parts () =
  (* traces are matches, independent of overall consistency *)
  let trans = F.transformation ~k:2 in
  let cfs = [ F.configuration ~name:"cf1" []; F.configuration ~name:"cf2" [] ] in
  let fm = F.feature_model ~name:"fm" [ ("A", true) ] in
  match Qvtr.Check.traces trans ~metamodels:F.metamodels ~models:(F.bind ~cfs ~fm) with
  | Error e -> Alcotest.fail e
  | Ok ts -> Alcotest.(check int) "no matches" 0 (List.length ts)

let suite =
  suite
  @ [
      Alcotest.test_case "traces" `Quick test_traces;
      Alcotest.test_case "traces on empty models" `Quick
        test_traces_empty_when_inconsistent_parts;
    ]

(* ------------------------------------------------------------------ *)
(* Multi-valued attribute patterns                                     *)

let test_multivalued_attr_pattern () =
  (* a pattern on a [0..*] attribute is membership, not equality *)
  let mm =
    MM.make_exn ~name:"TagDb"
      [
        MM.cls "Item"
          ~attrs:
            [ MM.attr ~key:true "id" MM.P_string;
              MM.attr ~mult:MM.mult_many "tags" MM.P_string ];
      ]
  in
  let mms = [ (I.make "TagDb", mm) ] in
  let trans =
    Qvtr.Parser.parse_exn
      {|
transformation T(a : TagDb, b : TagDb) {
  top relation SharedTag {
    i : String;
    t : String;
    domain a x : Item { id = i, tags = t };
    domain b y : Item { id = i, tags = t };
    dependencies { a -> b; }
  }
}
|}
  in
  let item name tags m =
    let m, id = Mdl.Model.add_object m ~cls:(I.make "Item") in
    let m = Mdl.Model.set_attr1 m id (I.make "id") (Mdl.Value.Str name) in
    Mdl.Model.set_attr m id (I.make "tags") (List.map (fun t -> Mdl.Value.Str t) tags)
  in
  let db name items =
    List.fold_left (fun m (n, tags) -> item n tags m) (Mdl.Model.empty ~name mm) items
  in
  let check a b =
    (Qvtr.Check.run_exn trans ~metamodels:mms
       ~models:[ (I.make "a", db "a" a); (I.make "b", db "b" b) ])
      .Qvtr.Check.consistent
  in
  (* direction a -> b: every (item, tag) of a must appear on the
     same-id item in b; b may have extra tags *)
  Alcotest.(check bool) "subset of tags passes" true
    (check [ ("i1", [ "x" ]) ] [ ("i1", [ "x"; "y" ]) ]);
  Alcotest.(check bool) "missing tag fails" false
    (check [ ("i1", [ "x"; "z" ]) ] [ ("i1", [ "x" ]) ]);
  Alcotest.(check bool) "no tags trivially passes" true
    (check [ ("i1", []) ] [ ("i1", [ "q" ]) ])

let suite =
  suite
  @ [ Alcotest.test_case "multi-valued attribute patterns" `Quick
        test_multivalued_attr_pattern ]

(* ------------------------------------------------------------------ *)
(* Diagnosis                                                           *)

let test_diagnose_cannot_restore () =
  (* new-mandatory-feature, repairing cf1 only: the MF fm->cf2
     direction is unsatisfiable (cf2 frozen, missing N), which is
     exactly why enforcement reports Cannot_restore *)
  let trans = F.transformation ~k:2 in
  let s = Featuremodel.Scenarios.new_mandatory_feature in
  match
    Echo.Engine.diagnose trans ~metamodels:F.metamodels
      ~models:
        (F.bind ~cfs:s.Featuremodel.Scenarios.cfs ~fm:s.Featuremodel.Scenarios.fm)
      ~targets:(Echo.Target.single "cf1")
  with
  | Error e -> Alcotest.fail e
  | Ok ds ->
    let unsat =
      List.filter (fun d -> not d.Echo.Engine.d_satisfiable) ds
    in
    Alcotest.(check int) "exactly one obstruction" 1 (List.length unsat);
    (match unsat with
    | [ d ] ->
      Alcotest.(check string) "it is MF" "MF" (I.name d.Echo.Engine.d_relation);
      Alcotest.(check string) "towards the frozen cf2" "cf2"
        (I.name d.Echo.Engine.d_direction.Qvtr.Ast.dep_target)
    | _ -> Alcotest.fail "expected one diagnosis");
    (* rendering *)
    List.iter
      (fun d ->
        Alcotest.(check bool) "renders" true
          (String.length (Format.asprintf "%a" Echo.Engine.pp_diagnosis d) > 0))
      ds

let test_diagnose_all_satisfiable () =
  (* with all models mutable, every direction is individually fine *)
  let trans = F.transformation ~k:2 in
  let s = Featuremodel.Scenarios.new_mandatory_feature in
  match
    Echo.Engine.diagnose trans ~metamodels:F.metamodels
      ~models:
        (F.bind ~cfs:s.Featuremodel.Scenarios.cfs ~fm:s.Featuremodel.Scenarios.fm)
      ~targets:(Echo.Target.of_list [ "cf1"; "cf2"; "fm" ])
  with
  | Error e -> Alcotest.fail e
  | Ok ds ->
    Alcotest.(check bool) "all satisfiable" true
      (List.for_all (fun d -> d.Echo.Engine.d_satisfiable) ds)

let suite =
  suite
  @ [
      Alcotest.test_case "diagnose cannot-restore" `Quick test_diagnose_cannot_restore;
      Alcotest.test_case "diagnose all-satisfiable" `Quick test_diagnose_all_satisfiable;
    ]

(* ------------------------------------------------------------------ *)
(* Hierarchy (feature-tree) relations with allInstances guards         *)

let tree_mms =
  match
    Mdl.Serialize.parse_metamodels
      {|
metamodel FMT {
  class Feature {
    attr name : string key;
    attr mandatory : bool;
    ref parent : Feature [0..1];
  }
}
metamodel CFT { class Feature { attr name : string key; } }
|}
  with
  | Ok l -> List.map (fun mm -> (Mdl.Metamodel.name mm, mm)) l
  | Error e -> failwith e

let tree_trans =
  Qvtr.Parser.parse_exn
    {|
transformation T(cf1 : CFT, fm : FMT) {
  top relation Parent1 {
    n : String;
    pn : String;
    domain fm c : Feature { name = n, parent = p : Feature { name = pn } };
    domain cf1 q : Feature { name = pn };
    when { n in Feature@cf1.name }
    dependencies { fm -> cf1; }
  }
}
|}

let tree_fm features =
  let fmt = List.assoc (I.make "FMT") tree_mms in
  let m, ids =
    List.fold_left
      (fun (m, ids) (n, parent) ->
        let m, id = Mdl.Model.add_object m ~cls:(I.make "Feature") in
        let m = Mdl.Model.set_attr1 m id (I.make "name") (Mdl.Value.Str n) in
        let m = Mdl.Model.set_attr1 m id (I.make "mandatory") (Mdl.Value.Bool false) in
        (m, (n, id, parent) :: ids))
      (Mdl.Model.empty ~name:"fm" fmt, [])
      features
  in
  List.fold_left
    (fun m (_, id, parent) ->
      match parent with
      | None -> m
      | Some p ->
        let pid =
          match List.find_opt (fun (n, _, _) -> n = p) ids with
          | Some (_, pid, _) -> pid
          | None -> failwith "parent not declared"
        in
        Mdl.Model.add_ref m ~src:id ~ref_:(I.make "parent") ~dst:pid)
    m ids

let tree_cf selected =
  let cft = List.assoc (I.make "CFT") tree_mms in
  List.fold_left
    (fun m n ->
      let m, id = Mdl.Model.add_object m ~cls:(I.make "Feature") in
      Mdl.Model.set_attr1 m id (I.make "name") (Mdl.Value.Str n))
    (Mdl.Model.empty ~name:"cf1" cft)
    selected

let tree_check fm cf =
  (Qvtr.Check.run_exn tree_trans ~metamodels:tree_mms
     ~models:[ (I.make "cf1", tree_cf cf); (I.make "fm", tree_fm fm) ])
    .Qvtr.Check.consistent

let test_hierarchy_relation () =
  let fm = [ ("base", None); ("net", Some "base"); ("wifi", Some "net") ] in
  Alcotest.(check bool) "closed selection passes" true
    (tree_check fm [ "base"; "net"; "wifi" ]);
  Alcotest.(check bool) "parent-only passes" true (tree_check fm [ "base" ]);
  Alcotest.(check bool) "empty passes" true (tree_check fm []);
  Alcotest.(check bool) "child without parent fails" false
    (tree_check fm [ "base"; "wifi" ]);
  Alcotest.(check bool) "mid-level child without root fails" false
    (tree_check fm [ "net" ]);
  (* features unknown to the fm cannot violate the hierarchy *)
  Alcotest.(check bool) "foreign selection ignored by Parent1" true
    (tree_check fm [ "alien" ])

let suite =
  suite
  @ [ Alcotest.test_case "hierarchy via allInstances guard" `Quick
        test_hierarchy_relation ]
