(* Tests for Relog.Hc: exact import/export roundtrip, node sharing,
   evaluator equivalence of the hash-consed pipeline, idempotence of
   the memoized simplifier, and the translation-layer memo built on
   node ids, with the read-only clones that share it. Random formulas
   come from the generators of {!Test_simplify}. *)

module A = Relog.Ast
module Hc = Relog.Hc
module S = Relog.Simplify
module I = Mdl.Ident
module R = Relog.Rel
module TS = R.Tupleset
module B = Relog.Bounds
module T = Relog.Translate

let universe n =
  R.Universe.make (List.init n (fun i -> I.make (Printf.sprintf "a%d" i)))

(* --- sharing -------------------------------------------------------- *)

let test_sharing () =
  let st = Hc.store () in
  let f = A.And [ A.Some_ (A.rel "R"); A.Some_ (A.rel "R") ] in
  let h = Hc.of_ast st f in
  (match h.Hc.f_view with
  | Hc.And [ a; b ] ->
    Alcotest.(check bool) "equal subtrees share one node" true (a == b);
    Alcotest.(check int) "one id" a.Hc.f_id b.Hc.f_id
  | _ -> Alcotest.fail "expected a binary And");
  let n = Hc.nodes st in
  let h' = Hc.of_ast st f in
  Alcotest.(check bool) "re-import is physically equal" true (h == h');
  Alcotest.(check int) "re-import interns nothing" n (Hc.nodes st)

let test_derived_attrs () =
  let st = Hc.store () in
  let f =
    A.Forall
      ( [ (I.make "x", A.Univ) ],
        A.in_ (A.var "x") (A.Union (A.rel "R", A.rel "S")) )
  in
  let h = Hc.of_ast st f in
  Alcotest.(check bool) "closed formula" true (I.Set.is_empty h.Hc.f_free_vars);
  match h.Hc.f_view with
  | Hc.Forall (_, body) ->
    Alcotest.(check bool) "body is open in x" true
      (I.Set.equal body.Hc.f_free_vars (I.Set.singleton (I.make "x")))
  | _ -> Alcotest.fail "expected a Forall"

(* --- random properties ---------------------------------------------- *)

let prop_roundtrip =
  QCheck.Test.make ~name:"to_ast (of_ast f) = f" ~count:500 QCheck.small_int
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let f = Test_simplify.random_formula rng 4 [] in
      let st = Hc.store () in
      Hc.to_ast (Hc.of_ast st f) = f)

let prop_eval_equivalence =
  QCheck.Test.make
    ~name:"hc-simplified formula evaluates like the plain AST" ~count:500
    QCheck.small_int (fun seed ->
      let rng = Random.State.make [| seed |] in
      let f = Test_simplify.random_formula rng 4 [] in
      let inst = Test_simplify.random_instance rng in
      let st = Hc.store () in
      let h = Hc.of_ast st f in
      let before = Relog.Eval.holds inst f in
      let round = Relog.Eval.holds inst (Hc.to_ast h) in
      let simplified =
        Relog.Eval.holds inst (Hc.to_ast (S.hc_formula st h))
      in
      if before = round && before = simplified then true
      else
        QCheck.Test.fail_reportf "disagree on %s"
          (Format.asprintf "%a" A.pp f))

let prop_simplify_idempotent =
  QCheck.Test.make ~name:"hc simplify is a physical fixpoint" ~count:500
    QCheck.small_int (fun seed ->
      let rng = Random.State.make [| seed |] in
      let f = Test_simplify.random_formula rng 4 [] in
      let st = Hc.store () in
      let s = S.hc_formula st (Hc.of_ast st f) in
      S.hc_formula st s == s)

(* --- translation memo and clones ------------------------------------ *)

let bounds_st u =
  let b = B.make u in
  let b = B.bound b (I.make "S") ~lower:TS.empty ~upper:(TS.univ u) in
  B.bound b (I.make "T") ~lower:TS.empty ~upper:(TS.univ u)

let test_translate_memo () =
  let t = T.create (bounds_st (universe 3)) in
  T.materialize t (I.make "S");
  T.materialize t (I.make "T");
  let f =
    A.Forall ([ (I.make "x", A.rel "S") ], A.in_ (A.var "x") (A.rel "T"))
  in
  let l1 = T.formula_lit t f in
  let hits0 = Obs.Metrics.counter_value (Obs.Metrics.counter "relog.memo_hits") in
  let l2 = T.formula_lit t f in
  Alcotest.(check int) "same guard literal" l1 l2;
  Alcotest.(check bool) "second lowering is a memo hit" true
    (Obs.Metrics.counter_value (Obs.Metrics.counter "relog.memo_hits") > hits0)

let suite =
  [
    Alcotest.test_case "node sharing" `Quick test_sharing;
    Alcotest.test_case "derived attributes" `Quick test_derived_attrs;
    QCheck_alcotest.to_alcotest prop_roundtrip;
    QCheck_alcotest.to_alcotest prop_eval_equivalence;
    QCheck_alcotest.to_alcotest prop_simplify_idempotent;
    Alcotest.test_case "translation memo" `Quick test_translate_memo;
  ]
