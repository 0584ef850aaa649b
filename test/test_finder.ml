(* Tests for Relog.Bounds / Translate / Finder: the bounded model
   finder, cross-validated against brute-force enumeration with the
   evaluator. *)

module I = Mdl.Ident
module R = Relog.Rel
module TS = R.Tupleset
module A = Relog.Ast
module B = Relog.Bounds
module F = Relog.Finder

let universe n = R.Universe.make (List.init n (fun i -> I.make (Printf.sprintf "a%d" i)))

let test_bounds_validation () =
  let u = universe 2 in
  let b = B.make u in
  let unary = TS.of_list [ [| 0 |] ] in
  let b = B.bound b (I.make "S") ~lower:unary ~upper:(TS.univ u) in
  Alcotest.(check (option int)) "arity recorded" (Some 1) (B.arity b (I.make "S"));
  (match B.bound b (I.make "S") ~lower:TS.empty ~upper:TS.empty with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "rebinding must raise");
  (match B.bound b (I.make "T") ~lower:(TS.univ u) ~upper:unary with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "lower ⊄ upper must raise");
  let b = B.loosen b (I.make "S") ~lower:TS.empty ~upper:(TS.univ u) in
  Alcotest.(check bool) "loosen replaces" true
    (match B.get b (I.make "S") with Some (l, _) -> TS.is_empty l | None -> false)

let test_exact_bounds_are_constant () =
  let u = universe 3 in
  let v = TS.of_list [ [| 0 |]; [| 2 |] ] in
  let b = B.exact (B.make u) (I.make "S") v in
  let fd = F.prepare b [ A.Some_ (A.rel "S") ] in
  (match F.solve fd with
  | F.Sat inst -> Alcotest.(check bool) "decoded equals bound" true (TS.equal (Relog.Instance.get inst (I.make "S")) v)
  | F.Unsat -> Alcotest.fail "constant instance must satisfy");
  (* blocking the only instance exhausts the space *)
  F.block fd;
  Alcotest.(check bool) "no second instance" true (F.solve fd = F.Unsat)

let count_sat ~n formulas =
  (* brute-force count of unary S ⊆ univ over n atoms satisfying the
     formulas, via the evaluator *)
  let u = universe n in
  let atoms = List.init n (fun i -> [| i |]) in
  let rec subsets = function
    | [] -> [ [] ]
    | t :: rest ->
      let rs = subsets rest in
      rs @ List.map (fun s -> t :: s) rs
  in
  List.length
    (List.filter
       (fun sub ->
         let inst = Relog.Instance.set (Relog.Instance.make u) (I.make "S") (TS.of_list sub) in
         List.for_all (Relog.Eval.holds inst) formulas)
       (subsets atoms))

let finder_count ~n formulas =
  let u = universe n in
  let b = B.bound (B.make u) (I.make "S") ~lower:TS.empty ~upper:(TS.univ u) in
  F.count (F.prepare b formulas)

let test_enumeration_matches_eval () =
  let cases =
    [
      [ A.Some_ (A.rel "S") ];
      [ A.No (A.rel "S") ];
      [ A.Lone (A.rel "S") ];
      [ A.One (A.rel "S") ];
      [ A.in_ (A.atom "a0") (A.rel "S") ];
      [ A.forall [ ("x", A.rel "S") ] (A.eq (A.var "x") (A.atom "a1")) ];
      [ A.exists [ ("x", A.Univ) ] (A.not_ (A.in_ (A.var "x") (A.rel "S"))) ];
    ]
  in
  List.iteri
    (fun i formulas ->
      Alcotest.(check int)
        (Printf.sprintf "case %d count matches" i)
        (count_sat ~n:3 formulas) (finder_count ~n:3 formulas))
    cases

let test_functions_count () =
  (* total functions over n atoms: n^n *)
  let u = universe 3 in
  let all_pairs = TS.product (TS.univ u) (TS.univ u) in
  let b = B.bound (B.make u) (I.make "R") ~lower:TS.empty ~upper:all_pairs in
  let f = A.forall [ ("x", A.Univ) ] (A.One (A.dot (A.var "x") (A.rel "R"))) in
  Alcotest.(check int) "27 functions" 27 (F.count (F.prepare b [ f ]));
  (* permutations: functions with injectivity *)
  let inj =
    A.forall [ ("x", A.Univ); ("y", A.Univ) ]
      (A.implies
         (A.eq (A.dot (A.var "x") (A.rel "R")) (A.dot (A.var "y") (A.rel "R")))
         (A.eq (A.var "x") (A.var "y")))
  in
  let b = B.bound (B.make u) (I.make "R") ~lower:TS.empty ~upper:all_pairs in
  Alcotest.(check int) "6 permutations" 6 (F.count (F.prepare b [ f; inj ]))

let test_closure_translation () =
  (* strict linear orders over 4 atoms: 24 *)
  let u = universe 4 in
  let all_pairs = TS.product (TS.univ u) (TS.univ u) in
  let b = B.bound (B.make u) (I.make "R") ~lower:TS.empty ~upper:all_pairs in
  let r = A.rel "R" in
  let irrefl = A.No (A.Inter (r, A.Iden)) in
  let trans = A.in_ (A.Join (r, r)) r in
  let total =
    A.forall [ ("x", A.Univ); ("y", A.Univ) ]
      (A.disj
         [
           A.eq (A.var "x") (A.var "y");
           A.in_ (A.Product (A.var "x", A.var "y")) r;
           A.in_ (A.Product (A.var "y", A.var "x")) r;
         ])
  in
  Alcotest.(check int) "24 linear orders" 24 (F.count (F.prepare b [ irrefl; trans; total ]));
  (* closure consistency: ^R = R for transitive relations *)
  let b = B.bound (B.make u) (I.make "R") ~lower:TS.empty ~upper:all_pairs in
  let fd = F.prepare b [ trans; A.Some_ r; A.not_ (A.eq (A.Closure r) r) ] in
  Alcotest.(check bool) "^R = R under transitivity" true (F.solve fd = F.Unsat)

let test_decoded_instances_satisfy () =
  let u = universe 3 in
  let all_pairs = TS.product (TS.univ u) (TS.univ u) in
  let b = B.bound (B.make u) (I.make "R") ~lower:TS.empty ~upper:all_pairs in
  let f =
    A.conj
      [
        A.Some_ (A.rel "R");
        A.in_ (A.Join (A.rel "R", A.rel "R")) (A.rel "R");
        A.No (A.Inter (A.rel "R", A.Iden));
      ]
  in
  let fd = F.prepare b [ f ] in
  let insts = F.enumerate ~limit:50 fd in
  Alcotest.(check bool) "non-empty" true (insts <> []);
  Alcotest.(check bool) "every decoded instance satisfies the formula" true
    (List.for_all (fun inst -> Relog.Eval.holds inst f) insts)

let test_lower_bound_respected () =
  let u = universe 3 in
  let lower = TS.of_list [ [| 0 |] ] in
  let b = B.bound (B.make u) (I.make "S") ~lower ~upper:(TS.univ u) in
  let fd = F.prepare b [] in
  let insts = F.enumerate fd in
  Alcotest.(check int) "2 free atoms -> 4 instances" 4 (List.length insts);
  Alcotest.(check bool) "lower bound everywhere" true
    (List.for_all
       (fun inst -> TS.subset lower (Relog.Instance.get inst (I.make "S")))
       insts)

let test_unsupported () =
  let u = universe 2 in
  let b = B.make u in
  (* unbound relation *)
  match F.prepare b [ A.Some_ (A.rel "Ghost") ] with
  | exception Relog.Translate.Unsupported _ -> ()
  | _ -> Alcotest.fail "unbound relation must raise"

let test_assumption_solving () =
  let u = universe 2 in
  let b = B.bound (B.make u) (I.make "S") ~lower:TS.empty ~upper:(TS.univ u) in
  let fd = F.prepare b [] in
  let trans = F.translation fd in
  (* find the primary variable of atom a0 and force it by assumption *)
  let v =
    match Relog.Translate.primary_var trans (I.make "S") [| 0 |] with
    | Some v -> v
    | None -> Alcotest.fail "expected a primary variable"
  in
  (match F.solve ~assumptions:[ Sat.Lit.pos v ] fd with
  | F.Sat inst ->
    Alcotest.(check bool) "assumed tuple present" true
      (TS.mem [| 0 |] (Relog.Instance.get inst (I.make "S")))
  | F.Unsat -> Alcotest.fail "assumption should be satisfiable");
  match F.solve ~assumptions:[ Sat.Lit.neg_of v ] fd with
  | F.Sat inst ->
    Alcotest.(check bool) "negated assumption excludes tuple" false
      (TS.mem [| 0 |] (Relog.Instance.get inst (I.make "S")))
  | F.Unsat -> Alcotest.fail "negated assumption should be satisfiable"

let suite =
  [
    Alcotest.test_case "bounds validation" `Quick test_bounds_validation;
    Alcotest.test_case "exact bounds constant" `Quick test_exact_bounds_are_constant;
    Alcotest.test_case "enumeration matches eval" `Quick test_enumeration_matches_eval;
    Alcotest.test_case "function counting" `Quick test_functions_count;
    Alcotest.test_case "closure translation" `Quick test_closure_translation;
    Alcotest.test_case "decoded instances satisfy" `Quick test_decoded_instances_satisfy;
    Alcotest.test_case "lower bounds respected" `Quick test_lower_bound_respected;
    Alcotest.test_case "unsupported inputs" `Quick test_unsupported;
    Alcotest.test_case "assumption solving" `Quick test_assumption_solving;
  ]
