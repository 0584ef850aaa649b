(* Coverage for internal plumbing not exercised directly elsewhere:
   the repair search space (Echo.Space), relational instances, and the
   QVT-R lexer. *)

module F = Featuremodel.Fm
module I = Mdl.Ident
module TS = Relog.Rel.Tupleset

(* --- Echo.Space ----------------------------------------------------- *)

let build_space ?model_weights targets =
  let trans = F.transformation ~k:2 in
  let cfs = [ F.configuration ~name:"cf1" [ "A" ]; F.configuration ~name:"cf2" [] ] in
  let fm = F.feature_model ~name:"fm" [ ("A", true) ] in
  match
    Echo.Space.build ?model_weights ~transformation:trans
      ~metamodels:F.metamodels ~models:(F.bind ~cfs ~fm)
      ~targets:(Echo.Target.of_list targets) ()
  with
  | Ok s -> s
  | Error e -> Alcotest.failf "space: %s" e

let test_space_change_literals_scope () =
  let space = build_space [ "cf1" ] in
  let finder = Relog.Finder.prepare (Echo.Space.bounds space) (Echo.Space.formulas space) in
  let trans = Relog.Finder.translation finder in
  let changes = Echo.Space.change_literals space trans in
  Alcotest.(check bool) "some change literals" true (changes <> []);
  (* only cf1's relations are mutable: every primary belongs to cf1 *)
  let all_cf1 =
    Relog.Translate.fold_primaries trans
      (fun r _ _ acc ->
        acc
        && String.length (I.name r) > 4
        && String.sub (I.name r) 0 4 = "cf1$")
      true
  in
  Alcotest.(check bool) "primaries confined to the target model" true all_cf1

let test_space_weights () =
  let unweighted = build_space [ "cf1" ] in
  let weighted = build_space ~model_weights:[ (I.make "cf1", 3) ] [ "cf1" ] in
  let total s =
    let finder = Relog.Finder.prepare (Echo.Space.bounds s) (Echo.Space.formulas s) in
    List.fold_left
      (fun acc (_, w) -> acc + w)
      0
      (Echo.Space.change_literals s (Relog.Finder.translation finder))
  in
  Alcotest.(check int) "weights scale the total" (3 * total unweighted) (total weighted)

let test_space_rejects_bad_weights () =
  let trans = F.transformation ~k:2 in
  let cfs = [ F.configuration ~name:"cf1" []; F.configuration ~name:"cf2" [] ] in
  let fm = F.feature_model ~name:"fm" [] in
  match
    Echo.Space.build
      ~model_weights:[ (I.make "cf1", 0) ]
      ~transformation:trans ~metamodels:F.metamodels ~models:(F.bind ~cfs ~fm)
      ~targets:(Echo.Target.single "cf1") ()
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "zero weight must be rejected"

let test_space_relational_distance () =
  let space = build_space [ "cf1" ] in
  (* the original instance is at distance 0 from itself *)
  let enc = Echo.Space.encoding space in
  let inst = Qvtr.Encode.check_instance enc in
  Alcotest.(check int) "distance to self" 0 (Echo.Space.relational_distance space inst)

(* --- Relog.Instance -------------------------------------------------- *)

let test_instance_union_all () =
  let u = Relog.Rel.Universe.make [ I.make "a"; I.make "b" ] in
  let i1 = Relog.Instance.set (Relog.Instance.make u) (I.make "R") (TS.of_list [ [| 0 |] ]) in
  let i2 = Relog.Instance.set (Relog.Instance.make u) (I.make "S") (TS.of_list [ [| 1 |] ]) in
  let merged = Relog.Instance.union_all i1 i2 in
  Alcotest.(check int) "both relations present" 2
    (List.length (Relog.Instance.relations merged));
  (* same relation with same value is accepted *)
  let i3 = Relog.Instance.set (Relog.Instance.make u) (I.make "R") (TS.of_list [ [| 0 |] ]) in
  Alcotest.(check bool) "idempotent merge" true
    (Relog.Instance.union_all i1 i3 |> fun m -> Relog.Instance.mem m (I.make "R"));
  (* conflicting values are rejected *)
  let i4 = Relog.Instance.set (Relog.Instance.make u) (I.make "R") (TS.of_list [ [| 1 |] ]) in
  match Relog.Instance.union_all i1 i4 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "conflicting relation values must be rejected"

(* --- Qvtr.Lexer ------------------------------------------------------ *)

let tokens_of src =
  let lx = Qvtr.Lexer.make src in
  let rec go acc =
    match Qvtr.Lexer.token lx with
    | Qvtr.Lexer.Eof -> List.rev acc
    | t ->
      Qvtr.Lexer.next lx;
      go (t :: acc)
  in
  go []

let test_lexer_tokens () =
  let open Qvtr.Lexer in
  Alcotest.(check int) "idents and puncts" 5
    (List.length (tokens_of "foo ( bar , baz"));
  (match tokens_of "x -> y <> z <= w" with
  | [ Ident "x"; Punct "->"; Ident "y"; Punct "<>"; Ident "z"; Punct "<="; Ident "w" ]
    -> ()
  | _ -> Alcotest.fail "multi-char operators");
  (match tokens_of "\"hi\\nthere\" 42 -7" with
  | [ String "hi\nthere"; Int 42; Int (-7) ] -> ()
  | _ -> Alcotest.fail "literals");
  (match tokens_of "a // gone\nb /* also\ngone */ c" with
  | [ Ident "a"; Ident "b"; Ident "c" ] -> ()
  | _ -> Alcotest.fail "comments")

let test_lexer_errors () =
  (match tokens_of "\"unterminated" with
  | exception Qvtr.Lexer.Error _ -> ()
  | _ -> Alcotest.fail "unterminated string must raise");
  match tokens_of "/* unterminated" with
  | exception Qvtr.Lexer.Error _ -> ()
  | _ -> Alcotest.fail "unterminated comment must raise"

let test_lexer_positions () =
  let lx = Qvtr.Lexer.make "a\n  b" in
  Alcotest.(check (pair int int)) "first token position" (1, 1)
    (Qvtr.Lexer.position lx);
  Qvtr.Lexer.next lx;
  Alcotest.(check (pair int int)) "second token position" (2, 3)
    (Qvtr.Lexer.position lx)

let suite =
  [
    Alcotest.test_case "space: change literals confined" `Quick
      test_space_change_literals_scope;
    Alcotest.test_case "space: weights" `Quick test_space_weights;
    Alcotest.test_case "space: bad weights" `Quick test_space_rejects_bad_weights;
    Alcotest.test_case "space: distance to self" `Quick test_space_relational_distance;
    Alcotest.test_case "instance: union_all" `Quick test_instance_union_all;
    Alcotest.test_case "lexer: tokens" `Quick test_lexer_tokens;
    Alcotest.test_case "lexer: errors" `Quick test_lexer_errors;
    Alcotest.test_case "lexer: positions" `Quick test_lexer_positions;
  ]
