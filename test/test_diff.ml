(* Tests for Mdl.Edit / Mdl.Diff / Mdl.Distance: edit scripts, the
   diff/apply round-trip, and the metric laws of Δ. *)

module MM = Mdl.Metamodel
module Model = Mdl.Model
module I = Mdl.Ident
module V = Mdl.Value

let mm =
  MM.make_exn ~name:"G"
    [
      MM.cls "N"
        ~attrs:[ MM.attr ~mult:MM.mult_opt "tag" MM.P_string ]
        ~refs:[ MM.ref_ "out" ~target:"N" ];
    ]

let n_cls = I.make "N"
let tag = I.make "tag"
let out = I.make "out"

(* Random model generator over a fixed id space 0..n-1. *)
let random_model rng n =
  let m = ref (Model.empty ~name:"m" mm) in
  let present = Array.init n (fun _ -> Random.State.bool rng) in
  Array.iteri
    (fun i p -> if p then m := Model.add_object_with_id !m ~id:i ~cls:n_cls)
    present;
  for i = 0 to n - 1 do
    if present.(i) then begin
      if Random.State.bool rng then
        m :=
          Model.set_attr1 !m i tag
            (V.str (String.make 1 (Char.chr (97 + Random.State.int rng 3))));
      for j = 0 to n - 1 do
        if present.(j) && Random.State.int rng 3 = 0 then
          m := Model.add_ref !m ~src:i ~ref_:out ~dst:j
      done
    end
  done;
  !m

let test_identical_models_empty_script () =
  let rng = Random.State.make [| 1 |] in
  let m = random_model rng 4 in
  Alcotest.(check int) "no edits" 0 (List.length (Mdl.Diff.script m m));
  Alcotest.(check int) "delta 0" 0 (Mdl.Distance.delta m m)

let test_simple_edits () =
  let m = Model.empty ~name:"m" mm in
  let m, a = Model.add_object m ~cls:n_cls in
  let m2 = Model.set_attr1 m a tag (V.str "x") in
  Alcotest.(check int) "one attr edit" 1 (List.length (Mdl.Diff.script m m2));
  let m3, b = Model.add_object m2 ~cls:n_cls in
  let m3 = Model.add_ref m3 ~src:a ~ref_:out ~dst:b in
  (* add object + add edge *)
  Alcotest.(check int) "object + edge" 2 (List.length (Mdl.Diff.script m2 m3));
  Alcotest.(check int) "delta counts both" 2 (Mdl.Distance.delta m2 m3)

let test_apply_roundtrip_random =
  QCheck.Test.make ~name:"apply (script a b) a = b" ~count:200 QCheck.small_int
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let a = random_model rng 5 in
      let b = random_model rng 5 in
      let script = Mdl.Diff.script a b in
      match Mdl.Edit.apply_script a script with
      | Ok b' -> Model.equal b' b
      | Error msg -> QCheck.Test.fail_reportf "apply failed: %s" msg)

let test_metric_laws =
  QCheck.Test.make ~name:"Δ is a metric (identity, symmetry, triangle)" ~count:100
    (QCheck.triple QCheck.small_int QCheck.small_int QCheck.small_int)
    (fun (s1, s2, s3) ->
      let m1 = random_model (Random.State.make [| s1 |]) 4 in
      let m2 = random_model (Random.State.make [| s2 |]) 4 in
      let m3 = random_model (Random.State.make [| s3 |]) 4 in
      let d = Mdl.Distance.delta in
      d m1 m1 = 0
      && (d m1 m2 = 0) = Model.equal m1 m2
      && d m1 m2 = d m2 m1
      && d m1 m3 <= d m1 m2 + d m2 m3)

let test_invert_roundtrip =
  QCheck.Test.make ~name:"inverse script undoes slot edits" ~count:200 QCheck.small_int
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let a = random_model rng 5 in
      let b = random_model rng 5 in
      (* restrict to states with equal object sets so inversion is
         well-defined without class bookkeeping *)
      let objs_equal = Model.objects a = Model.objects b in
      QCheck.assume objs_equal;
      let script = Mdl.Diff.script a b in
      match Mdl.Edit.apply_script a script with
      | Error msg -> QCheck.Test.fail_reportf "apply failed: %s" msg
      | Ok b' -> (
        match Mdl.Edit.apply_script b' (Mdl.Edit.invert_script script) with
        | Ok a' -> Model.equal a a'
        | Error msg -> QCheck.Test.fail_reportf "inverse apply failed: %s" msg))

let test_reclassification () =
  let mm2 = MM.make_exn ~name:"Z" [ MM.cls "A"; MM.cls "B" ] in
  let a = Model.add_object_with_id (Model.empty ~name:"m" mm2) ~id:0 ~cls:(I.make "A") in
  let b = Model.add_object_with_id (Model.empty ~name:"m" mm2) ~id:0 ~cls:(I.make "B") in
  let script = Mdl.Diff.script a b in
  (match Mdl.Edit.apply_script a script with
  | Ok b' -> Alcotest.(check bool) "reclassification handled" true (Model.equal b b')
  | Error msg -> Alcotest.failf "apply failed: %s" msg);
  Alcotest.(check int) "delete + create" 2 (List.length script)

let suite =
  [
    Alcotest.test_case "identical models" `Quick test_identical_models_empty_script;
    Alcotest.test_case "simple edits" `Quick test_simple_edits;
    Alcotest.test_case "reclassification" `Quick test_reclassification;
    QCheck_alcotest.to_alcotest test_apply_roundtrip_random;
    QCheck_alcotest.to_alcotest test_metric_laws;
    QCheck_alcotest.to_alcotest test_invert_roundtrip;
  ]
