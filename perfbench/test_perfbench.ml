open Perfbench

let test_percentile () =
  (* 10 samples, sorted: 1 2 3 4 5 6 7 8 9 10. Nearest rank: p50 is
     the ceil(5.0) = 5th smallest, p90 the 9th, p95 the ceil(9.5) =
     10th; and 70 samples put p90 at rank 63, not 64. *)
  let s = [| 7.; 3.; 10.; 1.; 5.; 9.; 2.; 8.; 4.; 6. |] in
  Alcotest.(check (float 0.)) "p50" 5. (Stats.percentile s 0.5);
  Alcotest.(check (float 0.)) "p90" 9. (Stats.percentile s 0.9);
  Alcotest.(check (float 0.)) "p95" 10. (Stats.percentile s 0.95);
  Alcotest.(check (float 0.)) "p100" 10. (Stats.percentile s 1.0);
  Alcotest.(check (float 0.)) "p10" 1. (Stats.percentile s 0.1);
  Alcotest.(check int) "beyond p90" 1 (Stats.beyond 10 0.9);
  let s70 = Array.init 70 (fun i -> float_of_int (i + 1)) in
  Alcotest.(check (float 0.)) "p90 of 70" 63. (Stats.percentile s70 0.9);
  Alcotest.(check int) "beyond p90 of 70" 7 (Stats.beyond 70 0.9);
  Alcotest.(check bool) "empty" true (Float.is_nan (Stats.percentile [||] 0.5))

let ev ph name ts tid id parent =
  { Obs.Trace.ph; name; ts; tid; id; parent; args = [] }

(* Domain 0 runs op [0, 10] with a solve [2, 5] nested in it; domain 1
   runs a translation [3, 8] handed off from the op (logical parent =
   op) and an unknown span [4, 6] inside it. A span outside any op is
   excluded by the scope. *)
let test_self_time () =
  let events =
    [
      ev `Begin "bench.op" 0. 0 1 0;
      ev `Begin "solve" 2. 0 2 1;
      ev `Begin "translate.lower" 3. 1 3 1;
      ev `Begin "mystery" 4. 1 4 3;
      ev `End "solve" 5. 0 0 0;
      ev `End "mystery" 6. 1 0 0;
      ev `End "translate.lower" 8. 1 0 0;
      ev `End "bench.op" 10. 0 0 0;
      ev `Begin "solve" 11. 0 5 0;
      ev `End "solve" 12. 0 0 0;
    ]
  in
  let spans = Attrib.spans events in
  let self name =
    (List.find (fun (s : Attrib.span) -> s.Attrib.name = name) spans).Attrib.self
  in
  Alcotest.(check (float 1e-12)) "op self keeps the other domain's child" 7. (self "bench.op");
  Alcotest.(check (float 1e-12)) "solve" 3. (self "solve");
  Alcotest.(check (float 1e-12)) "lower minus its same-domain child" 3. (self "translate.lower");
  let scoped =
    Attrib.select ~scope:(fun n -> if n = "bench.op" then `In else `Pass) spans
  in
  Alcotest.(check int) "span outside the op is out of scope" 4 (List.length scoped);
  let per, none = Attrib.by_layer scoped in
  Alcotest.(check (float 1e-12)) "sat" 3. (List.assoc "sat" per);
  Alcotest.(check (float 1e-12)) "relog" 3. (List.assoc "relog" per);
  Alcotest.(check (float 1e-12)) "unknown and root go unattributed" 9. none

let test_layers () =
  List.iter
    (fun (name, layer) ->
      Alcotest.(check (option string)) name layer (Attrib.layer_of name))
    [
      ("bench.mdl.parse", Some "mdl");
      ("bench.op", None);
      ("typecheck", Some "qvtr");
      ("space.build", Some "echo");
      ("repair.symmetry", Some "relog");
      ("cnf.cardinality", Some "sat");
      ("session.recheck", Some "incr");
      ("server.recheck", Some "server");
      ("portfolio.maxsat", Some "echo");
      ("something.else", None);
    ]

(* The inputs a seed generates, as text: the oneshot request pool and
   the first session pass's initial models and edit batches. *)
let inputs seed =
  let oneshot =
    Array.to_list
      (Array.map
         (fun (r : Wl_oneshot.request) -> String.concat "\n" [ r.spec; r.mms; r.models ])
         (Wl_oneshot.generate ~seed))
  in
  let g = Wl_session.new_gen ~seed ~pass:0 in
  let models = List.map (fun (_, m) -> Mdl.Serialize.model_to_string m) g.Wl_session.cur in
  let batches =
    List.init 40 (fun i ->
        Format.asprintf "%a"
          (Format.pp_print_list (fun ppf (p, es) ->
               Format.fprintf ppf "%s: %a" (Mdl.Ident.name p) (Format.pp_print_list Mdl.Edit.pp) es))
          (Wl_session.next_batch g i))
  in
  String.concat "\x00" (oneshot @ models @ batches)

let test_inputs_repeat () =
  Alcotest.(check bool) "same seed, same bytes" true (String.equal (inputs 7) (inputs 7));
  Alcotest.(check bool) "another seed, other inputs" false (String.equal (inputs 7) (inputs 8))

(* A short run of [n] ops, and the solver work it did. *)
let solver_work prepare n =
  let inst = prepare ~seed:3 in
  let t = Common.tally () in
  let before = Sat.Solver.global_stats () in
  inst.Common.run t ~continue_:(fun () -> Common.ops t < n);
  let after = Sat.Solver.global_stats () in
  inst.Common.dispose ();
  Alcotest.(check int) "no failures" 0 (Common.failed t);
  (after.Sat.Solver.solves - before.Sat.Solver.solves, after.Sat.Solver.conflicts - before.Sat.Solver.conflicts)

let test_counters_repeat () =
  List.iter
    (fun (name, prepare, n) ->
      let a = solver_work prepare n and b = solver_work prepare n in
      Alcotest.(check (pair int int)) (name ^ ": sat.solves, sat.conflicts") a b;
      Alcotest.(check bool) (name ^ ": did solve") true (fst a > 0))
    [ ("oneshot", Wl_oneshot.prepare, 30); ("session", Wl_session.prepare, 20) ]

let suite =
  [
    Alcotest.test_case "nearest-rank percentile" `Quick test_percentile;
    Alcotest.test_case "self time across two domains" `Quick test_self_time;
    Alcotest.test_case "span names map to layers" `Quick test_layers;
    Alcotest.test_case "a seed fixes the generated inputs" `Quick test_inputs_repeat;
    Alcotest.test_case "solver counters repeat on a seed" `Quick test_counters_repeat;
  ]

let () = Alcotest.run "perfbench" [ ("perfbench", suite) ]
