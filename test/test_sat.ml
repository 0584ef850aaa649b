(* Tests for the CDCL solver: hand-picked instances, pigeonhole,
   random 3-SAT cross-checked against a brute-force oracle,
   assumptions and unsat cores, incrementality. *)

module S = Sat.Solver
module L = Sat.Lit

let lit_tests () =
  let v = 5 in
  Alcotest.(check int) "var of pos" v (L.var (L.pos v));
  Alcotest.(check int) "var of neg" v (L.var (L.neg_of v));
  Alcotest.(check bool) "sign pos" true (L.sign (L.pos v));
  Alcotest.(check bool) "sign neg" false (L.sign (L.neg_of v));
  Alcotest.(check int) "double negation" (L.pos v) (L.neg (L.neg (L.pos v)));
  Alcotest.(check int) "dimacs round-trip pos" (L.pos v) (L.of_int (L.to_int (L.pos v)));
  Alcotest.(check int) "dimacs round-trip neg" (L.neg_of v) (L.of_int (L.to_int (L.neg_of v)))

let new_vars s n = Array.init n (fun _ -> S.new_var s)

let test_trivial_sat () =
  let s = S.create () in
  let v = new_vars s 2 in
  S.add_clause s [ L.pos v.(0); L.pos v.(1) ];
  S.add_clause s [ L.neg_of v.(0) ];
  Alcotest.(check bool) "sat" true (S.solve s = S.Sat);
  Alcotest.(check bool) "model satisfies" true (S.value s v.(1));
  Alcotest.(check bool) "forced false" false (S.value s v.(0))

let test_trivial_unsat () =
  let s = S.create () in
  let v = new_vars s 1 in
  S.add_clause s [ L.pos v.(0) ];
  S.add_clause s [ L.neg_of v.(0) ];
  Alcotest.(check bool) "unsat" true (S.solve s = S.Unsat)

let test_empty_clause () =
  let s = S.create () in
  S.add_clause s [];
  Alcotest.(check bool) "empty clause unsat" true (S.solve s = S.Unsat)

let test_no_clauses () =
  let s = S.create () in
  let _ = new_vars s 3 in
  Alcotest.(check bool) "vacuous sat" true (S.solve s = S.Sat)

let test_tautology_dropped () =
  let s = S.create () in
  let v = new_vars s 1 in
  S.add_clause s [ L.pos v.(0); L.neg_of v.(0) ];
  Alcotest.(check int) "tautology not stored" 0 (S.nb_clauses s);
  Alcotest.(check bool) "sat" true (S.solve s = S.Sat)

let pigeonhole n m =
  (* n pigeons into m holes *)
  let s = S.create () in
  let v = Array.init n (fun _ -> Array.init m (fun _ -> S.new_var s)) in
  for i = 0 to n - 1 do
    S.add_clause s (List.init m (fun j -> L.pos v.(i).(j)))
  done;
  for j = 0 to m - 1 do
    for i = 0 to n - 1 do
      for k = i + 1 to n - 1 do
        S.add_clause s [ L.neg_of v.(i).(j); L.neg_of v.(k).(j) ]
      done
    done
  done;
  s

let test_pigeonhole_unsat () =
  Alcotest.(check bool) "php(5,4) unsat" true (S.solve (pigeonhole 5 4) = S.Unsat)

let test_pigeonhole_sat () =
  Alcotest.(check bool) "php(4,4) sat" true (S.solve (pigeonhole 4 4) = S.Sat)

(* brute force over <= 16 vars *)
let brute_force nv clauses =
  let rec go assign v =
    if v = nv then
      List.for_all
        (fun c ->
          List.exists
            (fun l -> if L.sign l then assign.(L.var l) else not assign.(L.var l))
            c)
        clauses
    else begin
      assign.(v) <- true;
      go assign (v + 1)
      ||
      (assign.(v) <- false;
       go assign (v + 1))
    end
  in
  go (Array.make nv false) 0

let random_clauses rng nv nc len =
  List.init nc (fun _ ->
      List.init len (fun _ ->
          L.make (Random.State.int rng nv) (Random.State.bool rng)))

let test_random_vs_brute =
  QCheck.Test.make ~name:"solver agrees with brute force on random 3-SAT" ~count:300
    QCheck.small_int (fun seed ->
      let rng = Random.State.make [| seed |] in
      let nv = 6 + Random.State.int rng 4 in
      let nc = 5 + Random.State.int rng 40 in
      let clauses = random_clauses rng nv nc 3 in
      let s = S.create () in
      let _ = new_vars s nv in
      List.iter (S.add_clause s) clauses;
      let got = S.solve s = S.Sat in
      let want = brute_force nv clauses in
      if got <> want then false
      else if got then
        (* the model really satisfies every clause *)
        List.for_all (fun c -> List.exists (S.lit_value s) c) clauses
      else true)

let test_assumptions () =
  let s = S.create () in
  let v = new_vars s 3 in
  (* v0 -> v1 -> v2 *)
  S.add_clause s [ L.neg_of v.(0); L.pos v.(1) ];
  S.add_clause s [ L.neg_of v.(1); L.pos v.(2) ];
  Alcotest.(check bool) "sat under v0" true
    (S.solve ~assumptions:[ L.pos v.(0) ] s = S.Sat);
  Alcotest.(check bool) "propagation under assumption" true (S.value s v.(2));
  Alcotest.(check bool) "unsat under v0 & !v2" true
    (S.solve ~assumptions:[ L.pos v.(0); L.neg_of v.(2) ] s = S.Unsat);
  let core = S.unsat_core s in
  Alcotest.(check bool) "core non-empty" true (core <> []);
  Alcotest.(check bool) "core within assumptions" true
    (List.for_all (fun l -> l = L.pos v.(0) || l = L.neg_of v.(2)) core);
  (* the solver is reusable afterwards *)
  Alcotest.(check bool) "still sat without assumptions" true (S.solve s = S.Sat)

let test_incremental () =
  let s = S.create () in
  let v = new_vars s 2 in
  S.add_clause s [ L.pos v.(0); L.pos v.(1) ];
  Alcotest.(check bool) "sat" true (S.solve s = S.Sat);
  (* add clauses after solving *)
  S.add_clause s [ L.neg_of v.(0) ];
  S.add_clause s [ L.neg_of v.(1) ];
  Alcotest.(check bool) "now unsat" true (S.solve s = S.Unsat);
  (* fresh variables can still be added *)
  let s2 = S.create () in
  let a = S.new_var s2 in
  S.add_clause s2 [ L.pos a ];
  Alcotest.(check bool) "sat" true (S.solve s2 = S.Sat);
  let b = S.new_var s2 in
  S.add_clause s2 [ L.neg_of b ];
  Alcotest.(check bool) "extended instance sat" true (S.solve s2 = S.Sat);
  Alcotest.(check bool) "b false" false (S.value s2 b)

let test_stats () =
  let s = pigeonhole 5 4 in
  let _ = S.solve s in
  let st = S.stats s in
  Alcotest.(check bool) "conflicts happened" true (st.S.conflicts > 0);
  Alcotest.(check bool) "clauses learnt" true (st.S.learnt > 0)

let test_unit_chain_propagation () =
  (* long implication chain solved by propagation alone *)
  let s = S.create () in
  let n = 200 in
  let v = new_vars s n in
  for i = 0 to n - 2 do
    S.add_clause s [ L.neg_of v.(i); L.pos v.(i + 1) ]
  done;
  S.add_clause s [ L.pos v.(0) ];
  Alcotest.(check bool) "sat" true (S.solve s = S.Sat);
  Alcotest.(check bool) "chain end forced" true (S.value s v.(n - 1));
  let st = S.stats s in
  Alcotest.(check bool) "no search needed" true (st.S.conflicts = 0)

let test_core_dedup () =
  let s = S.create () in
  let v = new_vars s 3 in
  S.add_clause s [ L.neg_of v.(0); L.neg_of v.(1) ];
  (* duplicated assumptions must not duplicate core literals *)
  let a = [ L.pos v.(0); L.pos v.(0); L.pos v.(1); L.pos v.(1); L.pos v.(2) ] in
  Alcotest.(check bool) "unsat" true (S.solve ~assumptions:a s = S.Unsat);
  let core = S.unsat_core s in
  Alcotest.(check bool) "sorted and duplicate-free" true
    (core = List.sort_uniq compare core);
  Alcotest.(check bool) "within assumptions" true
    (List.for_all (fun l -> List.mem l a) core)

let test_minimize_core_order_invariant () =
  let s = S.create () in
  let v = new_vars s 6 in
  (* unique minimal core {v0, v1} among six assumed literals *)
  S.add_clause s [ L.neg_of v.(0); L.neg_of v.(1) ];
  let runs =
    List.map
      (fun perm ->
        let a = List.map (fun i -> L.pos v.(i)) perm in
        Alcotest.(check bool) "unsat" true (S.solve ~assumptions:a s = S.Unsat);
        S.minimize_core s)
      [ [ 0; 1; 2; 3; 4; 5 ]; [ 5; 4; 3; 2; 1; 0 ]; [ 2; 0; 4; 1; 5; 3 ] ]
  in
  List.iter
    (fun m ->
      Alcotest.(check bool) "minimal core found" true
        (List.sort compare m = List.sort compare [ L.pos v.(0); L.pos v.(1) ]);
      let mm = S.minimize_core ~core:m s in
      Alcotest.(check bool) "unsat_core returns the minimized core" true
        (S.unsat_core s = mm))
    runs

let test_assumption_trail_reuse () =
  let s = S.create () in
  let n = 200 in
  let v = new_vars s n in
  (* implication chain: the first assumption propagates everything *)
  for i = 0 to n - 2 do
    S.add_clause s [ L.neg_of v.(i); L.pos v.(i + 1) ]
  done;
  let pins = List.init (n - 1) (fun i -> L.pos v.(i)) in
  Alcotest.(check bool) "sat" true (S.solve ~assumptions:pins s = S.Sat);
  let p0 = (S.stats s).S.propagations in
  Alcotest.(check bool) "sat with extended assumptions" true
    (S.solve ~assumptions:(pins @ [ L.pos v.(n - 1) ]) s = S.Sat);
  let p1 = (S.stats s).S.propagations in
  Alcotest.(check bool) "shared prefix not re-propagated" true (p1 - p0 < 20);
  (* a diverging first assumption falls back to a full re-solve and
     still answers correctly (nothing forces v0 from above) *)
  Alcotest.(check bool) "sat under flipped head" true
    (S.solve ~assumptions:[ L.neg_of v.(0) ] s = S.Sat);
  Alcotest.(check bool) "v0 false" false (S.value s v.(0));
  (* adding a clause invalidates the frozen trail; answers stay right *)
  S.add_clause s [ L.pos v.(0) ];
  Alcotest.(check bool) "pins still sat" true (S.solve ~assumptions:pins s = S.Sat);
  Alcotest.(check bool) "flipped head now unsat" true
    (S.solve ~assumptions:[ L.neg_of v.(0) ] s = S.Unsat)

let suite =
  [
    Alcotest.test_case "literals" `Quick lit_tests;
    Alcotest.test_case "trivial sat" `Quick test_trivial_sat;
    Alcotest.test_case "trivial unsat" `Quick test_trivial_unsat;
    Alcotest.test_case "empty clause" `Quick test_empty_clause;
    Alcotest.test_case "no clauses" `Quick test_no_clauses;
    Alcotest.test_case "tautology dropped" `Quick test_tautology_dropped;
    Alcotest.test_case "pigeonhole unsat" `Quick test_pigeonhole_unsat;
    Alcotest.test_case "pigeonhole sat" `Quick test_pigeonhole_sat;
    Alcotest.test_case "assumptions and core" `Quick test_assumptions;
    Alcotest.test_case "core dedup" `Quick test_core_dedup;
    Alcotest.test_case "minimize_core order-invariance" `Quick
      test_minimize_core_order_invariant;
    Alcotest.test_case "assumption trail reuse" `Quick
      test_assumption_trail_reuse;
    Alcotest.test_case "incremental solving" `Quick test_incremental;
    Alcotest.test_case "stats" `Quick test_stats;
    Alcotest.test_case "unit chain" `Quick test_unit_chain_propagation;
    QCheck_alcotest.to_alcotest test_random_vs_brute;
  ]

let test_reduce_db_stress () =
  (* hard enough to trigger learnt-database reductions; correctness is
     the point, the reduce counter proves the path ran *)
  let s = pigeonhole 8 7 in
  Alcotest.(check bool) "php(8,7) unsat" true (S.solve s = S.Unsat);
  let st = S.stats s in
  Alcotest.(check bool) "database was reduced" true (st.S.reduces > 0)

let test_reduce_db_bounds_memory () =
  (* a long-lived solver under many small learnt caps: reductions free
     the clauses they drop, so the solver's whole footprint stays
     within a constant factor of its live problem and learnt clauses
     (each learnt clause has at most [nv] literals plus a header),
     however many clauses it has learnt over its lifetime *)
  let rng = Random.State.make [| 7 |] in
  let nv = 150 in
  let s = S.create () in
  let _ = new_vars s nv in
  List.iter (S.add_clause s) (random_clauses rng nv (41 * nv / 10) 3);
  let problem = S.fold_clauses (fun c acc -> acc + 4 + Array.length c) s 0 in
  for round = 1 to 40 do
    S.set_learnt_cap s 30;
    let assumptions = List.init 6 (fun _ -> L.make (Random.State.int rng nv) (Random.State.bool rng)) in
    ignore (S.solve ~assumptions s);
    let live = problem + ((S.stats s).S.learnt * (4 + nv)) + (40 * nv) in
    let words = Obj.reachable_words (Obj.repr s) in
    if words > 2 * live then
      Alcotest.failf "round %d: %d words held for %d live (%d learnt)" round words live
        (S.stats s).S.learnt
  done;
  let st = S.stats s in
  Alcotest.(check bool) "many reductions" true (st.S.reduces >= 20);
  Alcotest.(check bool) "learnt far more than kept" true (st.S.conflicts > 20 * st.S.learnt)

let test_reduce_db_preserves_models () =
  (* a satisfiable instance solved across reductions still yields a
     correct model *)
  let rng = Random.State.make [| 99 |] in
  let nv = 120 in
  let s = S.create () in
  let _ = new_vars s nv in
  (* under-constrained 3-SAT (ratio ~3.5): satisfiable w.h.p. and
     big enough to restart a few times *)
  let clauses = random_clauses rng nv (7 * nv / 2) 3 in
  List.iter (S.add_clause s) clauses;
  match S.solve s with
  | S.Unsat -> ()  (* unlikely but legal; nothing to verify *)
  | S.Sat ->
    Alcotest.(check bool) "model satisfies all clauses" true
      (List.for_all (fun c -> List.exists (S.lit_value s) c) clauses)

let test_modernization_counters () =
  (* a conflict-heavy instance exercises both phase saving and
     learnt-clause minimization; the counters prove the paths ran *)
  let s = pigeonhole 6 5 in
  Alcotest.(check bool) "php(6,5) unsat" true (S.solve s = S.Unsat);
  Alcotest.(check bool) "phases flipped during search" true (S.phase_flips s > 0);
  Alcotest.(check bool) "learnt clauses were minimized" true
    (S.minimized_lits s > 0)

let test_minimization_preserves_answers =
  (* denser random CNFs than the base corpus (more conflicts, so the
     minimizer actually fires) still agree with the brute-force
     oracle — minimization only ever shrinks learnt clauses and must
     not change any answer *)
  QCheck.Test.make ~name:"answers unchanged under learnt-clause minimization"
    ~count:200 QCheck.small_int (fun seed ->
      let rng = Random.State.make [| 1000 + seed |] in
      let nv = 8 + Random.State.int rng 5 in
      let nc = (4 * nv) + Random.State.int rng (2 * nv) in
      let clauses = random_clauses rng nv nc 3 in
      let s = S.create () in
      let _ = new_vars s nv in
      List.iter (S.add_clause s) clauses;
      let got = S.solve s = S.Sat in
      let want = brute_force nv clauses in
      got = want
      && ((not got) || List.for_all (fun c -> List.exists (S.lit_value s) c) clauses))

let test_phase_saving_preserved () =
  (* a Sat answer saves the model's polarities; clone and interrupt
     must both preserve them *)
  let s = S.create () in
  let n = 12 in
  let v = new_vars s n in
  (* force a specific model: odd vars true, even vars false *)
  Array.iteri
    (fun i vi ->
      S.add_clause s [ (if i mod 2 = 1 then L.pos vi else L.neg_of vi) ])
    v;
  Alcotest.(check bool) "sat" true (S.solve s = S.Sat);
  Array.iteri
    (fun i vi ->
      Alcotest.(check bool)
        (Printf.sprintf "saved phase of v%d follows the model" i)
        (i mod 2 = 1) (S.saved_phase s vi))
    v;
  let before = Array.map (S.saved_phase s) v in
  (* clone: phases carry over *)
  let c = S.clone s in
  Array.iteri
    (fun i vi ->
      Alcotest.(check bool)
        (Printf.sprintf "clone preserves phase of v%d" i)
        before.(i) (S.saved_phase c vi))
    v;
  (* interrupt: the flag makes the next solve raise; the backtrack to
     root must not erase the saved phases *)
  S.interrupt s;
  (match S.solve s with
  | exception S.Interrupted -> ()
  | _ -> Alcotest.fail "pending interrupt must raise");
  Array.iteri
    (fun i vi ->
      Alcotest.(check bool)
        (Printf.sprintf "interrupt preserves phase of v%d" i)
        before.(i) (S.saved_phase s vi))
    v;
  (* and the solver is still usable with the same answer *)
  Alcotest.(check bool) "still sat after interrupt" true (S.solve s = S.Sat)

let suite =
  suite
  @ [
      Alcotest.test_case "reduce_db stress" `Slow test_reduce_db_stress;
      Alcotest.test_case "reduce_db bounds memory" `Quick test_reduce_db_bounds_memory;
      Alcotest.test_case "reduce_db preserves models" `Quick
        test_reduce_db_preserves_models;
      Alcotest.test_case "modernization counters" `Quick
        test_modernization_counters;
      Alcotest.test_case "phase saving preserved by clone/interrupt" `Quick
        test_phase_saving_preserved;
      QCheck_alcotest.to_alcotest test_minimization_preserves_answers;
    ]
