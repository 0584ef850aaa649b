(* Tests for the bounds-level symmetry analysis (Relog.Symmetry):
   orbit soundness (every detected orbit consists of bounds
   automorphisms), lex-leader SBP completeness on a fully symmetric
   space, and end-to-end invariance of the repair engine — the menu
   and the least-change distances never change when SBPs are on, only
   the search effort does. *)

module I = Mdl.Ident
module R = Relog.Rel
module TS = R.Tupleset
module A = Relog.Ast
module B = Relog.Bounds
module F = Relog.Finder
module Sym = Relog.Symmetry
module Fm = Featuremodel.Fm
module G = Featuremodel.Gen
module Eng = Echo.Engine

let universe n = R.Universe.make (List.init n (fun i -> I.make (Printf.sprintf "a%d" i)))

(* ----------------------------------------------------------------- *)
(* Orbit detection                                                     *)

let test_orbits_deterministic () =
  (* S ⊆ univ(4) with a2 pinned into the lower bound: a2 is
     distinguishable, the other three atoms form one orbit *)
  let u = universe 4 in
  let b =
    B.bound (B.make u) (I.make "S") ~lower:(TS.of_list [ [| 2 |] ])
      ~upper:(TS.univ u)
  in
  let orbits = Sym.orbits b in
  let nontrivial = List.filter (fun o -> List.length o > 1) orbits in
  Alcotest.(check (list (list int))) "one orbit of the three free atoms"
    [ [ 0; 1; 3 ] ] nontrivial

let test_orbits_fixed_pinned () =
  let u = universe 4 in
  let b = B.bound (B.make u) (I.make "S") ~lower:TS.empty ~upper:(TS.univ u) in
  let fixed = I.Set.singleton (I.make "a1") in
  let orbits = Sym.orbits ~fixed b in
  List.iter
    (fun o -> if List.mem 1 o then Alcotest.(check int) "fixed atom alone" 1 (List.length o))
    orbits;
  Alcotest.(check bool) "the rest still permute" true
    (List.exists (fun o -> List.length o = 3) orbits)

let test_orbits_respect_constraints () =
  (* without respect, all atoms of the unconstrained S permute; a
     respect tupleset naming a2 splits it off *)
  let u = universe 3 in
  let b = B.bound (B.make u) (I.make "S") ~lower:TS.empty ~upper:(TS.univ u) in
  Alcotest.(check bool) "all three permute" true
    (List.exists (fun o -> List.length o = 3) (Sym.orbits b));
  let orbits = Sym.orbits ~respect:[ TS.of_list [ [| 2 |] ] ] b in
  List.iter
    (fun o ->
      if List.mem 2 o then Alcotest.(check int) "respected atom alone" 1 (List.length o))
    orbits

(* Random bounds over a small universe: a few relations of arity 1-2
   with random lower ⊆ upper tuplesets. *)
let random_bounds rng n =
  let u = universe n in
  let n_rels = 1 + Random.State.int rng 3 in
  let b = ref (B.make u) in
  for r = 0 to n_rels - 1 do
    let arity = 1 + Random.State.int rng 2 in
    let all =
      if arity = 1 then TS.univ u else TS.product (TS.univ u) (TS.univ u)
    in
    let pick p ts =
      TS.fold (fun t acc -> if Random.State.float rng 1.0 < p then t :: acc else acc) ts []
    in
    let upper = TS.of_list (pick 0.7 all) in
    let lower = TS.of_list (pick 0.2 upper) in
    b := B.bound !b (I.make (Printf.sprintf "R%d" r)) ~lower ~upper
  done;
  (u, !b)

let test_orbit_permutations_are_automorphisms =
  QCheck.Test.make ~name:"every orbit permutation is a bounds automorphism"
    ~count:100 QCheck.small_int (fun seed ->
      let rng = Random.State.make [| 17; seed |] in
      let n = 3 + Random.State.int rng 4 in
      let _, b = random_bounds rng n in
      let orbits = Sym.orbits b in
      List.for_all
        (fun orbit ->
          match orbit with
          | [] | [ _ ] -> true
          | atoms ->
            (* adjacent transpositions (the SBP generators) *)
            let rec pairs = function
              | x :: y :: rest ->
                let swap z = if z = x then y else if z = y then x else z in
                Sym.is_automorphism b swap && pairs (y :: rest)
              | _ -> true
            in
            (* plus a full rotation of the orbit: orbits carry the
               whole symmetric group, not just the generators *)
            let arr = Array.of_list atoms in
            let m = Array.length arr in
            let rot x =
              let rec find i = if i = m then x
                else if arr.(i) = x then arr.((i + 1) mod m)
                else find (i + 1)
              in
              find 0
            in
            pairs atoms && Sym.is_automorphism b rot)
        orbits)

(* ----------------------------------------------------------------- *)
(* Lex-leader SBPs at the finder level                                 *)

(* Assert lex-leader SBPs for the orbits of the finder's bounds, with
   every atom the given formulas name fixed, as the one-shot pass
   does; returns the number of clauses. *)
let add_sbp ?(fixed = I.Set.empty) ?(formulas = []) fd =
  let fixed =
    List.fold_left (fun acc f -> I.Set.union acc (A.free_atoms f)) fixed formulas
  in
  let trans = F.translation fd in
  Sym.break trans (Sym.orbits ~fixed (Relog.Translate.bounds trans))

let test_sbp_canonical_enumeration () =
  (* S ⊆ univ(4), no constraints: 16 instances in 5 isomorphism
     classes (one per cardinality). Chained lex-leader SBPs over the
     single 4-atom orbit are complete for unary relations: exactly one
     canonical instance per class survives. *)
  let u = universe 4 in
  let b = B.bound (B.make u) (I.make "S") ~lower:TS.empty ~upper:(TS.univ u) in
  let plain = F.prepare b [] in
  Alcotest.(check int) "16 instances without SBPs" 16 (F.count plain);
  let fd = F.prepare b [] in
  let n_clauses = add_sbp fd in
  Alcotest.(check bool) "SBP clauses emitted" true (n_clauses > 0);
  Alcotest.(check int) "one survivor per isomorphism class" 5 (F.count fd)

let test_sbp_respects_fixed () =
  (* fixing every atom leaves no orbits: SBPs must be a no-op *)
  let u = universe 4 in
  let b = B.bound (B.make u) (I.make "S") ~lower:TS.empty ~upper:(TS.univ u) in
  let fd = F.prepare b [] in
  let fixed =
    List.fold_left (fun acc a -> I.Set.add a acc) I.Set.empty (R.Universe.atoms u)
  in
  let n = add_sbp ~fixed fd in
  Alcotest.(check int) "no SBP clauses for a fully fixed universe" 0 n;
  Alcotest.(check int) "enumeration unchanged" 16 (F.count fd)

let test_sbp_formula_atoms_fixed () =
  (* a formula naming a1 pins it: instances {a1} and e.g. {a0} are no
     longer isomorphic, and satisfiability of atom-specific formulas
     is preserved under SBPs *)
  let u = universe 3 in
  let b = B.bound (B.make u) (I.make "S") ~lower:TS.empty ~upper:(TS.univ u) in
  let f = A.in_ (A.atom "a1") (A.rel "S") in
  let fd = F.prepare b [ f ] in
  ignore (add_sbp ~formulas:[ f ] fd);
  (match F.solve fd with
  | F.Sat inst ->
    Alcotest.(check bool) "a1 in S" true
      (TS.mem [| 1 |] (Relog.Instance.get inst (I.make "S")))
  | F.Unsat -> Alcotest.fail "must stay satisfiable under SBPs");
  (* a1 fixed, a0/a2 permute: classes are {a1}+0,1,2 of the others *)
  Alcotest.(check int) "3 classes with a1 pinned in" 3 (F.count fd)

let test_sbp_preserves_satisfiability =
  QCheck.Test.make ~name:"SBPs never change satisfiability" ~count:80
    QCheck.small_int (fun seed ->
      let rng = Random.State.make [| 43; seed |] in
      let n = 3 + Random.State.int rng 3 in
      let _, b = random_bounds rng n in
      let pool =
        [
          A.Some_ (A.rel "R0");
          A.Lone (A.rel "R0");
          A.No (A.Inter (A.rel "R0", A.Iden));
          A.in_ (A.atom "a0") (A.Join (A.rel "R0", A.Univ));
          A.forall [ ("x", A.Univ) ] (A.Lone (A.dot (A.var "x") (A.rel "R0")));
        ]
      in
      let formulas =
        List.filteri (fun i _ -> Random.State.bool rng || i = 0) pool
      in
      match F.prepare b formulas with
      | exception Relog.Translate.Unsupported _ -> true
      | plain ->
        let fd = F.prepare b formulas in
        ignore (add_sbp ~formulas fd);
        let sat_plain = F.solve plain <> F.Unsat in
        let sat_sbp = F.solve fd <> F.Unsat in
        sat_plain = sat_sbp)

(* ----------------------------------------------------------------- *)
(* End-to-end: the repair engine under SBPs                            *)

let metamodels = Fm.metamodels

let distance_of = function
  | Ok (Eng.Enforced r) -> Some r.Eng.relational_distance
  | Ok Eng.Already_consistent -> Some 0
  | Ok Eng.Cannot_restore -> None
  | Error e -> Alcotest.fail e

let test_sbp_preserves_least_change =
  (* random perturbed states: the minimal relational distance (the
     least-change metric both backends minimize) reported with and
     without SBPs is identical, and so is feasibility. The edit
     distance of the single returned witness is NOT compared: several
     equally-minimal repairs may exist and [enforce] returns whichever
     the solver finds first — [run_all] is the canonical menu. *)
  QCheck.Test.make ~name:"SBPs never change the least-change distance" ~count:25
    QCheck.small_int (fun seed ->
      let trans = Fm.transformation ~k:2 in
      let rng = G.rng (7000 + seed) in
      let cfs, fm = G.consistent_state rng ~k:2 ~n_features:3 in
      match G.random_perturbation rng (cfs, fm) with
      | None -> true
      | Some p ->
        let cfs, fm = G.apply_perturbation (cfs, fm) p in
        let run sbp targets =
          distance_of
            (Eng.enforce ~sbp trans ~metamodels ~models:(Fm.bind ~cfs ~fm)
               ~targets:(Echo.Target.of_list targets))
        in
        List.for_all
          (fun targets -> run true targets = run false targets)
          [ [ "cf2" ]; [ "cf1"; "cf2" ]; [ "fm"; "cf2" ] ])

(* A deliberately symmetric workload: an empty configuration repaired
   against mandatory features, with more slack objects than needed —
   the created objects can land on any of the slack atoms, and which
   feature lands on which atom is a pure symmetry. Without SBPs every
   assignment of features to atoms is found; those that decode alike
   are dropped as duplicates, and every assignment of features to
   creation order survives as a distinct menu entry. *)
let symmetric_workload ~slack ~features ~sbp =
  let trans = Fm.transformation ~k:1 in
  let cfs = [ Fm.configuration ~name:"cf1" [] ] in
  let fm =
    Fm.feature_model ~name:"fm"
      (List.init features (fun i -> (Printf.sprintf "F%d" i, true)))
  in
  Eng.enforce_all ~sbp ~limit:32 ~slack_objects:slack trans
    ~metamodels
    ~models:(Fm.bind ~cfs ~fm)
    ~targets:(Echo.Target.single "cf1")

(* Set-semantic menu fingerprint: the sorted distinct distance pairs.
   SBPs may shrink the menu (isomorphic variants collapse) but never
   change which distances are reachable. *)
let fingerprint outcomes =
  List.sort_uniq compare
    (List.filter_map
       (function
         | Eng.Enforced r -> Some (r.Eng.relational_distance, r.Eng.edit_distance)
         | _ -> None)
       outcomes)

let dedup_discards = Obs.Metrics.counter "echo.repair.dedup_discards"
let sbp_clauses = Obs.Metrics.counter "relog.symmetry.sbp_clauses"
let sbp_orbits = Obs.Metrics.counter "relog.symmetry.orbits"

let test_menu_isomorphic_and_search_drops () =
  (* satellite property c: with SBPs on the menu collapses to one
     canonical repair per isomorphism class, the reachable distances
     are unchanged, the search does strictly fewer solves, the pass
     finds orbits and emits clauses, and dedup never discards MORE
     than without SBPs. The cases are E12's sym3 and sym4. *)
  let case name ~features ~slack =
    let run sbp =
      let counters () =
        ( Obs.Metrics.counter_value dedup_discards,
          Obs.Metrics.counter_value sbp_clauses,
          Obs.Metrics.counter_value sbp_orbits,
          (Sat.Solver.global_stats ()).Sat.Solver.solves )
      in
      let d0, c0, o0, s0 = counters () in
      match symmetric_workload ~slack ~features ~sbp with
      | Error e -> Alcotest.failf "%s: %s" name e
      | Ok outcomes ->
        let d1, c1, o1, s1 = counters () in
        (fingerprint outcomes, List.length outcomes, d1 - d0, c1 - c0, o1 - o0, s1 - s0)
    in
    let fp_on, menu_on, discards_on, clauses_on, orbits_on, solves_on = run true in
    let fp_off, menu_off, discards_off, _, _, solves_off = run false in
    Alcotest.(check (list (pair int int)))
      (name ^ ": same repair menu modulo isomorphism") fp_off fp_on;
    Alcotest.(check bool)
      (Printf.sprintf "%s: isomorphic variants collapse (%d on vs %d off)" name
         menu_on menu_off)
      true
      (1 <= menu_on && menu_on < menu_off);
    Alcotest.(check bool)
      (Printf.sprintf "%s: fewer solves with SBPs on (%d on vs %d off)" name
         solves_on solves_off)
      true (solves_on < solves_off);
    Alcotest.(check bool)
      (Printf.sprintf "%s: orbits found (%d) and SBP clauses emitted (%d)" name
         orbits_on clauses_on)
      true
      (orbits_on > 0 && clauses_on > 0);
    Alcotest.(check bool)
      (Printf.sprintf "%s: dedup discards never grow (%d on vs %d off)" name
         discards_on discards_off)
      true
      (discards_on <= discards_off);
    (menu_on, menu_off)
  in
  Alcotest.(check (pair int int))
    "sym3: 3! variants collapse to one" (1, 6)
    (case "sym3" ~features:3 ~slack:4);
  ignore (case "sym4" ~features:4 ~slack:5)

let suite =
  [
    Alcotest.test_case "orbits: deterministic split" `Quick test_orbits_deterministic;
    Alcotest.test_case "orbits: fixed atoms pinned" `Quick test_orbits_fixed_pinned;
    Alcotest.test_case "orbits: respect constraints" `Quick test_orbits_respect_constraints;
    QCheck_alcotest.to_alcotest test_orbit_permutations_are_automorphisms;
    Alcotest.test_case "SBP canonical enumeration" `Quick test_sbp_canonical_enumeration;
    Alcotest.test_case "SBP no-op when fully fixed" `Quick test_sbp_respects_fixed;
    Alcotest.test_case "SBP fixes formula atoms" `Quick test_sbp_formula_atoms_fixed;
    QCheck_alcotest.to_alcotest test_sbp_preserves_satisfiability;
    QCheck_alcotest.to_alcotest test_sbp_preserves_least_change;
    Alcotest.test_case "menu isomorphic, search drops" `Quick
      test_menu_isomorphic_and_search_drops;
  ]
