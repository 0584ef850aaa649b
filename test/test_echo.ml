(* Tests for the enforcement engine (paper §3): transformation shapes,
   least-change minimality (cross-checked against exhaustive search),
   backend agreement, weighted aggregation, and Cannot_restore. *)

module F = Featuremodel.Fm
module G = Featuremodel.Gen
module Eng = Echo.Engine
module I = Mdl.Ident

let metamodels = F.metamodels

let enforce ?backend ?model_weights trans cfs fm targets =
  Eng.enforce ?backend ?model_weights trans ~metamodels ~models:(F.bind ~cfs ~fm)
    ~targets:(Echo.Target.of_list targets)

let test_target_validation () =
  let params = [ I.make "cf1"; I.make "fm" ] in
  Alcotest.(check bool) "ok" true
    (Result.is_ok (Echo.Target.validate ~params (Echo.Target.single "cf1")));
  Alcotest.(check bool) "empty rejected" true
    (Result.is_error (Echo.Target.validate ~params (Echo.Target.of_list [])));
  Alcotest.(check bool) "unknown rejected" true
    (Result.is_error (Echo.Target.validate ~params (Echo.Target.single "zz")));
  let ab = Echo.Target.all_but ~params "cf1" in
  Alcotest.(check int) "all_but" 1 (I.Set.cardinal ab);
  Alcotest.(check bool) "all_but excludes" false (I.Set.mem (I.make "cf1") ab)

let test_already_consistent () =
  let trans = F.transformation ~k:2 in
  let cfs = [ F.configuration ~name:"cf1" [ "A" ]; F.configuration ~name:"cf2" [ "A" ] ] in
  let fm = F.feature_model ~name:"fm" [ ("A", true) ] in
  match enforce trans cfs fm [ "fm" ] with
  | Ok Eng.Already_consistent -> ()
  | Ok o -> Alcotest.failf "expected Already_consistent, got %s" (Format.asprintf "%a" Eng.pp_outcome o)
  | Error e -> Alcotest.fail e

let test_repair_restores_consistency () =
  let trans = F.transformation ~k:2 in
  List.iter
    (fun (s : Featuremodel.Scenarios.t) ->
      List.iter
        (fun targets ->
          match
            enforce trans s.Featuremodel.Scenarios.cfs s.Featuremodel.Scenarios.fm targets
          with
          | Ok (Eng.Enforced r) ->
            let report =
              Qvtr.Check.run_exn trans ~metamodels ~models:r.Eng.repaired
            in
            if not report.Qvtr.Check.consistent then
              Alcotest.failf "%s / %s: repaired models inconsistent"
                s.Featuremodel.Scenarios.s_name (String.concat "," targets)
          | Ok o ->
            Alcotest.failf "%s / %s: expected repair, got %s"
              s.Featuremodel.Scenarios.s_name (String.concat "," targets)
              (Format.asprintf "%a" Eng.pp_outcome o)
          | Error e -> Alcotest.fail e)
        s.Featuremodel.Scenarios.restorable)
    Featuremodel.Scenarios.all

let test_cannot_restore () =
  let trans = F.transformation ~k:2 in
  List.iter
    (fun (s : Featuremodel.Scenarios.t) ->
      List.iter
        (fun targets ->
          match
            enforce trans s.Featuremodel.Scenarios.cfs s.Featuremodel.Scenarios.fm targets
          with
          | Ok Eng.Cannot_restore -> ()
          | Ok o ->
            Alcotest.failf "%s / %s: expected Cannot_restore, got %s"
              s.Featuremodel.Scenarios.s_name (String.concat "," targets)
              (Format.asprintf "%a" Eng.pp_outcome o)
          | Error e -> Alcotest.fail e)
        s.Featuremodel.Scenarios.not_restorable)
    Featuremodel.Scenarios.all

let test_backends_agree_on_optimum () =
  let trans = F.transformation ~k:2 in
  List.iter
    (fun (s : Featuremodel.Scenarios.t) ->
      List.iter
        (fun targets ->
          let run backend =
            match
              enforce ~backend trans s.Featuremodel.Scenarios.cfs
                s.Featuremodel.Scenarios.fm targets
            with
            | Ok (Eng.Enforced r) -> Some r.Eng.relational_distance
            | Ok Eng.Cannot_restore -> None
            | Ok Eng.Already_consistent -> Some 0
            | Error e -> Alcotest.fail e
          in
          let it = run Eng.Iterative and mx = run Eng.Maxsat in
          if it <> mx then
            Alcotest.failf "%s / %s: iterative %s vs maxsat %s"
              s.Featuremodel.Scenarios.s_name (String.concat "," targets)
              (match it with Some d -> string_of_int d | None -> "-")
              (match mx with Some d -> string_of_int d | None -> "-"))
        (s.Featuremodel.Scenarios.restorable @ s.Featuremodel.Scenarios.not_restorable))
    Featuremodel.Scenarios.all

(* Exhaustive minimality oracle for single-target CF repairs over a
   bounded name pool: enumerate all configurations over the pool and
   find the minimal edit distance among consistent ones. *)
let minimal_cf_repair_distance cfs fm ~cf_index ~pool =
  let candidates = G.all_subsets pool in
  let best = ref None in
  List.iter
    (fun selection ->
      let cf' = F.configuration ~name:(Printf.sprintf "cf%d" (cf_index + 1)) selection in
      let cfs' = List.mapi (fun i c -> if i = cf_index then cf' else c) cfs in
      if F.consistent ~cfs:cfs' ~fm then begin
        (* relational distance of a CF change: 2 per feature added or
           removed (extent tuple + name tuple) *)
        let module SS = Set.Make (String) in
        let before = SS.of_list (F.cf_features (List.nth cfs cf_index)) in
        let after = SS.of_list selection in
        let d = 2 * SS.cardinal (SS.union (SS.diff before after) (SS.diff after before)) in
        match !best with
        | None -> best := Some d
        | Some b -> if d < b then best := Some d
      end)
    candidates;
  !best

let test_minimality_vs_exhaustive () =
  let trans = F.transformation ~k:2 in
  let pool = G.feature_names 3 in
  let rng = G.rng 7 in
  let tried = ref 0 in
  (* random inconsistent states; repair cf2 and compare against the
     exhaustive optimum *)
  for _ = 1 to 12 do
    let cfs, fm = G.consistent_state rng ~k:2 ~n_features:3 in
    match G.random_perturbation rng (cfs, fm) with
    | None -> ()
    | Some p ->
      let cfs, fm = G.apply_perturbation (cfs, fm) p in
      if not (F.consistent ~cfs ~fm) then begin
        let oracle = minimal_cf_repair_distance cfs fm ~cf_index:1 ~pool:("X1" :: pool) in
        let got =
          match enforce trans cfs fm [ "cf2" ] with
          | Ok (Eng.Enforced r) -> Some r.Eng.relational_distance
          | Ok Eng.Cannot_restore -> None
          | Ok Eng.Already_consistent -> Some 0
          | Error e -> Alcotest.fail e
        in
        incr tried;
        (* the engine may use values outside the pool; oracle None
           means the engine must also fail (or need fresh features the
           oracle pool lacks) *)
        match (oracle, got) with
        | Some o, Some g ->
          if g <> o then
            Alcotest.failf "minimality mismatch: engine %d vs oracle %d (state %s / %s)"
              g o
              (String.concat "+" (List.map (fun c -> String.concat "," (F.cf_features c)) cfs))
              (String.concat ","
                 (List.map (fun (n, m) -> if m then n ^ "!" else n) (F.fm_features fm)))
        | None, None -> ()
        | None, Some _ | Some _, None ->
          (* pool mismatch is possible only when the perturbation
             introduced a fresh feature name (X1 covered); flag it *)
          Alcotest.failf "oracle/engine feasibility mismatch"
      end
  done;
  Alcotest.(check bool) "exercised at least one state" true (!tried > 0)

let test_weighted_repair_changes_optimum () =
  (* renamed-feature scenario with fm prioritised: the optimum avoids
     touching fm when it is expensive (see examples/coevolution) *)
  let trans = F.transformation ~k:2 in
  let cfs =
    [ F.configuration ~name:"cf1" [ "A2" ]; F.configuration ~name:"cf2" [ "A" ] ]
  in
  let fm = F.feature_model ~name:"fm" [ ("A", true) ] in
  let unweighted =
    match enforce trans cfs fm [ "fm"; "cf2" ] with
    | Ok (Eng.Enforced r) -> r.Eng.relational_distance
    | _ -> Alcotest.fail "expected repair"
  in
  let weighted =
    match
      enforce ~model_weights:[ (I.make "fm", 10) ] trans cfs fm [ "fm"; "cf2" ]
    with
    | Ok (Eng.Enforced r) -> r.Eng.relational_distance
    | _ -> Alcotest.fail "expected repair"
  in
  Alcotest.(check bool) "weighting increases the weighted optimum" true
    (weighted > unweighted)

let test_object_creation_via_slack () =
  (* repairing an empty configuration against a mandatory feature
     requires creating objects *)
  let trans = F.transformation ~k:1 in
  let cfs = [ F.configuration ~name:"cf1" [] ] in
  let fm = F.feature_model ~name:"fm" [ ("A", true); ("B", true) ] in
  match enforce trans cfs fm [ "cf1" ] with
  | Ok (Eng.Enforced r) ->
    let cf = List.assoc (I.make "cf1") r.Eng.repaired in
    Alcotest.(check (list string)) "both features created" [ "A"; "B" ] (F.cf_features cf)
  | Ok o -> Alcotest.failf "expected repair, got %s" (Format.asprintf "%a" Eng.pp_outcome o)
  | Error e -> Alcotest.fail e

let test_slack_exhaustion () =
  (* with slack 1, creating two objects is impossible *)
  let trans = F.transformation ~k:1 in
  let cfs = [ F.configuration ~name:"cf1" [] ] in
  let fm = F.feature_model ~name:"fm" [ ("A", true); ("B", true) ] in
  match
    Eng.enforce ~slack_objects:1 trans ~metamodels ~models:(F.bind ~cfs ~fm)
      ~targets:(Echo.Target.single "cf1")
  with
  | Ok Eng.Cannot_restore -> ()
  | Ok o -> Alcotest.failf "expected Cannot_restore, got %s" (Format.asprintf "%a" Eng.pp_outcome o)
  | Error e -> Alcotest.fail e

let test_negative_slack () =
  (* a negative slack pool is an input error on every entry point that
     encodes, not an exception out of the encoder *)
  let trans = F.transformation ~k:1 in
  let models =
    F.bind ~cfs:[ F.configuration ~name:"cf1" [] ] ~fm:(F.feature_model ~name:"fm" [ ("A", true) ])
  in
  let targets = Echo.Target.single "cf1" in
  let expect_error what = function
    | Ok _ -> Alcotest.failf "%s: expected an error for slack -1" what
    | Error _ -> ()
  in
  List.iter
    (fun backend ->
      expect_error "enforce"
        (Eng.enforce ~backend ~slack_objects:(-1) trans ~metamodels ~models ~targets))
    [ Eng.Iterative; Eng.Maxsat ];
  expect_error "enforce_all"
    (Eng.enforce_all ~slack_objects:(-1) trans ~metamodels ~models ~targets);
  expect_error "diagnose"
    (Eng.diagnose ~slack_objects:(-1) trans ~metamodels ~models ~targets)

let test_repaired_conform () =
  let trans = F.transformation ~k:2 in
  let s = Featuremodel.Scenarios.new_mandatory_feature in
  match enforce trans s.Featuremodel.Scenarios.cfs s.Featuremodel.Scenarios.fm [ "cf1"; "cf2" ] with
  | Ok (Eng.Enforced r) ->
    List.iter
      (fun (p, m) ->
        if not (Mdl.Conformance.conforms m) then
          Alcotest.failf "repaired %s does not conform" (I.name p))
      r.Eng.repaired
  | _ -> Alcotest.fail "expected repair"

let suite =
  [
    Alcotest.test_case "target validation" `Quick test_target_validation;
    Alcotest.test_case "already consistent" `Quick test_already_consistent;
    Alcotest.test_case "repairs restore consistency (E6)" `Slow test_repair_restores_consistency;
    Alcotest.test_case "cannot-restore cases (E6)" `Quick test_cannot_restore;
    Alcotest.test_case "backends agree (E7)" `Slow test_backends_agree_on_optimum;
    Alcotest.test_case "minimality vs exhaustive (E7)" `Slow test_minimality_vs_exhaustive;
    Alcotest.test_case "weighted repair" `Quick test_weighted_repair_changes_optimum;
    Alcotest.test_case "object creation via slack" `Quick test_object_creation_via_slack;
    Alcotest.test_case "slack exhaustion" `Quick test_slack_exhaustion;
    Alcotest.test_case "repaired models conform" `Quick test_repaired_conform;
  ]

let test_enforce_all_agrees_with_enforce () =
  (* the enumerated repairs are at exactly the single-repair optimum *)
  let trans = F.transformation ~k:2 in
  List.iter
    (fun (s : Featuremodel.Scenarios.t) ->
      List.iter
        (fun targets ->
          let models =
            F.bind ~cfs:s.Featuremodel.Scenarios.cfs ~fm:s.Featuremodel.Scenarios.fm
          in
          let single =
            match
              Eng.enforce trans ~metamodels ~models
                ~targets:(Echo.Target.of_list targets)
            with
            | Ok (Eng.Enforced r) -> Some r.Eng.relational_distance
            | _ -> None
          in
          match
            Eng.enforce_all trans ~metamodels ~models
              ~targets:(Echo.Target.of_list targets)
          with
          | Error e -> Alcotest.fail e
          | Ok outcomes ->
            let ds =
              List.filter_map
                (function Eng.Enforced r -> Some r.Eng.relational_distance | _ -> None)
                outcomes
            in
            (match (single, ds) with
            | Some d, _ :: _ ->
              if not (List.for_all (fun d' -> d' = d) ds) then
                Alcotest.failf "%s/%s: enumeration not at the optimum"
                  s.Featuremodel.Scenarios.s_name (String.concat "," targets)
            | None, [] -> ()
            | _ -> Alcotest.fail "enforce and enforce_all disagree on feasibility"))
        s.Featuremodel.Scenarios.restorable)
    Featuremodel.Scenarios.all

let test_k3_shapes () =
  (* three configurations: the paper's ->Fi_FMxCF^(k-1) with k = 3 *)
  let trans = F.transformation ~k:3 in
  let cfs =
    [
      F.configuration ~name:"cf1" [ "A"; "B" ];
      F.configuration ~name:"cf2" [ "A" ];
      F.configuration ~name:"cf3" [ "A" ];
    ]
  in
  (* B optional; cf1 renamed A's sibling? keep simple: fm lacks B *)
  let fm = F.feature_model ~name:"fm" [ ("A", true) ] in
  let models = F.bind ~cfs ~fm in
  (* repair everything except cf1 (cf1 authoritative): fm gains B *)
  (match
     Eng.enforce trans ~metamodels ~models
       ~targets:(Echo.Target.all_but ~params:(List.map fst models) "cf1")
   with
  | Ok (Eng.Enforced r) ->
    let fm' = List.assoc (I.make "fm") r.Eng.repaired in
    Alcotest.(check bool) "fm gained B" true
      (List.mem_assoc "B" (F.fm_features fm'));
    let rep = Qvtr.Check.run_exn trans ~metamodels ~models:r.Eng.repaired in
    Alcotest.(check bool) "consistent" true rep.Qvtr.Check.consistent
  | Ok o -> Alcotest.failf "expected repair: %s" (Format.asprintf "%a" Eng.pp_outcome o)
  | Error e -> Alcotest.fail e);
  (* single-target cf2 cannot fix the missing-B problem (fm frozen) *)
  match Eng.enforce trans ~metamodels ~models ~targets:(Echo.Target.single "cf2") with
  | Ok Eng.Cannot_restore -> ()
  | Ok o -> Alcotest.failf "expected Cannot_restore: %s" (Format.asprintf "%a" Eng.pp_outcome o)
  | Error e -> Alcotest.fail e

(* The MaxSAT backend is Repair's descending rung order: one unbounded
   solve, bounds tightened below each model's distance until UNSAT,
   then the ladder from the rung above that UNSAT solve. The iterative
   order starts at the core-guided lower bound, whose weighted cores
   (model weights 1-3 here) this is the main check on. On random
   weighted states and target sets the two orders must find the same
   optimum, on single-target CF repairs the weighted exhaustive one;
   the descent's search must end with its one UNSAT solve right below
   the rung the ladder collects at, and the iterative order must take
   at most d* + 1 solves, since every core raises the bound by at
   least 1. *)
let prop_descent_finds_the_optimum =
  let trans = F.transformation ~k:2 in
  let pool = G.feature_names 3 in
  QCheck.Test.make ~name:"maxsat descent finds the weighted optimum" ~count:200
    QCheck.(int_bound 999_999) (fun seed ->
      let rng = G.rng seed in
      let state = G.consistent_state rng ~k:2 ~n_features:3 in
      let cfs, fm =
        match G.random_perturbation rng state with
        | Some p -> G.apply_perturbation state p
        | None -> state
      in
      let weights =
        List.map (fun p -> (p, 1 + Random.State.int rng 3)) [ "fm"; "cf1"; "cf2" ]
      in
      let targets =
        match List.filter (fun _ -> Random.State.bool rng) [ "fm"; "cf1"; "cf2" ] with
        | [] -> [ List.nth [ "fm"; "cf1"; "cf2" ] (Random.State.int rng 3) ]
        | ts -> ts
      in
      let run backend =
        match
          enforce ~backend
            ~model_weights:(List.map (fun (p, w) -> (I.make p, w)) weights)
            trans cfs fm targets
        with
        | Ok (Eng.Enforced r) -> Some (Some r)
        | Ok Eng.Cannot_restore -> Some None
        | Ok Eng.Already_consistent -> None
        | Error e -> Alcotest.fail e
      in
      let distance = Option.map (fun (r : Eng.enforce_result) -> r.Eng.relational_distance) in
      match (run Eng.Iterative, run Eng.Maxsat) with
      | None, None -> true
      | Some it, Some mx ->
        let d = distance mx in
        let st = Option.map (fun (r : Eng.enforce_result) -> r.Eng.stats) mx in
        let ladder_from_optimum =
          match (d, st) with
          | Some d, Some st when d > 0 && st.Echo.Telemetry.blocked_nonconformant = 0 -> (
            match List.rev st.Echo.Telemetry.distance_levels with
            | (top, _) :: (below, 1) :: _ -> top = d && below = d - 1
            | _ -> false)
          | _ -> true
        in
        let exhaustive =
          match targets with
          | [ ("cf1" | "cf2") as cf ] ->
            let cf_index = if cf = "cf1" then 0 else 1 in
            Option.map
              (fun o -> List.assoc cf weights * o)
              (minimal_cf_repair_distance cfs fm ~cf_index ~pool:("X1" :: pool))
            = d
          | _ -> true
        in
        let iterative_within =
          match it with
          | Some r when r.Eng.stats.Echo.Telemetry.blocked_nonconformant = 0 ->
            r.Eng.iterations <= r.Eng.relational_distance + 1
          | _ -> true
        in
        distance it = d && ladder_from_optimum && exhaustive && iterative_within
      | _ -> false)

let solves_during f =
  let before = (Sat.Solver.global_stats ()).Sat.Solver.solves in
  let x = f () in
  (x, (Sat.Solver.global_stats ()).Sat.Solver.solves - before)

let test_cannot_restore_in_one_solve () =
  (* no consistent instance at any distance: the descent's unbounded
     solve is UNSAT, and so is the core-guided bound's first solve,
     with a core that holds no change literal: no constraint but the
     encoding's own is in conflict *)
  List.iter
    (fun (s : Featuremodel.Scenarios.t) ->
      List.iter
        (fun targets ->
          List.iter
            (fun backend ->
              let what =
                Printf.sprintf "%s / %s / %s" s.Featuremodel.Scenarios.s_name
                  (String.concat "," targets) (Echo.Repair.backend_name backend)
              in
              let outcome, solves =
                solves_during (fun () ->
                    enforce ~backend (F.transformation ~k:2) s.Featuremodel.Scenarios.cfs
                      s.Featuremodel.Scenarios.fm targets)
              in
              (match outcome with
              | Ok Eng.Cannot_restore -> ()
              | Ok o ->
                Alcotest.failf "%s: expected Cannot_restore, got %s" what
                  (Format.asprintf "%a" Eng.pp_outcome o)
              | Error e -> Alcotest.fail e);
              Alcotest.(check int) (what ^ ": one solve") 1 solves)
            [ Eng.Iterative; Eng.Maxsat ])
        s.Featuremodel.Scenarios.not_restorable)
    Featuremodel.Scenarios.all

(* The relational distance of every restorable target set of the
   paper scenarios, as the bottom-up climb found it. *)
let scenario_optima =
  [
    ("new-mandatory-feature", [ ([ "cf1"; "cf2" ], 4); ([ "fm" ], 2); ([ "cf1"; "cf2"; "fm" ], 2) ]);
    ("feature-made-mandatory", [ ([ "cf2" ], 2); ([ "fm" ], 2); ([ "cf1"; "cf2" ], 2) ]);
    ( "renamed-feature",
      [ ([ "cf1" ], 2); ([ "fm" ], 5); ([ "fm"; "cf2" ], 4); ([ "cf1"; "cf2"; "fm" ], 2) ] );
    ("unknown-selection", [ ([ "fm" ], 3); ([ "cf2" ], 2) ]);
  ]

let test_iterative_within_optimum_plus_one () =
  (* the core-guided bound proves d* in d* UNSAT solves at most (each
     core raises it by at least 1) and its SAT solve is the ladder's
     first candidate: no more solves than the climb's d* + 1 *)
  List.iter
    (fun (s : Featuremodel.Scenarios.t) ->
      let optima = List.assoc s.Featuremodel.Scenarios.s_name scenario_optima in
      Alcotest.(check int)
        (s.Featuremodel.Scenarios.s_name ^ ": every restorable set pinned")
        (List.length s.Featuremodel.Scenarios.restorable)
        (List.length optima);
      List.iter
        (fun targets ->
          let what = s.Featuremodel.Scenarios.s_name ^ " / " ^ String.concat "," targets in
          let optimum = List.assoc targets optima in
          let outcome, solves =
            solves_during (fun () ->
                enforce ~backend:Eng.Iterative (F.transformation ~k:2)
                  s.Featuremodel.Scenarios.cfs s.Featuremodel.Scenarios.fm targets)
          in
          match outcome with
          | Ok (Eng.Enforced r) ->
            Alcotest.(check int) (what ^ ": distance") optimum r.Eng.relational_distance;
            if solves > optimum + 1 then
              Alcotest.failf "%s: %d solves for d* = %d" what solves optimum
          | Ok o ->
            Alcotest.failf "%s: expected a repair, got %s" what
              (Format.asprintf "%a" Eng.pp_outcome o)
          | Error e -> Alcotest.fail e)
        s.Featuremodel.Scenarios.restorable)
    Featuremodel.Scenarios.all

(* ------------------------------------------------------------------ *)
(* One front end per request                                           *)

(* An inconsistent enforcement typechecks and encodes once, inside its
   space, and runs no separate check: beneath the [enforce] span lie
   one [typecheck] span, one [encode] span, one consistency evaluation
   and no [check] span. *)
let test_enforce_runs_one_front_end () =
  let s = Featuremodel.Scenarios.new_mandatory_feature in
  Obs.Trace.clear ();
  Obs.Trace.set_enabled true;
  let outcome =
    Fun.protect
      ~finally:(fun () -> Obs.Trace.set_enabled false)
      (fun () ->
        enforce (F.transformation ~k:2) s.Featuremodel.Scenarios.cfs
          s.Featuremodel.Scenarios.fm [ "cf1"; "cf2" ])
  in
  let evs = Obs.Trace.events () in
  Obs.Trace.clear ();
  (match outcome with
  | Ok (Eng.Enforced _) -> ()
  | Ok o -> Alcotest.failf "expected a repair, got %s" (Format.asprintf "%a" Eng.pp_outcome o)
  | Error e -> Alcotest.fail e);
  let begins = List.filter (fun (e : Obs.Trace.event) -> e.ph = `Begin) evs in
  let by_id = Hashtbl.create 64 in
  List.iter (fun (e : Obs.Trace.event) -> Hashtbl.replace by_id e.id e) begins;
  let rec under_enforce (e : Obs.Trace.event) =
    match Hashtbl.find_opt by_id e.parent with
    | Some p -> p.name = "enforce" || under_enforce p
    | None -> false
  in
  let count name =
    List.length
      (List.filter (fun (e : Obs.Trace.event) -> e.name = name && under_enforce e) begins)
  in
  Alcotest.(check int) "one typecheck" 1 (count "typecheck");
  Alcotest.(check int) "one encode" 1 (count "encode");
  Alcotest.(check int) "one consistency evaluation" 1 (count "check.eval");
  Alcotest.(check int) "no check" 0 (count "check")

let formulas_translated = Obs.Metrics.counter "relog.formulas_translated"

(* [diagnose] translates once: the structural constraints, then one
   guard per direction. One translation per direction would take
   directions x (1 + structural) formulas. *)
let test_diagnose_translates_once () =
  let s = Featuremodel.Scenarios.new_mandatory_feature in
  let trans = F.transformation ~k:2 in
  let models = F.bind ~cfs:s.Featuremodel.Scenarios.cfs ~fm:s.Featuremodel.Scenarios.fm in
  let targets = Echo.Target.single "cf1" in
  let space =
    match
      Echo.Space.build ~sbp:false ~transformation:trans ~metamodels ~models ~targets ()
    with
    | Ok space -> space
    | Error e -> Alcotest.fail e
  in
  let before = Obs.Metrics.counter_value formulas_translated in
  let ds =
    match Eng.diagnose trans ~metamodels ~models ~targets with
    | Ok ds -> ds
    | Error e -> Alcotest.fail e
  in
  let translated = Obs.Metrics.counter_value formulas_translated - before in
  let directions = List.length (Echo.Space.directional_formulas space) in
  let structural = List.length (Echo.Space.structural space) in
  Alcotest.(check int) "one diagnosis per direction" directions (List.length ds);
  Alcotest.(check bool) "the space has structural constraints" true (structural > 0);
  Alcotest.(check int) "structural + directions" (structural + directions) translated

(* The diagnosis as one translation per direction computes it: each
   direction with the structural constraints, alone in a finder of its
   own. *)
let reference_diagnosis ~mode ~slack ~extra_values trans ~models ~targets =
  Result.map
    (fun space ->
      List.map
        (fun (rel, _, f) ->
          let fd =
            Relog.Finder.prepare (Echo.Space.bounds space) (f :: Echo.Space.structural space)
          in
          match Relog.Finder.solve fd with
          | Relog.Finder.Sat _ -> (rel, true)
          | Relog.Finder.Unsat -> (rel, false))
        (Echo.Space.directional_formulas space))
    (Echo.Space.build ~mode ~slack_objects:slack ~extra_values ~sbp:false
       ~transformation:trans ~metamodels ~models ~targets ())

(* Enforcement evaluates consistency on the space it built, slack atoms
   and extra values included, where [Check.run] evaluates a slack-free
   encoding: both must reach the same verdict. And [diagnose]'s one
   translation answers as one translation per direction does. *)
let prop_front_end_verdicts =
  QCheck.Test.make ~name:"enforce and diagnose verdicts match Check.run" ~count:30
    QCheck.(make ~print:string_of_int Gen.(int_bound 1_000_000))
    (fun seed ->
      let rng = G.rng seed in
      let k = 1 + Random.State.int rng 3 in
      let state = G.consistent_state rng ~k ~n_features:(2 + Random.State.int rng 3) in
      let cfs, fm =
        match if Random.State.bool rng then G.random_perturbation rng state else None with
        | Some p -> G.apply_perturbation state p
        | None -> state
      in
      let mode =
        if Random.State.bool rng then Qvtr.Semantics.Extended else Qvtr.Semantics.Standard
      in
      let slack = Random.State.int rng 4 in
      let extra_values = if Random.State.bool rng then [ Mdl.Value.str "X9" ] else [] in
      let trans = F.transformation ~k in
      let models = F.bind ~cfs ~fm in
      let targets =
        match List.filter (fun _ -> Random.State.bool rng) (List.map fst models) with
        | [] -> I.Set.singleton (fst (List.hd models))
        | ps -> I.Set.of_list ps
      in
      let consistent =
        (Qvtr.Check.run_exn ~mode trans ~metamodels ~models).Qvtr.Check.consistent
      in
      let already = function
        | Ok outcomes -> outcomes = [ Eng.Already_consistent ]
        | Error e -> QCheck.Test.fail_reportf "seed %d: %s" seed e
      in
      let enforced =
        already
          (Result.map
             (fun o -> [ o ])
             (Eng.enforce ~mode ~slack_objects:slack ~extra_values trans ~metamodels ~models
                ~targets))
      in
      let menu =
        already
          (Eng.enforce_all ~limit:2 ~mode ~slack_objects:slack ~extra_values trans
             ~metamodels ~models ~targets)
      in
      let diagnosis =
        Result.map
          (List.map (fun (d : Eng.diagnosis) -> (d.Eng.d_relation, d.Eng.d_satisfiable)))
          (Eng.diagnose ~mode ~slack_objects:slack ~extra_values trans ~metamodels ~models
             ~targets)
      in
      enforced = consistent && menu = consistent
      && diagnosis = reference_diagnosis ~mode ~slack ~extra_values trans ~models ~targets)

let suite =
  suite
  @ [
      Alcotest.test_case "enforce_all at the optimum" `Slow
        test_enforce_all_agrees_with_enforce;
      Alcotest.test_case "k = 3 shapes" `Quick test_k3_shapes;
      Alcotest.test_case "negative slack is an error" `Quick test_negative_slack;
      QCheck_alcotest.to_alcotest prop_descent_finds_the_optimum;
      Alcotest.test_case "cannot-restore in one solve (both orders)" `Quick
        test_cannot_restore_in_one_solve;
      Alcotest.test_case "iterative repair within d* + 1 solves" `Quick
        test_iterative_within_optimum_plus_one;
      Alcotest.test_case "enforce runs one front end" `Quick
        test_enforce_runs_one_front_end;
      Alcotest.test_case "diagnose translates once" `Quick test_diagnose_translates_once;
      QCheck_alcotest.to_alcotest prop_front_end_verdicts;
    ]
