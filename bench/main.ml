(* Experiment and benchmark driver.

   `dune exec bench/main.exe` runs every experiment E1..E8, prints the
   tables recorded in EXPERIMENTS.md, then runs the bechamel
   microbenchmark suite. Experiments can be selected by id (`... e3
   e7`), and `... bench` runs the bechamel suite alone (one Test.make
   per timed table). Every experiment ends with one `wall <id>
   <seconds>` line, timed after a Gc.compact so that it does not pay
   for a heap an earlier experiment grew.

   The paper (an EDBT'14 workshop paper) has one figure (Figure 1, the
   CF/FM metamodels) and no measurement tables; its "evaluation" is a
   set of semantic claims. Each claim is reified here as a numbered
   experiment — see DESIGN.md for the index. Timing across commits,
   with per-layer attribution, is perfbench/'s job. *)

module F = Featuremodel.Fm
module G = Featuremodel.Gen
module S = Featuremodel.Scenarios
module I = Mdl.Ident

let section id title =
  Format.printf "@.==== %s: %s ====@." id title

let consistent ?mode trans cfs fm =
  (Qvtr.Check.run_exn ?mode trans ~metamodels:F.metamodels ~models:(F.bind ~cfs ~fm))
    .Qvtr.Check.consistent

let time_it f =
  let t0 = Obs.Clock.now () in
  let r = f () in
  (r, Obs.Clock.now () -. t0)

(* ------------------------------------------------------------------ *)
(* E1: Figure 1 — the CF and FM metamodels, instances conform          *)

let e1 () =
  section "E1" "Figure 1 metamodels and conformance";
  Format.printf "%s@.@.%s@."
    (Mdl.Serialize.metamodel_to_string F.cf_metamodel)
    (Mdl.Serialize.metamodel_to_string F.fm_metamodel);
  let fm = F.feature_model ~name:"fm" [ ("A", true); ("B", false) ] in
  let cf = F.configuration ~name:"cf1" [ "A" ] in
  Format.printf "sample fm conforms: %b; sample cf conforms: %b@."
    (Mdl.Conformance.conforms fm) (Mdl.Conformance.conforms cf)

(* ------------------------------------------------------------------ *)
(* E2: §2.1 — the standard semantics cannot express MF                 *)

let exhaustive_states pool =
  let cfs = G.all_cfs pool in
  let fms = G.all_fms pool in
  List.concat_map
    (fun c1 -> List.concat_map (fun c2 -> List.map (fun fm -> (c1, c2, fm)) fms) cfs)
    cfs

let e2 () =
  section "E2" "standard QVT-R checking semantics cannot express MF (2.1)";
  let std = F.transformation_standard ~k:2 in
  let ext = F.transformation ~k:2 in
  let states = exhaustive_states [ "A"; "B" ] in
  let total = List.length states in
  let count p = List.length (List.filter p states) in
  let std_ok (c1, c2, fm) = consistent ~mode:Qvtr.Semantics.Standard std [ c1; c2 ] fm in
  let ext_ok (c1, c2, fm) = consistent ext [ c1; c2 ] fm in
  let oracle (c1, c2, fm) = F.consistent ~cfs:[ c1; c2 ] ~fm in
  Format.printf
    "scope: all (cf1, cf2, fm) over feature names {A, B} — %d states@." total;
  Format.printf "  semantics          | agrees with intended MF-and-OF@.";
  Format.printf "  standard (OMG)     | %d/%d@."
    (count (fun s -> std_ok s = oracle s)) total;
  Format.printf "  extended (paper)   | %d/%d@."
    (count (fun s -> ext_ok s = oracle s)) total;
  Format.printf "  standard false-accepts: %d, false-rejects: %d@."
    (count (fun s -> std_ok s && not (oracle s)))
    (count (fun s -> (not (std_ok s)) && oracle s));
  (* the paper's concrete counterexample *)
  let cfs = [ F.configuration ~name:"cf1" []; F.configuration ~name:"cf2" [] ] in
  let fm = F.feature_model ~name:"fm" [ ("A", true) ] in
  Format.printf
    "counterexample (mandatory A, empty configs): standard=%b extended=%b intended=%b@."
    (consistent ~mode:Qvtr.Semantics.Standard std cfs fm)
    (consistent ext cfs fm) (F.consistent ~cfs ~fm)

(* ------------------------------------------------------------------ *)
(* E3: §2.2 — the extension realises MF and OF exactly                 *)

let e3 () =
  section "E3" "checking dependencies realise the intended MF and OF (2.2)";
  let only rel_name trans =
    {
      trans with
      Qvtr.Ast.t_relations =
        List.filter
          (fun (r : Qvtr.Ast.relation) -> I.name r.Qvtr.Ast.r_name = rel_name)
          trans.Qvtr.Ast.t_relations;
    }
  in
  let ext = F.transformation ~k:2 in
  let states = exhaustive_states [ "A"; "B" ] in
  let agree name trans oracle =
    let n =
      List.length
        (List.filter
           (fun (c1, c2, fm) -> consistent trans [ c1; c2 ] fm = oracle c1 c2 fm)
           states)
    in
    Format.printf "  %-4s with deps %-38s | %d/%d states agree@." name
      (match name with
      | "MF" -> "{cf1 cf2 -> fm, fm -> cf1, fm -> cf2}"
      | _ -> "{cf1 -> fm, cf2 -> fm}")
      n (List.length states)
  in
  agree "MF" (only "MF" ext) (fun c1 c2 fm -> F.consistent_mf ~cfs:[ c1; c2 ] ~fm);
  agree "OF" (only "OF" ext) (fun c1 c2 fm -> F.consistent_of ~cfs:[ c1; c2 ] ~fm)

(* ------------------------------------------------------------------ *)
(* E4: §2.2 — conservativity                                           *)

let e4 () =
  section "E4" "conservativity: full dependency set = standard semantics (2.2)";
  let std = F.transformation_standard ~k:2 in
  let states = exhaustive_states [ "A"; "B" ] in
  let mismatches =
    List.filter
      (fun (c1, c2, fm) ->
        consistent ~mode:Qvtr.Semantics.Standard std [ c1; c2 ] fm
        <> consistent ~mode:Qvtr.Semantics.Extended std [ c1; c2 ] fm)
      states
  in
  Format.printf
    "  standard mode vs extended mode on a deps-free program: %d/%d states equal \
     (%d mismatches)@."
    (List.length states - List.length mismatches)
    (List.length states) (List.length mismatches)

(* ------------------------------------------------------------------ *)
(* E5: §2.3 — Horn entailment, linear time                             *)

let chain_deps n =
  List.init n (fun i ->
      Qvtr.Dependency.make
        ~sources:[ Printf.sprintf "M%d" i ]
        ~target:(Printf.sprintf "M%d" (i + 1)))

let e5 () =
  section "E5" "call-direction checking is Horn entailment, linear time (2.3)";
  let deps =
    [ Qvtr.Dependency.make ~sources:[ "M1" ] ~target:"M2";
      Qvtr.Dependency.make ~sources:[ "M2" ] ~target:"M3" ]
  in
  Format.printf "  {M1->M2, M2->M3} |- M1->M3 : %b (paper's example)@."
    (Qvtr.Dependency.entails deps (Qvtr.Dependency.make ~sources:[ "M1" ] ~target:"M3"));
  Format.printf "  {M1->M2, M1->M3} |- M1->M2 M3 : %b (derived multi-head)@."
    (Qvtr.Dependency.entails_multi
       [ Qvtr.Dependency.make ~sources:[ "M1" ] ~target:"M2";
         Qvtr.Dependency.make ~sources:[ "M1" ] ~target:"M3" ]
       ~sources:[ I.make "M1" ]
       ~targets:[ I.make "M2"; I.make "M3" ]);
  Format.printf "  scaling (chain of n dependencies, goal M0 -> Mn):@.";
  Format.printf "  %8s | %10s | %12s@." "n" "time (ms)" "ns per dep";
  List.iter
    (fun n ->
      let deps = chain_deps n in
      let goal = Qvtr.Dependency.make ~sources:[ "M0" ] ~target:(Printf.sprintf "M%d" n) in
      ignore (Qvtr.Dependency.entails deps goal);
      let reps = max 1 (20000 / n) in
      let ok, dt =
        time_it (fun () ->
            let ok = ref true in
            for _ = 1 to reps do
              ok := !ok && Qvtr.Dependency.entails deps goal
            done;
            !ok)
      in
      let per_call = dt /. float_of_int reps in
      Format.printf "  %8d | %10.3f | %12.1f%s@." n (per_call *. 1000.)
        (per_call *. 1e9 /. float_of_int n)
        (if ok then "" else "  (!)"))
    [ 1000; 2000; 4000; 8000; 16000; 32000 ]

(* ------------------------------------------------------------------ *)
(* E6: §3 — transformation shapes                                      *)

let shapes =
  [
    ("CF^k -> FM", [ "fm" ]);
    ("FMxCF -> CF1", [ "cf1" ]);
    ("FMxCF -> CF2", [ "cf2" ]);
    ("FM -> CF^k", [ "cf1"; "cf2" ]);
    ("CF1 -> FMxCF", [ "fm"; "cf2" ]);
  ]

let e6 () =
  section "E6" "enforcement shapes: who can restore consistency (3)";
  let trans = F.transformation ~k:2 in
  Format.printf "  %-26s" "scenario";
  List.iter (fun (label, _) -> Format.printf " | %-14s" label) shapes;
  Format.printf "@.";
  List.iter
    (fun (s : S.t) ->
      Format.printf "  %-26s" s.S.s_name;
      List.iter
        (fun (_, targets) ->
          let cell =
            match
              Echo.Engine.enforce trans ~metamodels:F.metamodels
                ~models:(F.bind ~cfs:s.S.cfs ~fm:s.S.fm)
                ~targets:(Echo.Target.of_list targets)
            with
            | Ok (Echo.Engine.Enforced r) ->
              Printf.sprintf "d=%d" r.Echo.Engine.relational_distance
            | Ok Echo.Engine.Already_consistent -> "consistent"
            | Ok Echo.Engine.Cannot_restore -> "CANNOT"
            | Error _ -> "error"
          in
          Format.printf " | %-14s" cell)
        shapes;
      Format.printf "@.")
    S.all;
  Format.printf
    "  (paper 3: a new mandatory feature cannot be handled by a single-target \
     ->Fi_CF, only by ->F_CF^k — first row.)@.";
  (* diagnosis of the paper's CANNOT case *)
  let s = S.new_mandatory_feature in
  (match
     Echo.Engine.diagnose trans ~metamodels:F.metamodels
       ~models:(F.bind ~cfs:s.S.cfs ~fm:s.S.fm)
       ~targets:(Echo.Target.single "cf1")
   with
  | Ok ds ->
    List.iter
      (fun d ->
        if not d.Echo.Engine.d_satisfiable then
          Format.printf "  diagnosis for ->F1_CF: %a@." Echo.Engine.pp_diagnosis d)
      ds
  | Error e -> Format.printf "  diagnosis error: %s@." e)

(* ------------------------------------------------------------------ *)
(* E7: §3 — least change, backend agreement                            *)

let e7 () =
  section "E7" "least-change optimality and backend agreement (3)";
  let trans = F.transformation ~k:2 in
  let rng = G.rng 42 in
  Format.printf "  %-34s | %-10s | %-11s | %-8s@." "perturbed state (cf1+cf2 | fm)"
    "iter d/it" "maxsat d/it" "agree";
  let agreements = ref 0 and cases = ref 0 in
  for _ = 1 to 10 do
    let state = G.consistent_state rng ~k:2 ~n_features:3 in
    match G.random_perturbation rng state with
    | None -> ()
    | Some p ->
      let cfs, fm = G.apply_perturbation state p in
      if not (F.consistent ~cfs ~fm) then begin
        incr cases;
        let run backend =
          match
            Echo.Engine.enforce ~backend trans ~metamodels:F.metamodels
              ~models:(F.bind ~cfs ~fm)
              ~targets:(Echo.Target.of_list [ "cf1"; "cf2"; "fm" ])
          with
          | Ok (Echo.Engine.Enforced r) ->
            Some (r.Echo.Engine.relational_distance, r.Echo.Engine.iterations)
          | _ -> None
        in
        let it = run Echo.Engine.Iterative and mx = run Echo.Engine.Maxsat in
        let show = function
          | Some (d, i) -> Printf.sprintf "%d/%d" d i
          | None -> "-"
        in
        let agree =
          match (it, mx) with
          | Some (d1, _), Some (d2, _) -> d1 = d2
          | None, None -> true
          | _ -> false
        in
        if agree then incr agreements;
        Format.printf "  %-34s | %-10s | %-11s | %-8b@."
          (Printf.sprintf "%s | %s"
             (String.concat "+"
                (List.map (fun c -> String.concat "," (F.cf_features c)) cfs))
             (String.concat ","
                (List.map (fun (n, m) -> if m then n ^ "!" else n) (F.fm_features fm))))
          (show it) (show mx) agree
      end
  done;
  Format.printf "  backends agree on the optimum: %d/%d cases@." !agreements !cases;
  (* A deep repair: m new mandatory features force a distance-4m
     optimum, so the iterative order takes 4m + 1 solves (4m UNSAT
     cores, then the model at the optimum) while the MaxSAT descent
     takes a few weighted steps; both must agree. *)
  let deep_m = 3 in
  let pool = G.feature_names 4 in
  let cfs = [ F.configuration ~name:"cf1" pool; F.configuration ~name:"cf2" pool ] in
  let fm =
    F.feature_model ~name:"fm"
      (List.map (fun f -> (f, true)) pool
      @ List.init deep_m (fun i -> (Printf.sprintf "N%d" i, true)))
  in
  let run backend =
    let r, dt =
      time_it (fun () ->
          Echo.Engine.enforce ~backend ~slack_objects:deep_m trans
            ~metamodels:F.metamodels ~models:(F.bind ~cfs ~fm)
            ~targets:(Echo.Target.of_list [ "cf1"; "cf2" ]))
    in
    match r with
    | Ok (Echo.Engine.Enforced r) ->
      (Some (r.Echo.Engine.relational_distance, r.Echo.Engine.iterations), dt)
    | _ -> (None, dt)
  in
  let it, it_dt = run Echo.Engine.Iterative in
  let mx, mx_dt = run Echo.Engine.Maxsat in
  let show = function Some (d, i) -> Printf.sprintf "d=%d it=%d" d i | None -> "-" in
  Format.printf
    "  deep case (%d new mandatory features): iter %s (%.0f ms) | maxsat %s (%.0f ms) | agree %b@."
    deep_m (show it) (it_dt *. 1000.) (show mx) (mx_dt *. 1000.)
    (match (it, mx) with
    | Some (d1, _), Some (d2, _) -> d1 = d2
    | None, None -> true
    | _ -> false)

(* ------------------------------------------------------------------ *)
(* E8: scaling                                                         *)

let e8 () =
  section "E8" "scaling: checkonly and enforcement wall time";
  let trans = F.transformation ~k:2 in
  Format.printf "  checkonly (direct evaluation), k = 2:@.";
  Format.printf "  %10s | %12s@." "features" "check (ms)";
  List.iter
    (fun n ->
      let pool = G.feature_names n in
      let cfs =
        [ F.configuration ~name:"cf1" pool; F.configuration ~name:"cf2" pool ]
      in
      let fm = F.feature_model ~name:"fm" (List.map (fun f -> (f, true)) pool) in
      let _, dt = time_it (fun () -> consistent trans cfs fm) in
      Format.printf "  %10d | %12.2f@." n (dt *. 1000.))
    [ 10; 20; 40; 80 ];
  Format.printf "  checkonly vs k (10 features):@.";
  Format.printf "  %10s | %12s@." "k" "check (ms)";
  List.iter
    (fun k ->
      let pool = G.feature_names 10 in
      let trans = F.transformation ~k in
      let cfs =
        List.init k (fun i -> F.configuration ~name:(Printf.sprintf "cf%d" (i + 1)) pool)
      in
      let fm = F.feature_model ~name:"fm" (List.map (fun f -> (f, true)) pool) in
      let _, dt = time_it (fun () -> consistent trans cfs fm) in
      Format.printf "  %10d | %12.2f@." k (dt *. 1000.))
    [ 1; 2; 3; 4 ];
  Format.printf "  enforcement (new-mandatory-feature scenario, targets = all CFs):@.";
  Format.printf "  %10s | %12s | %12s@." "features" "iter (ms)" "maxsat (ms)";
  List.iter
    (fun n ->
      let pool = G.feature_names n in
      let cfs =
        [ F.configuration ~name:"cf1" pool; F.configuration ~name:"cf2" pool ]
      in
      let fm =
        F.feature_model ~name:"fm" (List.map (fun f -> (f, true)) pool @ [ ("N", true) ])
      in
      let run backend =
        let _, dt =
          time_it (fun () ->
              Echo.Engine.enforce ~backend trans ~metamodels:F.metamodels
                ~models:(F.bind ~cfs ~fm)
                ~targets:(Echo.Target.of_list [ "cf1"; "cf2" ]))
        in
        dt *. 1000.
      in
      Format.printf "  %10d | %12.1f | %12.1f@." n (run Echo.Engine.Iterative)
        (run Echo.Engine.Maxsat))
    [ 2; 4; 6; 8 ];
  (* Deep repairs (distance 4m): the ladder takes d* + 1 solver calls. *)
  Format.printf
    "  deep repair (m new mandatory features, 4-feature pool, iterative):@.";
  Format.printf "  %10s | %10s | %10s | %12s@." "m" "distance" "solves" "iter (ms)";
  List.iter
    (fun m ->
      let pool = G.feature_names 4 in
      let cfs =
        [ F.configuration ~name:"cf1" pool; F.configuration ~name:"cf2" pool ]
      in
      let fm =
        F.feature_model ~name:"fm"
          (List.map (fun f -> (f, true)) pool
          @ List.init m (fun i -> (Printf.sprintf "N%d" i, true)))
      in
      let r, dt =
        time_it (fun () ->
            Echo.Engine.enforce ~slack_objects:(max 2 m) trans
              ~metamodels:F.metamodels ~models:(F.bind ~cfs ~fm)
              ~targets:(Echo.Target.of_list [ "cf1"; "cf2" ]))
      in
      match r with
      | Ok (Echo.Engine.Enforced r) ->
        Format.printf "  %10d | %10d | %10d | %12.1f@." m
          r.Echo.Engine.relational_distance r.Echo.Engine.iterations (dt *. 1000.)
      | _ -> Format.printf "  %10d | %10s | %10s | %12.1f@." m "-" "-" (dt *. 1000.))
    [ 1; 2; 3 ];
  (* ablation: direct evaluation vs SAT-based checking *)
  Format.printf "  ablation: checkonly via evaluation vs via model finder (8 features):@.";
  let pool = G.feature_names 8 in
  let cfs = [ F.configuration ~name:"cf1" pool; F.configuration ~name:"cf2" pool ] in
  let fm = F.feature_model ~name:"fm" (List.map (fun f -> (f, true)) pool) in
  let _, dt_eval = time_it (fun () -> consistent trans cfs fm) in
  let _, dt_finder =
    time_it (fun () ->
        (* encode exactly and ask the finder whether the consistency
           formula holds within the exact bounds *)
        match Qvtr.Typecheck.check trans ~metamodels:F.metamodels with
        | Error _ -> false
        | Ok info -> (
          match
            Qvtr.Encode.create ~transformation:trans ~metamodels:F.metamodels
              ~models:(F.bind ~cfs ~fm) ~slack_objects:0 ()
          with
          | Error _ -> false
          | Ok enc -> (
            let sem = Qvtr.Semantics.create enc info in
            let bounds = Qvtr.Encode.bounds enc ~targets:I.Set.empty in
            let fd =
              Relog.Finder.prepare bounds [ Qvtr.Semantics.consistency_formula sem ]
            in
            match Relog.Finder.solve fd with
            | Relog.Finder.Sat _ -> true
            | Relog.Finder.Unsat -> false)))
  in
  Format.printf "  evaluation: %.2f ms;  finder: %.2f ms@." (dt_eval *. 1000.)
    (dt_finder *. 1000.);
  (* ablation: pattern-driven quantifier narrowing *)
  Format.printf
    "  ablation: checkonly with vs without pattern-driven narrowing:@.";
  Format.printf "  %10s | %14s | %14s@." "features" "narrowed (ms)" "full (ms)";
  List.iter
    (fun n ->
      let pool = G.feature_names n in
      let cfs =
        [ F.configuration ~name:"cf1" pool; F.configuration ~name:"cf2" pool ]
      in
      let fm = F.feature_model ~name:"fm" (List.map (fun f -> (f, true)) pool) in
      let run narrow =
        match Qvtr.Typecheck.check trans ~metamodels:F.metamodels with
        | Error _ -> 0.0
        | Ok info -> (
          match
            Qvtr.Encode.create ~transformation:trans ~metamodels:F.metamodels
              ~models:(F.bind ~cfs ~fm) ~slack_objects:0 ()
          with
          | Error _ -> 0.0
          | Ok enc ->
            let sem = Qvtr.Semantics.create ~narrow enc info in
            let inst = Qvtr.Encode.check_instance enc in
            let _, dt =
              time_it (fun () ->
                  Relog.Eval.holds inst (Qvtr.Semantics.consistency_formula sem))
            in
            dt *. 1000.)
      in
      Format.printf "  %10d | %14.2f | %14.2f@." n (run true) (run false))
    [ 10; 20; 40 ]

(* ------------------------------------------------------------------ *)
(* Bechamel microbenchmarks: one Test.make per timed table             *)

(* The six-feature, k = 2 state of test/cnf_pin (b). *)
let six_feature_models () =
  let fm =
    F.feature_model ~name:"fm"
      [ ("F1", true); ("F2", true); ("F3", false); ("F4", false); ("F5", true); ("F6", false) ]
  in
  let cfs =
    [
      F.configuration ~name:"cf1" [ "F1"; "F2"; "F3"; "F5" ];
      F.configuration ~name:"cf2" [ "F1"; "F2"; "F5"; "F6" ];
    ]
  in
  F.bind ~cfs ~fm

(* Its encoding with four slack objects, the all-mutable bounds over
   it, and its consistency semantics. *)
let six_feature_encoding () =
  let trans = F.transformation ~k:2 and models = six_feature_models () in
  let info = Result.get_ok (Qvtr.Typecheck.check trans ~metamodels:F.metamodels) in
  let enc =
    Result.get_ok
      (Qvtr.Encode.create ~transformation:trans ~metamodels:F.metamodels ~models
         ~slack_objects:4 ())
  in
  ( models,
    enc,
    Qvtr.Encode.bounds enc ~targets:(I.Set.of_list (List.map fst models)),
    Qvtr.Semantics.create enc info )

(* The six-feature check translation: one finder over the all-mutable
   bounds and a guard per direction, solved the way
   [Incr.Session.recheck] solves it — every model primary pinned to
   its value in the state (class extents before features, then by
   relation and tuple), the direction's guard last. *)
let check_solver () =
  let models, enc, bounds, sem = six_feature_encoding () in
  let finder = Relog.Finder.create bounds in
  let guards =
    List.map
      (fun (_, _, f) -> Relog.Finder.guard finder f)
      (Qvtr.Semantics.top_formulas sem)
  in
  let facts = Hashtbl.create 256 in
  List.iter
    (fun (p, m) ->
      List.iter
        (fun (r, tuple) -> Hashtbl.replace facts (I.name r, tuple) ())
        (Qvtr.Encode.model_facts enc ~param:p m))
    models;
  let rank r =
    match String.index_opt (I.name r) '$' with
    | None -> None
    | Some i ->
      let n = I.name r in
      Some (String.length n > i + 3 && String.sub n (i + 1) 3 = "ft$", n)
  in
  let prims =
    Relog.Translate.fold_primaries (Relog.Finder.translation finder)
      (fun r tuple v acc ->
        match rank r with Some k -> ((k, tuple), r, v) :: acc | None -> acc)
      []
    |> List.sort (fun (a, _, _) (b, _, _) -> compare a b)
  in
  let pins =
    List.map
      (fun ((_, tuple), r, v) ->
        if Hashtbl.mem facts (I.name r, tuple) then Sat.Lit.pos v else Sat.Lit.neg_of v)
      prims
  in
  (Relog.Finder.solver finder, pins, guards)

(* A six-feature, k = 2 session as the server snapshots it on
   eviction. *)
let six_feature_snapshot () =
  let spec =
    {
      Server.Protocol.o_transformation = F.source ~k:2;
      o_metamodels =
        Mdl.Serialize.metamodel_to_string F.fm_metamodel
        ^ "\n"
        ^ Mdl.Serialize.metamodel_to_string F.cf_metamodel;
      o_models =
        String.concat "\n"
          (List.map (fun (_, m) -> Mdl.Serialize.model_to_string m) (six_feature_models ()));
      o_targets = [ "cf1"; "cf2" ];
      o_standard = false;
      o_slack = 2;
      o_headroom = 6;
    }
  in
  match Server.Snapshot.hydrate spec with
  | Ok (sess, _) -> Server.Snapshot.to_string (Server.Snapshot.of_session ~spec sess)
  | Error e -> failwith ("six-feature snapshot: " ^ e)

let bechamel_suite () =
  let open Bechamel in
  let open Toolkit in
  let pool10 = G.feature_names 10 in
  let trans2 = F.transformation ~k:2 in
  let check_models =
    let cfs = [ F.configuration ~name:"cf1" pool10; F.configuration ~name:"cf2" pool10 ] in
    let fm = F.feature_model ~name:"fm" (List.map (fun f -> (f, true)) pool10) in
    F.bind ~cfs ~fm
  in
  let scenario = Featuremodel.Scenarios.new_mandatory_feature in
  let scenario_models =
    F.bind ~cfs:scenario.Featuremodel.Scenarios.cfs
      ~fm:scenario.Featuremodel.Scenarios.fm
  in
  let deps4k = chain_deps 4096 in
  let goal4k = Qvtr.Dependency.make ~sources:[ "M0" ] ~target:"M4096" in
  let check, check_pins, check_guards = check_solver () in
  let _, _, bounds6, sem6 = six_feature_encoding () in
  let consistency6 = Qvtr.Semantics.consistency_formula sem6 in
  let lowered = Relog.Translate.create bounds6 in
  ignore (Relog.Translate.formula_lit lowered consistency6);
  let snapshot6 = six_feature_snapshot () in
  let models6 = six_feature_models () in
  let first_recheck ~headroom =
    match
      Incr.Session.open_session ~headroom ~transformation:trans2 ~metamodels:F.metamodels
        ~models:models6
        ~targets:(Echo.Target.of_list [ "cf1"; "cf2" ])
        ()
    with
    | Ok sess -> Incr.Session.recheck sess
    | Error e -> failwith e
  in
  let cycle = ref 0 in
  let tests =
    Test.make_grouped ~name:"mdqvtr"
      [
        Test.make ~name:"e5-entailment-chain-4096"
          (Staged.stage (fun () -> Qvtr.Dependency.entails deps4k goal4k));
        Test.make ~name:"e8-check-10-features"
          (Staged.stage (fun () ->
               Qvtr.Check.run_exn trans2 ~metamodels:F.metamodels ~models:check_models));
        Test.make ~name:"e6-enforce-iterative"
          (Staged.stage (fun () ->
               Echo.Engine.enforce ~backend:Echo.Engine.Iterative trans2
                 ~metamodels:F.metamodels ~models:scenario_models
                 ~targets:(Echo.Target.of_list [ "cf1"; "cf2" ])));
        Test.make ~name:"e7-enforce-maxsat"
          (Staged.stage (fun () ->
               Echo.Engine.enforce ~backend:Echo.Engine.Maxsat trans2
                 ~metamodels:F.metamodels ~models:scenario_models
                 ~targets:(Echo.Target.of_list [ "cf1"; "cf2" ])));
        Test.make ~name:"sat-pigeonhole-6-5"
          (Staged.stage (fun () ->
               let s = Sat.Solver.create () in
               let v =
                 Array.init 6 (fun _ -> Array.init 5 (fun _ -> Sat.Solver.new_var s))
               in
               for i = 0 to 5 do
                 Sat.Solver.add_clause s (List.init 5 (fun j -> Sat.Lit.pos v.(i).(j)))
               done;
               for j = 0 to 4 do
                 for i = 0 to 5 do
                   for k = i + 1 to 5 do
                     Sat.Solver.add_clause s
                       [ Sat.Lit.neg_of v.(i).(j); Sat.Lit.neg_of v.(k).(j) ]
                   done
                 done
               done;
               Sat.Solver.solve s));
        Test.make ~name:"sat-check-solve"
          (Staged.stage (fun () ->
               let c = Sat.Solver.clone check in
               List.iter
                 (fun g -> ignore (Sat.Solver.solve ~assumptions:(check_pins @ [ g ]) c))
                 check_guards));
        Test.make ~name:"sat-clone-check"
          (Staged.stage (fun () -> Sat.Solver.clone check));
        Test.make ~name:"sat-totalizer-128"
          (Staged.stage (fun () ->
               let s = Sat.Solver.create () in
               let inputs = List.init 128 (fun _ -> Sat.Lit.pos (Sat.Solver.new_var s)) in
               Sat.Cardinality.build s inputs));
        Test.make ~name:"hc-intern"
          (Staged.stage (fun () -> Relog.Hc.of_ast (Relog.Hc.store ()) consistency6));
        Test.make ~name:"translate-memo-lower"
          (Staged.stage (fun () -> Relog.Translate.formula_lit lowered consistency6));
        (* Parsing and opening only: the check stage is translated
           lazily, at the first recheck, which the two rows below
           include. *)
        Test.make ~name:"snapshot-hydrate"
          (Staged.stage (fun () ->
               match Server.Snapshot.of_string snapshot6 with
               | Ok snap ->
                 Server.Snapshot.hydrate ~extra_values:snap.Server.Snapshot.values
                   snap.Server.Snapshot.spec
               | Error e -> failwith e));
        (* Open the six-feature session and run its first recheck: one
           shape every run, so its check stage comes from a
           translation template after the first run. *)
        Test.make ~name:"session-first-recheck-hit"
          (Staged.stage (fun () -> first_recheck ~headroom:6));
        (* The same, over 33 headrooms (7..39) in turn: one more shape
           than the template table holds, so every run translates, as
           a never-repeated shape does. Its universes are larger than
           the hit row's (headroom 6). *)
        Test.make ~name:"session-first-recheck-miss"
          (Staged.stage (fun () ->
               incr cycle;
               first_recheck ~headroom:(7 + (!cycle mod 33))));
        Test.make ~name:"e2-exhaustive-check-144"
          (Staged.stage (fun () ->
               List.for_all
                 (fun (c1, c2, fm) ->
                   let _ = consistent trans2 [ c1; c2 ] fm in
                   true)
                 (exhaustive_states [ "A"; "B" ])));
      ]
  in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 1.0) ~kde:(Some 1000) () in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] tests in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  Format.printf "@.==== bechamel microbenchmarks (monotonic clock) ====@.";
  Format.printf "  %-28s | %14s@." "benchmark" "ns/run";
  let rows = ref [] in
  Hashtbl.iter
    (fun name result ->
      let est =
        match Analyze.OLS.estimates result with
        | Some [ est ] -> Printf.sprintf "%14.1f" est
        | _ -> Printf.sprintf "%14s" "-"
      in
      rows := (name, est) :: !rows)
    results;
  List.iter
    (fun (name, est) -> Format.printf "  %-28s | %s@." name est)
    (List.sort compare !rows)

(* ------------------------------------------------------------------ *)

let () =
  let experiments =
    [ ("e1", e1); ("e2", e2); ("e3", e3); ("e4", e4); ("e5", e5); ("e6", e6);
      ("e7", e7); ("e8", e8) ]
  in
  let usage () =
    Format.eprintf "usage: main.exe [e1..e8 ...|bench]@.";
    exit 2
  in
  let ids =
    List.map String.lowercase_ascii (List.tl (Array.to_list Sys.argv))
  in
  let run (id, f) =
    Gc.compact ();
    let (), wall = time_it f in
    Format.printf "wall %s %.6f@." id wall
  in
  match ids with
  | [] ->
    List.iter run experiments;
    bechamel_suite ()
  | [ "bench" ] -> bechamel_suite ()
  | ids ->
    let selected =
      List.map
        (fun id ->
          match List.assoc_opt id experiments with
          | Some f -> (id, f)
          | None ->
            Format.eprintf "unknown experiment %s@." id;
            usage ())
        ids
    in
    List.iter run selected
