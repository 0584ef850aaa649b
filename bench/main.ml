(* Experiment and benchmark driver.

   `dune exec bench/main.exe` runs every experiment E1..E8 and prints
   the tables recorded in EXPERIMENTS.md. A single experiment can be
   selected by id (`... e3`), and `... bench` runs the bechamel
   microbenchmark suite (one Test.make per timed table).

   `--json` additionally writes a machine-readable benchmark record
   file (default `BENCH_6.json`, override with `--out FILE`): one
   record per executed experiment *per jobs value* with its wall-clock
   time (min over `--reps` runs, with max and the rep count recorded
   alongside), the process-wide SAT-solver counter deltas
   (`Sat.Solver.global_stats`) it caused, the `jobs` value it ran at,
   and its `speedup` relative to the same experiment at the sweep's
   baseline (jobs = 1) — suppressed (JSON null, with a note) when the
   walls involved sit below a noise floor, so sub-millisecond
   experiments stop reporting 3x "speedups" that are pure timer
   noise — plus a process-wide `Obs.Metrics` snapshot. This file is
   the perf-regression trajectory: commit one per optimization PR and
   diff the counters.

   `--trace FILE` records an `Obs.Trace` of the whole run and writes
   Chrome trace-event JSON on exit (open in Perfetto).

   `--jobs SPEC` sets the sweep: a comma list (`--jobs 1,2,4`) is used
   verbatim; a bare N expands to powers of two up to N (`--jobs 4` =
   `1,2,4`). Default sweep: 1,2,4 in `--json` mode; plain runs use the
   largest value (default 1). Only E6/E7/E8 drive the parallel
   enforcement paths; the other experiments ignore jobs and are
   re-measured per sweep point anyway so the record set is uniform.

   The paper (an EDBT'14 workshop paper) has one figure (Figure 1, the
   CF/FM metamodels) and no measurement tables; its "evaluation" is a
   set of semantic claims. Each claim is reified here as a numbered
   experiment — see DESIGN.md for the index. *)

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

let e6 ~jobs =
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
              Echo.Engine.enforce ~jobs trans ~metamodels:F.metamodels
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

let e7 ~jobs =
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
            Echo.Engine.enforce ~backend ~jobs trans ~metamodels:F.metamodels
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
     optimum. This is the regime the speculative distance ladder
     targets — one high-level UNSAT retires [jobs] levels at once —
     so the iterative column shrinks as jobs grows while the
     (inherently sequential) MaxSAT descent is the jobs-invariant
     reference it must still agree with. *)
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
          Echo.Engine.enforce ~backend ~jobs ~slack_objects:deep_m trans
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

(* E7's deep case raced as a portfolio. Runs OUTSIDE the measured
   records — on a 1-core box the losing lane timeshares the core and
   roughly doubles the wall (DESIGN's portfolio caveat), which would
   poison the e7 sweep it rode in — but it still feeds the cumulative
   metrics snapshot. This is what keeps the portfolio win-accounting
   honest in the BENCH files: no experiment drove a real race before
   BENCH_5 ([enforce ~backend:Portfolio] degrades to the ladder at
   jobs = 1, Engine's default, and E7/E8 only ever named the two
   concrete backends), which is why the win counters sat at zero for
   three releases while looking broken. *)
let e7_portfolio () =
  section "E7b" "portfolio race on the deep case (unmeasured)";
  let trans = F.transformation ~k:2 in
  let deep_m = 3 in
  let pool = G.feature_names 4 in
  let cfs = [ F.configuration ~name:"cf1" pool; F.configuration ~name:"cf2" pool ] in
  let fm =
    F.feature_model ~name:"fm"
      (List.map (fun f -> (f, true)) pool
      @ List.init deep_m (fun i -> (Printf.sprintf "N%d" i, true)))
  in
  let r, dt =
    time_it (fun () ->
        Echo.Engine.enforce ~backend:Echo.Engine.Portfolio ~jobs:2
          ~slack_objects:deep_m trans ~metamodels:F.metamodels
          ~models:(F.bind ~cfs ~fm)
          ~targets:(Echo.Target.of_list [ "cf1"; "cf2" ]))
  in
  match r with
  | Ok (Echo.Engine.Enforced r) ->
    Format.printf "  portfolio on the deep case: d=%d via the %s lane (%.0f ms)@."
      r.Echo.Engine.relational_distance
      (match r.Echo.Engine.backend with
      | Echo.Engine.Iterative -> "iterative"
      | Echo.Engine.Maxsat -> "maxsat"
      | Echo.Engine.Portfolio -> "portfolio")
      (dt *. 1000.)
  | Ok _ -> Format.printf "  portfolio on the deep case: no repair needed@."
  | Error e -> Format.printf "  portfolio on the deep case: error: %s@." e

(* ------------------------------------------------------------------ *)
(* E8: scaling                                                         *)

let e8 ~jobs =
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
              Echo.Engine.enforce ~backend ~jobs trans ~metamodels:F.metamodels
                ~models:(F.bind ~cfs ~fm)
                ~targets:(Echo.Target.of_list [ "cf1"; "cf2" ]))
        in
        dt *. 1000.
      in
      Format.printf "  %10d | %12.1f | %12.1f@." n (run Echo.Engine.Iterative)
        (run Echo.Engine.Maxsat))
    [ 2; 4; 6; 8 ];
  (* Deep repairs (distance 4m): the speculative ladder's home turf.
     With jobs levels probed per window, one high UNSAT replaces a run
     of cheap low-level UNSATs, and solver-call count drops from
     d* + 1 towards d*/jobs — the per-jobs walls of this table are
     the speedup the BENCH records track. *)
  Format.printf
    "  deep repair (m new mandatory features, 4-feature pool, iterative, jobs=%d):@."
    jobs;
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
            Echo.Engine.enforce ~jobs ~slack_objects:(max 2 m) trans
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

(* The six-feature, k = 2 check translation of test/cnf_pin (b): one
   finder over the all-mutable bounds and a guard per direction,
   solved the way [Incr.Session.recheck] solves it — every model
   primary pinned to its value in the state (class extents before
   features, then by relation and tuple), the direction's guard last. *)
let check_solver () =
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
  let trans = F.transformation ~k:2 and models = F.bind ~cfs ~fm in
  let info = Result.get_ok (Qvtr.Typecheck.check trans ~metamodels:F.metamodels) in
  let enc =
    Result.get_ok
      (Qvtr.Encode.create ~transformation:trans ~metamodels:F.metamodels ~models
         ~slack_objects:4 ())
  in
  let finder =
    Relog.Finder.create (Qvtr.Encode.bounds enc ~targets:(I.Set.of_list (List.map fst models)))
  in
  let guards =
    List.map
      (fun (_, _, f) -> Relog.Finder.guard finder f)
      (Qvtr.Semantics.top_formulas (Qvtr.Semantics.create enc info))
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
(* E9/E10: incremental sessions (lib/incr) vs from-scratch runs.
   These two emit the per-step records of BENCH_3.json: E9 replays an
   edit script and compares every warm recheck against a cold one; E10
   runs the repair loop (edit -> rerepair -> commit) and compares each
   rerepair against a fresh Engine.enforce_all over the same state. *)

module Sess = Incr.Session

let step_stats_json (s : Sess.step_stats) =
  Echo.Telemetry.Obj
    [
      ("wall_time_s", Echo.Telemetry.Float s.Sess.wall);
      ("solver_calls", Echo.Telemetry.Int s.Sess.solver_calls);
      ("conflicts", Echo.Telemetry.Int s.Sess.conflicts);
      ("propagations", Echo.Telemetry.Int s.Sess.propagations);
      ("decisions", Echo.Telemetry.Int s.Sess.decisions);
      ("translated", Echo.Telemetry.Bool s.Sess.translated);
      ("translate_s", Echo.Telemetry.Float s.Sess.translate_s);
    ]

(* The E9/E10 base state: ten features, three mandatory, two
   configurations agreeing exactly on the mandatory core. Both truth
   values and every feature name appear in the initial state, so
   single-attribute edits never force a re-encode. *)
let incr_pool = G.feature_names 10
let incr_mandatory = [ "F1"; "F2"; "F3" ]

let incr_base () =
  let fm =
    F.feature_model ~name:"fm"
      (List.map (fun n -> (n, List.mem n incr_mandatory)) incr_pool)
  in
  let cfs =
    [
      F.configuration ~name:"cf1" (incr_mandatory @ [ "F4" ]);
      F.configuration ~name:"cf2" (incr_mandatory @ [ "F5" ]);
    ]
  in
  (cfs, fm)

let e9 () =
  section "E9" "incremental recheck: edit replay, warm vs from-scratch";
  let cfs, fm = incr_base () in
  let base = F.bind ~cfs ~fm in
  (* snapshots keep the pool's object order, so a single flag flip
     diffs to a single Set_attr edit *)
  let fm_with flips =
    F.feature_model ~name:"fm"
      (List.map
         (fun n ->
           let m = List.mem n incr_mandatory in
           (n, if List.mem n flips then not m else m))
         incr_pool)
  in
  let fm_key = I.make "fm" in
  let snapshots =
    [
      ("flip F4 mandatory", [ (fm_key, fm_with [ "F4" ]) ]);
      ("flip F4 back", [ (fm_key, fm_with []) ]);
      ("flip F10 mandatory", [ (fm_key, fm_with [ "F10" ]) ]);
      ("flip F10 back", [ (fm_key, fm_with []) ]);
      ("flip F5 mandatory", [ (fm_key, fm_with [ "F5" ]) ]);
      ("flip F5 back", [ (fm_key, fm_with []) ]);
      (* the honest counterpoint: a bulk rewrite flips every flag, so
         almost no assumption prefix survives and warm ~ scratch *)
      ("bulk flip all", [ (fm_key, fm_with incr_pool) ]);
    ]
  in
  let steps = Incr.Replay.steps_of_snapshots ~base snapshots in
  let records =
    match
      Incr.Replay.run ~transformation:(F.transformation ~k:2)
        ~metamodels:F.metamodels ~models:base
        ~targets:(Echo.Target.of_list [ "cf1"; "cf2" ])
        steps
    with
    | Ok rs -> rs
    | Error e -> failwith ("E9: " ^ e)
  in
  Format.printf "%-20s %5s %5s  %10s %10s %10s %10s@." "step" "edits" "match"
    "warm c+p" "cold c+p" "warm ms" "cold ms";
  List.iter
    (fun (r : Incr.Replay.step_record) ->
      let cp (s : Sess.step_stats) = s.Sess.conflicts + s.Sess.propagations in
      Format.printf "%-20s %5d %5s  %10d %10d %10.2f %10.2f@."
        r.Incr.Replay.sr_label r.Incr.Replay.sr_edits
        (if r.Incr.Replay.sr_verdicts_match then "yes" else "NO")
        (cp r.Incr.Replay.sr_session)
        (cp r.Incr.Replay.sr_scratch)
        (r.Incr.Replay.sr_session.Sess.wall *. 1000.)
        (r.Incr.Replay.sr_scratch.Sess.wall *. 1000.))
    records;
  (* State recurrence: with zero headroom every unknown object id
     forces a re-encode, so cycling cf1 through base+#50, base+#51 and
     back to base+#50 re-encodes three times — the third state
     fingerprints exactly as the first rebuild's, so its generation is
     revived from the translation cache instead of translated again
     (`incr.translation_cache_hits` in the metrics snapshot; CI
     asserts it stays nonzero). Metrics-only: no BENCH_3 records. *)
  let () =
    let cfs, fm = incr_base () in
    let sess =
      match
        Sess.open_session ~headroom:0 ~transformation:(F.transformation ~k:2)
          ~metamodels:F.metamodels ~models:(F.bind ~cfs ~fm)
          ~targets:(Echo.Target.of_list [ "cf1"; "cf2" ])
          ()
      with
      | Ok s -> s
      | Error e -> failwith ("E9 recurrence: " ^ e)
    in
    let feature = I.make "Feature" in
    let name_attr = I.make "name" in
    let add_feature ~id name =
      [
        Mdl.Edit.Add_object { id; cls = feature };
        Mdl.Edit.Set_attr
          { id; attr = name_attr; before = []; after = [ Mdl.Value.Str name ] };
      ]
    in
    let cf1 = I.make "cf1" in
    let batches =
      [
        [ (cf1, add_feature ~id:50 "F9") ];
        [ (cf1, Mdl.Edit.Delete_object { id = 50 } :: add_feature ~id:51 "F9") ];
        [ (cf1, Mdl.Edit.Delete_object { id = 51 } :: add_feature ~id:50 "F9") ];
      ]
    in
    let last =
      List.fold_left
        (fun _ batch ->
          (match Sess.apply_edits sess batch with
          | Ok () -> ()
          | Error e -> failwith ("E9 recurrence: " ^ e));
          match Sess.recheck sess with
          | Ok r -> r.Sess.check_stats.Sess.translated
          | Error e -> failwith ("E9 recurrence: " ^ e))
        true batches
    in
    Format.printf
      "  state recurrence: %d re-encodes over the id cycle, last %s@."
      (Sess.rebuilds sess)
      (if last then "RETRANSLATED (cache miss!)" else "served from cache")
  in
  List.map
    (fun (r : Incr.Replay.step_record) ->
      Echo.Telemetry.Obj
        [
          ("experiment", Echo.Telemetry.String "E9");
          ("step", Echo.Telemetry.String r.Incr.Replay.sr_label);
          ("edits", Echo.Telemetry.Int r.Incr.Replay.sr_edits);
          ("rebuilt", Echo.Telemetry.Bool r.Incr.Replay.sr_rebuilt);
          ("verdict_match", Echo.Telemetry.Bool r.Incr.Replay.sr_verdicts_match);
          ("session", step_stats_json r.Incr.Replay.sr_session);
          ("scratch", step_stats_json r.Incr.Replay.sr_scratch);
        ])
    records

(* Canonical serialization of a repair menu restricted to the target
   models, for cross-checking session and engine menus. *)
let menu_keys tgts model_lists =
  List.map
    (fun models ->
      models
      |> List.filter (fun (p, _) -> Mdl.Ident.Set.mem p tgts)
      |> List.map (fun (p, m) -> (I.name p, Mdl.Serialize.model_to_string m))
      |> List.sort compare
      |> List.concat_map (fun (n, s) -> [ n; s ])
      |> String.concat "\x00")
    model_lists
  |> List.sort_uniq compare

let e10 ~jobs =
  section "E10" "incremental rerepair: repair loop vs fresh enforce_all";
  let cfs, fm = incr_base () in
  let trans = F.transformation ~k:2 in
  let targets = Echo.Target.of_list [ "cf1"; "cf2" ] in
  let sess =
    match
      Sess.open_session ~transformation:trans ~metamodels:F.metamodels
        ~models:(F.bind ~cfs ~fm) ~targets ()
    with
    | Ok s -> s
    | Error e -> failwith ("E10: " ^ e)
  in
  let feature = I.make "Feature" in
  let name_attr = I.make "name" in
  let mand_attr = I.make "mandatory" in
  let set_mand id v =
    Mdl.Edit.Set_attr
      {
        id;
        attr = mand_attr;
        before = [ Mdl.Value.Bool (not v) ];
        after = [ Mdl.Value.Bool v ];
      }
  in
  (* cf objects are positional: mandatory core first, extra last; fm
     objects follow the F1..F10 pool order *)
  let steps =
    [
      ("cf2 drops F1", [ (I.make "cf2", [ Mdl.Edit.Delete_object { id = 0 } ]) ]);
      ("F6 made mandatory", [ (I.make "fm", [ set_mand 5 true ]) ]);
      ( "cf1 selects unknown G1",
        [
          ( I.make "cf1",
            [
              Mdl.Edit.Add_object { id = 9; cls = feature };
              Mdl.Edit.Set_attr
                {
                  id = 9;
                  attr = name_attr;
                  before = [];
                  after = [ Mdl.Value.Str "G1" ];
                };
            ] );
        ] );
      ("cf2 drops F2", [ (I.make "cf2", [ Mdl.Edit.Delete_object { id = 1 } ]) ]);
    ]
  in
  Format.printf "%-22s %5s %6s %6s  %10s %10s@." "step" "menu" "match" "dist"
    "warm ms" "engine ms";
  List.map
    (fun (label, batch) ->
      (match Sess.apply_edits sess batch with
      | Ok () -> ()
      | Error e -> failwith ("E10 " ^ label ^ ": " ^ e));
      let rebuilds0 = Sess.rebuilds sess in
      let rep =
        match Sess.rerepair ~limit:16 sess with
        | Ok r -> r
        | Error e -> failwith ("E10 " ^ label ^ ": " ^ e)
      in
      let outcomes, engine_wall =
        time_it (fun () ->
            match
              Echo.Engine.enforce_all ~limit:16 ~jobs
                ~slack_objects:(Sess.slack_budget sess)
                ~extra_values:(Sess.value_universe sess) trans
                ~metamodels:F.metamodels ~models:(Sess.models sess) ~targets
            with
            | Ok o -> o
            | Error e -> failwith ("E10 " ^ label ^ ": " ^ e))
      in
      let menu_sess, menu_eng, distance =
        match (rep.Sess.outcome, outcomes) with
        | Sess.Repaired reps, outs ->
          ( menu_keys targets (List.map (fun r -> r.Sess.r_models) reps),
            menu_keys targets
              (List.filter_map
                 (function
                   | Echo.Engine.Enforced r -> Some r.Echo.Engine.repaired
                   | _ -> None)
                 outs),
            (match reps with
            | r :: _ -> r.Sess.r_relational_distance
            | [] -> -1) )
        | Sess.Already_consistent, [ Echo.Engine.Already_consistent ] ->
          ([], [], 0)
        | Sess.Cannot_restore, [ Echo.Engine.Cannot_restore ] -> ([], [], -1)
        | _ -> failwith ("E10 " ^ label ^ ": outcome shapes disagree")
      in
      let menus_match = menu_sess = menu_eng in
      Format.printf "%-22s %5d %6s %6d  %10.2f %10.2f@." label
        (List.length menu_sess)
        (if menus_match then "yes" else "NO")
        distance
        (rep.Sess.repair_stats.Sess.wall *. 1000.)
        (engine_wall *. 1000.);
      (* land the first repair so the next step edits a consistent
         state, as an editor session would *)
      (match rep.Sess.outcome with
      | Sess.Repaired (r :: _) -> (
        match Sess.commit sess r with
        | Ok () -> ()
        | Error e -> failwith ("E10 " ^ label ^ ": " ^ e))
      | _ -> ());
      Echo.Telemetry.Obj
        [
          ("experiment", Echo.Telemetry.String "E10");
          ("step", Echo.Telemetry.String label);
          ("rebuilt", Echo.Telemetry.Bool (Sess.rebuilds sess > rebuilds0));
          ("menu_match", Echo.Telemetry.Bool menus_match);
          ("menu_size", Echo.Telemetry.Int (List.length menu_sess));
          ("relational_distance", Echo.Telemetry.Int distance);
          ("session", step_stats_json rep.Sess.repair_stats);
          ("engine_wall_s", Echo.Telemetry.Float engine_wall);
        ])
    steps

(* ------------------------------------------------------------------ *)
(* E11: the transformation server under concurrent load.

   An in-process load generator drives Server.Engine — the exact core
   `qvtr serve` exposes over a socket — with N clients, each a
   reply-callback state machine chaining its own request stream
   (open, M x [apply_edits; recheck], rerepair, close) against its
   own session. The engine runs its pool at >= 2 workers so replies
   arrive off the submitting thread, and max_live is set below N so
   the run continuously evicts and revives sessions while serving.
   Latency percentiles are read off the server's own
   `server.latency.<verb>_s` histograms plus the queue-wait/service
   split (`server.queue_wait.<verb>_s` / `server.service.<verb>_s`),
   all reset at the start of the run so they cover this load only;
   the engine runs with a counting Reqlog and a 50ms slow threshold
   so the run can assert frames submitted == served == logged. A
   separate deterministic phase checks the revival contract
   end-to-end: an evicted-then-revived session must answer recheck
   and rerepair exactly like a never-evicted control. The records
   land in BENCH_8.json (schema mdqvtr-bench/8). *)

module SrvE = Server.Engine
module SrvP = Server.Protocol

let e11_clients = 8
let e11_steps = 6

let e11_spec models_text =
  {
    SrvP.o_transformation = F.source ~k:2;
    o_metamodels =
      Mdl.Serialize.metamodel_to_string F.fm_metamodel
      ^ "\n"
      ^ Mdl.Serialize.metamodel_to_string F.cf_metamodel;
    o_models = models_text;
    o_targets = [ "cf1"; "cf2" ];
    o_standard = false;
    o_slack = 2;
    o_headroom = 6;
  }

let e11_base_text () =
  let cfs, fm = incr_base () in
  String.concat "\n" (List.map Mdl.Serialize.model_to_string (fm :: cfs))

(* the step's fm snapshot: base flags with [flips] toggled (same
   convention as E9, so each step diffs to one Set_attr edit) *)
let e11_fm_text flips =
  Mdl.Serialize.model_to_string
    (F.feature_model ~name:"fm"
       (List.map
          (fun n ->
            let m = List.mem n incr_mandatory in
            (n, if List.mem n flips then not m else m))
          incr_pool))

let e11 ~jobs =
  section "E11" "transformation server: concurrent clients, LRU eviction";
  let engine_jobs = max 2 jobs in
  let max_live = max 2 (e11_clients / 2) in
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "mdqvtr-e11-%d" (Unix.getpid ()))
  in
  let verbs =
    [ "open"; "apply_edits"; "recheck"; "rerepair"; "commit"; "snapshot";
      "close"; "stats" ]
  in
  List.iter
    (fun v ->
      List.iter
        (fun family ->
          Obs.Metrics.reset_histogram
            (Obs.Metrics.histogram ("server." ^ family ^ "." ^ v ^ "_s")))
        [ "latency"; "queue_wait"; "service" ])
    verbs;
  Obs.Metrics.reset_histogram (Obs.Metrics.histogram "server.recheck.warm_s");
  Obs.Metrics.reset_histogram (Obs.Metrics.histogram "server.recheck.scratch_s");
  let counter0 n = Obs.Metrics.counter_value (Obs.Metrics.counter n) in
  let evicted0 = counter0 "server.sessions_evicted" in
  let revived0 = counter0 "server.sessions_revived" in
  let coalesced0 = counter0 "server.edits_coalesced" in
  let slow0 = counter0 "server.slow_requests" in
  (* counting request log + a 50ms slow threshold: the acceptance
     contract is reqlog records == frames served, 0 lost or doubled *)
  let reqlog = Server.Reqlog.create () in
  let engine =
    SrvE.create ~jobs:engine_jobs ~max_live ~snapshot_dir:dir ~slow_ms:50.0
      ~reqlog ()
  in
  let base_text = e11_base_text () in
  let next_id = Atomic.make 1 in
  let rechecks = Atomic.make 0 in
  let failures = Atomic.make 0 in
  (* Each client chains its burst through reply callbacks ("send the
     next request when the previous one answers"); the replies never
     influence the edits, so the streams are precomputed. The load
     runs in rounds with a drain between them: inside a round all
     clients hammer the engine concurrently, and at the boundary the
     sessions go idle, which is when the LRU sweep can evict — so a
     cap below the client count forces continuous eviction/revival
     churn under load, the behaviour a long-lived daemon sees. *)
  let burst k reqs =
    let sname = Printf.sprintf "c%d" k in
    let rec send = function
      | [] -> ()
      | q_req :: rest ->
        SrvE.submit engine
          {
            SrvP.q_id = Atomic.fetch_and_add next_id 1;
            q_session = sname;
            q_req;
          }
          (fun resp ->
            (match resp.SrvP.s_result with
            | Ok (SrvP.Checked _) -> Atomic.incr rechecks
            | Ok _ -> ()
            | Error _ -> Atomic.incr failures);
            send rest)
    in
    send reqs
  in
  (* an editor firing saves: the frames go out back-to-back with no
     wait, so they queue on the session and the engine coalesces the
     consecutive apply_edits into one re-pin *)
  let pipeline k reqs =
    let sname = Printf.sprintf "c%d" k in
    List.iter
      (fun q_req ->
        SrvE.submit engine
          {
            SrvP.q_id = Atomic.fetch_and_add next_id 1;
            q_session = sname;
            q_req;
          }
          (fun resp ->
            match resp.SrvP.s_result with
            | Ok (SrvP.Checked _) -> Atomic.incr rechecks
            | Ok _ -> ()
            | Error _ -> Atomic.incr failures))
      reqs
  in
  let clients = List.init e11_clients (fun k -> k) in
  let round i k =
    let f j = List.nth incr_pool ((k + i + j) mod List.length incr_pool) in
    let final = if i mod 2 = 1 then [ f 0 ] else [] in
    [
      SrvP.Apply_edits { models = e11_fm_text [ f 0 ] };
      SrvP.Apply_edits { models = e11_fm_text [ f 0; f 1 ] };
      SrvP.Apply_edits { models = e11_fm_text final };
      SrvP.Recheck { blame = false };
    ]
  in
  let (), wall =
    time_it (fun () ->
        List.iter (fun k -> burst k [ SrvP.Open (e11_spec base_text) ]) clients;
        SrvE.drain engine;
        for i = 1 to e11_steps do
          List.iter (fun k -> pipeline k (round i k)) clients;
          SrvE.drain engine
        done;
        List.iter
          (fun k -> burst k [ SrvP.Rerepair { limit = 4 }; SrvP.Close ])
          clients;
        SrvE.drain engine)
  in
  (* exercise the stats verb once, on the drained engine *)
  let stats_ok =
    match (SrvE.call engine { SrvP.q_id = 0; q_session = ""; q_req = SrvP.Stats }).SrvP.s_result with
    | Ok (SrvP.Stats_snapshot _) -> true
    | _ -> false
  in
  SrvE.shutdown engine;
  let evicted = counter0 "server.sessions_evicted" - evicted0 in
  let revived = counter0 "server.sessions_revived" - revived0 in
  let coalesced = counter0 "server.edits_coalesced" - coalesced0 in
  let slow = counter0 "server.slow_requests" - slow0 in
  (* accounting must close exactly: every submitted frame was answered
     once, and every answer produced one request-log record *)
  let frames_submitted = Atomic.get next_id - 1 + 1 (* + the stats call *) in
  let frames_served = SrvE.frames_served engine in
  let reqlog_records = Server.Reqlog.count reqlog in
  let reqlog_complete =
    frames_served = reqlog_records && frames_served = frames_submitted
  in
  (* ---- deterministic revival-contract check ---------------------- *)
  (* Engine A (no eviction pressure) is the control; engine B runs at
     max_live 1, so opening a bystander session forcibly evicts the
     victim, whose next requests revive it from the snapshot. Both
     must produce identical recheck verdicts and repair menus. *)
  let run_sequence ~evict =
    let eng =
      SrvE.create ~jobs:1
        ~max_live:(if evict then 1 else 8)
        ~snapshot_dir:dir ()
    in
    let rid = ref 0 in
    let call session q_req =
      incr rid;
      (SrvE.call eng { SrvP.q_id = !rid; q_session = session; q_req }).SrvP.s_result
    in
    let expect label = function
      | Ok p -> p
      | Error e -> failwith ("E11 revival check, " ^ label ^ ": " ^ e)
    in
    let _ = expect "open" (call "victim" (SrvP.Open (e11_spec base_text))) in
    let _ =
      expect "edit"
        (call "victim" (SrvP.Apply_edits { models = e11_fm_text [ "F4" ] }))
    in
    let first = expect "recheck" (call "victim" (SrvP.Recheck { blame = false })) in
    if evict then begin
      (* the bystander pushes the victim over the cap *)
      let _ =
        expect "bystander" (call "bystander" (SrvP.Open (e11_spec base_text)))
      in
      ()
    end;
    let menu = expect "rerepair" (call "victim" (SrvP.Rerepair { limit = 4 })) in
    let again = expect "recheck2" (call "victim" (SrvP.Recheck { blame = false })) in
    SrvE.shutdown eng;
    (first, menu, again)
  in
  let revived_before_check = counter0 "server.sessions_revived" in
  let control = run_sequence ~evict:false in
  let victim = run_sequence ~evict:true in
  let revival_revived = counter0 "server.sessions_revived" > revived_before_check in
  let strip = function
    | SrvP.Checked { consistent; verdicts; _ } -> `Check (consistent, verdicts)
    | SrvP.Repaired { outcome; menu; _ } -> `Repair (outcome, menu)
    | _ -> `Other
  in
  let triple (a, b, c) = (strip a, strip b, strip c) in
  let revival_equivalent = triple control = triple victim && revival_revived in
  (* ---- report ---------------------------------------------------- *)
  let h name = Obs.Metrics.histogram name in
  let p50 name = Obs.Metrics.percentile (h name) 0.5 in
  let p99 name = Obs.Metrics.percentile (h name) 0.99 in
  let count name = Obs.Metrics.histogram_count (h name) in
  Format.printf "%-14s %8s %10s %10s %10s %10s %10s %10s@." "verb" "count"
    "wait p50" "wait p99" "serve p50" "serve p99" "total p50" "total p99";
  List.iter
    (fun v ->
      let name = "server.latency." ^ v ^ "_s" in
      let qw = "server.queue_wait." ^ v ^ "_s" in
      let sv = "server.service." ^ v ^ "_s" in
      if count name > 0 then
        Format.printf "%-14s %8d %10.3f %10.3f %10.3f %10.3f %10.3f %10.3f@." v
          (count name) (p50 qw *. 1000.) (p99 qw *. 1000.) (p50 sv *. 1000.)
          (p99 sv *. 1000.) (p50 name *. 1000.) (p99 name *. 1000.))
    verbs;
  Format.printf
    "clients %d, steps %d, engine jobs %d, max_live %d: %.2fs wall, %.1f \
     rechecks/s, %d evicted, %d revived, %d coalesced, failures %d@."
    e11_clients e11_steps engine_jobs max_live wall
    (float_of_int (Atomic.get rechecks) /. wall)
    evicted revived coalesced (Atomic.get failures);
  Format.printf "warm recheck p50 %.3f ms / scratch p50 %.3f ms; revival %s@."
    (p50 "server.recheck.warm_s" *. 1000.)
    (p50 "server.recheck.scratch_s" *. 1000.)
    (if revival_equivalent then "equivalent" else "DIVERGED");
  Format.printf
    "request accounting: %d submitted, %d served, %d logged (%s), %d slow \
     (>50ms)@."
    frames_submitted frames_served reqlog_records
    (if reqlog_complete then "complete" else "INCOMPLETE")
    slow;
  let verb_records =
    List.filter_map
      (fun v ->
        let name = "server.latency." ^ v ^ "_s" in
        let qw = "server.queue_wait." ^ v ^ "_s" in
        let sv = "server.service." ^ v ^ "_s" in
        if count name = 0 then None
        else
          Some
            (Echo.Telemetry.Obj
               [
                 ("experiment", Echo.Telemetry.String "E11");
                 ("verb", Echo.Telemetry.String v);
                 ("count", Echo.Telemetry.Int (count name));
                 ("p50_s", Echo.Telemetry.Float (p50 name));
                 ("p99_s", Echo.Telemetry.Float (p99 name));
                 ("queue_wait_p50_s", Echo.Telemetry.Float (p50 qw));
                 ("queue_wait_p99_s", Echo.Telemetry.Float (p99 qw));
                 ("service_p50_s", Echo.Telemetry.Float (p50 sv));
                 ("service_p99_s", Echo.Telemetry.Float (p99 sv));
               ]))
      verbs
  in
  let summary =
    Echo.Telemetry.Obj
      [
        ("experiment", Echo.Telemetry.String "E11");
        ("clients", Echo.Telemetry.Int e11_clients);
        ("steps_per_client", Echo.Telemetry.Int e11_steps);
        ("engine_jobs", Echo.Telemetry.Int engine_jobs);
        ("max_live", Echo.Telemetry.Int max_live);
        ("wall_time_s", Echo.Telemetry.Float wall);
        ( "rechecks_per_s",
          Echo.Telemetry.Float (float_of_int (Atomic.get rechecks) /. wall) );
        ("rechecks", Echo.Telemetry.Int (Atomic.get rechecks));
        ("sessions_evicted", Echo.Telemetry.Int evicted);
        ("sessions_revived", Echo.Telemetry.Int revived);
        ("edits_coalesced", Echo.Telemetry.Int coalesced);
        ("failures", Echo.Telemetry.Int (Atomic.get failures));
        ("frames_submitted", Echo.Telemetry.Int frames_submitted);
        ("frames_served", Echo.Telemetry.Int frames_served);
        ("reqlog_records", Echo.Telemetry.Int reqlog_records);
        ("reqlog_complete", Echo.Telemetry.Bool reqlog_complete);
        ("slow_requests", Echo.Telemetry.Int slow);
        ("slow_ms_threshold", Echo.Telemetry.Float 50.0);
        ("stats_verb_ok", Echo.Telemetry.Bool stats_ok);
        ( "recheck_warm_p50_s",
          Echo.Telemetry.Float (p50 "server.recheck.warm_s") );
        ( "recheck_scratch_p50_s",
          Echo.Telemetry.Float (p50 "server.recheck.scratch_s") );
        ("revival_equivalent", Echo.Telemetry.Bool revival_equivalent);
      ]
  in
  summary :: verb_records

(* ------------------------------------------------------------------ *)
(* JSON records (the BENCH_*.json perf trajectory)                     *)

let stats_delta (a : Sat.Solver.stats) (b : Sat.Solver.stats) =
  {
    Sat.Solver.decisions = b.Sat.Solver.decisions - a.Sat.Solver.decisions;
    propagations = b.Sat.Solver.propagations - a.Sat.Solver.propagations;
    conflicts = b.Sat.Solver.conflicts - a.Sat.Solver.conflicts;
    restarts = b.Sat.Solver.restarts - a.Sat.Solver.restarts;
    learnt = b.Sat.Solver.learnt - a.Sat.Solver.learnt;
    reduces = b.Sat.Solver.reduces - a.Sat.Solver.reduces;
    solves = b.Sat.Solver.solves - a.Sat.Solver.solves;
    solve_time = b.Sat.Solver.solve_time -. a.Sat.Solver.solve_time;
  }

(* ------------------------------------------------------------------ *)
(* E12: bounds-level symmetry breaking on enumeration workloads        *)

(* A maximally symmetric menu enumeration: an empty configuration
   against n interchangeable mandatory features. Every repair creates
   one object per feature out of the slack pool, so without SBPs the
   menu carries one variant per slack-to-feature content assignment
   (n! once slack >= n — the legacy slack chain only orders slack
   *usage*, not which feature lands on which atom); the orbit
   lex-leader SBPs keep one canonical representative per isomorphism
   class. The fingerprint — the sorted distinct (relational, edit)
   distance pairs — is the modulo-isomorphism content of the menu and
   must not move when SBPs toggle. *)
let e12_with_workers n f =
  let old = Sys.getenv_opt "MDQVTR_WORKERS" in
  Unix.putenv "MDQVTR_WORKERS" (string_of_int n);
  Fun.protect f
    ~finally:(fun () ->
      Unix.putenv "MDQVTR_WORKERS" (Option.value old ~default:""))

let e12_arm ~features ~slack ~jobs ~split_after ~sbp =
  let trans = F.transformation ~k:1 in
  let cfs = [ F.configuration ~name:"cf1" [] ] in
  let fm =
    F.feature_model ~name:"fm"
      (List.init features (fun i -> (Printf.sprintf "F%d" i, true)))
  in
  let cval n = Obs.Metrics.counter_value (Obs.Metrics.counter n) in
  let discards0 = cval "echo.repair.dedup_discards" in
  let clauses0 = cval "relog.symmetry.sbp_clauses" in
  let orbits0 = cval "relog.symmetry.orbits" in
  let before = Sat.Solver.global_stats () in
  let r, wall =
    time_it (fun () ->
        Echo.Engine.enforce_all ~sbp ~jobs ?split_after ~limit:32
          ~slack_objects:slack trans ~metamodels:F.metamodels
          ~models:(F.bind ~cfs ~fm)
          ~targets:(Echo.Target.single "cf1"))
  in
  let after = Sat.Solver.global_stats () in
  match r with
  | Error e -> failwith ("E12: " ^ e)
  | Ok outcomes ->
    let menu =
      List.filter_map
        (function Echo.Engine.Enforced r -> Some r | _ -> None)
        outcomes
    in
    let fingerprint =
      List.sort_uniq compare
        (List.map
           (fun r ->
             (r.Echo.Engine.relational_distance, r.Echo.Engine.edit_distance))
           menu)
      |> List.map (fun (rd, ed) -> Printf.sprintf "%d:%d" rd ed)
      |> String.concat ","
    in
    ( List.length menu,
      fingerprint,
      stats_delta before after,
      cval "echo.repair.dedup_discards" - discards0,
      cval "relog.symmetry.sbp_clauses" - clauses0,
      cval "relog.symmetry.orbits" - orbits0,
      wall )

let e12 ~jobs:_ =
  section "E12" "symmetry breaking: menu enumeration with SBPs off/on";
  Format.printf "  %-22s | %-3s | %18s | %18s | %-5s@." "case" "sbp"
    "menu / fingerprint" "solves / discards" "sbp clauses";
  (* jobs = 1 exercises the serial dedup path; the cube case forces a
     genuinely concurrent sharded enumeration (split_after 0 splits
     eagerly) even on a single-core box via MDQVTR_WORKERS. *)
  let cases =
    [
      ("sym3 (3 features)", 3, 4, 1, None);
      ("sym4 (4 features)", 4, 5, 1, None);
      ("cube4 (4 features, jobs=4)", 4, 5, 4, Some 0.0);
    ]
  in
  List.map
    (fun (name, features, slack, jobs, split_after) ->
      let arm sbp () = e12_arm ~features ~slack ~jobs ~split_after ~sbp in
      let run sbp =
        if jobs > 1 then e12_with_workers jobs (arm sbp) else arm sbp ()
      in
      let m_off, fp_off, st_off, disc_off, _, _, w_off = run false in
      let m_on, fp_on, st_on, disc_on, clauses_on, orbits_on, w_on = run true in
      let row sbp m fp (st : Sat.Solver.stats) disc clauses =
        Format.printf "  %-22s | %-3s | %4d  %-12s | %6d / %8d | %d@." name
          (if sbp then "on" else "off")
          m fp st.Sat.Solver.solves disc clauses
      in
      row false m_off fp_off st_off disc_off 0;
      row true m_on fp_on st_on disc_on clauses_on;
      Format.printf
        "  %-22s   fingerprints %s, menu %dx smaller, %d fewer solves, wall \
         %.0f -> %.0f ms@."
        ""
        (if fp_off = fp_on then "EQUAL" else "DIVERGED")
        (if m_on = 0 then 0 else m_off / m_on)
        (st_off.Sat.Solver.solves - st_on.Sat.Solver.solves)
        (w_off *. 1000.) (w_on *. 1000.);
      let arm_json m fp (st : Sat.Solver.stats) disc clauses orbits w =
        Echo.Telemetry.Obj
          [
            ("menu_size", Echo.Telemetry.Int m);
            ("fingerprint", Echo.Telemetry.String fp);
            ("dedup_discards", Echo.Telemetry.Int disc);
            ("sbp_clauses", Echo.Telemetry.Int clauses);
            ("orbits", Echo.Telemetry.Int orbits);
            ("wall_time_s", Echo.Telemetry.Float w);
            ("solver", Echo.Telemetry.solver_json st);
          ]
      in
      Echo.Telemetry.Obj
        [
          ("experiment", Echo.Telemetry.String "E12");
          ("case", Echo.Telemetry.String name);
          ("features", Echo.Telemetry.Int features);
          ("slack", Echo.Telemetry.Int slack);
          ("jobs", Echo.Telemetry.Int jobs);
          ("off", arm_json m_off fp_off st_off disc_off 0 0 w_off);
          ("on", arm_json m_on fp_on st_on disc_on clauses_on orbits_on w_on);
          ("fingerprints_equal", Echo.Telemetry.Bool (fp_off = fp_on));
          ( "solves_saved",
            Echo.Telemetry.Int
              (st_off.Sat.Solver.solves - st_on.Sat.Solver.solves) );
        ])
    cases

(* Below this wall time a speedup ratio is timer noise, not signal:
   on this class of box two back-to-back runs of the same sub-10ms
   experiment routinely differ by 2-3x (scheduler quantum, cache
   state), so BENCH_4's "3.2x speedup at jobs=4" on E9 was an artifact
   of dividing two tiny numbers. Records whose own wall or whose
   baseline wall sits under the floor get [speedup: null] plus a note
   instead of a misleading ratio. *)
let speedup_floor_s = 0.010

(* Run one experiment at one jobs value and measure it: wall time plus
   the process-wide solver-counter delta it caused (experiments create
   solvers internally, so instance-level stats are unreachable from
   here; the global counters are atomic, so worker-domain solves are
   included). [speedup] is wall at the sweep baseline / this wall. *)
let run_measured ~jobs ~reps ?baseline (id, title, f) =
  (* Measurement isolation: records run back-to-back in one process,
     and a heap grown by earlier records slows later allocation-heavy
     solves by 2-3x. Compact before each record so the sweep measures
     the experiment, not the GC state it inherited. *)
  Gc.compact ();
  let before = Sat.Solver.global_stats () in
  let (), wall0 = time_it (fun () -> f ~jobs) in
  let after = Sat.Solver.global_stats () in
  (* Wall is the minimum over [reps] runs: CDCL solve times are
     heavy-tailed and the box shares its core, so the minimum is the
     standard noise-robust estimator for deterministic workloads. The
     maximum rides along so readers can judge the spread. The
     solver-counter delta covers the first run only. *)
  let wall_min = ref wall0 and wall_max = ref wall0 in
  for _ = 2 to max 1 reps do
    let (), w = time_it (fun () -> f ~jobs) in
    if w < !wall_min then wall_min := w;
    if w > !wall_max then wall_max := w
  done;
  let wall = !wall_min in
  let speedup =
    let reliable = wall >= speedup_floor_s in
    match baseline with
    | None when reliable -> [ ("speedup", Echo.Telemetry.Float 1.0) ]
    | Some b when reliable && b >= speedup_floor_s ->
      [ ("speedup", Echo.Telemetry.Float (b /. wall)) ]
    | _ ->
      [
        ("speedup", Echo.Telemetry.Null);
        ( "speedup_note",
          Echo.Telemetry.String
            (Printf.sprintf
               "suppressed: wall below the %.0f ms noise floor; the ratio would \
                be timer noise"
               (speedup_floor_s *. 1000.)) );
      ]
  in
  ( Echo.Telemetry.Obj
      ([
         ("experiment", Echo.Telemetry.String id);
         ("title", Echo.Telemetry.String title);
         ("jobs", Echo.Telemetry.Int jobs);
         ("wall_time_s", Echo.Telemetry.Float wall);
         ("wall_max_s", Echo.Telemetry.Float !wall_max);
         ("reps", Echo.Telemetry.Int (max 1 reps));
       ]
      @ speedup
      @ [ ("solver", Echo.Telemetry.solver_json (stats_delta before after)) ]),
    wall )

(* Measure one experiment across the whole jobs sweep; the first sweep
   point is the speedup baseline (the default sweep starts at 1). *)
let measure_sweep ~reps sweep exp =
  let rec go baseline acc = function
    | [] -> List.rev acc
    | j :: rest ->
      let record, wall = run_measured ~jobs:j ~reps ?baseline exp in
      let baseline = Some (Option.value baseline ~default:wall) in
      go baseline (record :: acc) rest
  in
  go None [] sweep

let write_json ?(schema = "mdqvtr-bench/6") ?(extra = []) path records =
  let body =
    Echo.Telemetry.json_to_string
      (Echo.Telemetry.Obj
         ([
            ("schema", Echo.Telemetry.String schema);
            ("records", Echo.Telemetry.List records);
          ]
         @ extra))
  in
  match open_out path with
  | oc ->
    output_string oc body;
    output_string oc "\n";
    close_out oc;
    Format.printf "@.wrote %d benchmark record(s) to %s@." (List.length records)
      path
  | exception Sys_error msg ->
    Format.eprintf "cannot write benchmark records: %s@." msg;
    exit 2

let () =
  let fixed f ~jobs:_ = f () in
  let experiments =
    [ ("e1", "Figure 1 metamodels and conformance", fixed e1);
      ("e2", "standard semantics cannot express MF (2.1)", fixed e2);
      ("e3", "checking dependencies realise MF and OF (2.2)", fixed e3);
      ("e4", "conservativity (2.2)", fixed e4);
      ("e5", "Horn entailment, linear time (2.3)", fixed e5);
      ("e6", "enforcement shapes (3)", fun ~jobs -> e6 ~jobs);
      ("e7", "least change and backend agreement (3)", fun ~jobs -> e7 ~jobs);
      ("e8", "scaling", fun ~jobs -> e8 ~jobs);
      ("e9", "incremental recheck vs from-scratch", fun ~jobs:_ -> ignore (e9 ()));
      ("e10", "incremental rerepair vs enforce_all", fun ~jobs -> ignore (e10 ~jobs));
      ("e11", "transformation server under concurrent load", fun ~jobs -> ignore (e11 ~jobs));
      ("e12", "symmetry breaking: SBPs off/on", fun ~jobs -> ignore (e12 ~jobs)) ]
  in
  let args = List.tl (Array.to_list Sys.argv) in
  let json = List.mem "--json" args in
  let rec out_file = function
    | "--out" :: path :: _ -> path
    | _ :: rest -> out_file rest
    | [] -> "BENCH_6.json"
  in
  let out = out_file args in
  let rec trace_file = function
    | "--trace" :: path :: _ -> Some path
    | _ :: rest -> trace_file rest
    | [] -> None
  in
  let trace = trace_file args in
  Option.iter (fun _ -> Obs.Trace.set_enabled true) trace;
  let usage () =
    Format.eprintf
      "usage: main.exe [e1..e12|bench] [--json] [--out FILE] [--jobs SPEC] \
       [--reps N] [--trace FILE]@.";
    exit 2
  in
  let parse_jobs spec =
    let int s = match int_of_string_opt (String.trim s) with
      | Some n when n >= 1 -> n
      | _ -> usage ()
    in
    if String.contains spec ',' then
      List.map int (String.split_on_char ',' spec)
    else
      (* bare N: powers of two up to N, e.g. 4 -> 1,2,4 *)
      let n = int spec in
      let rec pows p acc = if p >= n then List.rev (n :: acc) else pows (2 * p) (p :: acc) in
      pows 1 []
  in
  let rec jobs_spec = function
    | "--jobs" :: spec :: _ -> Some (parse_jobs spec)
    | _ :: rest -> jobs_spec rest
    | [] -> None
  in
  let sweep = Option.value (jobs_spec args) ~default:[ 1; 2; 4 ] in
  let rec reps_spec = function
    | "--reps" :: n :: _ -> (
      match int_of_string_opt (String.trim n) with
      | Some r when r >= 1 -> r
      | _ -> usage ())
    | _ :: rest -> reps_spec rest
    | [] -> 1
  in
  let reps = reps_spec args in
  (* plain (non-JSON) runs execute once, at the largest requested jobs *)
  let run_jobs =
    match jobs_spec args with
    | Some js -> List.fold_left max 1 js
    | None -> 1
  in
  let rec drop_flags = function
    | "--json" :: rest -> drop_flags rest
    | "--out" :: _ :: rest -> drop_flags rest
    | "--jobs" :: _ :: rest -> drop_flags rest
    | "--reps" :: _ :: rest -> drop_flags rest
    | "--trace" :: _ :: rest -> drop_flags rest
    | a :: rest -> a :: drop_flags rest
    | [] -> []
  in
  (* the per-step incremental-session records live in their own file,
     BENCH_3.json (schema mdqvtr-bench/3), next to the --out target *)
  let write_bench3 () =
    let path = Filename.concat (Filename.dirname out) "BENCH_3.json" in
    write_json ~schema:"mdqvtr-bench/3" path (e9 () @ e10 ~jobs:run_jobs)
  in
  (* the server load records likewise: BENCH_8.json (mdqvtr-bench/8 —
     bench/7 plus the queue-wait/service split and reqlog accounting) *)
  let write_bench8 () =
    let path = Filename.concat (Filename.dirname out) "BENCH_8.json" in
    write_json ~schema:"mdqvtr-bench/8" path (e11 ~jobs:run_jobs)
  in
  (* the symmetry-breaking off/on comparison: BENCH_9.json
     (mdqvtr-bench/9), with its own cumulative metrics snapshot so the
     relog.symmetry.* and sat.* counters land in the committed file *)
  let write_bench9 () =
    let path = Filename.concat (Filename.dirname out) "BENCH_9.json" in
    write_json ~schema:"mdqvtr-bench/9" path
      ~extra:[ ("metrics", Obs.Metrics.to_json ()) ]
      (e12 ~jobs:run_jobs)
  in
  (* the metrics snapshot is cumulative over the whole run, so it is
     attached once per file, after every record has executed *)
  let metrics () = [ ("metrics", Obs.Metrics.to_json ()) ] in
  (* run after every measured record (it perturbs wall-clock on small
     boxes) but before the metrics snapshot is taken *)
  let maybe_portfolio selected =
    if List.exists (fun (eid, _, _) -> eid = "e7") selected then e7_portfolio ()
  in
  let run () =
    match drop_flags args with
    | [] ->
      if json then begin
        let records = List.concat_map (measure_sweep ~reps sweep) experiments in
        maybe_portfolio experiments;
        write_json ~extra:(metrics ()) out records;
        write_bench3 ();
        write_bench8 ();
        write_bench9 ()
      end
      else begin
        List.iter (fun (_, _, f) -> f ~jobs:run_jobs) experiments;
        maybe_portfolio experiments;
        bechamel_suite ()
      end
    | [ "bench" ] -> bechamel_suite ()
    | ids ->
      let selected =
        List.map
          (fun id ->
            match
              List.find_opt
                (fun (eid, _, _) -> eid = String.lowercase_ascii id)
                experiments
            with
            | Some exp -> exp
            | None ->
              Format.eprintf "unknown experiment %s (e1..e12 or bench)@." id;
              exit 2)
          ids
      in
      if json then begin
        let records = List.concat_map (measure_sweep ~reps sweep) selected in
        maybe_portfolio selected;
        write_json ~extra:(metrics ()) out records;
        if List.exists (fun (eid, _, _) -> eid = "e9" || eid = "e10") selected
        then write_bench3 ();
        if List.exists (fun (eid, _, _) -> eid = "e11") selected then
          write_bench8 ();
        if List.exists (fun (eid, _, _) -> eid = "e12") selected then
          write_bench9 ()
      end
      else begin
        List.iter (fun (_, _, f) -> f ~jobs:run_jobs) selected;
        maybe_portfolio selected
      end
  in
  match trace with
  | None -> run ()
  | Some path ->
    Fun.protect
      ~finally:(fun () ->
        Obs.Trace.set_enabled false;
        Obs.Trace.export_chrome path;
        Format.eprintf "trace written to %s@." path)
      run
