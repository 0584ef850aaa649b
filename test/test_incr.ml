(* Tests for lib/incr: incremental consistency-maintenance sessions.

   The load-bearing property is *equivalence*: after any edit
   sequence, a session's recheck verdicts and rerepair menu must be
   exactly what a from-scratch run (Qvtr.Check / Echo.Engine over the
   current models, with the universe aligned via value_universe and
   slack_budget) computes. On top of that: blame sets, the
   translation cache (rebuild triggers and cache hits), commit
   round-trips, and the warm path's strict cost advantage over
   from-scratch — the property experiment E9 measures. *)

module S = Incr.Session
module Rp = Incr.Replay
module F = Featuremodel.Fm
module Sc = Featuremodel.Scenarios
module Eng = Echo.Engine
module Edit = Mdl.Edit
module Model = Mdl.Model
module Ident = Mdl.Ident

(* CI runs the suite at several MDQVTR_JOBS values; jobs only feeds
   the from-scratch engine runs — sessions themselves are serial. *)
let jobs =
  match Sys.getenv_opt "MDQVTR_JOBS" with
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some n when n >= 1 -> n
    | _ -> 2)
  | None -> 2

let metamodels = F.metamodels
let trans = F.transformation ~k:2

let open_exn ?slack_budget ?headroom ~cfs ~fm targets =
  match
    S.open_session ?slack_budget ?headroom ~transformation:trans ~metamodels
      ~models:(F.bind ~cfs ~fm) ~targets:(Echo.Target.of_list targets) ()
  with
  | Ok s -> s
  | Error e -> Alcotest.fail e

let recheck_exn ?blame sess =
  match S.recheck ?blame sess with Ok r -> r | Error e -> Alcotest.fail e

let model_of sess p =
  match List.find_opt (fun (q, _) -> Ident.equal q p) (S.models sess) with
  | Some (_, m) -> m
  | None -> Alcotest.failf "no parameter %s in session" (Ident.name p)

(* Diff the session's current models against a desired state and hand
   the scripts to apply_edits — the editor-save workflow. *)
let edit_to sess ~cfs ~fm =
  let batch =
    List.filter_map
      (fun (p, m') ->
        match Mdl.Diff.script (model_of sess p) m' with
        | [] -> None
        | edits -> Some (p, edits))
      (F.bind ~cfs ~fm)
  in
  match S.apply_edits sess batch with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

(* ------------------------------------------------------------------ *)
(* Equivalence helpers                                                 *)

let check_agrees ~ctx sess =
  let rep = recheck_exn sess in
  let scratch =
    Qvtr.Check.run_exn trans ~metamodels ~models:(S.models sess)
  in
  Alcotest.(check bool)
    (ctx ^ ": consistency agrees with Check.run")
    scratch.Qvtr.Check.consistent rep.S.consistent;
  Alcotest.(check int)
    (ctx ^ ": verdict count")
    (List.length scratch.Qvtr.Check.verdicts)
    (List.length rep.S.verdicts);
  List.iter2
    (fun (v : S.verdict) (w : Qvtr.Check.verdict) ->
      Alcotest.(check string)
        (ctx ^ ": verdict relation")
        (Ident.name w.Qvtr.Check.v_relation)
        (Ident.name v.S.v_relation);
      Alcotest.(check bool)
        (ctx ^ ": directions align")
        true
        (v.S.v_direction = w.Qvtr.Check.v_direction);
      Alcotest.(check bool)
        (ctx ^ ": verdict agrees")
        w.Qvtr.Check.v_holds v.S.v_holds)
    rep.S.verdicts scratch.Qvtr.Check.verdicts;
  rep

(* Canonical serialization of a repair's target models, for comparing
   menus as sets. *)
let repair_key tgts models =
  models
  |> List.filter (fun (p, _) -> Ident.Set.mem p tgts)
  |> List.map (fun (p, m) -> (Ident.name p, Mdl.Serialize.model_to_string m))
  |> List.sort compare
  |> List.map (fun (n, s) -> n ^ ":" ^ s)
  |> String.concat "\n--\n"

let rerepair_exn ?limit sess =
  match S.rerepair ?limit sess with Ok r -> r | Error e -> Alcotest.fail e

let repair_agrees ~ctx sess =
  let rep = rerepair_exn ~limit:64 sess in
  let outcomes =
    match
      Eng.enforce_all ~limit:64 ~jobs ~slack_objects:(S.slack_budget sess)
        ~extra_values:(S.value_universe sess) trans ~metamodels
        ~models:(S.models sess) ~targets:(S.targets sess)
    with
    | Ok o -> o
    | Error e -> Alcotest.fail e
  in
  (match (rep.S.outcome, outcomes) with
  | S.Already_consistent, [ Eng.Already_consistent ] -> ()
  | S.Cannot_restore, [ Eng.Cannot_restore ] -> ()
  | S.Repaired reps, outs ->
    let engine =
      List.map
        (function
          | Eng.Enforced r -> r
          | Eng.Already_consistent ->
            Alcotest.failf "%s: session repaired, engine consistent" ctx
          | Eng.Cannot_restore ->
            Alcotest.failf "%s: session repaired, engine cannot" ctx)
        outs
    in
    let tgts = S.targets sess in
    (match (reps, engine) with
    | r :: _, e :: _ ->
      Alcotest.(check int)
        (ctx ^ ": relational distance")
        e.Eng.relational_distance r.S.r_relational_distance;
      Alcotest.(check bool)
        (ctx ^ ": session menu at a single distance")
        true
        (List.for_all
           (fun r' ->
             r'.S.r_relational_distance = r.S.r_relational_distance)
           reps)
    | _ -> Alcotest.failf "%s: empty repair menu" ctx);
    (* the menus, as canonically serialized target-model sets, must
       coincide — including per-repair edit distances *)
    let key_sess =
      List.map
        (fun r -> (repair_key tgts r.S.r_models, r.S.r_edit_distance))
        reps
      |> List.sort_uniq compare
    in
    let key_eng =
      List.map
        (fun r -> (repair_key tgts r.Eng.repaired, r.Eng.edit_distance))
        engine
      |> List.sort_uniq compare
    in
    Alcotest.(check (list (pair string int)))
      (ctx ^ ": repair menu and edit distances")
      key_eng key_sess
  | S.Already_consistent, _ ->
    Alcotest.failf "%s: session consistent, engine disagrees" ctx
  | S.Cannot_restore, _ ->
    Alcotest.failf "%s: session cannot-restore, engine disagrees" ctx);
  rep

(* ------------------------------------------------------------------ *)
(* The directed walk: rechecks along an edit history                   *)

(* Each state is (cf1 features, cf2 features, fm features); the walk
   crosses consistent and inconsistent states, object creation through
   slack, deletion, re-creation under a stale id, and one genuine
   universe rebuild (a brand-new attribute value). *)
let walk =
  [
    ("s1 drop cf2 selection", [ "A" ], [], [ ("A", true); ("B", false) ]);
    ("s2 A made optional", [ "A" ], [], [ ("A", false); ("B", false) ]);
    ("s3 select B", [ "A"; "B" ], [ "B" ], [ ("A", false); ("B", false) ]);
    ("s4 B made mandatory", [ "A"; "B" ], [ "B" ], [ ("A", false); ("B", true) ]);
    ("s5 rename to unknown C", [ "A"; "C" ], [ "B" ], [ ("A", false); ("B", true) ]);
    ( "s6 adopt C everywhere",
      [ "A"; "C" ],
      [ "C" ],
      [ ("A", false); ("B", false); ("C", true) ] );
  ]

let state ~cf1 ~cf2 ~fm =
  ( [ F.configuration ~name:"cf1" cf1; F.configuration ~name:"cf2" cf2 ],
    F.feature_model ~name:"fm" fm )

let test_walk_check_equivalence () =
  let cfs, fm = state ~cf1:[ "A" ] ~cf2:[ "A" ] ~fm:[ ("A", true); ("B", false) ] in
  let sess = open_exn ~cfs ~fm [ "cf1"; "cf2" ] in
  let rep0 = check_agrees ~ctx:"s0" sess in
  Alcotest.(check bool) "s0 consistent" true rep0.S.consistent;
  Alcotest.(check bool) "s0 pays translation" true rep0.S.check_stats.S.translated;
  List.iter
    (fun (ctx, cf1, cf2, fm) ->
      let cfs, fm = state ~cf1 ~cf2 ~fm in
      edit_to sess ~cfs ~fm;
      let rep = check_agrees ~ctx sess in
      (* the session must agree with the set-level oracle too *)
      Alcotest.(check bool)
        (ctx ^ ": matches Fm.consistent oracle")
        (F.consistent ~cfs ~fm) rep.S.consistent)
    walk;
  (* only the brand-new value "C" at s5 forced a re-encode *)
  Alcotest.(check int) "one rebuild over the walk" 1 (S.rebuilds sess)

let test_blame_names_facts () =
  (* s5 of the walk violates both MF and OF; every violated direction
     must blame a non-empty, minimal set of model facts *)
  let cfs, fm =
    state ~cf1:[ "A"; "C" ] ~cf2:[ "B" ] ~fm:[ ("A", false); ("B", true) ]
  in
  let sess = open_exn ~cfs ~fm [ "cf1"; "cf2" ] in
  let rep = recheck_exn ~blame:true sess in
  Alcotest.(check bool) "state is inconsistent" false rep.S.consistent;
  List.iter
    (fun (v : S.verdict) ->
      if not v.S.v_holds then begin
        Alcotest.(check bool)
          (Printf.sprintf "%s blame non-empty" (Ident.name v.S.v_relation))
          true (v.S.v_blame <> []);
        List.iter
          (fun (f : S.fact) ->
            Alcotest.(check bool) "fact relation named" true
              (Ident.name f.S.f_rel <> "");
            Alcotest.(check bool) "fact tuple non-empty" true
              (Array.length f.S.f_atoms > 0))
          v.S.v_blame
      end
      else
        Alcotest.(check bool) "holding direction carries no blame" true
          (v.S.v_blame = []))
    rep.S.verdicts

(* ------------------------------------------------------------------ *)
(* Repair equivalence                                                  *)

let test_repair_walk () =
  let cfs, fm = state ~cf1:[ "A" ] ~cf2:[ "A" ] ~fm:[ ("A", true); ("B", false) ] in
  let sess = open_exn ~cfs ~fm [ "cf1"; "cf2" ] in
  let rep = repair_agrees ~ctx:"consistent state" sess in
  (match rep.S.outcome with
  | S.Already_consistent -> ()
  | _ -> Alcotest.fail "expected Already_consistent");
  (* break it: cf2 drops the mandatory A *)
  let cfs, fm = state ~cf1:[ "A" ] ~cf2:[] ~fm:[ ("A", true); ("B", false) ] in
  edit_to sess ~cfs ~fm;
  let rep1 = repair_agrees ~ctx:"after drop" sess in
  let first =
    match rep1.S.outcome with
    | S.Repaired (r :: _) -> r
    | _ -> Alcotest.fail "expected a repair menu"
  in
  (* warm repeat: a second rerepair on the untouched session sees the
     same state — scoped blocks from the first call must have been
     retracted *)
  let rep2 = rerepair_exn ~limit:64 sess in
  (match (rep1.S.outcome, rep2.S.outcome) with
  | S.Repaired a, S.Repaired b ->
    let tgts = S.targets sess in
    Alcotest.(check (list string))
      "rerepair is stable across warm repeats"
      (List.map (fun r -> repair_key tgts r.S.r_models) a)
      (List.map (fun r -> repair_key tgts r.S.r_models) b);
    Alcotest.(check bool) "warm repeat does not retranslate" false
      rep2.S.repair_stats.S.translated
  | _ -> Alcotest.fail "outcomes diverged across warm repeats");
  (* committing a repair routes through apply_edits and lands in a
     consistent state *)
  (match S.commit sess first with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let rep = check_agrees ~ctx:"after commit" sess in
  Alcotest.(check bool) "committed repair is consistent" true rep.S.consistent

let test_scenarios_repair_equivalence () =
  (* every paper scenario, every restorable and non-restorable target
     set: the session's menu equals the engine's *)
  List.iter
    (fun (s : Sc.t) ->
      List.iter
        (fun targets ->
          let sess = open_exn ~cfs:s.Sc.cfs ~fm:s.Sc.fm targets in
          ignore
            (repair_agrees
               ~ctx:
                 (Printf.sprintf "%s -> %s" s.Sc.s_name
                    (String.concat "," targets))
               sess))
        (s.Sc.restorable @ s.Sc.not_restorable))
    Sc.all

(* ------------------------------------------------------------------ *)
(* The translation cache                                               *)

let feature = Ident.make "Feature"
let name_attr = Ident.make "name"

let add_feature ~id name =
  [
    Edit.Add_object { id; cls = feature };
    Edit.Set_attr
      { id; attr = name_attr; before = []; after = [ Mdl.Value.Str name ] };
  ]

let test_translation_cache_hit () =
  (* headroom 0: every unknown object id forces a re-encode, so
     cycling cf1 through base+#1, base+#2 and back to base+#1 must
     re-encode three times — and the third, whose (models, values)
     state equals the first, revives the cached generation instead of
     translating again *)
  let cfs, fm = state ~cf1:[ "A" ] ~cf2:[ "A" ] ~fm:[ ("A", true); ("B", false) ] in
  let hits0 =
    Obs.Metrics.counter_value (Obs.Metrics.counter "incr.translation_cache_hits")
  in
  let deltas0 =
    Obs.Metrics.counter_value (Obs.Metrics.counter "relog.delta_retranslations")
  in
  let sess = open_exn ~headroom:0 ~cfs ~fm [ "fm" ] in
  let r0 = recheck_exn sess in
  Alcotest.(check bool) "initial recheck translates" true
    r0.S.check_stats.S.translated;
  Alcotest.(check int) "no rebuild yet" 0 (S.rebuilds sess);
  let apply batch =
    match S.apply_edits sess [ (Ident.make "cf1", batch) ] with
    | Ok () -> ()
    | Error e -> Alcotest.fail e
  in
  (* #1 appears: unknown id, zero headroom -> rebuild *)
  apply (add_feature ~id:1 "B");
  let r1 = check_agrees ~ctx:"cache +#1" sess in
  Alcotest.(check bool) "rebuild 1 translates" true r1.S.check_stats.S.translated;
  Alcotest.(check int) "rebuild count 1" 1 (S.rebuilds sess);
  (* #1 replaced by #2 with identical content: new id -> rebuild *)
  apply (Edit.Delete_object { id = 1 } :: add_feature ~id:2 "B");
  let r2 = check_agrees ~ctx:"cache +#2" sess in
  Alcotest.(check bool) "rebuild 2 translates" true r2.S.check_stats.S.translated;
  Alcotest.(check int) "rebuild count 2" 2 (S.rebuilds sess);
  (* back to #1: the state (models and value universe) now fingerprints
     exactly as after the first rebuild — cache hit, no translation *)
  apply (Edit.Delete_object { id = 2 } :: add_feature ~id:1 "B");
  let r3 = check_agrees ~ctx:"cache back to +#1" sess in
  Alcotest.(check bool) "third re-encode hits the cache" false
    r3.S.check_stats.S.translated;
  Alcotest.(check int) "re-encode count 3" 3 (S.rebuilds sess);
  (* counter-level regression guard: the revival must register as a
     translation-cache hit, and the two genuine re-encodes must have
     gone through delta retranslation (not a from-scratch lowering) *)
  Alcotest.(check bool) "incr.translation_cache_hits advanced" true
    (Obs.Metrics.counter_value
       (Obs.Metrics.counter "incr.translation_cache_hits")
    > hits0);
  Alcotest.(check bool) "relog.delta_retranslations advanced" true
    (Obs.Metrics.counter_value
       (Obs.Metrics.counter "relog.delta_retranslations")
    > deltas0)

(* ------------------------------------------------------------------ *)
(* Warm vs from-scratch cost (the E9 property)                         *)

let fm_block features =
  "== "
  ^ String.concat " / "
      (List.map (fun (n, m) -> n ^ (if m then "!" else "")) features)
  ^ "\n"
  ^ Mdl.Serialize.model_to_string (F.feature_model ~name:"fm" features)
  ^ "\n"

let test_warm_beats_scratch () =
  (* single-attribute flips on the feature model, replayed against a
     from-scratch baseline: identical verdicts, and the warm path must
     cost strictly fewer conflicts+propagations at every step *)
  let cfs, fm = state ~cf1:[ "A" ] ~cf2:[ "A" ] ~fm:[ ("A", true); ("B", false) ] in
  let base = F.bind ~cfs ~fm in
  let script =
    String.concat ""
      (List.map fm_block
         [
           [ ("A", true); ("B", true) ];
           [ ("A", true); ("B", false) ];
           [ ("A", false); ("B", false) ];
           [ ("A", true); ("B", false) ];
           [ ("A", true); ("B", true) ];
         ])
  in
  let steps =
    match
      Rp.parse ~metamodels:[ F.cf_metamodel; F.fm_metamodel ] ~base script
    with
    | Ok steps -> steps
    | Error e -> Alcotest.fail e
  in
  Alcotest.(check int) "five steps" 5 (List.length steps);
  let records =
    match
      Rp.run ~transformation:trans ~metamodels ~models:base
        ~targets:(Echo.Target.of_list [ "cf1"; "cf2" ])
        steps
    with
    | Ok rs -> rs
    | Error e -> Alcotest.fail e
  in
  List.iter
    (fun (r : Rp.step_record) ->
      Alcotest.(check bool)
        (r.Rp.sr_label ^ ": one edit") true (r.Rp.sr_edits = 1);
      Alcotest.(check bool)
        (r.Rp.sr_label ^ ": verdicts match") true r.Rp.sr_verdicts_match;
      Alcotest.(check bool)
        (r.Rp.sr_label ^ ": warm path stays warm")
        false
        (r.Rp.sr_rebuilt || r.Rp.sr_session.S.translated);
      Alcotest.(check bool)
        (r.Rp.sr_label ^ ": scratch pays translation")
        true r.Rp.sr_scratch.S.translated;
      Alcotest.(check bool)
        (r.Rp.sr_label ^ ": warm path spends no translation wall")
        true
        (r.Rp.sr_session.S.translate_s = 0.
        && r.Rp.sr_scratch.S.translate_s > 0.);
      let warm =
        r.Rp.sr_session.S.conflicts + r.Rp.sr_session.S.propagations
      in
      let cold =
        r.Rp.sr_scratch.S.conflicts + r.Rp.sr_scratch.S.propagations
      in
      if warm >= cold then
        Alcotest.failf "%s: warm %d >= scratch %d conflicts+propagations"
          r.Rp.sr_label warm cold)
    records

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let check_error_mentions ctx ~sub = function
  | Error e ->
    if not (contains ~sub e) then
      Alcotest.failf "%s: expected %S in error %S" ctx sub e
  | Ok _ -> Alcotest.failf "%s: malformed script must be rejected" ctx

let test_replay_parse_errors () =
  let mms = [ F.cf_metamodel; F.fm_metamodel ] in
  let cfs, fm = state ~cf1:[ "A" ] ~cf2:[ "A" ] ~fm:[ ("A", true) ] in
  let base = F.bind ~cfs ~fm in
  (* every rejection must name the script line it comes from *)
  check_error_mentions "text before the first marker" ~sub:"line 1"
    (Rp.parse ~metamodels:mms ~base "model x {}\n== late marker\n");
  check_error_mentions "stray text after blank lines" ~sub:"line 3"
    (Rp.parse ~metamodels:mms ~base "\n\nstray text\n== step\n");
  (* a model-syntax error inside a block reports the step, its marker
     line, and the absolute line of the offending token — bodies are
     newline-padded to their file position *)
  let bad = Rp.parse ~metamodels:mms ~base "== s1 bad block\nnot a model\n" in
  check_error_mentions "malformed block names its step" ~sub:{|step "s1 bad block"|} bad;
  check_error_mentions "malformed block names its marker" ~sub:"marker at line 1" bad;
  check_error_mentions "model error keeps absolute lines" ~sub:"line 2" bad;
  let prefix = "== ok\n" ^ Mdl.Serialize.model_to_string fm ^ "\n" in
  let marker_line =
    1 + String.fold_left (fun n c -> if c = '\n' then n + 1 else n) 0 prefix
  in
  check_error_mentions "later block, later marker line"
    ~sub:(Printf.sprintf "marker at line %d" marker_line)
    (Rp.parse ~metamodels:mms ~base (prefix ^ "== broken\nmodel cf1 : CF {\n"));
  (* unknown declaration keywords are model-syntax errors too *)
  check_error_mentions "unknown keyword" ~sub:"marker at line 1"
    (Rp.parse ~metamodels:mms ~base "== kw\nwidget w : W {}\n");
  (* blocks: labels, marker lines, and bodies in file coordinates *)
  (match Rp.blocks "== a\nbody\n\n== b\nmore\n" with
  | Ok [ ("a", 1, ba); ("b", 4, bb) ] ->
    Alcotest.(check string) "body a" "body" (String.trim ba);
    Alcotest.(check string) "body b" "more" (String.trim bb)
  | Ok bs -> Alcotest.failf "unexpected blocks (%d)" (List.length bs)
  | Error e -> Alcotest.fail e);
  (* a block restating the current state yields a step with no edits *)
  match
    Rp.parse ~metamodels:mms ~base
      ("== noop\n" ^ Mdl.Serialize.model_to_string fm ^ "\n")
  with
  | Ok [ { Rp.s_label = "noop"; s_batch = []; _ } ] -> ()
  | Ok _ -> Alcotest.fail "expected one empty step"
  | Error e -> Alcotest.fail e

(* The repair ladder's SAT work is booked as SAT work: every ladder
   solve runs under a [solve] span tagged [session.repair] with its
   distance, and the totalizer build under [cnf.cardinality]. *)
let test_rerepair_spans () =
  let cfs, fm =
    state ~cf1:[ "A"; "C" ] ~cf2:[ "B" ] ~fm:[ ("A", false); ("B", true) ]
  in
  let sess = open_exn ~cfs ~fm [ "cf1"; "cf2" ] in
  Obs.Trace.clear ();
  Obs.Trace.set_enabled true;
  let rep =
    Fun.protect
      ~finally:(fun () -> Obs.Trace.set_enabled false)
      (fun () -> rerepair_exn ~limit:2 sess)
  in
  let evs = Obs.Trace.events () in
  Obs.Trace.clear ();
  (match rep.S.outcome with
  | S.Repaired _ -> ()
  | _ -> Alcotest.fail "expected a repair");
  let begins name =
    List.filter (fun (e : Obs.Trace.event) -> e.ph = `Begin && e.name = name) evs
  in
  let ladder =
    List.filter
      (fun (e : Obs.Trace.event) ->
        List.assoc_opt "backend" e.args = Some (Obs.Json.String "session.repair"))
      (begins "solve")
  in
  Alcotest.(check bool) "ladder solves traced" true (ladder <> []);
  List.iter
    (fun (e : Obs.Trace.event) ->
      Alcotest.(check bool) "distance tagged" true (List.mem_assoc "distance" e.args);
      Alcotest.(check bool) "assumptions tagged" true
        (List.mem_assoc "assumptions" e.args))
    ladder;
  Alcotest.(check int) "one totalizer build" 1 (List.length (begins "cnf.cardinality"))

let suite =
  [
    Alcotest.test_case "walk: recheck equals Check.run" `Quick
      test_walk_check_equivalence;
    Alcotest.test_case "blame names model facts" `Quick test_blame_names_facts;
    Alcotest.test_case "repair walk: rerepair equals enforce_all" `Slow
      test_repair_walk;
    Alcotest.test_case "scenario sweep: menus equal (E10)" `Slow
      test_scenarios_repair_equivalence;
    Alcotest.test_case "translation cache revives generations" `Quick
      test_translation_cache_hit;
    Alcotest.test_case "warm recheck beats from-scratch (E9)" `Quick
      test_warm_beats_scratch;
    Alcotest.test_case "replay script parsing" `Quick test_replay_parse_errors;
    Alcotest.test_case "repair ladder runs under solve spans" `Quick
      test_rerepair_spans;
  ]
