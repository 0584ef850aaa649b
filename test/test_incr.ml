(* Tests for lib/incr: incremental consistency-maintenance sessions.

   The load-bearing property is *equivalence*: after any edit
   sequence, a session's recheck verdicts and rerepair menu must be
   exactly what a from-scratch run (Qvtr.Check / Echo.Engine over the
   current models, with the universe aligned via value_universe and
   slack_budget) computes. On top of that: blame sets and their
   polarity, re-encodes (rebuild triggers, template hits, flat
   memory), translation templates (shared only between equal
   translations), commit round-trips, and the warm path's strict cost
   advantage over from-scratch — experiment E9's property
   (EXPERIMENTS.md), checked here on E9's own replay through
   [Server.Replay], the driver of [qvtr session]. *)

module S = Incr.Session
module Rp = Server.Replay
module F = Featuremodel.Fm
module Sc = Featuremodel.Scenarios
module Eng = Echo.Engine
module Edit = Mdl.Edit
module Model = Mdl.Model
module Ident = Mdl.Ident

let metamodels = F.metamodels
let trans = F.transformation ~k:2

let open_exn ?mode ?slack_budget ?headroom ~cfs ~fm targets =
  match
    S.open_session ?mode ?slack_budget ?headroom ~transformation:trans ~metamodels
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

let check_agrees ?mode ?(spec = trans) ~ctx sess =
  let rep = recheck_exn sess in
  let scratch =
    Qvtr.Check.run_exn ?mode spec ~metamodels ~models:(S.models sess)
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
      Eng.enforce_all ~limit:64 ~slack_objects:(S.slack_budget sess)
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

let feature = Ident.make "Feature"
let name_attr = Ident.make "name"
let mand_attr = Ident.make "mandatory"

let add_feature ~id name =
  [
    Edit.Add_object { id; cls = feature };
    Edit.Set_attr
      { id; attr = name_attr; before = []; after = [ Mdl.Value.Str name ] };
  ]

let set_mandatory id v =
  Edit.Set_attr
    {
      id;
      attr = mand_attr;
      before = [ Mdl.Value.Bool (not v) ];
      after = [ Mdl.Value.Bool v ];
    }

let test_blame_names_client_objects () =
  (* B, optional in fm, is created in both configurations (object 100
     of each, served from check-stage slack atoms): the blame must name
     cf1#100 and cf2#100, as Check.run does, and no slack atom that
     stands for no object *)
  let cfs, fm = state ~cf1:[ "A" ] ~cf2:[ "A" ] ~fm:[ ("A", true); ("B", false) ] in
  let sess = open_exn ~cfs ~fm [ "cf1"; "cf2" ] in
  (match
     S.apply_edits sess
       [ (Ident.make "cf1", add_feature ~id:100 "B"); (Ident.make "cf2", add_feature ~id:100 "B") ]
   with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let rep = recheck_exn ~blame:true sess in
  Alcotest.(check bool) "state is inconsistent" false rep.S.consistent;
  Alcotest.(check int) "created on slack atoms, no re-encode" 0 (S.rebuilds sess);
  let current =
    List.concat_map
      (fun (p, m) -> List.map (fun id -> Ident.name (Qvtr.Encode.obj_atom_name p id)) (Model.objects m))
      (S.models sess)
  in
  let atoms =
    List.concat_map
      (fun (v : S.verdict) ->
        List.concat_map (fun (f : S.fact) -> List.map Ident.name (Array.to_list f.S.f_atoms)) v.S.v_blame)
      rep.S.verdicts
  in
  List.iter
    (fun a ->
      Alcotest.(check bool)
        (Printf.sprintf "blame atom %s is a value or a current object" a)
        true
        (String.contains a '~' || List.mem a current))
    atoms;
  List.iter
    (fun a -> Alcotest.(check bool) (a ^ " is blamed") true (List.mem a atoms))
    [ "cf1#100"; "cf2#100" ]

(* A blamed fact carries the polarity it was pinned at: whether the
   current models contain the tuple. A violated mandatory feature is
   blamed on its absence from a configuration, so some facts are
   absent ones. *)
let test_blame_polarity () =
  let cfs, fm = state ~cf1:[ "A"; "C" ] ~cf2:[ "B" ] ~fm:[ ("A", false); ("B", true) ] in
  let sess = open_exn ~cfs ~fm [ "cf1"; "cf2" ] in
  let rep = recheck_exn ~blame:true sess in
  Alcotest.(check bool) "state is inconsistent" false rep.S.consistent;
  (* the current models' facts, named as blame names them *)
  let enc =
    match
      Qvtr.Encode.create ~transformation:trans ~metamodels ~models:(S.models sess)
        ~slack_objects:0 ()
    with
    | Ok enc -> enc
    | Error e -> Alcotest.fail e
  in
  let key r atoms = Ident.name r :: List.map Ident.name atoms in
  let present = Hashtbl.create 64 in
  List.iter
    (fun (p, m) ->
      List.iter
        (fun (r, tuple) ->
          Hashtbl.replace present
            (key r
               (List.map (Relog.Rel.Universe.atom (Qvtr.Encode.universe enc)) (Array.to_list tuple)))
            ())
        (Qvtr.Encode.model_facts enc ~param:p m))
    (S.models sess);
  let blamed = List.concat_map (fun (v : S.verdict) -> v.S.v_blame) rep.S.verdicts in
  List.iter
    (fun (f : S.fact) ->
      let shown = Format.asprintf "%a" S.pp_fact f in
      Alcotest.(check bool)
        (shown ^ ": polarity matches the models")
        (Hashtbl.mem present (key f.S.f_rel (Array.to_list f.S.f_atoms)))
        f.S.f_present;
      Alcotest.(check bool)
        (shown ^ ": printed with its polarity")
        (not f.S.f_present)
        (String.length shown > 4 && String.sub shown 0 4 = "not "))
    blamed;
  Alcotest.(check bool) "some blamed fact is absent" true
    (List.exists (fun (f : S.fact) -> not f.S.f_present) blamed)

(* The E9/E10 base state: ten features, three mandatory, and two
   configurations that agree exactly on the mandatory core. Both truth
   values and every feature name occur in it, so flipping one flag
   never forces a re-encode. [ten_feature_fm flips] toggles the flags
   of [flips] and keeps the pool's object order, so one flip diffs to
   one Set_attr edit. *)
let ten_pool = Featuremodel.Gen.feature_names 10
let ten_mandatory = [ "F1"; "F2"; "F3" ]

let ten_feature_fm flips =
  F.feature_model ~name:"fm"
    (List.map
       (fun n ->
         let m = List.mem n ten_mandatory in
         (n, if List.mem n flips then not m else m))
       ten_pool)

let ten_feature_cfs =
  [
    F.configuration ~name:"cf1" (ten_mandatory @ [ "F4" ]);
    F.configuration ~name:"cf2" (ten_mandatory @ [ "F5" ]);
  ]

(* E10's repair loop: each step edits the session, rerepairs against a
   fresh enforce_all, and commits the first repair, so the next step
   edits a consistent state. Configuration objects are positional
   (mandatory core first); feature-model objects follow the pool. *)
let e10_chain =
  [
    ("cf2 drops F1", [ (Ident.make "cf2", [ Edit.Delete_object { id = 0 } ]) ]);
    ("F6 made mandatory", [ (Ident.make "fm", [ set_mandatory 5 true ]) ]);
    ("cf1 selects unknown G1", [ (Ident.make "cf1", add_feature ~id:9 "G1") ]);
    ("cf2 drops F2", [ (Ident.make "cf2", [ Edit.Delete_object { id = 1 } ]) ]);
  ]

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
  (* a second rerepair on the untouched session sees the same state *)
  let rep2 = rerepair_exn ~limit:64 sess in
  (match (rep1.S.outcome, rep2.S.outcome) with
  | S.Repaired a, S.Repaired b ->
    let tgts = S.targets sess in
    Alcotest.(check (list string))
      "rerepair is stable across warm repeats"
      (List.map (fun r -> repair_key tgts r.S.r_models) a)
      (List.map (fun r -> repair_key tgts r.S.r_models) b)
  | _ -> Alcotest.fail "outcomes diverged across warm repeats");
  (* committing a repair routes through apply_edits and lands in a
     consistent state *)
  (match S.commit sess first with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let rep = check_agrees ~ctx:"after commit" sess in
  Alcotest.(check bool) "committed repair is consistent" true rep.S.consistent;
  let sess = open_exn ~cfs:ten_feature_cfs ~fm:(ten_feature_fm []) [ "cf1"; "cf2" ] in
  List.iter
    (fun (label, batch) ->
      (match S.apply_edits sess batch with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s: %s" label e);
      (match (repair_agrees ~ctx:label sess).S.outcome with
      | S.Repaired (r :: _) -> (
        match S.commit sess r with
        | Ok () -> ()
        | Error e -> Alcotest.failf "%s: commit: %s" label e)
      | _ -> Alcotest.failf "%s: expected a repair menu" label);
      let rep = check_agrees ~ctx:(label ^ ", committed") sess in
      Alcotest.(check bool) (label ^ ": committed repair is consistent") true
        rep.S.consistent)
    e10_chain

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
(* Re-encodes and the template cache                                   *)

let template_hits () =
  Obs.Metrics.counter_value (Obs.Metrics.counter "incr.template_hits")

let template_misses () =
  Obs.Metrics.counter_value (Obs.Metrics.counter "incr.template_misses")

(* [f ()]'s change of the template hit and miss counters. *)
let template_delta f =
  let h0 = template_hits () and m0 = template_misses () in
  let x = f () in
  (x, template_hits () - h0, template_misses () - m0)

let test_translation_cache_hit () =
  (* headroom 0: every unknown object id forces a re-encode, so
     cycling cf1 through base+#1, base+#2 and back to base+#1
     re-encodes three times. All three states have one shape, so once
     the first has its template the other two clone it: a hit each,
     and no miss *)
  let cfs, fm = state ~cf1:[ "A" ] ~cf2:[ "A" ] ~fm:[ ("A", true); ("B", false) ] in
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
  let r1, hits, misses = template_delta (fun () -> check_agrees ~ctx:"cache +#1" sess) in
  Alcotest.(check bool) "rebuild 1 takes a check stage" true r1.S.check_stats.S.translated;
  Alcotest.(check int) "rebuild 1 takes one template" 1 (hits + misses);
  Alcotest.(check int) "rebuild count 1" 1 (S.rebuilds sess);
  (* #1 replaced by #2 with identical content: new id -> rebuild *)
  apply (Edit.Delete_object { id = 1 } :: add_feature ~id:2 "B");
  let r2, hits, misses = template_delta (fun () -> check_agrees ~ctx:"cache +#2" sess) in
  Alcotest.(check bool) "rebuild 2 takes a check stage" true r2.S.check_stats.S.translated;
  Alcotest.(check (pair int int)) "rebuild 2 is a template hit" (1, 0) (hits, misses);
  Alcotest.(check int) "rebuild count 2" 2 (S.rebuilds sess);
  (* back to #1: the same shape once more *)
  apply (Edit.Delete_object { id = 2 } :: add_feature ~id:1 "B");
  let r3, hits, misses =
    template_delta (fun () -> check_agrees ~ctx:"cache back to +#1" sess)
  in
  Alcotest.(check bool) "rebuild 3 takes a check stage" true r3.S.check_stats.S.translated;
  Alcotest.(check (pair int int)) "rebuild 3 is a template hit" (1, 0) (hits, misses);
  Alcotest.(check int) "re-encode count 3" 3 (S.rebuilds sess);
  (* a warm recheck on the same generation takes no check stage *)
  let r4, hits, misses = template_delta (fun () -> recheck_exn sess) in
  Alcotest.(check bool) "warm recheck translates nothing" false r4.S.check_stats.S.translated;
  Alcotest.(check (pair int int)) "warm recheck takes no template" (0, 0) (hits, misses)

(* A re-encode drops the old generation with its check finder, so a
   session that keeps re-encoding keeps the memory of one generation. *)
let test_reencodes_keep_memory_flat () =
  let cfs, fm = state ~cf1:[ "A" ] ~cf2:[ "A" ] ~fm:[ ("A", true); ("B", false) ] in
  let sess = open_exn ~headroom:0 ~cfs ~fm [ "fm" ] in
  ignore (recheck_exn sess);
  (* delete the object the last step added and add one under a new
     id: zero headroom, so each step re-encodes *)
  let step i =
    let delete = if i > 1 then [ Edit.Delete_object { id = i - 1 } ] else [] in
    (match S.apply_edits sess [ (Ident.make "cf1", delete @ add_feature ~id:i "B") ] with
    | Ok () -> ()
    | Error e -> Alcotest.fail e);
    ignore (check_agrees ~ctx:(Printf.sprintf "re-encode %d" i) sess)
  in
  step 1;
  let first = Obj.reachable_words (Obj.repr sess) in
  for i = 2 to 40 do
    step i
  done;
  Alcotest.(check int) "40 re-encodes" 40 (S.rebuilds sess);
  let last = Obj.reachable_words (Obj.repr sess) in
  Alcotest.(check bool)
    (Printf.sprintf "live words after 40 re-encodes (%d) within 1.5x of after one (%d)" last first)
    true
    (float_of_int last <= 1.5 *. float_of_int first)

(* A check stage is a clone of its template's solver and nothing more
   of the template: no translation tables, no template solver. After
   its first recheck a session holds little beyond a solver clone of
   its shape (its models, encoding and primary table are the rest). *)
let test_check_stage_keeps_no_template () =
  let cfs, fm =
    state ~cf1:[ "A"; "B" ] ~cf2:[ "A" ] ~fm:[ ("A", true); ("B", false); ("C", false) ]
  in
  let sess = open_exn ~headroom:2 ~cfs ~fm [ "cf1"; "cf2" ] in
  ignore (recheck_exn sess);
  let held = Obj.reachable_words (Obj.repr sess) in
  let models = F.bind ~cfs ~fm in
  let info =
    match Qvtr.Typecheck.check trans ~metamodels with
    | Ok info -> info
    | Error _ -> Alcotest.fail "typecheck"
  in
  let enc =
    match
      Qvtr.Encode.create ~transformation:trans ~metamodels ~models ~slack_objects:2 ()
    with
    | Ok enc -> enc
    | Error e -> Alcotest.fail e
  in
  let fd =
    Relog.Finder.create
      (Qvtr.Encode.bounds enc ~targets:(Ident.Set.of_list (List.map fst models)))
  in
  List.iter
    (fun (_, _, f) -> ignore (Relog.Finder.guard fd f))
    (Qvtr.Semantics.top_formulas (Qvtr.Semantics.create enc info));
  let clone = Obj.reachable_words (Obj.repr (Sat.Solver.clone (Relog.Finder.solver fd))) in
  Alcotest.(check bool)
    (Printf.sprintf "session live words (%d) within 1.5x of a solver clone of its shape (%d)"
       held clone)
    true
    (float_of_int held <= 1.5 *. float_of_int clone)

(* ------------------------------------------------------------------ *)
(* Translation templates                                               *)

(* A configuration whose features carry the given object ids. *)
let configuration_with_ids ~name features =
  List.fold_left
    (fun m (id, n) ->
      let m = Model.add_object_with_id m ~id ~cls:feature in
      Model.set_attr1 m id name_attr (Mdl.Value.Str n))
    (Model.empty ~name F.cf_metamodel)
    features

(* A spec whose formula names the atom of the literal "X". *)
let literal_spec =
  Qvtr.Parser.parse_exn
    {|transformation Literal(cf1 : CF, fm : FM) {
  top relation CoreX {
    domain cf1 s : Feature { name = "X" };
    domain fm f : Feature { name = "X", mandatory = true };
    dependencies { cf1 -> fm; }
  }
}|}

let open_literal ~cf1 ~fm =
  match
    S.open_session ~transformation:literal_spec ~metamodels
      ~models:
        [
          (Ident.make "cf1", F.configuration ~name:"cf1" cf1);
          (Ident.make "fm", F.feature_model ~name:"fm" fm);
        ]
      ~targets:(Echo.Target.of_list [ "cf1" ])
      ()
  with
  | Ok s -> s
  | Error e -> Alcotest.fail e

(* [second] opened after [first] has its check stage must translate
   afresh: one miss, no hit, and verdicts that agree with Check.run. *)
let must_miss ?mode ctx ~first ~second =
  ignore (recheck_exn (first ()));
  let rep, hits, misses =
    template_delta (fun () -> check_agrees ?mode ~ctx (second ()))
  in
  Alcotest.(check (pair int int)) (ctx ^ ": no hit, one miss") (0, 1) (hits, misses);
  rep

let test_templates () =
  (* (a) Hit: the same shape under other object ids clones the first
     session's template, and still answers with its own atoms. *)
  let fm = F.feature_model ~name:"fm" [ ("A", false); ("B", true) ] in
  let cf2 = F.configuration ~name:"cf2" [ "B" ] in
  let open_ids cf1 =
    match
      S.open_session ~transformation:trans ~metamodels
        ~models:(F.bind ~cfs:[ cf1; cf2 ] ~fm)
        ~targets:(Echo.Target.of_list [ "cf1"; "cf2" ])
        ()
    with
    | Ok s -> s
    | Error e -> Alcotest.fail e
  in
  ignore (recheck_exn (open_ids (F.configuration ~name:"cf1" [ "A"; "C" ])));
  let sess = open_ids (configuration_with_ids ~name:"cf1" [ (4, "A"); (7, "C") ]) in
  let rep, hits, misses = template_delta (fun () -> check_agrees ~ctx:"hit" sess) in
  Alcotest.(check (pair int int)) "hit: one hit, no miss" (1, 0) (hits, misses);
  Alcotest.(check bool) "hit: a clone still counts as translation" true
    rep.S.check_stats.S.translated;
  Alcotest.(check bool) "hit: state is inconsistent" false rep.S.consistent;
  let cf1_atoms =
    List.concat_map
      (fun (v : S.verdict) ->
        List.concat_map
          (fun (f : S.fact) ->
            List.filter_map
              (fun a ->
                let a = Ident.name a in
                let object_atom =
                  String.length a > 4
                  && String.sub a 0 4 = "cf1#"
                  && a.[4] >= '0' && a.[4] <= '9'
                in
                if object_atom then Some a else None)
              (Array.to_list f.S.f_atoms))
          v.S.v_blame)
      (recheck_exn ~blame:true sess).S.verdicts
  in
  Alcotest.(check bool) "hit: blame names cf1's objects" true (cf1_atoms <> []);
  List.iter
    (fun a ->
      Alcotest.(check bool)
        (Printf.sprintf "hit: blame atom %s is the session's own" a)
        true
        (a = "cf1#4" || a = "cf1#7"))
    cf1_atoms;
  ignore (repair_agrees ~ctx:"hit" sess);
  (* a re-encode takes the check stage of its new shape from that
     shape's template, as opening does *)
  (match
     S.apply_edits sess
       [
         ( Ident.make "cf1",
           [
             Edit.Set_attr
               {
                 id = 4;
                 attr = name_attr;
                 before = [ Mdl.Value.Str "A" ];
                 after = [ Mdl.Value.Str "Q" ];
               };
           ] );
       ]
   with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let _, hits, misses = template_delta (fun () -> check_agrees ~ctx:"hit, new value" sess) in
  Alcotest.(check int) "hit: the new value re-encoded" 1 (S.rebuilds sess);
  Alcotest.(check int) "hit: the re-encode took one template" 1 (hits + misses);
  (* (b) Must miss: equal bounds under other formulas, another
     headroom, another object count, a named atom at another index. *)
  let cfs, fm = state ~cf1:[ "T1"; "T2" ] ~cf2:[ "T1" ] ~fm:[ ("T1", true); ("T2", false) ] in
  ignore
    (must_miss ~mode:Qvtr.Semantics.Standard "Standard after Extended"
       ~first:(fun () -> open_exn ~cfs ~fm [ "cf1"; "cf2" ])
       ~second:(fun () -> open_exn ~mode:Qvtr.Semantics.Standard ~cfs ~fm [ "cf1"; "cf2" ]));
  ignore
    (must_miss "headroom 9 after 6"
       ~first:(fun () -> open_exn ~cfs ~fm [ "cf1"; "cf2" ])
       ~second:(fun () -> open_exn ~headroom:9 ~cfs ~fm [ "cf1"; "cf2" ]));
  let fm3 = [ ("T1", true); ("T2", false); ("T3", false) ] in
  ignore
    (must_miss "object counts swapped"
       ~first:(fun () ->
         let cfs, fm = state ~cf1:[ "T1"; "T2"; "T3" ] ~cf2:[ "T1"; "T2" ] ~fm:fm3 in
         open_exn ~cfs ~fm [ "cf1"; "cf2" ])
       ~second:(fun () ->
         let cfs, fm = state ~cf1:[ "T1"; "T2" ] ~cf2:[ "T1"; "T2"; "T3" ] ~fm:fm3 in
         open_exn ~cfs ~fm [ "cf1"; "cf2" ]));
  (* "X" is the third string atom of the first universe and the first
     of the second; both hold three strings, so the bounds are equal. *)
  ignore (recheck_exn (open_literal ~cf1:[ "A"; "B" ] ~fm:[ ("A", false); ("B", true) ]));
  let lit = open_literal ~cf1:[ "X"; "Y" ] ~fm:[ ("X", false); ("Z", true) ] in
  let rep, hits, misses =
    template_delta (fun () -> check_agrees ~spec:literal_spec ~ctx:"literal" lit)
  in
  Alcotest.(check (pair int int)) "literal at another index: no hit, one miss" (0, 1)
    (hits, misses);
  Alcotest.(check bool) "literal: X is selected but optional" false rep.S.consistent;
  (* (c) Bound: 33 shapes keep 32 templates, and the least recently
     used one is gone. *)
  let cfs, fm = state ~cf1:[ "Lru" ] ~cf2:[ "Lru" ] ~fm:[ ("Lru", true) ] in
  let lru_shape headroom () = recheck_exn (open_exn ~headroom ~cfs ~fm [ "cf1"; "cf2" ]) in
  for h = 0 to 32 do
    ignore (lru_shape h ())
  done;
  Alcotest.(check (float 0.)) "33 shapes keep 32 templates" 32.
    (Obs.Metrics.gauge_value (Obs.Metrics.gauge "incr.templates"));
  let _, hits, misses = template_delta (lru_shape 32) in
  Alcotest.(check (pair int int)) "the most recent shape hits" (1, 0) (hits, misses);
  let _, hits, misses = template_delta (lru_shape 0) in
  Alcotest.(check (pair int int)) "the least recent shape misses again" (0, 1) (hits, misses);
  (* (d) Race: sessions of one new shape opened and rechecked at once
     on two workers, racing the first insertion and each other's
     solves. *)
  let models =
    [
      F.feature_model ~name:"fm" [ ("R1", true); ("R2", false); ("R3", true) ];
      F.configuration ~name:"cf1" [ "R1"; "R2" ];
      F.configuration ~name:"cf2" [ "R1"; "R3" ];
    ]
  in
  let expected =
    Qvtr.Check.run_exn trans ~metamodels
      ~models:(List.map (fun m -> (Model.name m, m)) models)
  in
  let spec =
    {
      Server.Protocol.o_transformation = F.source ~k:2;
      o_metamodels =
        Mdl.Serialize.metamodel_to_string F.fm_metamodel
        ^ "\n"
        ^ Mdl.Serialize.metamodel_to_string F.cf_metamodel;
      o_models = String.concat "\n" (List.map Mdl.Serialize.model_to_string models);
      o_targets = [ "cf1"; "cf2" ];
      o_standard = false;
      o_slack = 2;
      o_headroom = 6;
    }
  in
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "mdqvtr-test-templates-%d" (Unix.getpid ()))
  in
  let eng = Server.Engine.create ~jobs:2 ~max_live:8 ~snapshot_dir:dir () in
  let mu = Mutex.create () in
  let replies = ref [] in
  let sessions = List.init 8 (Printf.sprintf "race%d") in
  let _, _, misses =
    template_delta (fun () ->
        List.iteri
          (fun i s ->
            List.iteri
              (fun j req ->
                Server.Engine.submit eng
                  { Server.Protocol.q_id = (10 * i) + j; q_session = s; q_req = req }
                  (fun resp ->
                    Mutex.lock mu;
                    replies := (s, resp) :: !replies;
                    Mutex.unlock mu))
              [
                Server.Protocol.Open spec;
                Server.Protocol.Recheck { blame = true };
                Server.Protocol.Recheck { blame = true };
              ])
          sessions;
        Server.Engine.drain eng)
  in
  Server.Engine.shutdown eng;
  Alcotest.(check bool) "race: at least one miss" true (misses >= 1);
  Alcotest.(check int) "race: every frame answered" 24 (List.length !replies);
  List.iter
    (fun (s, (resp : Server.Protocol.resp)) ->
      match resp.Server.Protocol.s_result with
      | Error e -> Alcotest.failf "race: %s: %s" s e
      | Ok (Server.Protocol.Opened _) -> ()
      | Ok (Server.Protocol.Checked { consistent; verdicts; _ }) ->
        Alcotest.(check bool) (s ^ ": consistency") expected.Qvtr.Check.consistent consistent;
        Alcotest.(check (list bool))
          (s ^ ": verdicts")
          (List.map (fun (v : Qvtr.Check.verdict) -> v.Qvtr.Check.v_holds)
             expected.Qvtr.Check.verdicts)
          (List.map (fun (v : Server.Protocol.verdict) -> v.Server.Protocol.w_holds) verdicts)
      | Ok _ -> Alcotest.failf "race: %s: unexpected payload" s)
    !replies

(* ------------------------------------------------------------------ *)
(* Warm vs from-scratch cost (the E9 property)                         *)

let block label model =
  "== " ^ label ^ "\n" ^ Mdl.Serialize.model_to_string model ^ "\n"

let fm_block features =
  block
    (String.concat " / "
       (List.map (fun (n, m) -> n ^ if m then "!" else "") features))
    (F.feature_model ~name:"fm" features)

(* The open spec of a replay from [base]: the paper's k = 2
   transformation in concrete syntax, repairing both configurations,
   at the session defaults (slack 2, headroom 6). *)
let replay_spec base =
  {
    Server.Protocol.o_transformation = F.source ~k:2;
    o_metamodels =
      String.concat "\n"
        (List.map Mdl.Serialize.metamodel_to_string
           [ F.cf_metamodel; F.fm_metamodel ]);
    o_models =
      String.concat "\n"
        (List.map (fun (_, m) -> Mdl.Serialize.model_to_string m) base);
    o_targets = [ "cf1"; "cf2" ];
    o_standard = false;
    o_slack = 2;
    o_headroom = 6;
  }

(* Replay [script] from [base] against a from-scratch baseline:
   identical verdicts, and the warm path costs strictly fewer
   conflicts+propagations and no more translation wall at every step,
   and strictly less translation wall over the replay. A single-edit
   step must stay fully warm. *)
let check_replay ~base script =
  let records =
    match Rp.run (replay_spec base) script with
    | Ok rs -> rs
    | Error e -> Alcotest.fail e
  in
  List.iter
    (fun (r : Rp.step) ->
      Alcotest.(check bool) (r.Rp.label ^ ": verdicts match") true r.Rp.verdicts_match;
      Alcotest.(check bool)
        (r.Rp.label ^ ": scratch pays translation")
        true r.Rp.scratch.S.translated;
      Alcotest.(check bool)
        (r.Rp.label ^ ": warm path translates no longer than scratch")
        true
        (r.Rp.warm.S.translate_s <= r.Rp.scratch.S.translate_s);
      if r.Rp.edits = 1 then begin
        Alcotest.(check bool)
          (r.Rp.label ^ ": warm path stays warm")
          false
          (r.Rp.rebuilt || r.Rp.warm.S.translated);
        Alcotest.(check bool)
          (r.Rp.label ^ ": warm path spends no translation wall")
          true
          (r.Rp.warm.S.translate_s = 0. && r.Rp.scratch.S.translate_s > 0.)
      end;
      let warm = r.Rp.warm.S.conflicts + r.Rp.warm.S.propagations in
      let cold = r.Rp.scratch.S.conflicts + r.Rp.scratch.S.propagations in
      if warm >= cold then
        Alcotest.failf "%s: warm %d >= scratch %d conflicts+propagations"
          r.Rp.label warm cold)
    records;
  let translate_s side =
    List.fold_left (fun acc r -> acc +. (side r).S.translate_s) 0. records
  in
  let warm_tr = translate_s (fun r -> r.Rp.warm)
  and cold_tr = translate_s (fun r -> r.Rp.scratch) in
  if warm_tr >= cold_tr then
    Alcotest.failf "warm translation %.6fs >= scratch %.6fs over the replay"
      warm_tr cold_tr;
  records

let test_warm_beats_scratch () =
  (* single-attribute flips on the feature model, parsed from a replay
     script *)
  let cfs, fm = state ~cf1:[ "A" ] ~cf2:[ "A" ] ~fm:[ ("A", true); ("B", false) ] in
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
  let records = check_replay ~base:(F.bind ~cfs ~fm) script in
  Alcotest.(check int) "five steps" 5 (List.length records);
  List.iter
    (fun (r : Rp.step) ->
      Alcotest.(check bool) (r.Rp.label ^ ": one edit") true (r.Rp.edits = 1))
    records;
  (* E9's ten-feature replay: flips there and back, then a bulk
     rewrite of every flag, where almost no assumption prefix
     survives *)
  let script =
    String.concat ""
      (List.concat_map
         (fun f ->
           [
             block ("flip " ^ f ^ " mandatory") (ten_feature_fm [ f ]);
             block ("flip " ^ f ^ " back") (ten_feature_fm []);
           ])
         [ "F4"; "F10"; "F5" ]
      @ [ block "bulk flip all" (ten_feature_fm ten_pool) ])
  in
  let base = F.bind ~cfs:ten_feature_cfs ~fm:(ten_feature_fm []) in
  match List.rev (check_replay ~base script) with
  | bulk :: _ ->
    Alcotest.(check int) "bulk flip rewrites every flag" 10 bulk.Rp.edits
  | [] -> Alcotest.fail "empty replay"

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
  let cfs, fm = state ~cf1:[ "A" ] ~cf2:[ "A" ] ~fm:[ ("A", true) ] in
  let run = Rp.run (replay_spec (F.bind ~cfs ~fm)) in
  (* every rejection must name the script line it comes from *)
  check_error_mentions "text before the first marker" ~sub:"line 1"
    (run "model x {}\n== late marker\n");
  check_error_mentions "stray text after blank lines" ~sub:"line 3"
    (run "\n\nstray text\n== step\n");
  (* a model-syntax error inside a block reports the step, its marker
     line, and the absolute line of the offending token — bodies are
     newline-padded to their file position *)
  let bad = run "== s1 bad block\nnot a model\n" in
  check_error_mentions "malformed block names its step" ~sub:{|step "s1 bad block"|} bad;
  check_error_mentions "malformed block names its marker" ~sub:"marker at line 1" bad;
  check_error_mentions "model error keeps absolute lines" ~sub:"line 2" bad;
  let prefix = "== ok\n" ^ Mdl.Serialize.model_to_string fm ^ "\n" in
  let marker_line =
    1 + String.fold_left (fun n c -> if c = '\n' then n + 1 else n) 0 prefix
  in
  check_error_mentions "later block, later marker line"
    ~sub:(Printf.sprintf "marker at line %d" marker_line)
    (run (prefix ^ "== broken\nmodel cf1 : CF {\n"));
  (* unknown declaration keywords are model-syntax errors too *)
  check_error_mentions "unknown keyword" ~sub:"marker at line 1"
    (run "== kw\nwidget w : W {}\n");
  (* blocks: labels, marker lines, and bodies in file coordinates *)
  (match Rp.blocks "== a\nbody\n\n== b\nmore\n" with
  | Ok [ ("a", 1, ba); ("b", 4, bb) ] ->
    Alcotest.(check string) "body a" "body" (String.trim ba);
    Alcotest.(check string) "body b" "more" (String.trim bb)
  | Ok bs -> Alcotest.failf "unexpected blocks (%d)" (List.length bs)
  | Error e -> Alcotest.fail e);
  (* a block may restate only the session's own parameters: one naming
     a parameter the transformation lacks fails the up-front parse,
     before the engine starts, naming the parameter, its step and its
     marker line *)
  let noop = block "noop" fm in
  let stray = run (noop ^ block "stray" (F.configuration ~name:"cf3" [ "A" ])) in
  check_error_mentions "unknown parameter" ~sub:"unknown parameter cf3" stray;
  check_error_mentions "unknown parameter names its step"
    ~sub:{|replay script: step "stray"|} stray;
  check_error_mentions "unknown parameter names its marker"
    ~sub:
      (Printf.sprintf "marker at line %d"
         (1 + String.fold_left (fun n c -> if c = '\n' then n + 1 else n) 0 noop))
    stray;
  (* a block restating the current state yields a step with no edits *)
  match run (block "noop" fm) with
  | Ok [ { Rp.label = "noop"; edits = 0; _ } ] -> ()
  | Ok _ -> Alcotest.fail "expected one empty step"
  | Error e -> Alcotest.fail e

(* The repair ladder's SAT work is booked as SAT work: every ladder
   solve runs under a [solve] span tagged [iterative] with its
   distance, inside the [session.rerepair] span, and every totalizer
   build (the ladder's, and one per core of the core-guided lower
   bound with more than one literal) under [cnf.cardinality], inside
   it too. *)
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
  let by_id = Hashtbl.create 64 in
  List.iter
    (fun (e : Obs.Trace.event) -> if e.ph = `Begin then Hashtbl.replace by_id e.id e)
    evs;
  let rec inside name (e : Obs.Trace.event) =
    match Hashtbl.find_opt by_id e.parent with
    | Some p -> p.name = name || inside name p
    | None -> false
  in
  let ladder =
    List.filter
      (fun (e : Obs.Trace.event) ->
        List.assoc_opt "backend" e.args = Some (Obs.Json.String "iterative"))
      (begins "solve")
  in
  Alcotest.(check bool) "ladder solves traced" true (ladder <> []);
  List.iter
    (fun (e : Obs.Trace.event) ->
      Alcotest.(check bool) "inside session.rerepair" true (inside "session.rerepair" e);
      Alcotest.(check bool) "distance tagged" true (List.mem_assoc "distance" e.args);
      Alcotest.(check bool) "assumptions tagged" true
        (List.mem_assoc "assumptions" e.args))
    ladder;
  let totalizers = begins "cnf.cardinality" in
  Alcotest.(check bool) "totalizers traced" true (totalizers <> []);
  List.iter
    (fun e ->
      Alcotest.(check bool) "totalizer inside session.rerepair" true
        (inside "session.rerepair" e))
    totalizers

(* ------------------------------------------------------------------ *)
(* One symmetry scheme                                                 *)

(* E12's symmetric shape: cf1 repaired against n mandatory features,
   every repair creating its objects from interchangeable slack. *)
let sym_trans = F.transformation ~k:1

let open_sym ?(sbp = true) ?(headroom = 6) ~features ~slack cf1 =
  let fm =
    F.feature_model ~name:"fm"
      (List.init features (fun i -> (Printf.sprintf "F%d" i, true)))
  in
  match
    S.open_session ~slack_budget:slack ~headroom ~sbp ~transformation:sym_trans
      ~metamodels
      ~models:(F.bind ~cfs:[ F.configuration ~name:"cf1" cf1 ] ~fm)
      ~targets:(Echo.Target.single "cf1") ()
  with
  | Ok s -> s
  | Error e -> Alcotest.fail e

(* Edit cf1 of a symmetric session to the given selection. *)
let edit_cf1 sess cf1 =
  match
    Mdl.Diff.script (model_of sess (Ident.make "cf1")) (F.configuration ~name:"cf1" cf1)
  with
  | [] -> ()
  | edits -> (
    match S.apply_edits sess [ (Ident.make "cf1", edits) ] with
    | Ok () -> ()
    | Error e -> Alcotest.fail e)

(* The session's menu and a one-shot [enforce_all] menu over the same
   models and search space, each as sorted (targets, edit distance)
   pairs, with the solver calls each took. *)
let both_menus ?(spec = sym_trans) ?(metamodels = metamodels) ?(sbp = true)
    ?(limit = 32) sess =
  let tgts = S.targets sess in
  let rep = rerepair_exn ~limit sess in
  let session =
    match rep.S.outcome with
    | S.Repaired reps ->
      List.map (fun r -> (repair_key tgts r.S.r_models, r.S.r_edit_distance)) reps
    | S.Already_consistent | S.Cannot_restore -> []
  in
  let oneshot =
    match
      Eng.enforce_all ~sbp ~limit ~slack_objects:(S.slack_budget sess)
        ~extra_values:(S.value_universe sess) spec ~metamodels
        ~models:(S.models sess) ~targets:tgts
    with
    | Ok outs ->
      List.filter_map
        (function Eng.Enforced r -> Some r | _ -> None)
        outs
    | Error e -> Alcotest.fail e
  in
  ( List.sort compare session,
    rep.S.repair_stats.S.solver_calls,
    List.sort compare
      (List.map (fun r -> (repair_key tgts r.Eng.repaired, r.Eng.edit_distance)) oneshot),
    match oneshot with r :: _ -> r.Eng.stats.Echo.Telemetry.solver_calls | [] -> 0 )

let menu = Alcotest.(list (pair string int))

let test_sym_menus_equal () =
  (* E12's sym3 and sym4: a session collapses the n! slack-assignment
     variants to the one canonical repair, as the one-shot run does *)
  List.iter
    (fun (name, features, slack) ->
      let sess = open_sym ~features ~slack [] in
      let session, s_solves, oneshot, o_solves = both_menus sess in
      Printf.printf "%s: session %d repair(s) in %d solves, one-shot %d in %d\n" name
        (List.length session) s_solves (List.length oneshot) o_solves;
      Alcotest.check menu (name ^ ": session menu = one-shot menu") oneshot session;
      Alcotest.(check int) (name ^ ": one canonical repair") 1 (List.length session))
    [ ("sym3", 3, 4); ("sym4", 4, 5) ]

let test_sym_walk_menus_equal () =
  (* six edits over the sym4 shape: creations consume slack, deletions
     kill consumed atoms, and a stale id comes back *)
  let sess = open_sym ~features:4 ~slack:4 [] in
  List.iter
    (fun cf1 ->
      edit_cf1 sess cf1;
      let ctx = "cf1 = [" ^ String.concat " " cf1 ^ "]" in
      let session, s_solves, oneshot, o_solves = both_menus sess in
      Printf.printf "%s: session %d repair(s) in %d solves, one-shot %d in %d\n" ctx
        (List.length session) s_solves (List.length oneshot) o_solves;
      Alcotest.check menu (ctx ^ ": session menu = one-shot menu") oneshot session)
    [ []; [ "F0" ]; [ "F0"; "F1" ]; [ "F1" ]; []; [ "F3" ] ]

let test_sym_window_sound () =
  (* consumption, deletion of a consumed object and a re-encode
     (headroom 2, so the third fresh id re-encodes): the check stage's
     slack accounting moves at every step, and the session's menu
     stays the one-shot menu throughout *)
  let sess = open_sym ~features:4 ~slack:4 ~headroom:2 [] in
  List.iter
    (fun cf1 ->
      edit_cf1 sess cf1;
      let ctx = "cf1 = [" ^ String.concat " " cf1 ^ "]" in
      let session, _, oneshot, _ = both_menus sess in
      Alcotest.check menu (ctx ^ ": session menu = one-shot menu") oneshot session)
    [ []; [ "F0" ]; [ "F0"; "F1" ]; [ "F1" ]; [ "F1"; "F2"; "F3" ]; [ "F2"; "F3" ]; [ "F3" ] ];
  Alcotest.(check bool) "the walk re-encoded" true (S.rebuilds sess > 0)

let test_sbp_off_limit_counts_distinct () =
  (* sym4 over five slack atoms with SBPs off: 120 assignments decode
     to 24 distinct repairs, and a limit of 32 must return all 24 on
     both paths *)
  let sess = open_sym ~sbp:false ~features:4 ~slack:5 [] in
  let session, _, oneshot, _ = both_menus ~sbp:false sess in
  Alcotest.(check int) "session: 24 distinct repairs" 24 (List.length session);
  Alcotest.(check int) "one-shot: 24 distinct repairs" 24 (List.length oneshot);
  Alcotest.check menu "same menu" oneshot session

let test_oneshot_only_orbit () =
  (* The orbit only the one-shot pass used to break: two identical
     untagged items of a keyless metamodel. Tagging either one is a
     minimal repair, and the one-shot pass swaps the two items; a
     session repairs through the same pass, so it lists one too. *)
  let module MM = Mdl.Metamodel in
  let mm =
    MM.make_exn ~name:"Bag"
      [ MM.cls "Item" ~attrs:[ MM.attr ~mult:MM.mult_many "tags" MM.P_string ] ]
  in
  let mms = [ (Ident.make "Bag", mm) ] in
  let spec =
    Qvtr.Parser.parse_exn
      {|
transformation T(a : Bag, b : Bag) {
  top relation Tagged {
    t : String;
    domain a x : Item { tags = t };
    domain b y : Item { tags = t };
    dependencies { b -> a; }
  }
}
|}
  in
  let bag name tagss =
    List.fold_left
      (fun m tags ->
        let m, id = Model.add_object m ~cls:(Ident.make "Item") in
        Model.set_attr m id (Ident.make "tags") (List.map (fun t -> Mdl.Value.Str t) tags))
      (Model.empty ~name mm) tagss
  in
  let sess =
    match
      S.open_session ~transformation:spec ~metamodels:mms
        ~models:[ (Ident.make "a", bag "a" [ []; [] ]); (Ident.make "b", bag "b" [ [ "x" ] ]) ]
        ~targets:(Echo.Target.single "a") ()
    with
    | Ok s -> s
    | Error e -> Alcotest.fail e
  in
  let session, _, oneshot, _ = both_menus ~spec ~metamodels:mms sess in
  Alcotest.(check (list int)) "both at edit distance 1" [ 1 ]
    (List.sort_uniq compare (List.map snd (session @ oneshot)));
  Alcotest.(check (pair int int)) "menu sizes: one-shot 1, session 1" (1, 1)
    (List.length oneshot, List.length session);
  Alcotest.check menu "same menu" oneshot session

(* A ladder that ends in Cannot_restore still books its work: the
   consistency check and every rung's solve, and its translation. *)
let test_cannot_restore_stats () =
  (* cf2 misses the mandatory A, and only cf1 may change *)
  let cfs, fm = state ~cf1:[ "A" ] ~cf2:[] ~fm:[ ("A", true); ("B", false) ] in
  let sess = open_exn ~cfs ~fm [ "cf1" ] in
  (* build the check stage first, so that only the ladder translates *)
  ignore (recheck_exn sess);
  let rep = rerepair_exn sess in
  (match rep.S.outcome with
  | S.Cannot_restore -> ()
  | _ -> Alcotest.fail "expected Cannot_restore");
  let st = rep.S.repair_stats in
  Alcotest.(check bool)
    (Printf.sprintf "the ladder's solves are counted (%d)" st.S.solver_calls)
    true (st.S.solver_calls >= 2);
  Alcotest.(check bool) "the ladder translated" true st.S.translated

let suite =
  [
    Alcotest.test_case "walk: recheck equals Check.run" `Quick
      test_walk_check_equivalence;
    Alcotest.test_case "blame names model facts" `Quick test_blame_names_facts;
    Alcotest.test_case "blame names the client's objects" `Quick
      test_blame_names_client_objects;
    Alcotest.test_case "blame carries fact polarity" `Quick test_blame_polarity;
    Alcotest.test_case "repair walk: rerepair equals enforce_all" `Slow
      test_repair_walk;
    Alcotest.test_case "scenario sweep: menus equal (E10)" `Slow
      test_scenarios_repair_equivalence;
    Alcotest.test_case "translation cache revives generations" `Quick
      test_translation_cache_hit;
    Alcotest.test_case "re-encodes keep memory flat" `Quick
      test_reencodes_keep_memory_flat;
    Alcotest.test_case "translation templates share only equal translations" `Quick
      test_templates;
    Alcotest.test_case "warm recheck beats from-scratch (E9)" `Quick
      test_warm_beats_scratch;
    Alcotest.test_case "replay script parsing" `Quick test_replay_parse_errors;
    Alcotest.test_case "repair ladder runs under solve spans" `Quick
      test_rerepair_spans;
    Alcotest.test_case "one scheme: sym3/sym4 menus equal one-shot" `Quick
      test_sym_menus_equal;
    Alcotest.test_case "one scheme: edit walk menus equal one-shot" `Quick
      test_sym_walk_menus_equal;
    Alcotest.test_case "one scheme: window pairs are pin automorphisms" `Quick
      test_sym_window_sound;
    Alcotest.test_case "menu limit counts distinct repairs" `Quick
      test_sbp_off_limit_counts_distinct;
    Alcotest.test_case "one scheme: orbit only one-shot breaks" `Quick
      test_oneshot_only_orbit;
    Alcotest.test_case "rerepair stats count a Cannot_restore ladder" `Quick
      test_cannot_restore_stats;
    Alcotest.test_case "check stage keeps no template" `Quick
      test_check_stage_keeps_no_template;
  ]
