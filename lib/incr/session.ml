module Ident = Mdl.Ident
module Model = Mdl.Model
module Value = Mdl.Value
module Edit = Mdl.Edit

type fact = {
  f_rel : Ident.t;
  f_atoms : Ident.t array;
  f_present : bool;
}

type step_stats = {
  wall : float;
  solver_calls : int;
  conflicts : int;
  propagations : int;
  decisions : int;
  translated : bool;
  translate_s : float;
}

type verdict = {
  v_relation : Ident.t;
  v_direction : Qvtr.Ast.dependency;
  v_holds : bool;
  v_blame : fact list;
}

type check_report = {
  consistent : bool;
  verdicts : verdict list;
  check_stats : step_stats;
}

type repair = {
  r_models : (Ident.t * Model.t) list;
  r_relational_distance : int;
  r_edit_distance : int;
}

type repair_outcome =
  | Already_consistent
  | Cannot_restore
  | Repaired of repair list

type repair_report = {
  outcome : repair_outcome;
  repair_stats : step_stats;
}

(* ------------------------------------------------------------------ *)
(* Internal state                                                      *)

(* A primary variable of the translation: the tuple it decides and the
   parameter owning its relation. *)
type prim = {
  p_param : Ident.t;
  p_rel : Ident.t;
  p_tuple : Relog.Rel.Tuple.t;
  p_var : Sat.Lit.var;
}

(* A check stage: the session's own solver, the direction guards, and
   its template's primary table (sorted by [prim_order]) and var ->
   fact table, shared read-only. *)
type check_state = {
  solver : Sat.Solver.t;
  dirs : (Ident.t * Qvtr.Ast.dependency * Sat.Lit.t) list;
  cprims : prim list;
  cvar_fact : (Sat.Lit.var, Ident.t * Relog.Rel.Tuple.t) Hashtbl.t;
}

(* One encoding generation: the encoding of the models current at the
   last re-encode (with the value universe and the [headroom] slack
   pool), and its check stage once a solve needs it. A re-encode
   replaces the generation whole, check stage included. *)
type generation = {
  g_enc : Qvtr.Encode.t;
  g_top : (Qvtr.Ast.relation * Qvtr.Ast.dependency * Relog.Ast.formula) list Lazy.t;
  g_bounds : Relog.Bounds.t;
  mutable g_check : check_state option;
}

(* Per-parameter slack accounting of the current generation. *)
type pstate = {
  mutable nconsumed : int;
  atom_of_created : (Model.obj_id, Ident.t) Hashtbl.t;
}

type t = {
  trans : Qvtr.Ast.transformation;
  metamodels : (Ident.t * Mdl.Metamodel.t) list;
  mode : Qvtr.Semantics.mode option;
  tgts : Echo.Target.t;
  budget : int;
  headroom : int;
  sbp : bool;  (* the one-shot symmetry pass on every repair *)
  mutable gen : generation;
  mutable cur : (Ident.t * Model.t) list;
  mutable values : Value.Set.t;
  mutable pstates : pstate Ident.Map.t;
  mutable fact_cache : (Relog.Rel.Tuple.t, unit) Hashtbl.t Ident.Map.t Ident.Map.t;
      (* param -> relation -> present tuples; absent entry = dirty *)
  mutable rebuild_pending : bool;
  mutable nrebuilds : int;
  mutable translations : int;
  mutable template_s : float;
      (* wall spent taking check stages from templates, building each
         template first on a miss: the session's whole translation
         time, since a solver clone never translates *)
}

let models t = t.cur
let targets t = t.tgts
let slack_budget t = t.budget
let value_universe t = Value.Set.elements t.values
let rebuilds t = t.nrebuilds

let model_of t p =
  match List.find_opt (fun (q, _) -> Ident.equal q p) t.cur with
  | Some (_, m) -> m
  | None -> invalid_arg (Printf.sprintf "Session: unknown parameter %s" (Ident.name p))

let set_model t p m =
  t.cur <- List.map (fun (q, old) -> if Ident.equal q p then (q, m) else (q, old)) t.cur

let pstate_of t p =
  match Ident.Map.find_opt p t.pstates with
  | Some ps -> ps
  | None -> invalid_arg (Printf.sprintf "Session: unknown parameter %s" (Ident.name p))

let fresh_pstates params =
  List.fold_left
    (fun acc p ->
      Ident.Map.add p
        { nconsumed = 0; atom_of_created = Hashtbl.create 8 }
        acc)
    Ident.Map.empty params

(* ------------------------------------------------------------------ *)
(* Stats                                                               *)

let zero_stats =
  {
    Sat.Solver.decisions = 0;
    propagations = 0;
    conflicts = 0;
    restarts = 0;
    learnt = 0;
    reduces = 0;
    solves = 0;
    solve_time = 0.0;
  }

let solver_totals g =
  match g.g_check with
  | Some c -> Sat.Solver.stats c.solver
  | None -> zero_stats

let snapshot t =
  (Obs.Clock.now (), t.gen, solver_totals t.gen, t.translations, t.template_s)

(* A call that re-encodes ends on another check solver than it began
   on, one that has solved only for this call: its effort counts from
   zero. *)
let finish t (t0, g0, s0, tr0, ts0) =
  let s0 = if t.gen == g0 then s0 else zero_stats in
  let s1 = solver_totals t.gen in
  {
    wall = Obs.Clock.now () -. t0;
    solver_calls = s1.Sat.Solver.solves - s0.Sat.Solver.solves;
    conflicts = s1.Sat.Solver.conflicts - s0.Sat.Solver.conflicts;
    propagations = s1.Sat.Solver.propagations - s0.Sat.Solver.propagations;
    decisions = s1.Sat.Solver.decisions - s0.Sat.Solver.decisions;
    translated = t.translations > tr0;
    translate_s = t.template_s -. ts0;
  }

(* ------------------------------------------------------------------ *)
(* Generations                                                         *)

let build_generation ~trans ~metamodels ~models ~values ~slack ?mode () =
  Result.map
    (fun { Qvtr.Front.encoding; top; _ } ->
      {
        g_enc = encoding;
        g_top = top;
        g_bounds =
          Qvtr.Encode.bounds encoding
            ~targets:(Ident.Set.of_list (List.map fst models));
        g_check = None;
      })
    (Qvtr.Front.create ?mode ~slack_objects:slack
       ~extra_values:(Value.Set.elements values) trans ~metamodels ~models)

let m_rebuilds = Obs.Metrics.counter "incr.rebuilds"

(* Flush a pending re-encode: encode the current models afresh, drop
   the old generation with its check stage (the next solve clones the
   template of the new shape), and reset the slack accounting (the new
   encoding owns every current object directly). *)
let ensure_generation t =
  if not t.rebuild_pending then Ok ()
  else begin
    let ( let* ) = Result.bind in
    let* g =
      Obs.Trace.with_span ~name:"session.rebuild" (fun () ->
          build_generation ~trans:t.trans ~metamodels:t.metamodels
            ~models:t.cur ~values:t.values ~slack:t.headroom ?mode:t.mode ())
    in
    Obs.Metrics.incr m_rebuilds;
    t.gen <- g;
    (* The encoding may have picked up values the accumulator missed
       (it never does today, but keep the invariant by construction). *)
    t.values <-
      List.fold_left (fun acc v -> Value.Set.add v acc) t.values
        (Qvtr.Encode.values g.g_enc);
    t.pstates <- fresh_pstates (List.map fst t.cur);
    t.fact_cache <- Ident.Map.empty;
    t.rebuild_pending <- false;
    t.nrebuilds <- t.nrebuilds + 1;
    Ok ()
  end

(* ------------------------------------------------------------------ *)
(* Opening                                                             *)

let open_session ?mode ?(slack_budget = 2) ?(headroom = 6)
    ?(extra_values = []) ?(sbp = true) ~transformation ~metamodels
    ~models ~targets () =
  let ( let* ) = Result.bind in
  if slack_budget < 0 || headroom < 0 then
    Error "Session.open_session: slack_budget and headroom must be >= 0"
  else
    let* () =
      Echo.Target.validate ~params:(Qvtr.Ast.param_names transformation) targets
    in
    let seed =
      List.fold_left
        (fun acc v -> Value.Set.add v acc)
        Value.Set.empty extra_values
    in
    let* gen =
      Obs.Trace.with_span ~name:"session.build" (fun () ->
          build_generation ~trans:transformation ~metamodels ~models
            ~values:seed ~slack:headroom ?mode ())
    in
    let t =
      {
        trans = transformation;
        metamodels;
        mode;
        tgts = targets;
        budget = slack_budget;
        headroom;
        sbp;
        gen;
        cur = models;
        values =
          List.fold_left
            (fun acc v -> Value.Set.add v acc)
            seed
            (Qvtr.Encode.values gen.g_enc);
        pstates = fresh_pstates (Qvtr.Encode.params gen.g_enc);
        fact_cache = Ident.Map.empty;
        rebuild_pending = false;
        nrebuilds = 0;
        translations = 0;
        template_s = 0.0;
      }
    in
    Ok t

(* ------------------------------------------------------------------ *)
(* Facts                                                               *)

let facts_of t p =
  match Ident.Map.find_opt p t.fact_cache with
  | Some f -> f
  | None ->
    let ps = pstate_of t p in
    let pairs =
      Qvtr.Encode.model_facts t.gen.g_enc
        ~atom_of_id:(fun id -> Hashtbl.find_opt ps.atom_of_created id)
        ~param:p (model_of t p)
    in
    let f =
      List.fold_left
        (fun acc (r, tuple) ->
          let tbl =
            match Ident.Map.find_opt r acc with
            | Some tbl -> tbl
            | None -> Hashtbl.create 64
          in
          Hashtbl.replace tbl tuple ();
          Ident.Map.add r tbl acc)
        Ident.Map.empty pairs
    in
    t.fact_cache <- Ident.Map.add p f t.fact_cache;
    f

let present t (pr : prim) =
  match Ident.Map.find_opt pr.p_rel (facts_of t pr.p_param) with
  | Some tbl -> Hashtbl.mem tbl pr.p_tuple
  | None -> false

(* Primaries in a stable order chosen for assumption-prefix trail
   reuse: class-extent tuples (flipped only by object creation or
   deletion) come before feature tuples (flipped by any attribute or
   reference edit), so the common small-edit step preserves at least
   the whole class-extent prefix on the solver trail. *)
let prim_order a b =
  let is_ft r =
    match String.index_opt (Ident.name r) '$' with
    | Some i ->
      String.length (Ident.name r) > i + 3
      && String.sub (Ident.name r) (i + 1) 3 = "ft$"
    | None -> false
  in
  let c = compare (is_ft a.p_rel) (is_ft b.p_rel) in
  if c <> 0 then c
  else
    let c = String.compare (Ident.name a.p_rel) (Ident.name b.p_rel) in
    if c <> 0 then c else compare a.p_tuple b.p_tuple

(* A list: an array of more than 256 fresh records would force a
   stop-the-world minor collection to promote its first element (see
   {!Sat.Solver}'s conventions). [prim_order] is total on distinct
   primaries, so any sort gives the same order. *)
let collect_prims trans =
  Relog.Translate.fold_primaries trans
    (fun r tuple v acc ->
      match Qvtr.Encode.param_of_rel r with
      | Some p -> { p_param = p; p_rel = r; p_tuple = tuple; p_var = v } :: acc
      | None -> acc)
    []
  |> List.sort prim_order

(* ------------------------------------------------------------------ *)
(* Translation templates                                               *)

let stage_event ~hit which =
  Obs.Trace.instant
    (if hit then "session.cache_hit" else "session.cache_miss")
    ~args:(fun () -> [ ("cache", Obs.Json.String which) ])

(* The check stage — every relation materialized, one guard per top
   formula — reads nothing but the bounds and those formulas, and the
   translation keys everything by universe index: primaries by
   (relation, index tuple), memos by hash-consed node id, and formula
   atoms are resolved to indices while lowering. Sessions of one shape
   get one index layout whatever their object ids ({!Qvtr.Encode}
   orders atoms by parameter, object id, slack, then value), so a
   check stage translated once serves them all. A template is what a
   check stage reads of that translation: a compact clone of its
   never-solved solver, the guards and the primary tables, all
   complete before the template is shared and never written after.
   The translation itself is dropped once they are taken. A session
   takes a {!Sat.Solver.clone} of the template's solver, which is
   exactly the solver it would have built itself. The process-wide
   table keeps the [template_cap] most recently used templates. *)
let template_cap = 32

type template = {
  tp_solver : Sat.Solver.t;  (* never solved: only cloned *)
  tp_guards : Sat.Lit.t list;  (* one per top formula, in order *)
  tp_prims : prim list;
  tp_var_fact : (Sat.Lit.var, Ident.t * Relog.Rel.Tuple.t) Hashtbl.t;
  mutable tp_used : int;  (* LRU stamp *)
}

let templates : (string, template) Hashtbl.t = Hashtbl.create 64
let templates_mu = Mutex.create ()
let templates_clock = ref 0
let m_template_hits = Obs.Metrics.counter "incr.template_hits"
let m_template_misses = Obs.Metrics.counter "incr.template_misses"
let g_templates = Obs.Metrics.gauge "incr.templates"

(* Everything the check stage reads, spelled out and compared byte for
   byte (a digest collision would hand a session another tenant's
   encoding): the universe size, every bound as index tuples, the
   index of each atom the formulas name, and the formulas themselves
   (marshalled without sharing, so equal formulas give equal bytes).
   Atom names outside the formulas are left out: they reach no
   circuit. *)
let template_key bounds formulas =
  let b = Buffer.create 4096 in
  let add_int n =
    Buffer.add_string b (string_of_int n);
    Buffer.add_char b ' '
  in
  let add_name id =
    add_int (String.length (Ident.name id));
    Buffer.add_string b (Ident.name id)
  in
  let add_tuples ts =
    add_int (Relog.Rel.Tupleset.cardinal ts);
    Relog.Rel.Tupleset.fold
      (fun tuple () ->
        add_int (Array.length tuple);
        Array.iter add_int tuple)
      ts ()
  in
  let u = Relog.Bounds.universe bounds in
  add_int (Relog.Rel.Universe.size u);
  List.iter
    (fun r ->
      let lower, upper = Option.get (Relog.Bounds.get bounds r) in
      add_name r;
      add_tuples lower;
      add_tuples upper)
    (Relog.Bounds.relations bounds);
  let atoms =
    List.fold_left
      (fun acc f -> Ident.Set.union acc (Relog.Ast.free_atoms f))
      Ident.Set.empty formulas
  in
  Ident.Set.iter
    (fun a ->
      add_name a;
      add_int
        (match Relog.Rel.Universe.index u a with
        | i -> i
        | exception Not_found -> -1))
    atoms;
  Buffer.add_string b (Marshal.to_string formulas [ Marshal.No_sharing ]);
  Buffer.contents b

let with_templates f =
  Mutex.lock templates_mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock templates_mu) f

let touch tp =
  incr templates_clock;
  tp.tp_used <- !templates_clock

let find_template key =
  with_templates (fun () ->
      let found = Hashtbl.find_opt templates key in
      Option.iter touch found;
      found)

(* The first template inserted under a key wins: a racing build of the
   same key is dropped, and both sessions clone the survivor. *)
let insert_template key tp =
  with_templates (fun () ->
      match Hashtbl.find_opt templates key with
      | Some first ->
        touch first;
        first
      | None ->
        if Hashtbl.length templates >= template_cap then begin
          let lru =
            Hashtbl.fold
              (fun k tp acc ->
                match acc with
                | Some (_, used) when used <= tp.tp_used -> acc
                | _ -> Some (k, tp.tp_used))
              templates None
          in
          Option.iter (fun (k, _) -> Hashtbl.remove templates k) lru
        end;
        touch tp;
        Hashtbl.replace templates key tp;
        Obs.Metrics.set_gauge g_templates
          (float_of_int (Hashtbl.length templates));
        tp)

(* The template of the check stage of [formulas] over [bounds], built
   (outside the lock) and inserted first on a miss. *)
let find_or_build_template bounds formulas =
  let key = template_key bounds formulas in
  match find_template key with
  | Some tp ->
    Obs.Metrics.incr m_template_hits;
    stage_event ~hit:true "template";
    tp
  | None ->
    Obs.Metrics.incr m_template_misses;
    stage_event ~hit:false "template";
    let fd = Relog.Finder.create bounds in
    let guards = List.map (Relog.Finder.guard fd) formulas in
    let prims = collect_prims (Relog.Finder.translation fd) in
    let var_fact = Hashtbl.create (List.length prims) in
    List.iter (fun pr -> Hashtbl.replace var_fact pr.p_var (pr.p_rel, pr.p_tuple)) prims;
    insert_template key
      {
        tp_solver = Sat.Solver.clone (Relog.Finder.solver fd);
        tp_guards = guards;
        tp_prims = prims;
        tp_var_fact = var_fact;
        tp_used = 0;
      }

(* The check stage of the current generation, a clone of its
   template's solver taken at the generation's first solve. *)
let ensure_check t =
  let g = t.gen in
  match g.g_check with
  | Some c ->
    stage_event ~hit:true "check_stage";
    c
  | None ->
    stage_event ~hit:false "check_stage";
    t.translations <- t.translations + 1;
    let dirs = Lazy.force g.g_top in
    let t0 = Obs.Clock.now () in
    let tp = find_or_build_template g.g_bounds (List.map (fun (_, _, f) -> f) dirs) in
    let solver =
      Obs.Trace.with_span ~name:"session.clone"
        ~args:(fun () ->
          [
            ("vars", Obs.Json.Int (Sat.Solver.nb_vars tp.tp_solver));
            ("clauses", Obs.Json.Int (Sat.Solver.nb_clauses tp.tp_solver));
          ])
        (fun () -> Sat.Solver.clone tp.tp_solver)
    in
    t.template_s <- t.template_s +. Obs.Clock.since t0;
    let dirs =
      List.map2 (fun (r, d, _) gd -> (r.Qvtr.Ast.r_name, d, gd)) dirs tp.tp_guards
    in
    let c = { solver; dirs; cprims = tp.tp_prims; cvar_fact = tp.tp_var_fact } in
    g.g_check <- Some c;
    c

(* Pins in [cprims] order (class extents first): trail reuse across
   solves depends on assumption lists sharing a literal-for-literal
   prefix, so the order must be stable call to call. *)
let check_pins t cs =
  List.map
    (fun pr -> if present t pr then Sat.Lit.pos pr.p_var else Sat.Lit.neg_of pr.p_var)
    cs.cprims

let universe_atom t idx = Relog.Rel.Universe.atom (Qvtr.Encode.universe t.gen.g_enc) idx

(* Blame names the client's objects: a slack atom an edit consumed
   reads as the atom of the object it stands for, and a fact on a slack
   atom that stands for no current object is dropped. *)
let blame_of t cs guard =
  let core = Sat.Solver.minimize_core cs.solver in
  let slack =
    Ident.Map.fold
      (fun p ps acc ->
        let acc =
          List.fold_left
            (fun acc a -> Ident.Map.add a None acc)
            acc
            (Qvtr.Encode.slack_atom_names t.gen.g_enc p)
        in
        let m = model_of t p in
        Hashtbl.fold
          (fun id a acc ->
            if Model.mem m id then Ident.Map.add a (Some (Qvtr.Encode.obj_atom_name p id)) acc
            else acc)
          ps.atom_of_created acc)
      t.pstates Ident.Map.empty
  in
  let client_atom idx =
    let a = universe_atom t idx in
    match Ident.Map.find_opt a slack with Some named -> named | None -> Some a
  in
  List.filter_map
    (fun l ->
      if Sat.Lit.var l = Sat.Lit.var guard then None
      else
        match Hashtbl.find_opt cs.cvar_fact (Sat.Lit.var l) with
        | Some (r, tuple) ->
          let atoms = Array.map client_atom tuple in
          if Array.for_all Option.is_some atoms then
            Some { f_rel = r; f_atoms = Array.map Option.get atoms; f_present = Sat.Lit.sign l }
          else None
        | None -> None)
    core

let m_rechecks = Obs.Metrics.counter "incr.rechecks"

let recheck ?(blame = false) t =
  Obs.Metrics.incr m_rechecks;
  Obs.Trace.with_span ~name:"session.recheck" @@ fun () ->
  let snap = snapshot t in
  let ( let* ) = Result.bind in
  let* () = ensure_generation t in
  try
    let cs = ensure_check t in
    let pins = check_pins t cs in
    let verdicts =
      List.map
        (fun (rel, dep, guard) ->
          (* guard last: consecutive directions differ only in their
             final assumption, so the pin prefix stays on the trail *)
          let assumptions = pins @ [ guard ] in
          match
            Obs.Trace.with_span ~name:"solve"
              ~args:(fun () ->
                [
                  ("backend", Obs.Json.String "session.check");
                  ("relation", Obs.Json.String (Ident.name rel));
                  ("assumptions", Obs.Json.Int (List.length assumptions));
                ])
              (fun () -> Sat.Solver.solve ~assumptions cs.solver)
          with
          | Sat.Solver.Sat ->
            { v_relation = rel; v_direction = dep; v_holds = true; v_blame = [] }
          | Sat.Solver.Unsat ->
            let v_blame = if blame then blame_of t cs guard else [] in
            { v_relation = rel; v_direction = dep; v_holds = false; v_blame })
        cs.dirs
    in
    Ok
      {
        consistent = List.for_all (fun v -> v.v_holds) verdicts;
        verdicts;
        check_stats = finish t snap;
      }
  with Invalid_argument msg -> Error msg

(* ------------------------------------------------------------------ *)
(* Repair                                                              *)

let consistent_now cs pins =
  let guards = List.map (fun (_, _, gd) -> gd) cs.dirs in
  let assumptions = pins @ guards in
  match
    Obs.Trace.with_span ~name:"solve"
      ~args:(fun () ->
        [
          ("backend", Obs.Json.String "session.check");
          ("assumptions", Obs.Json.Int (List.length assumptions));
        ])
      (fun () -> Sat.Solver.solve ~assumptions cs.solver)
  with
  | Sat.Solver.Sat -> true
  | Sat.Solver.Unsat -> false

(* The ladder's translation and search ran on a finder of its own:
   add them to the session's own effort for the step. *)
let add_ladder s (tel : Echo.Telemetry.t) =
  let sv = tel.Echo.Telemetry.solver in
  {
    s with
    solver_calls = s.solver_calls + tel.Echo.Telemetry.solver_calls;
    conflicts = s.conflicts + sv.Sat.Solver.conflicts;
    propagations = s.propagations + sv.Sat.Solver.propagations;
    decisions = s.decisions + sv.Sat.Solver.decisions;
    translated = true;
    translate_s =
      s.translate_s +. tel.Echo.Telemetry.translation.Relog.Translate.translate_time;
  }

let to_repair (s : Echo.Repair.success) =
  {
    r_models = s.Echo.Repair.repaired;
    r_relational_distance = s.Echo.Repair.relational_distance;
    r_edit_distance = s.Echo.Repair.edit_distance;
  }

let m_rerepairs = Obs.Metrics.counter "incr.rerepairs"

(* The consistency check is a warm assumption solve on the check
   solver; the repair itself is a one-shot run over the current
   models, whose value universe and slack budget give it exactly the
   search space of a from-scratch {!Echo.Engine.enforce_all}. *)
let rerepair_upto ~limit t =
  Obs.Metrics.incr m_rerepairs;
  Obs.Trace.with_span ~name:"session.rerepair"
    ~args:(fun () -> [ ("limit", Obs.Json.Int limit) ])
  @@ fun () ->
  let snap = snapshot t in
  let ( let* ) = Result.bind in
  let* () = ensure_generation t in
  let* consistent =
    try
      let cs = ensure_check t in
      Ok (consistent_now cs (check_pins t cs))
    with Invalid_argument msg -> Error msg
  in
  if consistent then Ok { outcome = Already_consistent; repair_stats = finish t snap }
  else
    let* space =
      Obs.Trace.with_span ~name:"space.build" (fun () ->
          Echo.Space.build ?mode:t.mode ~slack_objects:t.budget
            ~extra_values:(value_universe t) ~sbp:t.sbp ~transformation:t.trans
            ~metamodels:t.metamodels ~models:t.cur ~targets:t.tgts ())
    in
    let* found, tel = Echo.Repair.run_all ~limit space in
    let outcome =
      match found with
      | [] -> Cannot_restore
      | reps -> Repaired (List.map to_repair reps)
    in
    Ok { outcome; repair_stats = add_ladder (finish t snap) tel }

(* A limit below 1 would stop the collector before its first solve at
   every distance, reporting Cannot_restore for a repairable state. *)
let rerepair ?(limit = 16) t =
  if limit < 1 then Error (Printf.sprintf "rerepair: limit must be at least 1 (got %d)" limit)
  else rerepair_upto ~limit t

(* ------------------------------------------------------------------ *)
(* Edits                                                               *)

let atom_known t a =
  match Qvtr.Encode.atom_index t.gen.g_enc a with
  | _ -> true
  | exception Invalid_argument _ -> false

let apply_edits t batch =
  Obs.Trace.with_span ~name:"session.apply_edits"
    ~args:(fun () ->
      [
        ("parameters", Obs.Json.Int (List.length batch));
        ( "edits",
          Obs.Json.Int
            (List.fold_left (fun n (_, es) -> n + List.length es) 0 batch) );
      ])
  @@ fun () ->
  (* Validate the whole batch functionally first: on error, nothing
     below mutates the session. *)
  let rec validate acc = function
    | [] -> Ok (List.rev acc)
    | (p, edits) :: rest -> (
      match List.find_opt (fun (q, _) -> Ident.equal q p) t.cur with
      | None -> Error (Printf.sprintf "unknown parameter %s" (Ident.name p))
      | Some (_, m) -> (
        match Edit.apply_script m edits with
        | Error e -> Error (Printf.sprintf "%s: %s" (Ident.name p) e)
        | Ok m' -> validate ((p, m') :: acc) rest))
  in
  match validate [] batch with
  | Error e -> Error e
  | Ok updated ->
    List.iter (fun (p, m) -> set_model t p m) updated;
    List.iter
      (fun (p, _) -> t.fact_cache <- Ident.Map.remove p t.fact_cache)
      updated;
    List.iter
      (fun (p, edits) ->
        let ps = pstate_of t p in
        List.iter
          (fun e ->
            match e with
            | Edit.Add_object { id; _ } ->
              if not t.rebuild_pending then begin
                let known =
                  atom_known t (Qvtr.Encode.obj_atom_name p id)
                  || Hashtbl.mem ps.atom_of_created id
                in
                if not known then begin
                  if ps.nconsumed >= t.headroom then t.rebuild_pending <- true
                  else begin
                    let a =
                      List.nth
                        (Qvtr.Encode.slack_atom_names t.gen.g_enc p)
                        ps.nconsumed
                    in
                    Hashtbl.replace ps.atom_of_created id a;
                    ps.nconsumed <- ps.nconsumed + 1
                  end
                end
              end
            | Edit.Set_attr { after; _ } ->
              List.iter
                (fun v ->
                  if not (Value.Set.mem v t.values) then begin
                    t.values <- Value.Set.add v t.values;
                    t.rebuild_pending <- true
                  end)
                after
            | Edit.Delete_object _ | Edit.Add_ref _ | Edit.Del_ref _ -> ())
          edits)
      batch;
    Ok ()

let commit t rep =
  let batch =
    List.filter_map
      (fun (p, m) ->
        if not (Ident.Set.mem p t.tgts) then None
        else
          match Mdl.Diff.script (model_of t p) m with
          | [] -> None
          | edits -> Some (p, edits))
      rep.r_models
  in
  apply_edits t batch

(* ------------------------------------------------------------------ *)
(* Printers                                                            *)

let pp_fact ppf f =
  Format.fprintf ppf "%s%a(%s)"
    (if f.f_present then "" else "not ")
    Ident.pp f.f_rel
    (String.concat ", "
       (List.map Ident.name (Array.to_list f.f_atoms)))
