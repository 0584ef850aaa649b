module Ident = Mdl.Ident
module Model = Mdl.Model
module Value = Mdl.Value
module Edit = Mdl.Edit

type fact = {
  f_rel : Ident.t;
  f_atoms : Ident.t array;
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

(* A target primary with its repair apparatus: [t_ref] is the
   reference variable assumptions pin to the current model, [t_diff]
   is defined as [p_var XOR t_ref] and feeds the totalizer. *)
type tprim = {
  tp : prim;
  t_ref : Sat.Lit.var;
  t_diff : Sat.Lit.var;
}

type check_state = {
  cf : Relog.Finder.t;
  dirs : (Ident.t * Qvtr.Ast.dependency * Sat.Lit.t) list;
  cprims : prim array;
  cvar_fact : (Sat.Lit.var, Ident.t * Relog.Rel.Tuple.t) Hashtbl.t;
}

type repair_state = {
  rf : Relog.Finder.t;
  ntprims : prim array;  (* primaries of frozen parameters *)
  tprims : tprim array;  (* primaries of target parameters *)
  card : Sat.Cardinality.t;
  chains : (Ident.t * Sat.Lit.t array) list;
      (* per target parameter: slack symmetry pair guards, ordinal order *)
  struct_guards : Sat.Lit.t list;
      (* conformance of the targets, guarded like everything else so
         the one shared finder serves both check and repair *)
}

(* One encoding generation: everything keyed by the exact bounds (the
   bound models, the value universe, the slack pool). Generations are
   cached so a re-encode that returns to a previously seen state
   revives its guard literals and primary pins without re-translation
   — the shared finder's memoized lowering and the Tseitin cache make
   the revival {!Relog.Finder.rebind} rebuild only matrices, not
   clauses. *)
type generation = {
  g_enc : Qvtr.Encode.t;
  g_sem : Qvtr.Semantics.t;
  g_bounds : Relog.Bounds.t;
  mutable g_check : check_state option;
  mutable g_repair : repair_state option;
}

(* Per-parameter slack accounting of the current generation. *)
type pstate = {
  mutable consumed : Model.obj_id list;  (* newest first *)
  mutable nconsumed : int;
  atom_of_created : (Model.obj_id, Ident.t) Hashtbl.t;
}

type t = {
  trans : Qvtr.Ast.transformation;
  metamodels : (Ident.t * Mdl.Metamodel.t) list;
  info : Qvtr.Typecheck.info;
  mode : Qvtr.Semantics.mode option;
  unroll : int option;
  tgts : Echo.Target.t;
  budget : int;
  headroom : int;
  symmetry : bool;
      (* assume the guarded slack-symmetry chains on repair solves.
         The session path pins repairs by assumption, so the general
         lex-leader SBPs of {!Relog.Symmetry} are unsound here; the
         per-parameter slack chains are the symmetry breaking sessions
         get, and [symmetry = false] (the server's --no-sbp) drops
         even those. *)
  mutable gen : generation;
  cache : (string, generation) Hashtbl.t;
  (* The one finder (translation + solver) serving every generation:
     re-encodes delta-rebind it instead of building a new one. *)
  mutable fd : Relog.Finder.t option;
  (* The longest universe ever encoded: the base of every re-encode,
     so all session universes form one prefix-compatible chain and
     index-keyed translation state survives every rebind. *)
  mutable all_atoms : Ident.t list;
  (* p_var -> (t_ref, t_diff): the XOR apparatus is per primary
     variable, and primary variables persist across rebinds, so
     generations share it. *)
  xors : (Sat.Lit.var, Sat.Lit.var * Sat.Lit.var) Hashtbl.t;
  mutable cur : (Ident.t * Model.t) list;
  mutable values : Value.Set.t;
  mutable pstates : pstate Ident.Map.t;
  mutable fact_cache : (Relog.Rel.Tuple.t, unit) Hashtbl.t Ident.Map.t Ident.Map.t;
      (* param -> relation -> present tuples; absent entry = dirty *)
  mutable rebuild_pending : bool;
  mutable nrebuilds : int;
  mutable translations : int;
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
        { consumed = []; nconsumed = 0; atom_of_created = Hashtbl.create 8 }
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

let solver_totals t =
  match t.fd with
  | Some fd -> Sat.Solver.stats (Relog.Finder.solver fd)
  | None -> zero_stats

let translate_seconds t =
  match t.fd with
  | Some fd ->
    (Relog.Translate.stats (Relog.Finder.translation fd))
      .Relog.Translate.translate_time
  | None -> 0.0

let snapshot t =
  (Sat.Telemetry.now (), solver_totals t, t.translations, translate_seconds t)

let finish t (t0, s0, tr0, ts0) =
  let s1 = solver_totals t in
  {
    wall = Sat.Telemetry.now () -. t0;
    solver_calls = s1.Sat.Solver.solves - s0.Sat.Solver.solves;
    conflicts = s1.Sat.Solver.conflicts - s0.Sat.Solver.conflicts;
    propagations = s1.Sat.Solver.propagations - s0.Sat.Solver.propagations;
    decisions = s1.Sat.Solver.decisions - s0.Sat.Solver.decisions;
    translated = t.translations > tr0;
    translate_s = translate_seconds t -. ts0;
  }

(* ------------------------------------------------------------------ *)
(* Generations and the translation cache                               *)

(* The cache key spells out exactly what the bounds depend on: the
   transformation, the target set, the slack pool and the precise
   state (models and value universe) being encoded. *)
let fingerprint t =
  let b = Buffer.create 256 in
  Buffer.add_string b (Ident.name t.trans.Qvtr.Ast.t_name);
  Buffer.add_char b '\n';
  List.iter
    (fun (n, _) ->
      Buffer.add_string b (Ident.name n);
      Buffer.add_char b ' ')
    t.metamodels;
  Buffer.add_char b '\n';
  Ident.Set.iter
    (fun p ->
      Buffer.add_string b (Ident.name p);
      Buffer.add_char b ' ')
    t.tgts;
  Buffer.add_string b (Printf.sprintf "\nslack %d+%d\n" t.budget t.headroom);
  List.iter
    (fun (p, m) ->
      Buffer.add_string b (Ident.name p);
      Buffer.add_char b '\x01';
      Buffer.add_string b (Mdl.Serialize.model_to_string m);
      Buffer.add_char b '\x02')
    t.cur;
  Value.Set.iter
    (fun v ->
      Buffer.add_string b (Value.to_string v);
      Buffer.add_char b '\x03')
    t.values;
  Buffer.contents b

let build_generation ~trans ~metamodels ~models ~values ~slack ?(base = [])
    ?mode ?unroll info =
  let ( let* ) = Result.bind in
  let* enc =
    Qvtr.Encode.create ~transformation:trans ~metamodels ~models
      ~extra_values:(Value.Set.elements values) ~slack_objects:slack ~base ()
  in
  match Qvtr.Semantics.create ?mode ?unroll enc info with
  | sem ->
    let bounds =
      Qvtr.Encode.bounds enc ~targets:(Ident.Set.of_list (List.map fst models))
    in
    Ok
      {
        g_enc = enc;
        g_sem = sem;
        g_bounds = bounds;
        g_check = None;
        g_repair = None;
      }
  | exception Qvtr.Semantics.Compile_error msg -> Error msg

(* Flush a pending re-encode: key the current state, revive a cached
   generation or build a fresh one, and reset the slack accounting
   (the new encoding owns every current object directly). *)
let m_cache_hits = Obs.Metrics.counter "incr.translation_cache_hits"
let m_cache_misses = Obs.Metrics.counter "incr.translation_cache_misses"
let m_rebuilds = Obs.Metrics.counter "incr.rebuilds"

let ensure_generation t =
  if not t.rebuild_pending then Ok ()
  else begin
    let key = fingerprint t in
    let ( let* ) = Result.bind in
    let* g =
      match Hashtbl.find_opt t.cache key with
      | Some g ->
        (* State recurrence: the fingerprinted encoding is revived
           without re-translation. *)
        Obs.Metrics.incr m_cache_hits;
        Obs.Trace.instant "session.cache_hit"
          ~args:(fun () -> [ ("cache", Obs.Json.String "translation") ]);
        Ok g
      | None ->
        Obs.Metrics.incr m_cache_misses;
        Obs.Trace.instant "session.cache_miss"
          ~args:(fun () -> [ ("cache", Obs.Json.String "translation") ]);
        let* g =
          Obs.Trace.with_span ~name:"session.rebuild" (fun () ->
              build_generation ~trans:t.trans ~metamodels:t.metamodels
                ~models:t.cur ~values:t.values ~slack:(t.budget + t.headroom)
                ~base:t.all_atoms ?mode:t.mode ?unroll:t.unroll t.info)
        in
        (* The new universe extends the longest-ever one (base), so it
           is the new longest. *)
        t.all_atoms <- Relog.Rel.Universe.atoms (Qvtr.Encode.universe g.g_enc);
        Hashtbl.add t.cache key g;
        Ok g
    in
    Obs.Metrics.incr m_rebuilds;
    t.gen <- g;
    (* Delta-retranslate the shared finder: only relations whose
       bounds the re-encode changed are re-lowered; everything else —
       matrices, memoized circuits, guard literals, learnt clauses —
       carries over. *)
    (match t.fd with
    | Some fd -> ignore (Relog.Finder.rebind fd g.g_bounds : int)
    | None -> ());
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

let open_session ?mode ?unroll ?(slack_budget = 2) ?(headroom = 6)
    ?(extra_values = []) ?(symmetry = true) ~transformation ~metamodels
    ~models ~targets () =
  let ( let* ) = Result.bind in
  if slack_budget < 0 || headroom < 0 then
    Error "Session.open_session: slack_budget and headroom must be >= 0"
  else
    let params =
      List.map
        (fun (p : Qvtr.Ast.param) -> p.Qvtr.Ast.par_name)
        transformation.Qvtr.Ast.t_params
    in
    let* () = Echo.Target.validate ~params targets in
    let* info =
      match Qvtr.Typecheck.check transformation ~metamodels with
      | Ok info -> Ok info
      | Error errs ->
        Error
          (String.concat "; "
             (List.map
                (fun e -> Format.asprintf "%a" Qvtr.Typecheck.pp_error e)
                errs))
    in
    let seed =
      List.fold_left
        (fun acc v -> Value.Set.add v acc)
        Value.Set.empty extra_values
    in
    let* gen =
      Obs.Trace.with_span ~name:"session.build" (fun () ->
          build_generation ~trans:transformation ~metamodels ~models
            ~values:seed ~slack:(slack_budget + headroom) ?mode
            ?unroll info)
    in
    let t =
      {
        trans = transformation;
        metamodels;
        info;
        mode;
        unroll;
        tgts = targets;
        budget = slack_budget;
        headroom;
        symmetry;
        gen;
        cache = Hashtbl.create 4;
        fd = None;
        all_atoms =
          Relog.Rel.Universe.atoms (Qvtr.Encode.universe gen.g_enc);
        xors = Hashtbl.create 64;
        cur = models;
        values =
          List.fold_left
            (fun acc v -> Value.Set.add v acc)
            seed
            (Qvtr.Encode.values gen.g_enc);
        pstates = fresh_pstates params;
        fact_cache = Ident.Map.empty;
        rebuild_pending = false;
        nrebuilds = 0;
        translations = 0;
      }
    in
    Hashtbl.add t.cache (fingerprint t) gen;
    Ok t

(* ------------------------------------------------------------------ *)
(* Facts                                                               *)

(* Relation names are namespaced "<param>$..."; recover the owner. *)
let param_of_rel r =
  match String.index_opt (Ident.name r) '$' with
  | None -> None
  | Some i -> Some (Ident.make (String.sub (Ident.name r) 0 i))

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

let collect_prims trans =
  let a =
    Relog.Translate.fold_primaries trans
      (fun r tuple v acc ->
        match param_of_rel r with
        | Some p -> { p_param = p; p_rel = r; p_tuple = tuple; p_var = v } :: acc
        | None -> acc)
      []
    |> Array.of_list
  in
  Array.sort prim_order a;
  a

(* ------------------------------------------------------------------ *)
(* The check finder                                                    *)

let finder_cache_event ~hit which =
  Obs.Trace.instant
    (if hit then "session.cache_hit" else "session.cache_miss")
    ~args:(fun () -> [ ("cache", Obs.Json.String which) ])

(* The one long-lived finder. Created lazily over the current
   generation's bounds; every later generation reaches it through
   {!Relog.Finder.rebind} in [ensure_generation]. *)
let ensure_finder t =
  match t.fd with
  | Some fd -> fd
  | None ->
    let fd = Relog.Finder.create t.gen.g_bounds in
    t.fd <- Some fd;
    fd

let ensure_check t =
  let g = t.gen in
  match g.g_check with
  | Some c ->
    finder_cache_event ~hit:true "check_finder";
    c
  | None ->
    finder_cache_event ~hit:false "check_finder";
    t.translations <- t.translations + 1;
    let cf = ensure_finder t in
    let dirs = Qvtr.Semantics.top_formulas g.g_sem in
    let dirs =
      List.map
        (fun (r, d, f) -> (r.Qvtr.Ast.r_name, d, Relog.Finder.guard cf f))
        dirs
    in
    let cprims = collect_prims (Relog.Finder.translation cf) in
    let cvar_fact = Hashtbl.create (Array.length cprims) in
    Array.iter
      (fun pr -> Hashtbl.replace cvar_fact pr.p_var (pr.p_rel, pr.p_tuple))
      cprims;
    let c = { cf; dirs; cprims; cvar_fact } in
    g.g_check <- Some c;
    c

(* Pins in [cprims] order (class extents first): trail reuse across
   solves depends on assumption lists sharing a literal-for-literal
   prefix, so the order must be stable call to call. *)
let check_pins t cs =
  Array.fold_right
    (fun pr acc ->
      (if present t pr then Sat.Lit.pos pr.p_var else Sat.Lit.neg_of pr.p_var)
      :: acc)
    cs.cprims []

let universe_atom t idx = Relog.Rel.Universe.atom (Qvtr.Encode.universe t.gen.g_enc) idx

let blame_of t cs guard =
  let solver = Relog.Finder.solver cs.cf in
  let core = Sat.Solver.minimize_core solver in
  List.filter_map
    (fun l ->
      if Sat.Lit.var l = Sat.Lit.var guard then None
      else
        match Hashtbl.find_opt cs.cvar_fact (Sat.Lit.var l) with
        | Some (r, tuple) ->
          Some { f_rel = r; f_atoms = Array.map (universe_atom t) tuple }
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
    let solver = Relog.Finder.solver cs.cf in
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
              (fun () -> Sat.Solver.solve ~assumptions solver)
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
(* The repair finder                                                   *)

(* The repair apparatus rides on the same finder as the check: the
   direction formulas (consistency) are already guarded there, the
   target conformance and slack symmetry formulas are guarded here,
   and every repair solve assumes all of them. Nothing is asserted
   unconditionally, so check and repair coexist in one solver and the
   whole translation is shared. *)
let ensure_repair t =
  let g = t.gen in
  (* The check state first: repair assumes its direction guards and
     reuses its primary census. *)
  let cs = ensure_check t in
  match g.g_repair with
  | Some r ->
    finder_cache_event ~hit:true "repair_finder";
    r
  | None ->
    finder_cache_event ~hit:false "repair_finder";
    t.translations <- t.translations + 1;
    let rf = cs.cf in
    let tgt_list = Ident.Set.elements t.tgts in
    let chains =
      List.map
        (fun p ->
          ( p,
            if not t.symmetry then [||]
            else
              Array.of_list
                (List.map (Relog.Finder.guard rf)
                   (Qvtr.Encode.slack_symmetry_formulas g.g_enc ~param:p)) ))
        tgt_list
    in
    let struct_guards =
      List.concat_map
        (fun p ->
          List.map (Relog.Finder.guard rf)
            (Qvtr.Encode.structural_formulas ~symmetry:false g.g_enc ~param:p))
        tgt_list
    in
    let solver = Relog.Finder.solver rf in
    let prims = cs.cprims in
    let ntprims =
      Array.of_list
        (List.filter
           (fun pr -> not (Ident.Set.mem pr.p_param t.tgts))
           (Array.to_list prims))
    in
    let tprims =
      Array.of_list
        (List.filter_map
           (fun pr ->
             if not (Ident.Set.mem pr.p_param t.tgts) then None
             else begin
               let v = pr.p_var in
               let r, d =
                 match Hashtbl.find_opt t.xors v with
                 | Some rd -> rd
                 | None ->
                   let r = Sat.Solver.new_var solver in
                   let d = Sat.Solver.new_var solver in
                   (* d <-> v XOR r *)
                   Sat.Solver.add_clause solver
                     [ Sat.Lit.neg_of v; Sat.Lit.pos r; Sat.Lit.pos d ];
                   Sat.Solver.add_clause solver
                     [ Sat.Lit.pos v; Sat.Lit.neg_of r; Sat.Lit.pos d ];
                   Sat.Solver.add_clause solver
                     [ Sat.Lit.neg_of v; Sat.Lit.neg_of r; Sat.Lit.neg_of d ];
                   Sat.Solver.add_clause solver
                     [ Sat.Lit.pos v; Sat.Lit.pos r; Sat.Lit.neg_of d ];
                   Hashtbl.replace t.xors v (r, d);
                   (r, d)
               in
               Some { tp = pr; t_ref = r; t_diff = d }
             end)
           (Array.to_list prims))
    in
    let card =
      Obs.Trace.with_span ~name:"cnf.cardinality"
        ~args:(fun () -> [ ("inputs", Obs.Json.Int (Array.length tprims)) ])
        (fun () ->
          Sat.Cardinality.build solver
            (List.map (fun tp -> Sat.Lit.pos tp.t_diff) (Array.to_list tprims)))
    in
    let r = { rf; ntprims; tprims; card; chains; struct_guards } in
    g.g_repair <- Some r;
    r

(* Atoms no repair may populate in the current state: originally bound
   objects since deleted, consumed slack atoms whose object was
   deleted, and slack atoms beyond the fresh window (the window keeps
   the search space identical to a from-scratch run with
   [slack_objects = budget]). *)
let dead_atoms t p =
  let enc = t.gen.g_enc in
  let ps = pstate_of t p in
  let m = model_of t p in
  let tbl = Hashtbl.create 16 in
  let add a = Hashtbl.replace tbl (Qvtr.Encode.atom_index enc a) () in
  List.iter
    (fun id ->
      if not (Model.mem m id) then add (Qvtr.Encode.obj_atom_name p id))
    (Model.objects (Qvtr.Encode.model_of_param enc p));
  let consumed = Array.of_list (List.rev ps.consumed) in
  List.iteri
    (fun k a ->
      if k < Array.length consumed then begin
        if not (Model.mem m consumed.(k)) then add a
      end
      else if k >= Array.length consumed + t.budget then add a)
    (Qvtr.Encode.slack_atom_names enc p);
  tbl

let repair_pins t rs =
  let dead =
    List.fold_left
      (fun acc p -> Ident.Map.add p (dead_atoms t p) acc)
      Ident.Map.empty
      (Ident.Set.elements t.tgts)
  in
  (* Assembled back to front so the final list runs: frozen-model
     pins, target reference/dead pins, chain guards — a stable order,
     so the whole list is a reusable trail prefix across the ladder. *)
  let acc =
    List.concat_map
      (fun (p, guards) ->
        (* Symmetry applies to the unconsumed window only: consumed
           atoms are ordinary objects now and must be deletable
           independently. *)
        let n = (pstate_of t p).nconsumed in
        let out = ref [] in
        Array.iteri (fun k gd -> if k >= n then out := gd :: !out) guards;
        List.rev !out)
      rs.chains
  in
  let acc =
    Array.fold_right
      (fun tp acc ->
        let dtbl = Ident.Map.find tp.tp.p_param dead in
        if Array.exists (Hashtbl.mem dtbl) tp.tp.p_tuple then
          Sat.Lit.neg_of tp.tp.p_var :: Sat.Lit.neg_of tp.t_ref :: acc
        else
          (if present t tp.tp then Sat.Lit.pos tp.t_ref
           else Sat.Lit.neg_of tp.t_ref)
          :: acc)
      rs.tprims acc
  in
  Array.fold_right
    (fun pr acc ->
      (if present t pr then Sat.Lit.pos pr.p_var
       else Sat.Lit.neg_of pr.p_var)
      :: acc)
    rs.ntprims acc

let consistent_now cs pins =
  let solver = Relog.Finder.solver cs.cf in
  let guards = List.map (fun (_, _, gd) -> gd) cs.dirs in
  let assumptions = pins @ guards in
  match
    Obs.Trace.with_span ~name:"solve"
      ~args:(fun () ->
        [
          ("backend", Obs.Json.String "session.check");
          ("assumptions", Obs.Json.Int (List.length assumptions));
        ])
      (fun () -> Sat.Solver.solve ~assumptions solver)
  with
  | Sat.Solver.Sat -> true
  | Sat.Solver.Unsat -> false

let max_id m = List.fold_left max (-1) (Model.objects m)

let decode_repair t inst ~distance =
  let enc = t.gen.g_enc in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | (p, cur) :: rest ->
      if not (Ident.Set.mem p t.tgts) then go ((p, cur) :: acc) rest
      else begin
        let ps = pstate_of t p in
        let atom_ids =
          Hashtbl.fold (fun id a acc -> (a, id) :: acc) ps.atom_of_created []
        in
        match
          Qvtr.Encode.decode_model enc ~atom_ids ~first_fresh:(max_id cur + 1)
            inst ~param:p
        with
        | Error msg -> Error msg
        | Ok m ->
          if Mdl.Conformance.check m <> [] then Error "non-conformant"
          else go ((p, m) :: acc) rest
      end
  in
  match go [] t.cur with
  | Error msg -> Error msg
  | Ok repaired ->
    let edit =
      List.fold_left
        (fun acc (p, m) ->
          if Ident.Set.mem p t.tgts then
            acc + Mdl.Distance.delta (model_of t p) m
          else acc)
        0 repaired
    in
    Ok
      {
        r_models = repaired;
        r_relational_distance = distance;
        r_edit_distance = edit;
      }

let repair_key reps =
  String.concat "\x00"
    (List.map
       (fun (p, m) -> Ident.name p ^ "\x01" ^ Mdl.Serialize.model_to_string m)
       reps)

let dedup_sort reps =
  let seen = Hashtbl.create 16 in
  List.filter
    (fun r ->
      let key = repair_key r.r_models in
      if Hashtbl.mem seen key then false
      else begin
        Hashtbl.add seen key ();
        true
      end)
    reps
  |> List.sort (fun a b ->
         String.compare (repair_key a.r_models) (repair_key b.r_models))

let m_rerepairs = Obs.Metrics.counter "incr.rerepairs"

let rerepair_upto ~limit t =
  Obs.Metrics.incr m_rerepairs;
  Obs.Trace.with_span ~name:"session.rerepair"
    ~args:(fun () -> [ ("limit", Obs.Json.Int limit) ])
  @@ fun () ->
  let snap = snapshot t in
  let ( let* ) = Result.bind in
  let* () = ensure_generation t in
  try
    let cs = ensure_check t in
    let pins = check_pins t cs in
    if consistent_now cs pins then
      Ok { outcome = Already_consistent; repair_stats = finish t snap }
    else begin
      let rs = ensure_repair t in
      (* Stable assumption order for trail reuse across the ladder:
         fact/reference pins and chain guards, then the guarded
         constraint set (conformance + all directions). *)
      let dir_guards = List.map (fun (_, _, gd) -> gd) cs.dirs in
      let base = repair_pins t rs @ rs.struct_guards @ dir_guards in
      let scope = Relog.Finder.new_scope rs.rf in
      let solver = Relog.Finder.solver rs.rf in
      let total = Sat.Cardinality.count rs.card in
      (* Enumerate conformant instances at distance k; non-conformant
         ones are blocked (scoped to this call) without counting. *)
      let collect_at k =
        let rec go acc n =
          if n >= limit then acc
          else
            let assumptions = base @ Sat.Cardinality.at_most rs.card k @ [ scope ] in
            match
              Obs.Trace.with_span ~name:"solve"
                ~args:(fun () ->
                  [
                    ("backend", Obs.Json.String "session.repair");
                    ("distance", Obs.Json.Int k);
                    ("assumptions", Obs.Json.Int (List.length assumptions));
                  ])
                (fun () -> Relog.Finder.solve ~assumptions rs.rf)
            with
            | Relog.Finder.Unsat -> acc
            | Relog.Finder.Sat inst -> (
              let distance =
                Array.fold_left
                  (fun d tp ->
                    if Sat.Solver.value solver tp.t_diff then d + 1 else d)
                  0 rs.tprims
              in
              let decoded = decode_repair t inst ~distance in
              Relog.Finder.block ~scope rs.rf;
              match decoded with
              | Error _ -> go acc n
              | Ok rep -> go (rep :: acc) (n + 1))
        in
        go [] 0
      in
      let rec at_distance k =
        if k > total then Cannot_restore
        else
          match collect_at k with
          | [] -> at_distance (k + 1)
          | reps -> Repaired (dedup_sort reps)
      in
      let outcome = at_distance 0 in
      Ok { outcome; repair_stats = finish t snap }
    end
  with Invalid_argument msg -> Error msg

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
                    ps.consumed <- id :: ps.consumed;
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
  Format.fprintf ppf "%a(%s)" Ident.pp f.f_rel
    (String.concat ", "
       (List.map Ident.name (Array.to_list f.f_atoms)))

let pp_step_stats ppf s =
  Format.fprintf ppf
    "@[<h>%.4fs; %d solves; %d conflicts; %d propagations; %d decisions%s@]"
    s.wall s.solver_calls s.conflicts s.propagations s.decisions
    (if s.translated then Printf.sprintf "; translated (%.4fs)" s.translate_s
     else "")
