module Ident = Mdl.Ident
module TS = Rel.Tupleset
module C = Sat.Circuit

module TupleMap = Map.Make (struct
  type t = Rel.Tuple.t

  let compare = Rel.Tuple.compare
end)

exception Unsupported of string

let error fmt = Format.kasprintf (fun s -> raise (Unsupported s)) fmt

(* A sparse boolean matrix: tuples absent from [cells] are false. *)
type matrix = {
  m_arity : int;
  cells : C.t TupleMap.t;
}

(* Memo key: node id, then the projected environment (see [project]).
   Hashed and compared over every element. *)
module Memo = Hashtbl.Make (struct
  type t = int * int list

  let equal ((a : int), l) (b, m) = a = b && List.equal Int.equal l m

  let hash (id, l) =
    List.fold_left (fun h x -> (h * 65599) + x) id l land max_int
end)

module Id_tbl = Hashtbl.Make (Int)

module Rel_tbl = Hashtbl.Make (struct
  type t = Ident.t

  let equal = Ident.equal
  let hash = Ident.hash
end)

(* The lowering is memoized per hash-consed node: [e_memo]/[f_memo]
   key on (node id, environment projected onto the node's free
   variables), so a subtree is lowered once per distinct binding of
   the variables it actually mentions — ground subtrees exactly once —
   instead of once per occurrence per quantifier grounding.
   [e_nodes]/[f_nodes] keep the node of every memoized id so [rebind]
   can invalidate exactly the entries whose relations (or universe
   dependence) an edit touched. *)
type t = {
  builder : C.builder;
  sat : Sat.Solver.t;
  tseitin : Sat.Tseitin.ctx;
  store : Hc.store;
  mutable bnds : Bounds.t;
  (* (relation, tuple) -> primary variable. Persistent across
     [rebind]: re-bounding a relation reuses the variable of every
     (relation, tuple) pair it has ever allocated, so re-lowered
     formulas rebuild physically identical circuits and Tseitin adds
     no clauses for unchanged parts. *)
  primaries : (Ident.t * Rel.Tuple.t, Sat.Lit.var) Hashtbl.t;
  (* memoized relation matrices, current bounds only *)
  rel_matrices : matrix Rel_tbl.t;
  e_memo : matrix Memo.t;
  f_memo : C.t Memo.t;
  e_nodes : Hc.expr Id_tbl.t;
  f_nodes : Hc.formula Id_tbl.t;
  (* memo lookups of the current translation call, added to the
     process-wide relog.memo_hits/misses counters when it ends *)
  mutable hits : int;
  mutable misses : int;
  (* telemetry: wall time spent translating, formulas translated *)
  translate_span : Sat.Telemetry.span;
}

let create ?solver ?store bnds =
  let sat = match solver with Some s -> s | None -> Sat.Solver.create () in
  let store = match store with Some st -> st | None -> Hc.store () in
  {
    builder = C.builder ();
    sat;
    tseitin = Sat.Tseitin.create sat;
    store;
    bnds;
    primaries = Hashtbl.create 256;
    rel_matrices = Rel_tbl.create 64;
    e_memo = Memo.create 1024;
    f_memo = Memo.create 1024;
    e_nodes = Id_tbl.create 512;
    f_nodes = Id_tbl.create 512;
    hits = 0;
    misses = 0;
    translate_span = Sat.Telemetry.span ();
  }

let solver t = t.sat
let bounds t = t.bnds
let store t = t.store

let matrix_of_rel t r =
  match Rel_tbl.find_opt t.rel_matrices r with
  | Some m -> m
  | None ->
    let lower, upper =
      match Bounds.get t.bnds r with
      | Some b -> b
      | None -> error "relation %s has no bounds" (Ident.name r)
    in
    let arity = match TS.arity upper with Some a -> Some a | None -> TS.arity lower in
    let cells =
      TS.fold
        (fun tuple cells ->
          let node =
            if TS.mem tuple lower then C.tru t.builder
            else begin
              let v =
                match Hashtbl.find_opt t.primaries (r, tuple) with
                | Some v -> v
                | None ->
                  let v = Sat.Solver.new_var t.sat in
                  Hashtbl.replace t.primaries (r, tuple) v;
                  v
              in
              C.input t.builder (Sat.Lit.pos v)
            end
          in
          TupleMap.add tuple node cells)
        upper TupleMap.empty
    in
    let m = { m_arity = Option.value ~default:1 arity; cells } in
    Rel_tbl.replace t.rel_matrices r m;
    m

let cell m tuple = TupleMap.find_opt tuple m.cells

(* Merge-with for union. *)
let mat_union t a b =
  if a.m_arity <> b.m_arity && not (TupleMap.is_empty a.cells || TupleMap.is_empty b.cells)
  then error "union arity mismatch";
  let cells =
    TupleMap.union (fun _ x y -> Some (C.or_ t.builder [ x; y ])) a.cells b.cells
  in
  { m_arity = max a.m_arity b.m_arity; cells }

let mat_inter t a b =
  let cells =
    TupleMap.merge
      (fun _ x y ->
        match (x, y) with
        | Some x, Some y ->
          let n = C.and_ t.builder [ x; y ] in
          if C.is_false n then None else Some n
        | _ -> None)
      a.cells b.cells
  in
  { m_arity = a.m_arity; cells }

let mat_diff t a b =
  let cells =
    TupleMap.merge
      (fun _ x y ->
        match (x, y) with
        | Some x, None -> Some x
        | Some x, Some y ->
          let n = C.and_ t.builder [ x; C.not_ t.builder y ] in
          if C.is_false n then None else Some n
        | None, _ -> None)
      a.cells b.cells
  in
  { m_arity = a.m_arity; cells }

let mat_product t a b =
  let cells =
    TupleMap.fold
      (fun ta ea acc ->
        TupleMap.fold
          (fun tb eb acc ->
            let n = C.and_ t.builder [ ea; eb ] in
            if C.is_false n then acc else TupleMap.add (Rel.Tuple.concat ta tb) n acc)
          b.cells acc)
      a.cells TupleMap.empty
  in
  { m_arity = a.m_arity + b.m_arity; cells }

let mat_join t a b =
  if a.m_arity = 0 || b.m_arity = 0 then error "join of nullary relation";
  (* Index b by first column. *)
  let by_first : (Rel.Tuple.t * C.t) list Id_tbl.t = Id_tbl.create 64 in
  TupleMap.iter
    (fun tb eb ->
      let key = tb.(0) in
      let rest = Array.sub tb 1 (Array.length tb - 1) in
      let cur = Option.value ~default:[] (Id_tbl.find_opt by_first key) in
      Id_tbl.replace by_first key ((rest, eb) :: cur))
    b.cells;
  let disjuncts : C.t list TupleMap.t ref = ref TupleMap.empty in
  TupleMap.iter
    (fun ta ea ->
      let la = Array.length ta in
      let key = ta.(la - 1) in
      let prefix = Array.sub ta 0 (la - 1) in
      match Id_tbl.find_opt by_first key with
      | None -> ()
      | Some matches ->
        List.iter
          (fun (rest, eb) ->
            let n = C.and_ t.builder [ ea; eb ] in
            if not (C.is_false n) then begin
              let tuple = Rel.Tuple.concat prefix rest in
              let cur = Option.value ~default:[] (TupleMap.find_opt tuple !disjuncts) in
              disjuncts := TupleMap.add tuple (n :: cur) !disjuncts
            end)
          matches)
    a.cells;
  let cells =
    TupleMap.fold
      (fun tuple ds acc ->
        let n = C.or_ t.builder ds in
        if C.is_false n then acc else TupleMap.add tuple n acc)
      !disjuncts TupleMap.empty
  in
  { m_arity = a.m_arity + b.m_arity - 2; cells }

let mat_transpose a =
  if a.m_arity <> 2 then error "transpose of non-binary relation";
  {
    a with
    cells =
      TupleMap.fold
        (fun tu e acc -> TupleMap.add [| tu.(1); tu.(0) |] e acc)
        a.cells TupleMap.empty;
  }

(* Transitive closure by iterated squaring: n squarings suffice for
   paths of length <= 2^n >= |universe|. *)
let mat_closure t universe a =
  if a.m_arity <> 2 then error "closure of non-binary relation";
  let n = Rel.Universe.size universe in
  let steps =
    let rec go k pow = if pow >= n then k else go (k + 1) (2 * pow) in
    go 0 1
  in
  let rec iterate m k =
    if k = 0 then m else iterate (mat_union t m (mat_join t m m)) (k - 1)
  in
  iterate a steps

let mat_iden t universe =
  let n = Rel.Universe.size universe in
  let cells = ref TupleMap.empty in
  for i = 0 to n - 1 do
    cells := TupleMap.add [| i; i |] (C.tru t.builder) !cells
  done;
  { m_arity = 2; cells = !cells }

let mat_univ t universe =
  let n = Rel.Universe.size universe in
  let cells = ref TupleMap.empty in
  for i = 0 to n - 1 do
    cells := TupleMap.add [| i |] (C.tru t.builder) !cells
  done;
  { m_arity = 1; cells = !cells }

type env = int Ident.Map.t

let m_memo_hits = Obs.Metrics.counter "relog.memo_hits"
let m_memo_misses = Obs.Metrics.counter "relog.memo_misses"
let m_delta = Obs.Metrics.counter "relog.delta_retranslations"

(* Environment restricted to the node's free variables, as an id/value
   alternation ([Ident.Set.fold] runs in increasing element order, so
   the key is canonical). Unbound variables are skipped: lowering
   raises on them before anything is memoized. *)
let project (env : env) fvs =
  Ident.Set.fold
    (fun v acc ->
      match Ident.Map.find_opt v env with
      | Some i -> Ident.hash v :: i :: acc
      | None -> acc)
    fvs []

let rec expr t (env : env) (e : Hc.expr) : matrix =
  let universe = Bounds.universe t.bnds in
  match e.Hc.e_view with
  (* Leaves are cheaper to rebuild than to memo. *)
  | Hc.Rel r -> matrix_of_rel t r
  | Hc.Var v -> (
    match Ident.Map.find_opt v env with
    | Some idx ->
      { m_arity = 1; cells = TupleMap.singleton [| idx |] (C.tru t.builder) }
    | None -> error "unbound variable %s" (Ident.name v))
  | Hc.Atom a -> (
    match Rel.Universe.index universe a with
    | idx -> { m_arity = 1; cells = TupleMap.singleton [| idx |] (C.tru t.builder) }
    | exception Not_found -> error "unknown atom %s" (Ident.name a))
  | Hc.None_ -> { m_arity = 1; cells = TupleMap.empty }
  | _ -> (
    let key = (e.Hc.e_id, project env e.Hc.e_free_vars) in
    match Memo.find_opt t.e_memo key with
    | Some m ->
      t.hits <- t.hits + 1;
      m
    | None ->
      t.misses <- t.misses + 1;
      let m =
        match e.Hc.e_view with
        | Hc.Rel _ | Hc.Var _ | Hc.Atom _ | Hc.None_ -> assert false
        | Hc.Univ -> mat_univ t universe
        | Hc.Iden -> mat_iden t universe
        | Hc.Union (a, b) -> mat_union t (expr t env a) (expr t env b)
        | Hc.Inter (a, b) -> mat_inter t (expr t env a) (expr t env b)
        | Hc.Diff (a, b) -> mat_diff t (expr t env a) (expr t env b)
        | Hc.Join (a, b) -> mat_join t (expr t env a) (expr t env b)
        | Hc.Product (a, b) -> mat_product t (expr t env a) (expr t env b)
        | Hc.Transpose a -> mat_transpose (expr t env a)
        | Hc.Closure a -> mat_closure t universe (expr t env a)
        | Hc.RClosure a ->
          mat_union t (mat_closure t universe (expr t env a)) (mat_iden t universe)
      in
      Memo.replace t.e_memo key m;
      Id_tbl.replace t.e_nodes e.Hc.e_id e;
      m)

let subset_circuit t mx my =
  let b = t.builder in
  let conjuncts =
    TupleMap.fold
      (fun tuple ex acc ->
        let ey = Option.value ~default:(C.fls b) (cell my tuple) in
        C.implies b ex ey :: acc)
      mx.cells []
  in
  C.and_ b conjuncts

let some_circuit t mx =
  C.or_ t.builder (TupleMap.fold (fun _ e acc -> e :: acc) mx.cells [])

let lone_circuit t mx =
  let b = t.builder in
  let entries = TupleMap.fold (fun _ e acc -> e :: acc) mx.cells [] in
  let rec pairs = function
    | [] -> []
    | e :: rest -> List.map (fun e' -> C.not_ b (C.and_ b [ e; e' ])) rest @ pairs rest
  in
  C.and_ b (pairs entries)

let rec formula t (env : env) (f : Hc.formula) : C.t =
  let b = t.builder in
  match f.Hc.f_view with
  | Hc.True -> C.tru b
  | Hc.False -> C.fls b
  | _ -> (
    let key = (f.Hc.f_id, project env f.Hc.f_free_vars) in
    match Memo.find_opt t.f_memo key with
    | Some n ->
      t.hits <- t.hits + 1;
      n
    | None ->
      t.misses <- t.misses + 1;
      let n =
        match f.Hc.f_view with
        | Hc.True | Hc.False -> assert false
        | Hc.Subset (x, y) -> subset_circuit t (expr t env x) (expr t env y)
        | Hc.Equal (x, y) ->
          let mx = expr t env x and my = expr t env y in
          C.and_ b [ subset_circuit t mx my; subset_circuit t my mx ]
        | Hc.Some_ x -> some_circuit t (expr t env x)
        | Hc.No x -> C.not_ b (some_circuit t (expr t env x))
        | Hc.Lone x -> lone_circuit t (expr t env x)
        | Hc.One x ->
          let mx = expr t env x in
          C.and_ b [ some_circuit t mx; lone_circuit t mx ]
        | Hc.Not g -> C.not_ b (formula t env g)
        | Hc.And fs -> C.and_ b (List.map (formula t env) fs)
        | Hc.Or fs -> C.or_ b (List.map (formula t env) fs)
        | Hc.Implies (x, y) -> C.implies b (formula t env x) (formula t env y)
        | Hc.Iff (x, y) -> C.iff b (formula t env x) (formula t env y)
        | Hc.Forall (decls, body) -> quantify t env decls body ~universal:true
        | Hc.Exists (decls, body) -> quantify t env decls body ~universal:false
      in
      Memo.replace t.f_memo key n;
      Id_tbl.replace t.f_nodes f.Hc.f_id f;
      n)

and quantify t env decls body ~universal =
  let b = t.builder in
  match decls with
  | [] -> formula t env body
  | (v, dom) :: rest ->
    let md = expr t env dom in
    if md.m_arity <> 1 && not (TupleMap.is_empty md.cells) then
      error "quantifier domain for %s not unary" (Ident.name v);
    let branches =
      TupleMap.fold
        (fun tuple guard acc ->
          let env = Ident.Map.add v tuple.(0) env in
          let inner = quantify t env rest body ~universal in
          let branch =
            if universal then C.implies b guard inner
            else C.and_ b [ guard; inner ]
          in
          branch :: acc)
        md.cells []
    in
    if universal then C.and_ b branches else C.or_ b branches

(* ------------------------------------------------------------------ *)
(* Delta rebinding                                                     *)

(* Re-bound the context. Matrices of changed relations are dropped
   (rebuilt on demand against the new bounds, reusing the persistent
   primary variables for unchanged tuples), and memo entries are
   invalidated exactly when their node mentions a changed relation —
   or depends on the universe, if that changed. Unchanged entries
   survive: this is what makes session retranslation proportional to
   the edit, not the problem.

   Soundness: a memo entry's circuit depends only on (a) the matrices
   of the relations below the node — invalidated when any of them
   changed; (b) the universe indices of atoms below it — stable
   because rebinding requires prefix-compatible universes (else
   everything, including the index-keyed primary registry, is
   cleared); (c) the universe size for Univ/Iden/(R)Closure nodes —
   invalidated via the precomputed [e_univ]/[f_univ] flag. *)
let rebind t bnds' =
  let old = t.bnds in
  if not (Bounds.universe_compatible old bnds') then begin
    (* Unrelated universes: atom indices changed meaning; nothing
       index-keyed survives. *)
    Rel_tbl.reset t.rel_matrices;
    Memo.reset t.e_memo;
    Memo.reset t.f_memo;
    Id_tbl.reset t.e_nodes;
    Id_tbl.reset t.f_nodes;
    Hashtbl.reset t.primaries;
    t.bnds <- bnds';
    List.length (Bounds.relations bnds')
  end
  else begin
    let changed = Bounds.diff old bnds' in
    let changed_set = List.fold_left (fun s r -> Ident.Set.add r s) Ident.Set.empty changed in
    let univ_changed = not (Bounds.same_universe old bnds') in
    List.iter (Rel_tbl.remove t.rel_matrices) changed;
    let dead rels uses_univ =
      (univ_changed && uses_univ)
      || (not (Ident.Set.is_empty changed_set)
         && Ident.Set.exists (fun r -> Ident.Set.mem r changed_set) rels)
    in
    Memo.filter_map_inplace
      (fun (id, _) m ->
        match Id_tbl.find_opt t.e_nodes id with
        | Some e -> if dead e.Hc.e_rels e.Hc.e_univ then None else Some m
        | None -> None)
      t.e_memo;
    Memo.filter_map_inplace
      (fun (id, _) n ->
        match Id_tbl.find_opt t.f_nodes id with
        | Some f -> if dead f.Hc.f_rels f.Hc.f_univ then None else Some n
        | None -> None)
      t.f_memo;
    t.bnds <- bnds';
    Obs.Metrics.add m_delta (List.length changed);
    List.length changed
  end

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)

(* Per-translation figures accumulate in [translate_span] (reported by
   [stats]); the registry histogram aggregates the same work
   process-wide for [Obs.Metrics.dump]. *)
let h_translate = Obs.Metrics.histogram "relog.translate_s"
let m_relations = Obs.Metrics.counter "relog.relations_materialized"
let m_formulas = Obs.Metrics.counter "relog.formulas_translated"

let timed t f =
  let t0 = Sat.Telemetry.now () in
  Fun.protect
    ~finally:(fun () ->
      let dt = Sat.Telemetry.now () -. t0 in
      Sat.Telemetry.record t.translate_span dt;
      Obs.Metrics.observe h_translate dt)
    f

let flush_memo_counts t =
  Obs.Metrics.add m_memo_hits t.hits;
  Obs.Metrics.add m_memo_misses t.misses;
  t.hits <- 0;
  t.misses <- 0

(* Import, simplify (both memoized in the store) and lower to a
   circuit. The [translate.lower] span covers circuit construction;
   CNF emission is separate ([translate.cnf]) so traces show where
   the wall went. *)
let lower t f =
  Obs.Trace.with_span ~name:"translate.lower" (fun () ->
      Fun.protect
        ~finally:(fun () -> flush_memo_counts t)
        (fun () ->
          let hf = Simplify.hc_formula t.store (Hc.of_ast t.store f) in
          formula t Ident.Map.empty hf))

let assert_formula t f =
  Obs.Metrics.incr m_formulas;
  Obs.Trace.with_span ~name:"translate.formula" (fun () ->
      timed t (fun () ->
          let node = lower t f in
          Obs.Trace.with_span ~name:"translate.cnf" (fun () ->
              Sat.Tseitin.assert_true t.tseitin node)))

let formula_lit t f =
  Obs.Metrics.incr m_formulas;
  Obs.Trace.with_span ~name:"translate.formula" (fun () ->
      timed t (fun () ->
          let node = lower t f in
          Obs.Trace.with_span ~name:"translate.cnf" (fun () ->
              Sat.Tseitin.lit_of t.tseitin node)))

let primary_var t r tuple = Hashtbl.find_opt t.primaries (r, tuple)

let materialize t r =
  Obs.Metrics.incr m_relations;
  Obs.Trace.with_span ~name:"translate.materialize"
    ~args:(fun () -> [ ("relation", Obs.Json.String (Ident.name r)) ])
    (fun () -> timed t (fun () -> ignore (matrix_of_rel t r)))

(* Live primaries only: the registry persists across [rebind]s, so it
   is filtered down to materialized relations and tuples optional
   under the *current* bounds — the same set a fresh translation
   would register. *)
let fold_primaries t f acc =
  Hashtbl.fold
    (fun (r, tuple) v acc ->
      if not (Rel_tbl.mem t.rel_matrices r) then acc
      else
        match Bounds.get t.bnds r with
        | Some (lower, upper) when TS.mem tuple upper && not (TS.mem tuple lower)
          -> f r tuple v acc
        | _ -> acc)
    t.primaries acc

let decode_with t value_of =
  let inst = Instance.make (Bounds.universe t.bnds) in
  List.fold_left
    (fun inst r ->
      let lower, upper = Option.get (Bounds.get t.bnds r) in
      let value =
        TS.fold
          (fun tuple acc ->
            if TS.mem tuple lower then TS.union acc (TS.singleton tuple)
            else
              match primary_var t r tuple with
              | Some v when value_of v -> TS.union acc (TS.singleton tuple)
              | Some _ | None -> acc)
          upper TS.empty
      in
      Instance.set inst r value)
    inst (Bounds.relations t.bnds)

let decode t = decode_with t (Sat.Solver.value t.sat)

type stats = {
  primary_vars : int;
  vars : int;
  clauses : int;
  relations : int;
  formulas : int;
  translate_time : float;
}

let stats t =
  {
    primary_vars = Hashtbl.length t.primaries;
    vars = Sat.Solver.nb_vars t.sat;
    clauses = Sat.Solver.nb_clauses t.sat;
    relations = Rel_tbl.length t.rel_matrices;
    formulas = Sat.Telemetry.events t.translate_span;
    translate_time = Sat.Telemetry.seconds t.translate_span;
  }

let pp_stats ppf st =
  Format.fprintf ppf
    "@[<h>%d vars (%d primary); %d clauses; %d relations materialized; \
     translation %.3f ms@]"
    st.vars st.primary_vars st.clauses st.relations
    (st.translate_time *. 1000.)
