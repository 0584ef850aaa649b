(* Stack-wide roll-ups (Obs.Metrics registry); per-run figures stay in
   the [search] accumulators below. *)
let m_iterations = Obs.Metrics.counter "echo.repair.iterations"
let m_blocked = Obs.Metrics.counter "echo.repair.blocked_nonconformant"
let m_runs = Obs.Metrics.counter "echo.repair.runs"
let h_run_wall = Obs.Metrics.histogram "echo.repair.wall_s"

(* Canonical-dedup discards: distinct SAT assignments that decoded to
   an already-seen model. The figure the symmetry SBPs exist to
   shrink — test_symmetry compares it with SBPs off and on. *)
let m_dedup_discards = Obs.Metrics.counter "echo.repair.dedup_discards"

type backend =
  | Iterative
  | Maxsat

let backend_name = function Iterative -> "iterative" | Maxsat -> "maxsat"

type success = {
  repaired : (Mdl.Ident.t * Mdl.Model.t) list;
  relational_distance : int;
  edit_distance : int;
  iterations : int;
  stats : Telemetry.t;
}

(* ------------------------------------------------------------------ *)
(* The ladder                                                          *)

(* Canonical serialization of a repair: the dedup key and the
   deterministic menu order. *)
let key models =
  String.concat "\x00"
    (List.map
       (fun (p, m) -> Mdl.Ident.name p ^ "\x01" ^ Mdl.Serialize.model_to_string m)
       models)

let ladder ~limit ~from ~first ~total ~solve ~block ~decode ~models =
  if limit < 1 then invalid_arg "Repair.ladder: limit must be at least 1";
  (* Every distinct conformant repair at distance k, up to [limit],
     starting from the outcome [next] (the rung's first solve, or the
     model the caller already found there). Rejected and duplicate
     instances are blocked without counting; the last repair that
     fills the menu is not blocked, since nothing is solved after it.
     A key is serialized only when it is compared, so a [~limit:1] run
     serializes nothing. *)
  let collect_at k next =
    let seen = Hashtbl.create 16 in
    let rec go next acc n =
      match next with
      | Relog.Finder.Unsat -> acc
      | Relog.Finder.Sat inst -> (
        match decode inst with
        | Error _ ->
          block ();
          go (solve k) acc n
        | Ok r ->
          let id = lazy (key (models r)) in
          if n > 0 && Hashtbl.mem seen (Lazy.force id) then begin
            Obs.Metrics.incr m_dedup_discards;
            block ();
            go (solve k) acc n
          end
          else if n + 1 >= limit then (id, r) :: acc
          else begin
            Hashtbl.add seen (Lazy.force id) ();
            block ();
            go (solve k) ((id, r) :: acc) (n + 1)
          end)
    in
    go next [] 0
  in
  (* [collect_at k] also sees instances strictly below k, which the
     caller proved absent below [from] and earlier rungs above it, so
     everything it returns is minimal. *)
  let rec at_distance k first =
    if k > total then []
    else
      let next = match first with Some inst -> Relog.Finder.Sat inst | None -> solve k in
      match collect_at k next with
      | [] -> at_distance (k + 1) None
      | found ->
        List.sort (fun (a, _) (b, _) -> String.compare (Lazy.force a) (Lazy.force b)) found
        |> List.map snd
  in
  at_distance from first

(* ------------------------------------------------------------------ *)
(* One-shot runs                                                       *)

(* Shared setup of both rung orders: finder, symmetry guard,
   totalizer over the change literals, and the telemetry
   accumulators. *)
type search = {
  backend : backend;
  finder : Relog.Finder.t;
  sbp_guard : Sat.Lit.t list;  (* assumed first by every solve *)
  changes : (Sat.Lit.t * int) list;  (* change literals and their weights *)
  card : Sat.Cardinality.t;
  total : int;  (* total weight = totalizer input count = ladder cap *)
  started : float;
  mutable iterations : int;
  mutable blocked : int;  (* non-conformant instances excluded *)
  mutable levels : (int * int) list;  (* (distance, solver calls), reversed *)
}

let start backend space =
  let finder =
    Obs.Trace.with_span ~name:"repair.prepare" (fun () ->
        Relog.Finder.prepare (Space.bounds space) (Space.formulas space))
  in
  let trans = Relog.Finder.translation finder in
  (* The lex-leader predicates hang off one guard, assumed first: a
     stable assumption prefix keeps the solver's trail-reuse fast
     path. *)
  let sbp_guard =
    if not (Space.use_sbp space) then []
    else
      Obs.Trace.with_span ~name:"repair.symmetry" (fun () ->
          let orbits = Space.sbp_orbits space in
          let g = Sat.Lit.pos (Sat.Solver.new_var (Relog.Finder.solver finder)) in
          ignore (Relog.Symmetry.break ~guard:g trans orbits : int);
          [ g ])
  in
  let changes = Space.change_literals space trans in
  let inputs = List.concat_map (fun (l, w) -> List.init w (fun _ -> l)) changes in
  let card =
    Obs.Trace.with_span ~name:"cnf.cardinality"
      ~args:(fun () -> [ ("inputs", Obs.Json.Int (List.length inputs)) ])
      (fun () -> Sat.Cardinality.build (Relog.Finder.solver finder) inputs)
  in
  Obs.Metrics.incr m_runs;
  {
    backend;
    finder;
    sbp_guard;
    changes;
    card;
    total = List.length inputs;
    started = Obs.Clock.now ();
    iterations = 0;
    blocked = 0;
    levels = [];
  }

(* One solve, counted at distance bound [k]. *)
let solve_at sc k assumptions =
  sc.iterations <- sc.iterations + 1;
  Obs.Metrics.incr m_iterations;
  (sc.levels <-
     (match sc.levels with
     | (k', n) :: rest when k' = k -> (k', n + 1) :: rest
     | levels -> (k, 1) :: levels));
  Obs.Trace.with_span ~name:"solve"
    ~args:(fun () ->
      [
        ("backend", Obs.Json.String (backend_name sc.backend));
        ("distance", Obs.Json.Int k);
        ("assumptions", Obs.Json.Int (List.length assumptions));
      ])
    (fun () -> Relog.Finder.solve ~assumptions sc.finder)

(* A rung: distance at most [k]. *)
let step sc k = solve_at sc k (sc.sbp_guard @ Sat.Cardinality.at_most sc.card k)

let telemetry sc =
  let fs = Relog.Finder.stats sc.finder in
  let total = Obs.Clock.now () -. sc.started in
  Obs.Metrics.observe h_run_wall total;
  {
    Telemetry.backend = backend_name sc.backend;
    translation = fs.Relog.Finder.translation;
    solver = fs.Relog.Finder.solver;
    solver_calls = fs.Relog.Finder.solves;
    solve_time = fs.Relog.Finder.solve_time;
    distance_levels = List.rev sc.levels;
    blocked_nonconformant = sc.blocked;
    cardinality_inputs = sc.total;
    cardinality_aux_vars = Sat.Cardinality.aux_vars sc.card;
    cardinality_clauses = Sat.Cardinality.aux_clauses sc.card;
    total_time = total;
  }

(* FASE'14's rung order, a linear SAT-UNSAT search: one solve with no
   bound, then one just below each model's distance until a solve is
   UNSAT. The rung above it is the optimum, where the ladder starts;
   [None] when even the unbounded solve is UNSAT. A model within bound
   [d - 1] is at distance at most [d - 1] (its true change literals),
   and the [min] keeps the descent strict by construction. Models met
   on the way down are not decoded: the ladder finds its repairs at
   the optimum itself. *)
let descend space sc =
  let rec tighten d =
    if d = 0 then Some 0
    else
      match step sc (d - 1) with
      | Relog.Finder.Unsat -> Some d
      | Relog.Finder.Sat inst ->
        tighten (min (d - 1) (Space.relational_distance space inst))
  in
  match step sc sc.total with
  | Relog.Finder.Unsat -> None
  | Relog.Finder.Sat inst -> tighten (Space.relational_distance space inst)

(* A soft assumption of [lower_bound]: a negated change literal, or
   the bound [at_most t b] of a core totalizer [t]. *)
type soft = {
  id : int;  (* creation order *)
  lit : Sat.Lit.t;
  mutable weight : int;  (* 0 once spent on cores *)
  sum : (Sat.Cardinality.t * int) option;  (* [(t, b)] for a totalizer bound *)
}

module Live = Map.Make (Int)

(* The iterative order's start, core-guided (OLL, Morgado, Dodaro and
   Marques-Silva, CP 2014, with the weight splitting of RC2): solve
   under the SBP guard and every soft assumption, first "nothing
   changes". An UNSAT core of least weight [m] raises the bound by
   [m]; its heavier literals stay soft at the rest of their weight, a
   totalizer over its negated literals relaxes it (bound 1, weight
   [m]), and each totalizer bound in it adds weight [m] to the next
   bound of its totalizer. Every model has distance at least the
   bound, so the first SAT model, which satisfies every soft
   assumption, is at the optimum: [Some (bound, model)]. [None] when a
   core holds no soft assumption (the guard alone never excludes
   every model), i.e. nothing restores consistency. The assumptions
   are the softs of positive weight in creation order; a spent soft
   leaves [live], and returns to its place if a later core adds
   weight to it, so each solve's list walks only the live softs. *)
let lower_bound sc =
  let solver = Relog.Finder.solver sc.finder in
  let softs = Hashtbl.create 64 in
  let live = ref Live.empty in
  let add lit weight sum =
    let s =
      match Hashtbl.find_opt softs lit with
      | Some s -> s
      | None ->
        let s = { id = Hashtbl.length softs; lit; weight = 0; sum } in
        Hashtbl.add softs lit s;
        s
    in
    s.weight <- s.weight + weight;
    if s.weight > 0 then live := Live.add s.id s !live
  in
  let relax t b weight =
    List.iter (fun l -> add l weight (Some (t, b))) (Sat.Cardinality.at_most t b)
  in
  List.iter (fun (l, w) -> add (Sat.Lit.neg l) w None) sc.changes;
  let rec go bound =
    let assumptions =
      Live.fold (fun _ s acc -> s.lit :: acc) !live [] |> List.rev
    in
    match solve_at sc bound (sc.sbp_guard @ assumptions) with
    | Relog.Finder.Sat inst -> Some (bound, inst)
    | Relog.Finder.Unsat -> (
      match List.filter_map (Hashtbl.find_opt softs) (Sat.Solver.unsat_core solver) with
      | [] -> None
      | core ->
        let m = List.fold_left (fun m s -> min m s.weight) max_int core in
        List.iter
          (fun s ->
            s.weight <- s.weight - m;
            if s.weight <= 0 then live := Live.remove s.id !live;
            Option.iter (fun (t, b) -> relax t (b + 1) m) s.sum)
          core;
        if List.compare_length_with core 1 > 0 then begin
          let inputs = List.map (fun s -> Sat.Lit.neg s.lit) core in
          let t =
            Obs.Trace.with_span ~name:"cnf.cardinality"
              ~args:(fun () -> [ ("inputs", Obs.Json.Int (List.length inputs)) ])
              (fun () -> Sat.Cardinality.build solver inputs)
          in
          relax t 1 m
        end;
        go (bound + m))
  in
  go 0

let run_all ?(backend = Iterative) ?(limit = 16) space =
  (* Below 1 the collector would stop before its first solve at every
     rung and climb to a false [Cannot_restore]. *)
  if limit < 1 then
    Error (Printf.sprintf "Repair.run_all: limit must be at least 1 (got %d)" limit)
  else
    (* Translation failures of ill-formed input surface as [Error]. *)
    try
      let sc = start backend space in
      let optimum =
        match backend with
        | Iterative -> Option.map (fun (d, inst) -> (d, Some inst)) (lower_bound sc)
        | Maxsat -> Option.map (fun d -> (d, None)) (descend space sc)
      in
      let found =
        match optimum with
        | None -> []
        | Some (from, first) ->
          ladder ~limit ~from ~first ~total:sc.total ~solve:(step sc)
            ~block:(fun () -> Relog.Finder.block sc.finder)
            ~decode:(fun inst ->
              match Space.decode_targets space inst with
              | Ok repaired -> Ok (inst, repaired, sc.iterations)
              | Error e ->
                (* The decoded model failed full conformance (the
                   encoding approximates multiplicity lower bounds
                   > 1). *)
                sc.blocked <- sc.blocked + 1;
                Obs.Metrics.incr m_blocked;
                Error e)
            ~models:(fun (_, repaired, _) -> repaired)
      in
      let stats = telemetry sc in
      Ok
        ( List.map
            (fun (inst, repaired, iterations) ->
              {
                repaired;
                relational_distance = Space.relational_distance space inst;
                edit_distance = Space.edit_distance space repaired;
                iterations;
                stats;
              })
            found,
          stats )
    with
    | Relog.Translate.Unsupported msg -> Error msg
    | Invalid_argument msg -> Error msg
