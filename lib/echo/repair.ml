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

type success = {
  repaired : (Mdl.Ident.t * Mdl.Model.t) list;
  relational_distance : int;
  edit_distance : int;
  iterations : int;
  stats : Telemetry.t;
}

type outcome =
  | Repaired of success
  | Cannot_restore

(* Shared setup of the iterative search: finder, totalizer over the
   change literals, and the telemetry accumulators. *)
type search = {
  finder : Relog.Finder.t;
  card : Sat.Cardinality.t;
  total : int;  (* total weight = totalizer input count = ladder cap *)
  started : float;
  mutable iterations : int;
  mutable blocked : int;  (* non-conformant instances excluded *)
  mutable levels : (int * int) list;  (* (distance, solver calls), reversed *)
}

let start space =
  let finder =
    Obs.Trace.with_span ~name:"repair.prepare" (fun () ->
        Relog.Finder.prepare (Space.bounds space) (Space.formulas space))
  in
  if Space.use_sbp space then
    ignore
      (Obs.Trace.with_span ~name:"repair.symmetry" (fun () ->
           Relog.Finder.add_symmetry
             ~fixed:(Space.symmetry_fixed space)
             ~respect:(Space.symmetry_respect space)
             finder));
  let trans = Relog.Finder.translation finder in
  let changes = Space.change_literals space trans in
  let inputs = List.concat_map (fun (l, w) -> List.init w (fun _ -> l)) changes in
  let card =
    Obs.Trace.with_span ~name:"cnf.cardinality"
      ~args:(fun () -> [ ("inputs", Obs.Json.Int (List.length inputs)) ])
      (fun () -> Sat.Cardinality.build (Relog.Finder.solver finder) inputs)
  in
  Obs.Metrics.incr m_runs;
  {
    finder;
    card;
    total = List.length inputs;
    started = Obs.Clock.now ();
    iterations = 0;
    blocked = 0;
    levels = [];
  }

let step sc k =
  sc.iterations <- sc.iterations + 1;
  Obs.Metrics.incr m_iterations;
  (sc.levels <-
     (match sc.levels with
     | (k', n) :: rest when k' = k -> (k', n + 1) :: rest
     | levels -> (k, 1) :: levels));
  let assumptions = Sat.Cardinality.at_most sc.card k in
  Obs.Trace.with_span ~name:"solve"
    ~args:(fun () ->
      [
        ("backend", Obs.Json.String "iterative");
        ("distance", Obs.Json.Int k);
        ("assumptions", Obs.Json.Int (List.length assumptions));
      ])
    (fun () -> Relog.Finder.solve ~assumptions sc.finder)

(* The decoded model failed full conformance (the encoding
   approximates multiplicity lower bounds > 1). *)
let note_blocked sc =
  sc.blocked <- sc.blocked + 1;
  Obs.Metrics.incr m_blocked

let telemetry sc =
  let fs = Relog.Finder.stats sc.finder in
  let total = Obs.Clock.now () -. sc.started in
  Obs.Metrics.observe h_run_wall total;
  {
    Telemetry.backend = "iterative";
    translation = fs.Relog.Finder.translation;
    solver = fs.Relog.Finder.solver;
    solver_calls = fs.Relog.Finder.solves;
    solve_time = fs.Relog.Finder.solve_time;
    distance_levels = List.rev sc.levels;
    blocked_nonconformant = sc.blocked;
    cardinality_inputs = sc.total;
    cardinality_aux_vars = Sat.Cardinality.aux_vars sc.card;
    cardinality_clauses = Sat.Cardinality.aux_clauses sc.card;
    cardinality_saved_vars = Sat.Cardinality.saved_vars sc.card;
    cardinality_saved_clauses = Sat.Cardinality.saved_clauses sc.card;
    total_time = total;
  }

let success sc space inst repaired =
  {
    repaired;
    relational_distance = Space.relational_distance space inst;
    edit_distance = Space.edit_distance space repaired;
    iterations = sc.iterations;
    stats = telemetry sc;
  }

(* Translation failures of ill-formed input surface as [Error]. *)
let guarded f =
  try f () with
  | Relog.Translate.Unsupported msg -> Error msg
  | Invalid_argument msg -> Error msg

let run space =
  guarded @@ fun () ->
  let sc = start space in
  let rec at_distance k =
    if k > sc.total then Ok Cannot_restore
    else
      match step sc k with
      | Relog.Finder.Unsat -> at_distance (k + 1)
      | Relog.Finder.Sat inst -> (
        match Space.decode_targets space inst with
        | Ok repaired -> Ok (Repaired (success sc space inst repaired))
        | Error _ ->
          (* Exclude the non-conformant instance and keep searching at
             the same distance. *)
          note_blocked sc;
          Relog.Finder.block sc.finder;
          at_distance k)
  in
  at_distance 0

(* ------------------------------------------------------------------ *)
(* Enumeration                                                          *)

(* Canonical serialization of a repair, used both as the dedup key and
   as the deterministic result order of [run_all]. *)
let repair_key repaired =
  String.concat "\x00"
    (List.map
       (fun (p, m) -> Mdl.Ident.name p ^ "\x01" ^ Mdl.Serialize.model_to_string m)
       repaired)

(* Distinct SAT assignments can decode to identical models (e.g.
   symmetric uses of slack atoms not covered by the symmetry chain);
   deduplicate on a canonical serialization of the decoded states,
   hashed — not pairwise Model.equal over all seen keys. *)
let dedup repairs =
  let seen = Hashtbl.create 16 in
  List.filter
    (fun (r : success) ->
      let key = repair_key r.repaired in
      if Hashtbl.mem seen key then begin
        Obs.Metrics.incr m_dedup_discards;
        false
      end
      else begin
        Hashtbl.add seen key ();
        true
      end)
    repairs

(* Deterministic result order, independent of discovery order: sort on
   the canonical serialization. *)
let canonical_sort repairs =
  List.sort
    (fun (a : success) (b : success) ->
      String.compare (repair_key a.repaired) (repair_key b.repaired))
    repairs

let run_all ?(limit = 16) space =
  (* Below 1 the collector would stop before its first solve at every
     rung and climb to a false [Cannot_restore]. *)
  if limit < 1 then
    Error (Printf.sprintf "Repair.run_all: limit must be at least 1 (got %d)" limit)
  else
    guarded @@ fun () ->
    let sc = start space in
    (* Collect every (conformant) instance at distance k; [n] carries
       the count so the limit check is O(1) per iteration. *)
    let collect_at k =
      let rec go acc n =
        if n >= limit then List.rev acc
        else
          match step sc k with
          | Relog.Finder.Unsat -> List.rev acc
          | Relog.Finder.Sat inst -> (
            Relog.Finder.block sc.finder;
            match Space.decode_targets space inst with
            | Error _ ->
              note_blocked sc;
              go acc n
            | Ok repaired -> go (success sc space inst repaired :: acc) (n + 1))
      in
      go [] 0
    in
    let rec at_distance k =
      if k > sc.total then Ok []
      else
        match collect_at k with
        | [] -> at_distance (k + 1)
        | repairs ->
          (* [collect_at] also sees instances strictly below k that
             earlier iterations proved absent, so everything returned
             is at the minimal distance. *)
          let final = telemetry sc in
          Ok
            (List.map
               (fun r -> { r with stats = final })
               (canonical_sort (dedup repairs)))
    in
    at_distance 0
