(* Stack-wide roll-ups (Obs.Metrics registry); per-run figures stay in
   the [search] accumulators below. *)
let m_iterations = Obs.Metrics.counter "echo.repair.iterations"
let m_blocked = Obs.Metrics.counter "echo.repair.blocked_nonconformant"
let m_runs = Obs.Metrics.counter "echo.repair.runs"
let h_run_wall = Obs.Metrics.histogram "echo.repair.wall_s"

(* Adaptive enumeration sharding: cubes split when measured as
   overweight (see [run_all_parallel]); the histogram records the wall
   time each dequeued cube actually cost, which is the measurement the
   splitting acts on. *)
let m_cube_splits = Obs.Metrics.counter "echo.repair.cube_splits"
let h_cube_wall = Obs.Metrics.histogram "echo.repair.cube_wall_s"

(* Canonical-dedup discards: distinct SAT assignments that decoded to
   an already-seen model. The figure the symmetry SBPs exist to
   shrink — test_symmetry compares it with SBPs off and on. *)
let m_dedup_discards = Obs.Metrics.counter "echo.repair.dedup_discards"

let span_args ~backend ~distance ~assumptions () =
  [
    ("backend", Obs.Json.String backend);
    ("distance", Obs.Json.Int distance);
    ("assumptions", Obs.Json.Int assumptions);
  ]

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
   change literals, and the telemetry accumulators. The counters are
   atomics so worker domains may bump them concurrently. *)
type search = {
  finder : Relog.Finder.t;
  card : Sat.Cardinality.t;
  total : int;  (* total weight = totalizer input count *)
  started : float;
  iterations : int Atomic.t;
  blocked : int Atomic.t;  (* non-conformant instances excluded *)
  mutable levels : (int * int) list;  (* (distance, solver calls), reversed;
                                         serial path only — the parallel
                                         ladder keeps its own table *)
}

let start ?cap space =
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
      (fun () -> Sat.Cardinality.build ?cap (Relog.Finder.solver finder) inputs)
  in
  Obs.Metrics.incr m_runs;
  {
    finder;
    card;
    total = List.length inputs;
    started = Obs.Clock.now ();
    iterations = Atomic.make 0;
    blocked = Atomic.make 0;
    levels = [];
  }

let step sc k =
  Atomic.incr sc.iterations;
  Obs.Metrics.incr m_iterations;
  (sc.levels <-
     (match sc.levels with
     | (k', n) :: rest when k' = k -> (k', n + 1) :: rest
     | levels -> (k, 1) :: levels));
  let assumptions = Sat.Cardinality.at_most sc.card k in
  Obs.Trace.with_span ~name:"solve"
    ~args:
      (span_args ~backend:"iterative" ~distance:k
         ~assumptions:(List.length assumptions))
    (fun () -> Relog.Finder.solve ~assumptions sc.finder)

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

let add_stats a b =
  {
    Sat.Solver.decisions = a.Sat.Solver.decisions + b.Sat.Solver.decisions;
    propagations = a.Sat.Solver.propagations + b.Sat.Solver.propagations;
    conflicts = a.Sat.Solver.conflicts + b.Sat.Solver.conflicts;
    restarts = a.Sat.Solver.restarts + b.Sat.Solver.restarts;
    learnt = a.Sat.Solver.learnt + b.Sat.Solver.learnt;
    reduces = a.Sat.Solver.reduces + b.Sat.Solver.reduces;
    solves = a.Sat.Solver.solves + b.Sat.Solver.solves;
    solve_time = a.Sat.Solver.solve_time +. b.Sat.Solver.solve_time;
  }

let telemetry_of sc ~jobs ~solver ~solver_calls ~solve_time_cpu
    ~solve_time_wall ~levels =
  let fs = Relog.Finder.stats sc.finder in
  let total = Obs.Clock.now () -. sc.started in
  Obs.Metrics.observe h_run_wall total;
  {
    Telemetry.backend = "iterative";
    jobs;
    translation = fs.Relog.Finder.translation;
    solver;
    solver_calls;
    solve_time_cpu;
    solve_time_wall;
    distance_levels = levels;
    blocked_nonconformant = Atomic.get sc.blocked;
    cardinality_inputs = sc.total;
    cardinality_aux_vars = Sat.Cardinality.aux_vars sc.card;
    cardinality_clauses = Sat.Cardinality.aux_clauses sc.card;
    cardinality_saved_vars = Sat.Cardinality.saved_vars sc.card;
    cardinality_saved_clauses = Sat.Cardinality.saved_clauses sc.card;
    total_time = total;
  }

let telemetry ?(jobs = 1) sc =
  let fs = Relog.Finder.stats sc.finder in
  (* Serial search: one domain, so summed solver effort is also the
     elapsed solving time. *)
  telemetry_of sc ~jobs ~solver:fs.Relog.Finder.solver
    ~solver_calls:fs.Relog.Finder.solves
    ~solve_time_cpu:fs.Relog.Finder.solve_time
    ~solve_time_wall:fs.Relog.Finder.solve_time
    ~levels:(List.rev sc.levels)

(* Canonical serialization of a repair, used both as the dedup key and
   as the deterministic result order of [run_all]. *)
let repair_key repaired =
  String.concat "\x00"
    (List.map
       (fun (p, m) -> Mdl.Ident.name p ^ "\x01" ^ Mdl.Serialize.model_to_string m)
       repaired)

(* ------------------------------------------------------------------ *)
(* Parallel ladder                                                      *)

(* Speculative probing of the distance ladder on a shared board.

   Levels [floor+1 .. floor+window] are claimed highest-first by the
   worker domains, each solving its level on a private solver clone.
   Soundness rests on the monotonicity of the level predicate
   "some conformant instance has distance <= k":

   - UNSAT at level l (after blocking only non-conformant instances)
     proves every level <= l conformant-free, so [floor] jumps to l —
     one high probe can retire a whole window, which is also where the
     jobs >= 2 speedup on few-core machines comes from;
   - a conformant witness at distance d improves [best] and makes all
     levels >= d irrelevant.

   Workers holding a now-dead level are interrupted. The search is
   done when [floor >= best - 1]: the committed distance is exactly
   the minimal conformant distance, for every schedule, worker count
   and window width — minimality is decided by level, never by
   arrival order. (The witness model itself may differ between
   schedules when several equally-minimal repairs exist; [run_all]
   is the jobs-invariant enumeration of all of them.) *)

type probe = {
  p_repaired : (Mdl.Ident.t * Mdl.Model.t) list;
  p_edit : int;
}

type board = {
  bmu : Mutex.t;
  mutable floor : int;  (* all levels <= floor proven conformant-free *)
  mutable best : (int * probe) option;  (* least witnessed distance *)
  claimed : (int, unit) Hashtbl.t;
  active : int option array;  (* worker -> level being solved *)
  clones : Sat.Solver.t option array;
  level_counts : (int, int) Hashtbl.t;
  mutable aborted : bool;
}

let block_clone trans clone =
  let clause =
    Relog.Translate.fold_primaries trans
      (fun _ _ v acc ->
        (if Sat.Solver.value clone v then Sat.Lit.neg_of v else Sat.Lit.pos v)
        :: acc)
      []
  in
  Sat.Solver.add_clause clone clause

(* Number of worker domains for a requested parallelism: never more
   than the hardware offers. The speculation window follows this
   count, not the raw [jobs] request: a probe that cannot overlap any
   other work in wall-clock is pure cost (it skips the incremental
   warm-up consecutive levels share), which is precisely how jobs = 4
   once ran slower than jobs = 1 on small boxes (DESIGN.md, "The
   jobs = 4 regression, measured"). The result
   is window-invariant either way. MDQVTR_WORKERS overrides the
   detected core count (tests use it to force a genuinely concurrent
   schedule — speculative probes and adaptive cube splits — on
   single-core CI boxes). When tracing, the explicit budget wins even
   on fewer cores: the schedule being observed (one track per probe
   worker) is the one the user asked for. *)
let hardware_workers () =
  match Sys.getenv_opt "MDQVTR_WORKERS" with
  | Some v -> (
    match int_of_string_opt (String.trim v) with
    | Some n when n >= 1 -> n
    | _ -> Parallel.Pool.default_jobs ())
  | None -> Parallel.Pool.default_jobs ()

let worker_count jobs =
  if Obs.Trace.enabled () then max 1 jobs
  else max 1 (min jobs (hardware_workers ()))

(* Degrade a parallelism request to plain serial execution when it
   could not buy any concurrency anyway:
   - nested parallel region (a run issued from inside a pool worker,
     e.g. the portfolio's iterative lane): oversubscribing the cores
     the enclosing region already owns is pure loss, and blocking on
     nested futures of the same global pool can stall behind the very
     task doing the waiting;
   - a box (or MDQVTR_WORKERS pretence) with a single core: the
     parallel paths would run their one worker through the clone /
     shared-queue machinery for nothing — the serial path reuses the
     incremental finder solver directly and is strictly cheaper.
   Traced runs keep the requested width (worker_count handles it):
   the schedule being observed is the one the user asked for. *)
let effective_jobs jobs =
  if jobs > 1 && (Parallel.Pool.in_worker () || worker_count jobs = 1) then 1
  else jobs

let interrupt_dead_locked board ~self =
  Array.iteri
    (fun i level ->
      if i <> self then
        match (level, board.clones.(i)) with
        | Some l, Some solver ->
          let dead =
            l <= board.floor
            || match board.best with Some (b, _) -> l >= b | None -> false
          in
          if dead then Sat.Solver.interrupt solver
        | _ -> ())
    board.active

let ladder ~window ~cap sc space board wi =
  let trans = Relog.Finder.translation sc.finder in
  let clone = Relog.Finder.clone_solver sc.finder in
  Mutex.lock board.bmu;
  board.clones.(wi) <- Some clone;
  Mutex.unlock board.bmu;
  (* Highest unclaimed level in [floor+1, hi], with bmu held. *)
  let claim_locked () =
    let hi =
      min cap
        (match board.best with
        | Some (b, _) -> b - 1
        | None -> board.floor + window)
    in
    let rec find l =
      if l <= board.floor then None
      else if Hashtbl.mem board.claimed l then find (l - 1)
      else Some l
    in
    find hi
  in
  let rec next () =
    Mutex.lock board.bmu;
    if board.aborted then begin
      board.active.(wi) <- None;
      Mutex.unlock board.bmu;
      raise Parallel.Pool.Cancelled
    end;
    match claim_locked () with
    | None ->
      board.active.(wi) <- None;
      Mutex.unlock board.bmu;
      Sat.Solver.stats clone
    | Some l ->
      Hashtbl.replace board.claimed l ();
      board.active.(wi) <- Some l;
      Mutex.unlock board.bmu;
      solve_level l
  and solve_level l =
    Atomic.incr sc.iterations;
    Obs.Metrics.incr m_iterations;
    Mutex.lock board.bmu;
    Hashtbl.replace board.level_counts l
      (1 + Option.value ~default:0 (Hashtbl.find_opt board.level_counts l));
    Mutex.unlock board.bmu;
    (* Clone solves bypass [Finder.solve]; the SBP guard must ride
       along explicitly (and first, for assumption-prefix reuse). *)
    let assumptions =
      Relog.Finder.sbp_assumptions sc.finder @ Sat.Cardinality.at_most sc.card l
    in
    match
      Obs.Trace.with_span ~name:"solve"
        ~args:
          (span_args ~backend:"iterative" ~distance:l
             ~assumptions:(List.length assumptions))
        (fun () -> Sat.Solver.solve ~assumptions clone)
    with
    | exception Sat.Solver.Interrupted ->
      Mutex.lock board.bmu;
      let abort = board.aborted in
      let dead =
        l <= board.floor
        || match board.best with Some (b, _) -> l >= b | None -> false
      in
      Mutex.unlock board.bmu;
      if abort then raise Parallel.Pool.Cancelled
      else if dead then next ()  (* abandon: the level no longer matters *)
      else solve_level l  (* spurious (stale interrupt): retry *)
    | Sat.Solver.Unsat ->
      (* No conformant instance at any level <= l (monotone skip). *)
      Mutex.lock board.bmu;
      if l > board.floor then board.floor <- l;
      interrupt_dead_locked board ~self:wi;
      Mutex.unlock board.bmu;
      next ()
    | Sat.Solver.Sat -> (
      let inst = Relog.Finder.decode_with sc.finder (Sat.Solver.value clone) in
      match Space.decode_targets space inst with
      | Error _ ->
        Atomic.incr sc.blocked;
        Obs.Metrics.incr m_blocked;
        block_clone trans clone;
        solve_level l
      | Ok repaired ->
        let d = Space.relational_distance space inst in
        let probe =
          { p_repaired = repaired; p_edit = Space.edit_distance space repaired }
        in
        Mutex.lock board.bmu;
        (match board.best with
        | Some (b, _) when b <= d -> ()
        | _ -> board.best <- Some (d, probe));
        interrupt_dead_locked board ~self:wi;
        Mutex.unlock board.bmu;
        next ())
  in
  next ()

(* Run the parallel ladder to the minimal conformant distance.
   Returns the board (with [best]/[floor] final) and the merged
   per-worker solver statistics. *)
let parallel_minimal ~jobs ?token ~cap sc space =
  let nworkers = worker_count jobs in
  let pool = Parallel.Pool.global ~jobs:nworkers in
  let board =
    {
      bmu = Mutex.create ();
      floor = -1;
      best = None;
      claimed = Hashtbl.create 16;
      active = Array.make nworkers None;
      clones = Array.make nworkers None;
      level_counts = Hashtbl.create 16;
      aborted = false;
    }
  in
  Option.iter
    (fun tok ->
      Parallel.Pool.on_cancel tok (fun () ->
          Mutex.lock board.bmu;
          board.aborted <- true;
          Array.iter (Option.iter Sat.Solver.interrupt) board.clones;
          Mutex.unlock board.bmu))
    token;
  let futures =
    List.init nworkers (fun wi ->
        Parallel.Pool.submit pool (fun _ ->
            ladder ~window:nworkers ~cap sc space board wi))
  in
  let results = List.map Parallel.Pool.result futures in
  if board.aborted then Error `Interrupted
  else begin
    (* Re-raise any real worker failure (after all workers joined). *)
    List.iter
      (function
        | Ok _ | Error Parallel.Pool.Cancelled -> ()
        | Error e -> raise e)
      results;
    let stats =
      List.fold_left
        (fun acc -> function Ok st -> add_stats acc st | Error _ -> acc)
        zero_stats results
    in
    let levels =
      List.sort compare
        (Hashtbl.fold (fun l n acc -> (l, n) :: acc) board.level_counts [])
    in
    Ok (board, stats, levels)
  end

let run_parallel ~jobs ?token ~cap sc space =
  let solve_started = Obs.Clock.now () in
  match parallel_minimal ~jobs ?token ~cap sc space with
  | Error `Interrupted -> Error "interrupted"
  | Ok (board, stats, levels) -> (
    let solve_wall = Obs.Clock.now () -. solve_started in
    let tele () =
      telemetry_of sc ~jobs ~solver:stats ~solver_calls:stats.Sat.Solver.solves
        ~solve_time_cpu:stats.Sat.Solver.solve_time ~solve_time_wall:solve_wall
        ~levels
    in
    match board.best with
    | None -> Ok Cannot_restore
    | Some (d, p) ->
      Ok
        (Repaired
           {
             repaired = p.p_repaired;
             relational_distance = d;
             edit_distance = p.p_edit;
             iterations = Atomic.get sc.iterations;
             stats = tele ();
           }))

(* ------------------------------------------------------------------ *)

let run_serial ?token sc ~cap space =
  Option.iter
    (fun tok ->
      Parallel.Pool.on_cancel tok (fun () -> Relog.Finder.interrupt sc.finder))
    token;
  let rec at_distance k =
    if k > cap then Ok Cannot_restore
    else
      match step sc k with
      | Relog.Finder.Unsat -> at_distance (k + 1)
      | Relog.Finder.Sat inst -> (
        match Space.decode_targets space inst with
        | Ok repaired ->
          Ok
            (Repaired
               {
                 repaired;
                 relational_distance = Space.relational_distance space inst;
                 edit_distance = Space.edit_distance space repaired;
                 iterations = Atomic.get sc.iterations;
                 stats = telemetry sc;
               })
        | Error _ ->
          (* The relational instance passed the encoded constraints
             but the decoded model fails full conformance (the
             encoding approximates multiplicity lower bounds > 1):
             exclude it and keep searching at the same distance. *)
          Atomic.incr sc.blocked;
          Obs.Metrics.incr m_blocked;
          Relog.Finder.block sc.finder;
          at_distance k)
  in
  try at_distance 0 with Sat.Solver.Interrupted -> Error "interrupted"

let run ?max_distance ?(jobs = 1) ?token space =
  if jobs < 1 then invalid_arg "Repair.run: jobs must be >= 1";
  let jobs = effective_jobs jobs in
  try
    let sc = start ?cap:max_distance space in
    let cap = Option.value ~default:sc.total max_distance in
    if jobs = 1 then run_serial ?token sc ~cap space
    else run_parallel ~jobs ?token ~cap sc space
  with
  | Relog.Translate.Unsupported msg -> Error msg
  | Invalid_argument msg -> Error msg

(* ------------------------------------------------------------------ *)
(* Enumeration                                                          *)

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

(* Deterministic result order, independent of discovery order (and so
   of the jobs value): sort on the canonical serialization. *)
let canonical_sort repairs =
  List.sort
    (fun (a : success) (b : success) ->
      String.compare (repair_key a.repaired) (repair_key b.repaired))
    repairs

let run_all_serial sc ~cap ~limit space =
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
            Atomic.incr sc.blocked;
            Obs.Metrics.incr m_blocked;
            go acc n
          | Ok repaired ->
            let r =
              {
                repaired;
                relational_distance = Space.relational_distance space inst;
                edit_distance = Space.edit_distance space repaired;
                iterations = Atomic.get sc.iterations;
                stats = telemetry sc;
              }
            in
            go (r :: acc) (n + 1))
    in
    go [] 0
  in
  let rec at_distance k =
    if k > cap then Ok []
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

(* Shard the enumeration at the minimal distance into disjoint cubes:
   sign patterns over a prefix of the change literals partition the
   assignment space, so workers enumerate disjoint subspaces with
   purely local blocking clauses. A worker's full-assignment blocks
   are no-ops in every other cube, and cross-cube duplicates at the
   model level (assignments decoding to the same state) fall to the
   global dedup.

   The sharding is adaptive. Cubes live in a shared queue and their
   cost is measured as they run ([h_cube_wall]): a worker that has
   spent more than [split_after] seconds of wall time inside one cube
   while another worker sits starved (queue empty, parked on the
   condition) splits it — the complementary half-cube (next change
   literal, negated) goes back to the queue and the worker narrows
   its own enumeration to the other half. The static 2^ceil(log2
   jobs) grid is thus only the initial partition; skew — one cube
   holding nearly all the models, the common case when few literals
   distinguish the minimal repairs — is rebalanced exactly where the
   measurements show it. Splitting preserves the result:
   {cube} = {cube ∧ l} ∪ {cube ∧ ¬l}, the narrowed remainder and the
   pushed half are disjoint, and an instance the splitter had already
   collected from the pushed half is blocked only in its own clone —
   the other worker's re-find collapses in the model-level dedup. *)
let run_all_parallel ~jobs ~split_after ~token ~cap ~limit sc space =
  let solve_started = Obs.Clock.now () in
  match parallel_minimal ~jobs ?token ~cap sc space with
  | Error `Interrupted -> Error "interrupted"
  | Ok (board, ladder_stats, levels) -> (
    match board.best with
    | None -> Ok []
    | Some (dstar, _) ->
      let trans = Relog.Finder.translation sc.finder in
      let change_lits =
        Array.of_list (List.map fst (Space.change_literals space trans))
      in
      let nworkers = worker_count jobs in
      let bits =
        let rec go b = if 1 lsl b >= jobs then b else go (b + 1) in
        min (go 0) (Array.length change_lits)
      in
      (* Splits can refine well past the initial grid; bound the depth
         so a degenerate space cannot split forever. *)
      let max_depth = min (Array.length change_lits) (bits + 8) in
      let base =
        Relog.Finder.sbp_assumptions sc.finder
        @ Sat.Cardinality.at_most sc.card dstar
      in
      (* Shared cube queue. [active] counts workers inside a cube and
         [starved] the ones parked waiting for one: the enumeration is
         drained when the queue is empty and nobody is active, and a
         positive [starved] is the signal that splitting pays. *)
      let qmu = Mutex.create () in
      let qcond = Condition.create () in
      let pending = Queue.create () in
      let active = ref 0 in
      let starved = ref 0 in
      for i = 0 to (1 lsl bits) - 1 do
        Queue.add
          (List.init bits (fun b ->
               if i land (1 lsl b) <> 0 then change_lits.(b)
               else Sat.Lit.neg change_lits.(b)))
          pending
      done;
      let enumerate_cubes tok =
        let clone = Relog.Finder.clone_solver sc.finder in
        Parallel.Pool.on_cancel tok (fun () ->
            Sat.Solver.interrupt clone;
            (* also wake anyone parked on the queue so it can observe
               the cancelled token *)
            Mutex.lock qmu;
            Condition.broadcast qcond;
            Mutex.unlock qmu);
        let collected = ref [] in
        (* Next cube, or None when the enumeration is drained; parks
           while other workers are active (they may split and refill
           the queue). *)
        let take () =
          Mutex.lock qmu;
          let rec go () =
            if Parallel.Pool.cancelled tok then begin
              Mutex.unlock qmu;
              raise Parallel.Pool.Cancelled
            end
            else
              match Queue.take_opt pending with
              | Some cube ->
                incr active;
                Mutex.unlock qmu;
                Some cube
              | None ->
                if !active = 0 then begin
                  Mutex.unlock qmu;
                  None
                end
                else begin
                  incr starved;
                  Condition.wait qcond qmu;
                  decr starved;
                  go ()
                end
          in
          go ()
        in
        let finish () =
          Mutex.lock qmu;
          decr active;
          if !active = 0 && Queue.is_empty pending then
            Condition.broadcast qcond;
          Mutex.unlock qmu
        in
        (* Enumerate one cube to exhaustion (or the local limit),
           narrowing it by splits along the way. *)
        let enum_cube cube0 =
          let cube = ref cube0 in
          let depth = ref (List.length cube0) in
          let cube_started = Obs.Clock.now () in
          let segment_started = ref cube_started in
          let n = ref 0 in
          let exhausted = ref false in
          while (not !exhausted) && !n < limit do
            (* Adaptive split: this cube has monopolised its worker
               past the budget while another worker is starved — give
               half away and renew the budget for the narrowed rest. *)
            (if
               !depth < max_depth
               && Obs.Clock.now () -. !segment_started > split_after
             then begin
               let gave =
                 Mutex.lock qmu;
                 let g = !starved > 0 && Queue.is_empty pending in
                 if g then begin
                   Queue.add (Sat.Lit.neg change_lits.(!depth) :: !cube) pending;
                   Condition.signal qcond
                 end;
                 Mutex.unlock qmu;
                 g
               in
               if gave then begin
                 Obs.Metrics.incr m_cube_splits;
                 cube := change_lits.(!depth) :: !cube;
                 incr depth
               end;
               segment_started := Obs.Clock.now ()
             end);
            let assumptions = base @ !cube in
            Atomic.incr sc.iterations;
            Obs.Metrics.incr m_iterations;
            match
              Obs.Trace.with_span ~name:"solve"
                ~args:
                  (span_args ~backend:"enumerate" ~distance:dstar
                     ~assumptions:(List.length assumptions))
                (fun () -> Sat.Solver.solve ~assumptions clone)
            with
            | exception Sat.Solver.Interrupted -> raise Parallel.Pool.Cancelled
            | Sat.Solver.Unsat -> exhausted := true
            | Sat.Solver.Sat -> (
              let inst =
                Relog.Finder.decode_with sc.finder (Sat.Solver.value clone)
              in
              block_clone trans clone;
              match Space.decode_targets space inst with
              | Error _ ->
                Atomic.incr sc.blocked;
                Obs.Metrics.incr m_blocked
              | Ok repaired ->
                let r =
                  {
                    repaired;
                    relational_distance = Space.relational_distance space inst;
                    edit_distance = Space.edit_distance space repaired;
                    iterations = 0;
                    stats = telemetry sc;
                  }
                in
                collected := r :: !collected;
                incr n)
          done;
          Obs.Metrics.observe h_cube_wall (Obs.Clock.now () -. cube_started)
        in
        let rec drain () =
          match take () with
          | None -> (!collected, Sat.Solver.stats clone)
          | Some cube ->
            Fun.protect ~finally:finish (fun () -> enum_cube cube);
            drain ()
        in
        drain ()
      in
      let pool = Parallel.Pool.global ~jobs:nworkers in
      let futures =
        List.init nworkers (fun _ -> Parallel.Pool.submit pool enumerate_cubes)
      in
      (match token with
      | Some tok when Parallel.Pool.cancelled tok ->
        List.iter Parallel.Pool.cancel futures
      | Some tok ->
        Parallel.Pool.on_cancel tok (fun () ->
            List.iter Parallel.Pool.cancel futures)
      | None -> ());
      let results = List.map Parallel.Pool.result futures in
      let interrupted =
        (match token with Some tok -> Parallel.Pool.cancelled tok | None -> false)
        || List.exists
             (function
               | Error (Parallel.Pool.Cancelled | Sat.Solver.Interrupted) -> true
               | _ -> false)
             results
      in
      if interrupted then Error "interrupted"
      else begin
        List.iter (function Ok _ -> () | Error e -> raise e) results;
        let repairs =
          List.concat_map (function Ok (rs, _) -> rs | Error _ -> []) results
        in
        let stats =
          List.fold_left
            (fun acc -> function Ok (_, st) -> add_stats acc st | Error _ -> acc)
            ladder_stats results
        in
        let final =
          (* Wall covers both phases run on the pool: the minimality
             ladder and the sharded enumeration. *)
          telemetry_of sc ~jobs ~solver:stats
            ~solver_calls:stats.Sat.Solver.solves
            ~solve_time_cpu:stats.Sat.Solver.solve_time
            ~solve_time_wall:(Obs.Clock.now () -. solve_started)
            ~levels
        in
        let out =
          canonical_sort (dedup repairs)
          |> List.map (fun r ->
                 { r with iterations = Atomic.get sc.iterations; stats = final })
        in
        (* Per-cube limits can over-collect; enforce the global cap on
           the canonical order. *)
        let rec take n = function
          | [] -> []
          | _ when n = 0 -> []
          | x :: tl -> x :: take (n - 1) tl
        in
        Ok (take limit out)
      end)

let run_all ?max_distance ?(limit = 16) ?(jobs = 1) ?(split_after = 0.025)
    ?token space =
  if jobs < 1 then invalid_arg "Repair.run_all: jobs must be >= 1";
  let jobs = effective_jobs jobs in
  try
    let sc = start ?cap:max_distance space in
    let cap = Option.value ~default:sc.total max_distance in
    if jobs = 1 then begin
      Option.iter
        (fun tok ->
          Parallel.Pool.on_cancel tok (fun () -> Relog.Finder.interrupt sc.finder))
        token;
      try run_all_serial sc ~cap ~limit space
      with Sat.Solver.Interrupted -> Error "interrupted"
    end
    else run_all_parallel ~jobs ~split_after ~token ~cap ~limit sc space
  with
  | Relog.Translate.Unsupported msg -> Error msg
  | Invalid_argument msg -> Error msg
