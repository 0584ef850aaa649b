(* What every workload shares: the per-run tally of operations, the
   bench-owned spans, and the answer checks built on the set-level
   oracle [Featuremodel.Fm.consistent]. *)

module F = Featuremodel.Fm
module I = Mdl.Ident

type tally = {
  mutable checks : float list;  (** state-to-verdict latencies, seconds *)
  mutable repairs : float list;  (** time to a least-change repair or menu *)
  mutable attempted : int;
  mutable errors : int;  (** [Error] results and error replies *)
  mutable wrong : int;  (** answers the oracle rejects *)
  mutable unverified : int;  (** [Cannot_restore] answers no cross-check covered *)
  mutable cross_checked : int;
  mutable repairs_returned : int;  (** repair ops that returned a repair *)
  mutable busy : float;  (** timed wall: op time, without the bench's own work *)
  mutable op_wall : float;  (** sum of op latencies *)
}

let tally () =
  {
    checks = [];
    repairs = [];
    attempted = 0;
    errors = 0;
    wrong = 0;
    unverified = 0;
    cross_checked = 0;
    repairs_returned = 0;
    busy = 0.;
    op_wall = 0.;
  }

let ops t = List.length t.checks + List.length t.repairs
let failed t = t.errors + t.wrong

(* One wrong answer is reported with its context on stderr; the run
   then exits non-zero. *)
let wrong t fmt =
  Printf.ksprintf
    (fun msg ->
      t.wrong <- t.wrong + 1;
      prerr_endline ("perfbench: WRONG ANSWER: " ^ msg))
    fmt

let error t msg =
  t.errors <- t.errors + 1;
  prerr_endline ("perfbench: error: " ^ msg)

let now = Obs.Clock.now

(* A measured operation of a synchronous workload: one [bench.op] root
   span, its latency appended by [record]. *)
let timed_op t record f =
  let t0 = now () in
  let r = Obs.Trace.with_span ~name:"bench.op" f in
  let dt = now () -. t0 in
  t.attempted <- t.attempted + 1;
  t.busy <- t.busy +. dt;
  t.op_wall <- t.op_wall +. dt;
  record dt;
  r

let record_check t dt = t.checks <- dt :: t.checks
let record_repair t dt = t.repairs <- dt :: t.repairs

(* A bench-owned span around one public call, attributed to [layer]. *)
let call layer what f = Obs.Trace.with_span ~name:(Printf.sprintf "bench.%s.%s" layer what) f

(* The samples the end-to-end metrics of a run are computed from. *)
type latencies = { check_samples : float list; repair_samples : float list; ops_per_s : float }

(* Every op as measured, and ops over the timed wall. *)
let raw_latencies t =
  { check_samples = t.checks; repair_samples = t.repairs; ops_per_s = float_of_int (ops t) /. t.busy }

(* A prepared workload: [run] performs operations until [continue_]
   says stop, and may be called again to go on where it stopped;
   [latencies] gives the samples of the run so far; [queue_wait]
   derives, from the traced spans and whatever request log the
   instance kept, the raw per-frame queue waits and the part of the op
   wall spent waiting (both empty off the server). *)
type instance = {
  run : tally -> continue_:(unit -> bool) -> unit;
  dispose : unit -> unit;
  latencies : tally -> latencies;
  queue_wait : Attrib.span list -> float array * float;
}

let no_queue _ = ([||], 0.)

(* ------------------------------------------------------------------ *)
(* Library counters                                                    *)

let counter_names =
  [
    "echo.repair.dedup_discards"; "relog.memo_hits"; "relog.memo_misses";
    "relog.delta_retranslations"; "relog.formulas_translated";
    "relog.symmetry.sbp_clauses"; "incr.rebuilds"; "incr.translation_cache_hits";
    "incr.translation_cache_misses"; "server.sessions_revived";
    "server.sessions_evicted"; "server.edits_coalesced";
  ]

type counters = { values : (string * int) list; sat : Sat.Solver.stats }

let read_counters () =
  {
    values =
      List.map (fun n -> (n, Obs.Metrics.counter_value (Obs.Metrics.counter n))) counter_names;
    sat = Sat.Solver.global_stats ();
  }

let zero_counters =
  {
    values = List.map (fun n -> (n, 0)) counter_names;
    sat =
      {
        Sat.Solver.decisions = 0;
        propagations = 0;
        conflicts = 0;
        restarts = 0;
        learnt = 0;
        reduces = 0;
        solves = 0;
        solve_time = 0.;
      };
  }

let combine op fop (a : counters) (b : counters) =
  let i f = op (f a.sat) (f b.sat) in
  {
    values = List.map2 (fun (n, x) (_, y) -> (n, op x y)) a.values b.values;
    sat =
      {
        Sat.Solver.decisions = i (fun s -> s.Sat.Solver.decisions);
        propagations = i (fun s -> s.Sat.Solver.propagations);
        conflicts = i (fun s -> s.Sat.Solver.conflicts);
        restarts = i (fun s -> s.Sat.Solver.restarts);
        learnt = i (fun s -> s.Sat.Solver.learnt);
        reduces = i (fun s -> s.Sat.Solver.reduces);
        solves = i (fun s -> s.Sat.Solver.solves);
        solve_time = fop a.sat.solve_time b.sat.solve_time;
      };
  }

let add_counters = combine ( + ) ( +. )
let sub_counters = combine ( - ) ( -. )
let counter d n = List.assoc n d.values

(* Library work the bench does for its own checks (cross-checking an
   optimum from scratch) is kept out of the counter deltas it reports. *)
let excluded = ref zero_counters

let outside f =
  let before = read_counters () in
  Fun.protect f ~finally:(fun () ->
      excluded := add_counters !excluded (sub_counters (read_counters ()) before))

(* ------------------------------------------------------------------ *)
(* Oracle                                                              *)

let model_of binding p =
  match List.find_opt (fun (q, _) -> I.name q = p) binding with
  | Some (_, m) -> m
  | None -> failwith ("no model bound to " ^ p)

let cf_params k = List.init k (fun i -> Printf.sprintf "cf%d" (i + 1))

(* A consistent state of a fixed shape: [mandatory] of the features F1..Fn
   (which ones is drawn) are mandatory, and each of the k configurations
   selects them plus its own disjoint block of [extras] optional ones.
   Unlike [Featuremodel.Gen.consistent_state], whose sizes are random,
   every seed yields states of the same size, so run-to-run spread
   comes from the workload's behaviour rather than from model size. *)
let fixed_state rng ~k ~n_features ~mandatory ~extras =
  if mandatory + (k * extras) > n_features then invalid_arg "fixed_state: too few features";
  let shuffled =
    List.map snd
      (List.sort compare
         (List.map (fun f -> (Random.State.bits rng, f)) (Featuremodel.Gen.feature_names n_features)))
  in
  let mand = List.filteri (fun i _ -> i < mandatory) shuffled in
  let opt = List.filteri (fun i _ -> i >= mandatory) shuffled in
  let block i = List.filteri (fun j _ -> j >= i * extras && j < (i + 1) * extras) opt in
  ( List.init k (fun i -> F.configuration ~name:(Printf.sprintf "cf%d" (i + 1)) (mand @ block i)),
    F.feature_model ~name:"fm"
      (List.map (fun f -> (f, List.mem f mand)) (Featuremodel.Gen.feature_names n_features)) )

let consistent ~k binding =
  F.consistent ~cfs:(List.map (model_of binding) (cf_params k)) ~fm:(model_of binding "fm")

(* A repaired binding is correct when the oracle accepts it and every
   model outside the target set is exactly the one it replaced. *)
let check_repair t ~k ~what ~targets ~before repaired =
  if not (consistent ~k repaired) then wrong t "%s: repair is inconsistent" what
  else
    List.iter
      (fun p ->
        if (not (List.mem p targets))
           && not (Mdl.Model.equal (model_of before p) (model_of repaired p))
        then wrong t "%s: repair changed non-target %s" what p)
      ("fm" :: cf_params k)
