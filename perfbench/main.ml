(* The repository benchmark: one command, one workload, one seed.

     perfbench --workload oneshot|session|serve --seed N --seconds S --trace 0|1

   With [--trace 0] it runs operations in a closed loop for S seconds —
   longer if needed to collect 100 samples of every op kind — checking
   every answer against the oracle, and prints the end-to-end metrics.
   The loop is cut into 27 slices. Before each one the workload is set
   up afresh after a [Gc.compact] and timed, and that set-up is thrown
   away. So the median set-up time spans the whole run rather than its
   first second. With [--trace 1] it runs a fixed, seed-determined list
   of operations twice, untraced and then traced, and prints the
   per-layer attribution of the traced pass plus the tracing overhead.
   The last stdout line is the JSON result; the human-readable report
   goes to stderr. The first failed operation or wrong answer ends the
   measuring, and the exit code is then non-zero. *)

open Perfbench
open Common

type workload = {
  prepare : seed:int -> instance;
  scope : string -> [ `In | `Out | `Pass ];
  trace_ops_per_s : int;
      (** operations per traced pass per second of [--seconds] (two
          passes run), sized so a run takes about [--seconds] here *)
  engine_jobs : int;
}

let op_scope name = if name = "bench.op" then `In else `Pass

let workloads =
  [
    ("oneshot", { prepare = Wl_oneshot.prepare; scope = op_scope; trace_ops_per_s = 200; engine_jobs = 1 });
    ("session", { prepare = Wl_session.prepare; scope = op_scope; trace_ops_per_s = 20; engine_jobs = 1 });
    ( "serve",
      { prepare = Wl_serve.prepare; scope = Wl_serve.scope; trace_ops_per_s = 80; engine_jobs = Wl_serve.jobs } );
  ]

let min_samples = 100
let slices = 27

(* Past this much measuring, a run that still lacks samples gives up
   (and fails) rather than overrun its time limit. *)
let measure_cap_s = 120.

let context w =
  let env v = Option.value (Sys.getenv_opt v) ~default:"(unset)" in
  Printf.sprintf
    "MDQVTR_WORKERS=%s MDQVTR_JOBS=%s MDQVTR_TRACE_LOG=%s nproc=%d engine_jobs=%d"
    (env "MDQVTR_WORKERS") (env "MDQVTR_JOBS") (env "MDQVTR_TRACE_LOG")
    (Domain.recommended_domain_count ()) w.engine_jobs

let ms samples q = 1000. *. Stats.percentile (Array.of_list samples) q

let report_latencies kind samples =
  let n = List.length samples in
  Printf.eprintf "  %-6s n=%-5d p50=%.3fms (%d beyond) p90=%.3fms (%d beyond)\n" kind n
    (ms samples 0.5) (Stats.beyond n 0.5) (ms samples 0.9) (Stats.beyond n 0.9)

let json_result ~correct ~attempted ~failed metrics =
  let metric (name, value, unit) =
    (* a metric with no samples behind it (only in a failed run) *)
    let value = if Float.is_finite value then Printf.sprintf "%.17g" value else "null" in
    Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name value unit
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" correct
    attempted failed
    (String.concat ", " (List.map metric metrics))

let finish (t : tally) metrics =
  Printf.eprintf "  attempted %d, errors %d, wrong %d, cross-checked %d, unverified %d\n"
    t.attempted t.errors t.wrong t.cross_checked t.unverified;
  let failed = failed t in
  print_endline
    (json_result ~correct:(t.wrong = 0) ~attempted:(max 1 t.attempted) ~failed metrics);
  exit (if failed = 0 then 0 else 1)

let end_to_end w ~seed ~seconds =
  let setup () =
    let t0 = now () in
    let inst = w.prepare ~seed in
    (inst, now () -. t0)
  in
  let inst, _ = setup () in
  let setup_times = ref [] in
  let t = tally () in
  let lacking () =
    let l = inst.latencies t in
    List.length l.check_samples < min_samples || List.length l.repair_samples < min_samples
  in
  let start = now () in
  (* measuring time, without the set-ups between slices *)
  let paused = ref 0. in
  let elapsed () = now () -. start -. !paused in
  Fun.protect ~finally:inst.dispose (fun () ->
      for slice = 1 to slices do
        if failed t = 0 then begin
          let p0 = now () in
          Gc.compact ();
          let extra, dt = setup () in
          extra.dispose ();
          setup_times := dt :: !setup_times;
          Gc.compact ();
          paused := !paused +. (now () -. p0);
          let until = seconds *. float_of_int slice /. float_of_int slices in
          inst.run t ~continue_:(fun () ->
              let el = elapsed () in
              failed t = 0 && (el < until || (slice = slices && el < measure_cap_s && lacking ())))
        end
      done);
  let setup_times = Array.of_list (List.rev !setup_times) in
  Printf.eprintf "  set-ups: %s s\n"
    (String.concat " " (Array.to_list (Array.map (Printf.sprintf "%.4f") setup_times)));
  let l = inst.latencies t in
  let peak_heap_mb =
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.
  in
  report_latencies "check" l.check_samples;
  report_latencies "repair" l.repair_samples;
  if lacking () then
    error t
      (Printf.sprintf "only %d check and %d repair samples (need %d each)"
         (List.length l.check_samples) (List.length l.repair_samples) min_samples);
  Printf.eprintf "  %d ops in %.3fs timed (%.3fs measuring), failed_ratio %g, peak heap %.1f MB\n"
    (ops t) t.busy (elapsed ())
    (float_of_int (failed t) /. float_of_int (max 1 t.attempted))
    peak_heap_mb;
  finish t
    [
      ("setup_s", Stats.median setup_times, "s");
      ("check_p50_ms", ms l.check_samples 0.5, "ms");
      ("check_p90_ms", ms l.check_samples 0.9, "ms");
      ("repair_p50_ms", ms l.repair_samples 0.5, "ms");
      ("repair_p90_ms", ms l.repair_samples 0.9, "ms");
      ("ops_per_s", l.ops_per_s, "1/s");
    ]

(* ------------------------------------------------------------------ *)
(* Traced run                                                          *)

let pass w ~seed ~n ~traced =
  let inst = w.prepare ~seed in
  Gc.compact ();
  let t = tally () in
  let gc0 = Gc.quick_stat () in
  excluded := zero_counters;
  let c0 = read_counters () in
  Obs.Trace.clear ();
  Obs.Trace.set_enabled traced;
  Fun.protect
    (fun () -> inst.run t ~continue_:(fun () -> ops t < n && failed t = 0))
    ~finally:(fun () -> Obs.Trace.set_enabled false);
  let counters = sub_counters (sub_counters (read_counters ()) c0) !excluded in
  let gc1 = Gc.quick_stat () in
  let spans = if traced then Attrib.select ~scope:w.scope (Attrib.spans (Obs.Trace.events ())) else [] in
  let queue = inst.queue_wait spans in
  inst.dispose ();
  Obs.Trace.clear ();
  (t, counters, spans, queue, gc0, gc1)

let ratio a b = if b = 0. then 0. else a /. b

let traced w ~seed ~seconds =
  let n = max min_samples (int_of_float (float_of_int w.trace_ops_per_s *. seconds /. 2.)) in
  let plain, _, _, _, gc0, gc1 = pass w ~seed ~n ~traced:false in
  let t, d, spans, (frame_waits, queue_wait_s), _, _ = pass w ~seed ~n ~traced:true in
  (* answers of the untraced pass are checked too *)
  t.attempted <- t.attempted + plain.attempted;
  t.errors <- t.errors + plain.errors;
  t.wrong <- t.wrong + plain.wrong;
  let self names = Attrib.self_of names spans in
  let c n = float_of_int (counter d n) in
  let layers, none = Attrib.by_layer spans in
  let attributed = List.fold_left (fun acc (_, s) -> acc +. s) 0. layers in
  let unattributed = t.op_wall -. attributed -. queue_wait_s in
  Printf.eprintf "  traced pass: %d ops, op wall %.4fs\n" (ops t) t.op_wall;
  List.iter
    (fun (l, s) ->
      Printf.eprintf "    %-8s %10.4fs  %5.1f%%\n" l s (100. *. ratio s t.op_wall))
    layers;
  if queue_wait_s > 0. then
    Printf.eprintf "    %-8s %10.4fs  %5.1f%%\n" "(queue)" queue_wait_s
      (100. *. ratio queue_wait_s t.op_wall);
  Printf.eprintf "    %-8s %10.4fs  %5.1f%%  (spans in no layer: %.4fs)\n" "unattrib" unattributed
    (100. *. ratio unattributed t.op_wall) none;
  let solve_s = self [ "solve" ] in
  let sat = d.sat in
  let session_self = Attrib.self_where (Attrib.prefixed "session.") spans in
  let server_self = Attrib.self_where (Attrib.prefixed "server.") spans in
  let apply_frames = Wl_serve.apply_frames t in
  finish t
    [
      ("mdl.parse_s", self [ "bench.mdl.parse" ], "s");
      ("qvtr.parse_s", self [ "bench.qvtr.parse" ], "s");
      ("qvtr.typecheck_s", self [ "typecheck" ], "s");
      ("qvtr.encode_s", self [ "encode" ], "s");
      ("qvtr.eval_s", self [ "check.eval" ], "s");
      ("echo.space_build_s", self [ "space.build" ], "s");
      ("echo.repair_self_s", self [ "repair.prepare" ], "s");
      ( "echo.solves_per_repair",
        ratio (float_of_int sat.Sat.Solver.solves) (float_of_int t.repairs_returned),
        "count" );
      ("echo.dedup_discards", c "echo.repair.dedup_discards", "count");
      ("relog.lower_s", self [ "translate.lower"; "translate.formula"; "translate.materialize" ], "s");
      ("relog.cnf_s", self [ "translate.cnf" ], "s");
      ( "relog.memo_hit_ratio",
        ratio (c "relog.memo_hits") (c "relog.memo_hits" +. c "relog.memo_misses"),
        "ratio" );
      ("relog.delta_retranslations", c "relog.delta_retranslations", "count");
      ("relog.formulas_translated", c "relog.formulas_translated", "count");
      ("relog.symmetry_s", self [ "repair.symmetry" ], "s");
      ("relog.sbp_clauses", c "relog.symmetry.sbp_clauses", "count");
      ("sat.cardinality_s", self [ "cnf.cardinality" ], "s");
      ("sat.solve_s", solve_s, "s");
      ("sat.solves", float_of_int sat.Sat.Solver.solves, "count");
      ("sat.conflicts", float_of_int sat.Sat.Solver.conflicts, "count");
      ("sat.propagations", float_of_int sat.Sat.Solver.propagations, "count");
      ("sat.propagations_per_s", ratio (float_of_int sat.Sat.Solver.propagations) solve_s, "1/s");
      ("incr.session_self_s", session_self, "s");
      ("incr.apply_edits_s", self [ "session.apply_edits" ], "s");
      ("incr.rebuilds", c "incr.rebuilds", "count");
      ( "incr.cache_hit_ratio",
        ratio (c "incr.translation_cache_hits")
          (c "incr.translation_cache_hits" +. c "incr.translation_cache_misses"),
        "ratio" );
      ( "server.queue_wait_p50_ms",
        (if frame_waits = [||] then 0. else 1000. *. Stats.median frame_waits),
        "ms" );
      ("server.queue_wait_s", queue_wait_s, "s");
      ("server.service_self_s", server_self, "s");
      ("server.revivals", c "server.sessions_revived", "count");
      ("server.evictions", c "server.sessions_evicted", "count");
      ("server.coalesced_ratio", ratio (c "server.edits_coalesced") (float_of_int apply_frames), "ratio");
      ("runtime.minor_mwords", (gc1.Gc.minor_words -. gc0.Gc.minor_words) /. 1e6, "Mwords");
      ( "runtime.major_collections",
        float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections),
        "count" );
      ("unattributed_s", unattributed, "s");
      ( "trace_overhead_ratio",
        ratio (float_of_int (ops t) /. t.busy) (float_of_int (ops plain) /. plain.busy),
        "ratio" );
    ]

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0 and trace = ref (-1) in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME oneshot, session or serve");
      ("--seed", Arg.Set_int seed, "N seed the inputs are generated from (>= 0)");
      ("--seconds", Arg.Set_int seconds, "S how long to measure (>= 1)");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics (0) or per-layer attribution (1)");
    ]
  in
  let usage = "perfbench --workload NAME --seed N --seconds S --trace 0|1" in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  match List.assoc_opt !workload workloads with
  | None ->
    Printf.eprintf "perfbench: unknown workload %S\n%s\n" !workload usage;
    exit 2
  | Some _ when !seed < 0 || !seconds < 1 || (!trace <> 0 && !trace <> 1) ->
    prerr_endline usage;
    exit 2
  | Some w ->
    Obs.Trace.set_enabled false;
    Printf.eprintf "perfbench %s seed=%d seconds=%d trace=%d\n  %s\n" !workload !seed !seconds
      !trace (context w);
    let seconds = float_of_int !seconds in
    if !trace = 0 then end_to_end w ~seed:!seed ~seconds else traced w ~seed:!seed ~seconds
