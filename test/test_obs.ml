(* lib/obs: canonical JSON round-trips, metrics registry percentiles,
   span recording, Chrome trace export structure, parent-context
   handoff across Parallel.Pool domains, and the disabled fast path. *)

module J = Obs.Json
module T = Obs.Trace
module M = Obs.Metrics

(* Every recording test owns the global trace state for its duration:
   clear, enable, run, then disable and clear again so the rest of the
   suite (and the bench-style tests) see tracing off. *)
let with_tracing f =
  T.clear ();
  T.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      T.set_enabled false;
      T.clear ())
    f

(* ------------------------------------------------------------------ *)
(* Json                                                                *)

let test_json_roundtrip () =
  let v =
    J.Obj
      [
        ("s", J.String "a\"b\\c\n\t\b\012\r plus \001 control");
        ("l", J.List [ J.Int 1; J.Float 2.5; J.Bool true; J.Null ]);
        ("n", J.Int (-42));
        ("empty", J.Obj []);
      ]
  in
  match J.of_string (J.to_string v) with
  | Ok v' -> Alcotest.(check bool) "round-trips" true (v = v')
  | Error e -> Alcotest.fail ("parse failed: " ^ e)

let test_json_control_escapes () =
  (* \b and \f get their named escapes (the pre-obs emitter forgot
     them); other control chars become \uXXXX. *)
  Alcotest.(check string)
    "escapes" "a\\u0001\\b\\f\\n\\r\\t\\\"\\\\"
    (J.escape_string "a\001\b\012\n\r\t\"\\");
  match J.of_string "\"a\\u0001\\b\\f\"" with
  | Ok (J.String s) -> Alcotest.(check string) "parses back" "a\001\b\012" s
  | Ok _ -> Alcotest.fail "expected a string"
  | Error e -> Alcotest.fail e

let test_json_rejects_garbage () =
  let bad s =
    match J.of_string s with
    | Ok _ -> Alcotest.fail (Printf.sprintf "accepted %S" s)
    | Error _ -> ()
  in
  bad "{";
  bad "[1,]";
  bad "{\"a\":1} trailing";
  bad "'single'"

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)

let test_histogram_percentiles () =
  let h = M.histogram "test.obs.hist" in
  M.reset_histogram h;
  for _ = 1 to 50 do
    M.observe h 1.0
  done;
  for _ = 1 to 30 do
    M.observe h 2.0
  done;
  for _ = 1 to 20 do
    M.observe h 4.0
  done;
  Alcotest.(check int) "count" 100 (M.histogram_count h);
  Alcotest.(check (float 1e-9)) "sum" 190.0 (M.histogram_sum h);
  (* 1, 2 and 4 are bucket representatives (powers of 2), so the
     percentiles are exact: sorted order is 50x1, 30x2, 20x4. *)
  Alcotest.(check (float 1e-9)) "p50" 1.0 (M.percentile h 0.50);
  Alcotest.(check (float 1e-9)) "p80" 2.0 (M.percentile h 0.80);
  Alcotest.(check (float 1e-9)) "p90" 4.0 (M.percentile h 0.90);
  Alcotest.(check (float 1e-9)) "p99" 4.0 (M.percentile h 0.99);
  M.reset_histogram h;
  Alcotest.(check int) "reset count" 0 (M.histogram_count h);
  Alcotest.(check (float 1e-9)) "empty percentile" 0.0 (M.percentile h 0.5)

let test_metrics_registry () =
  let c = M.counter "test.obs.counter" in
  M.set_counter c 0;
  M.incr c;
  M.add c 4;
  Alcotest.(check int) "counter" 5 (M.counter_value c);
  Alcotest.(check int) "get-or-create shares state" 5
    (M.counter_value (M.counter "test.obs.counter"));
  (match M.gauge "test.obs.counter" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "kind clash must raise");
  let g = M.gauge "test.obs.gauge" in
  M.set_gauge g 3.5;
  Alcotest.(check (float 1e-9)) "gauge" 3.5 (M.gauge_value g)

(* ------------------------------------------------------------------ *)
(* Prometheus exposition                                               *)

let test_prometheus_name () =
  Alcotest.(check string)
    "dots to underscores" "server_latency_check_s"
    (M.prometheus_name "server.latency.check_s");
  Alcotest.(check string)
    "leading digit prefixed" "_9lives" (M.prometheus_name "9lives");
  Alcotest.(check string)
    "colons survive" "a:b_c" (M.prometheus_name "a:b-c");
  Alcotest.(check string) "empty name" "_" (M.prometheus_name "")

let test_prometheus_exposition () =
  (* dotted names of all three kinds, so sanitization and every series
     shape are exercised *)
  let c = M.counter "test.prom.counter" in
  M.set_counter c 7;
  let g = M.gauge "test.prom.gauge" in
  M.set_gauge g 2.5;
  let h = M.histogram "test.prom.hist" in
  M.reset_histogram h;
  for _ = 1 to 5 do
    M.observe h 1.0
  done;
  for _ = 1 to 3 do
    M.observe h 4.0
  done;
  M.observe h (-1.0);
  let body = M.to_prometheus () in
  let p =
    match Obs.Prom.parse body with
    | Ok p -> p
    | Error e -> Alcotest.fail ("exposition does not strict-parse: " ^ e)
  in
  (* every registry entry appears exactly once as a # TYPE line, under
     its sanitized name with the declared kind *)
  let expect_kind name kind =
    Alcotest.(check int)
      (name ^ " appears exactly once")
      1
      (List.length (List.filter (fun (n, _) -> n = name) p.Obs.Prom.types));
    Alcotest.(check (option string))
      (name ^ " kind") (Some kind)
      (List.assoc_opt name p.Obs.Prom.types)
  in
  expect_kind "test_prom_counter" "counter";
  expect_kind "test_prom_gauge" "gauge";
  expect_kind "test_prom_hist" "histogram";
  Alcotest.(check int)
    "registry and exposition agree on entry count"
    (List.length (String.split_on_char '\n' body
                 |> List.filter (fun l ->
                        String.length l > 7 && String.sub l 0 7 = "# TYPE ")))
    (List.length p.Obs.Prom.types);
  Alcotest.(check (option int))
    "counter value" (Some 7)
    (Obs.Prom.counter_value p "test_prom_counter");
  Alcotest.(check (option (float 1e-9)))
    "gauge value" (Some 2.5)
    (Obs.Prom.gauge_value p "test_prom_gauge");
  (* histogram series: cumulative buckets are monotone, +Inf equals
     _count, _sum matches, percentile recovers the representatives *)
  let bs = Obs.Prom.buckets p "test_prom_hist" in
  Alcotest.(check bool) "has buckets" true (List.length bs >= 3);
  let rec monotone = function
    | (_, a) :: ((_, b) :: _ as rest) ->
      Alcotest.(check bool) "cumulative counts non-decreasing" true (a <= b);
      monotone rest
    | _ -> ()
  in
  monotone bs;
  let rec ubs_sorted = function
    | (a, _) :: ((b, _) :: _ as rest) ->
      Alcotest.(check bool) "upper bounds increase" true (a < b);
      ubs_sorted rest
    | _ -> ()
  in
  ubs_sorted bs;
  (match List.rev bs with
  | (ub, last) :: _ ->
    Alcotest.(check bool) "last bucket is +Inf" true (ub = infinity);
    Alcotest.(check (option int))
      "+Inf bucket equals _count" (Some last)
      (Obs.Prom.histogram_count p "test_prom_hist")
  | [] -> Alcotest.fail "no buckets parsed");
  Alcotest.(check (option int))
    "count covers all observations incl. underflow" (Some 9)
    (Obs.Prom.histogram_count p "test_prom_hist");
  Alcotest.(check (option (float 1e-6)))
    "sum" (Some 16.0)
    (Obs.Prom.histogram_sum p "test_prom_hist");
  Alcotest.(check (option (float 1e-9)))
    "p50 from the scrape" (Some 1.0)
    (Obs.Prom.percentile p "test_prom_hist" 0.5);
  Alcotest.(check (option (float 1e-9)))
    "p99 from the scrape" (Some 4.0)
    (Obs.Prom.percentile p "test_prom_hist" 0.99)

let test_prom_parse_rejects () =
  let bad body =
    match Obs.Prom.parse body with
    | Ok _ -> Alcotest.failf "accepted %S" body
    | Error _ -> ()
  in
  bad "metric_without_value\n";
  bad "name value_is_not_a_number\n";
  bad "# TYPE only_two\n";
  bad "# TYPE m sideways\n";
  bad "# COMMENT unknown\n";
  bad "m{unterminated=\"v} 1\n";
  bad "{no_name} 1\n";
  (* the shapes we emit all parse *)
  match
    Obs.Prom.parse
      "# HELP free text is fine\n\
       # TYPE m histogram\n\
       m_bucket{le=\"0.5\"} 1\n\
       m_bucket{le=\"+Inf\"} 2\n\
       m_sum 1.5\n\
       m_count 2\n"
  with
  | Ok p -> Alcotest.(check int) "samples" 4 (List.length p.Obs.Prom.samples)
  | Error e -> Alcotest.fail e

(* The symmetry/solver-modernization counters scrape under stable
   Prometheus names: the registry lookup below is idempotent (the
   library modules already created them), and the strict parser must
   see each exactly once with kind counter. [qvtr top] keys its
   symmetry line off these exact names. *)
let test_symmetry_counter_prom_names () =
  List.iter
    (fun dotted -> ignore (M.counter dotted))
    [
      "relog.symmetry.orbits";
      "relog.symmetry.sbp_clauses";
      "sat.phase_flips";
      "sat.minimized_lits";
      "echo.repair.dedup_discards";
    ];
  let p =
    match Obs.Prom.parse (M.to_prometheus ()) with
    | Ok p -> p
    | Error e -> Alcotest.fail ("exposition does not strict-parse: " ^ e)
  in
  List.iter
    (fun prom ->
      Alcotest.(check int)
        (prom ^ " appears exactly once")
        1
        (List.length (List.filter (fun (n, _) -> n = prom) p.Obs.Prom.types));
      Alcotest.(check (option string))
        (prom ^ " kind") (Some "counter")
        (List.assoc_opt prom p.Obs.Prom.types);
      Alcotest.(check bool)
        (prom ^ " has a sample") true
        (Obs.Prom.counter_value p prom <> None))
    [
      "relog_symmetry_orbits";
      "relog_symmetry_sbp_clauses";
      "sat_phase_flips";
      "sat_minimized_lits";
      "echo_repair_dedup_discards";
    ]

(* Satellite: the drain-based reset must keep count == bucket totals
   with observers racing it at jobs = 4 (3 observers + 1 resetter). *)
let test_histogram_concurrent_reset () =
  let h = M.histogram "test.prom.reset_race" in
  M.reset_histogram h;
  let per_domain = 20_000 in
  let observers =
    List.init 3 (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to per_domain do
              M.observe h 4.0
            done))
  in
  let resetter =
    Domain.spawn (fun () ->
        for _ = 1 to 200 do
          M.reset_histogram h;
          Domain.cpu_relax ()
        done)
  in
  List.iter Domain.join observers;
  Domain.join resetter;
  (* quiescent now: whatever survived the resets, the invariant holds *)
  Alcotest.(check int)
    "count equals bucket total after racing resets"
    (M.histogram_bucket_total h) (M.histogram_count h);
  Alcotest.(check bool)
    "count within bounds" true
    (M.histogram_count h >= 0 && M.histogram_count h <= 3 * per_domain);
  M.reset_histogram h;
  Alcotest.(check int) "final reset zeroes count" 0 (M.histogram_count h);
  Alcotest.(check int)
    "final reset zeroes buckets" 0
    (M.histogram_bucket_total h)

(* ------------------------------------------------------------------ *)
(* Runtime sampler                                                     *)

let test_runtime_sampler () =
  let samples0 =
    M.counter_value (M.counter "runtime.samples")
  in
  let hook_hits = Atomic.make 0 in
  Obs.Runtime.on_sample "test.hook" (fun () ->
      Atomic.incr hook_hits);
  Obs.Runtime.on_sample "test.bad_hook" (fun () -> failwith "must not kill");
  Obs.Runtime.start ~interval_s:0.01 ();
  Alcotest.(check bool) "running" true (Obs.Runtime.running ());
  Unix.sleepf 0.15;
  Obs.Runtime.stop ();
  Alcotest.(check bool) "stopped" false (Obs.Runtime.running ());
  let ticks =
    M.counter_value (M.counter "runtime.samples") - samples0
  in
  Alcotest.(check bool)
    (Printf.sprintf "sampled repeatedly (%d ticks)" ticks)
    true (ticks >= 2);
  Alcotest.(check bool)
    "hooks ran every tick, raising hook tolerated" true
    (Atomic.get hook_hits >= ticks);
  Alcotest.(check bool)
    "gc gauges are fresh" true
    (M.gauge_value (M.gauge "runtime.gc.heap_words") > 0.);
  Alcotest.(check bool)
    "uptime advanced" true
    (M.gauge_value (M.gauge "runtime.uptime_s") > 0.);
  Obs.Runtime.remove_sample "test.hook";
  Obs.Runtime.remove_sample "test.bad_hook";
  (* one synchronous tick still works without the thread *)
  let before = M.counter_value (M.counter "runtime.samples") in
  Obs.Runtime.sample_now ();
  Alcotest.(check int)
    "sample_now ticks once" (before + 1)
    (M.counter_value (M.counter "runtime.samples"))

(* ------------------------------------------------------------------ *)
(* Trace recording                                                     *)

let begins evs = List.filter (fun (e : T.event) -> e.ph = `Begin) evs
let ends evs = List.filter (fun (e : T.event) -> e.ph = `End) evs

let find_begin name evs =
  match
    List.find_opt (fun (e : T.event) -> e.ph = `Begin && e.name = name) evs
  with
  | Some e -> e
  | None -> Alcotest.fail ("no Begin event named " ^ name)

let test_span_nesting () =
  with_tracing @@ fun () ->
  T.with_span ~name:"outer"
    ~args:(fun () -> [ ("k", J.Int 7) ])
    (fun () ->
      T.with_span ~name:"inner" (fun () -> ());
      T.instant "mark");
  let evs = T.events () in
  let outer = find_begin "outer" evs in
  let inner = find_begin "inner" evs in
  Alcotest.(check int) "two begins" 2 (List.length (begins evs));
  Alcotest.(check int) "two ends" 2 (List.length (ends evs));
  Alcotest.(check bool) "outer is a root" true (outer.parent = 0);
  Alcotest.(check bool) "inner nests under outer" true
    (inner.parent = outer.id);
  Alcotest.(check bool) "outer carries args" true
    (outer.args = [ ("k", J.Int 7) ]);
  let mark =
    List.find (fun (e : T.event) -> e.ph = `Instant && e.name = "mark") evs
  in
  Alcotest.(check bool) "instant attaches to the open span" true
    (mark.parent = outer.id)

let test_span_survives_raise () =
  with_tracing @@ fun () ->
  (try T.with_span ~name:"boom" (fun () -> failwith "boom") with
  | Failure _ -> ());
  let evs = T.events () in
  Alcotest.(check int) "begin recorded" 1 (List.length (begins evs));
  Alcotest.(check int) "end recorded despite raise" 1
    (List.length (ends evs))

(* Span nesting must survive the pool handoff: children submitted from
   inside a span attach to it while recording on the worker's own
   track. *)
let test_pool_handoff () =
  with_tracing @@ fun () ->
  let pool = Parallel.Pool.create ~jobs:4 in
  T.with_span ~name:"submit" (fun () ->
      for _ = 1 to 4 do
        Parallel.Pool.submit pool (fun () ->
            T.with_span ~name:"child" (fun () -> Domain.cpu_relax ()))
      done);
  (* shutdown joins the workers: every child has run *)
  Parallel.Pool.shutdown pool;
  let evs = T.events () in
  let submit = find_begin "submit" evs in
  let children =
    List.filter
      (fun (e : T.event) -> e.ph = `Begin && e.name = "child")
      evs
  in
  Alcotest.(check int) "all four children recorded" 4 (List.length children);
  List.iter
    (fun (c : T.event) ->
      Alcotest.(check bool) "child attaches to the submitting span" true
        (c.parent = submit.id))
    children;
  Alcotest.(check bool) "children record on worker tracks" true
    (List.exists (fun (c : T.event) -> c.tid <> submit.tid) children)

(* ------------------------------------------------------------------ *)
(* Chrome export                                                       *)

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let test_chrome_export () =
  with_tracing @@ fun () ->
  T.with_span ~name:"a" (fun () ->
      T.with_span ~name:"b" (fun () -> ());
      T.counter "search" [ ("conflicts", 3.0) ];
      T.instant "tick");
  let path = Filename.temp_file "mdqvtr-obs" ".json" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  T.export_chrome path;
  let v =
    match J.of_string (read_file path) with
    | Ok v -> v
    | Error e -> Alcotest.fail ("trace is not valid JSON: " ^ e)
  in
  let evs = J.to_list (J.member "traceEvents" v) in
  Alcotest.(check bool) "has events" true (List.length evs > 0);
  (* Every non-metadata event carries pid 1 and an integer tid, and
     B/E events balance per tid. *)
  let balance = Hashtbl.create 8 in
  let bump tid d =
    Hashtbl.replace balance tid (d + Option.value ~default:0 (Hashtbl.find_opt balance tid))
  in
  List.iter
    (fun e ->
      match (J.member "ph" e, J.member "tid" e) with
      | J.String "M", _ -> ()
      | J.String ph, J.Int tid ->
        Alcotest.(check bool) "pid is 1" true (J.member "pid" e = J.Int 1);
        if ph = "B" then begin
          bump tid 1;
          Alcotest.(check bool) "B has a span id" true
            (match J.member "span" (J.member "args" e) with
            | J.Int _ -> true
            | _ -> false)
        end
        else if ph = "E" then bump tid (-1)
      | _ -> Alcotest.fail "event without ph/tid")
    evs;
  Hashtbl.iter
    (fun tid d ->
      Alcotest.(check int) (Printf.sprintf "B/E balance on tid %d" tid) 0 d)
    balance;
  (* Counter samples survive as C events with float series. *)
  Alcotest.(check bool) "counter event exported" true
    (List.exists
       (fun e ->
         J.member "ph" e = J.String "C"
         && J.member "name" e = J.String "search")
       evs)

let test_jsonl_export () =
  with_tracing @@ fun () ->
  T.with_span ~name:"one" (fun () -> T.instant "two");
  let path = Filename.temp_file "mdqvtr-obs" ".jsonl" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  T.export_jsonl path;
  let lines =
    String.split_on_char '\n' (String.trim (read_file path))
  in
  Alcotest.(check int) "one line per event" 3 (List.length lines);
  List.iter
    (fun line ->
      match J.of_string line with
      | Ok (J.Obj _) -> ()
      | Ok _ -> Alcotest.fail "line is not an object"
      | Error e -> Alcotest.fail ("line is not valid JSON: " ^ e))
    lines

(* ------------------------------------------------------------------ *)
(* Disabled fast path                                                  *)

let nop () = ()

let test_disabled_no_alloc () =
  T.set_enabled false;
  (* Warm up the domain-local buffer and any one-time setup. *)
  T.with_span ~name:"warm" nop;
  T.instant "warm";
  let series = [ ("x", 1.0) ] in
  T.counter "warm" series;
  ignore (T.current ());
  let n = 10_000 in
  let before = Gc.minor_words () in
  for _ = 1 to n do
    T.with_span ~name:"hot" nop;
    T.instant "hot";
    T.counter "hot" series;
    ignore (T.current ())
  done;
  let after = Gc.minor_words () in
  let delta = int_of_float (after -. before) in
  (* The loop runs 40k entry points; any per-call allocation would cost
     >= 2 words each. Allow a small constant for the measurement
     itself. *)
  Alcotest.(check bool)
    (Printf.sprintf "disabled path allocated %d minor words" delta)
    true (delta < 256)

let test_clock_monotonic () =
  let a = Obs.Clock.now () in
  let b = Obs.Clock.now () in
  Alcotest.(check bool) "positive" true (a > 0.);
  Alcotest.(check bool) "monotonic" true (b >= a)

let suite =
  [
    Alcotest.test_case "json round-trip" `Quick test_json_roundtrip;
    Alcotest.test_case "json control-char escapes" `Quick
      test_json_control_escapes;
    Alcotest.test_case "json rejects garbage" `Quick test_json_rejects_garbage;
    Alcotest.test_case "histogram percentiles exact" `Quick
      test_histogram_percentiles;
    Alcotest.test_case "metrics registry" `Quick test_metrics_registry;
    Alcotest.test_case "prometheus name sanitization" `Quick
      test_prometheus_name;
    Alcotest.test_case "prometheus exposition strict-parses" `Quick
      test_prometheus_exposition;
    Alcotest.test_case "prometheus parser rejects malformed" `Quick
      test_prom_parse_rejects;
    Alcotest.test_case "symmetry/solver counter prometheus names" `Quick
      test_symmetry_counter_prom_names;
    Alcotest.test_case "histogram reset races observers (jobs=4)" `Quick
      test_histogram_concurrent_reset;
    Alcotest.test_case "runtime sampler ticks and survives bad hooks" `Quick
      test_runtime_sampler;
    Alcotest.test_case "span nesting and args" `Quick test_span_nesting;
    Alcotest.test_case "span end survives raise" `Quick
      test_span_survives_raise;
    Alcotest.test_case "nesting survives pool handoff (jobs=4)" `Quick
      test_pool_handoff;
    Alcotest.test_case "chrome export: valid JSON, balanced B/E" `Quick
      test_chrome_export;
    Alcotest.test_case "jsonl export: one object per line" `Quick
      test_jsonl_export;
    Alcotest.test_case "disabled fast path allocates nothing" `Quick
      test_disabled_no_alloc;
    Alcotest.test_case "monotonic clock" `Quick test_clock_monotonic;
  ]
