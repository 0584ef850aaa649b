(* Command-line front end: check / enforce / lint / fmt / demo.

   File conventions:
   - transformation: QVT-R concrete syntax (Qvtr.Parser);
   - metamodels: one file with several `metamodel ... { }` blocks;
   - models: one file with several `model <param> : <MM> { }` blocks,
     one per transformation parameter, named after the parameter. *)

let read_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  s

let ( let* ) = Result.bind

let load_inputs ~trans_file ~mm_file ~models_file =
  let* trans = Qvtr.Parser.parse ~file:trans_file (read_file trans_file) in
  let* mms = Mdl.Serialize.parse_metamodels (read_file mm_file) in
  let* models = Mdl.Serialize.parse_models mms (read_file models_file) in
  let metamodels = List.map (fun mm -> (Mdl.Metamodel.name mm, mm)) mms in
  let bound =
    List.map (fun m -> (Mdl.Model.name m, m)) models
  in
  Ok (trans, metamodels, bound)

let mode_of_standard standard =
  if standard then Qvtr.Semantics.Standard else Qvtr.Semantics.Extended

(* --trace FILE: record spans for the whole command and write a
   Chrome/Perfetto trace on the way out, success or failure. *)
let with_trace trace f =
  match trace with
  | None -> f ()
  | Some path ->
    Obs.Trace.set_enabled true;
    Fun.protect
      ~finally:(fun () ->
        Obs.Trace.set_enabled false;
        Obs.Trace.export_chrome path;
        Format.eprintf "trace written to %s@." path)
      f

let pp_metrics stats = if stats then Format.printf "%a@." Obs.Metrics.dump ()

(* Advisory lint on check/enforce: print warnings to stderr, never
   block the run (errors surface from the command itself). *)
let advisory_lint ~no_lint ~trans_file trans ~metamodels ~models =
  if not no_lint then begin
    let src = read_file trans_file in
    Lint.Driver.lint_ast ~models trans ~metamodels
    |> List.filter (fun (d : Lint.Diagnostic.t) ->
           d.Lint.Diagnostic.severity = Lint.Diagnostic.Warning)
    |> List.iter (fun d ->
           Format.eprintf "%s@." (Lint.Diagnostic.render ~src d))
  end

(* ------------------------------------------------------------------ *)
(* check                                                               *)

let run_check trans_file mm_file models_file standard no_lint stats trace =
  with_trace trace @@ fun () ->
  match
    let* trans, metamodels, models =
      load_inputs ~trans_file ~mm_file ~models_file
    in
    advisory_lint ~no_lint ~trans_file trans ~metamodels ~models;
    let* report =
      Qvtr.Check.run ~mode:(mode_of_standard standard) trans ~metamodels ~models
    in
    Ok report
  with
  | Ok report ->
    Format.printf "%a@." Qvtr.Check.pp_report report;
    if stats then
      Format.printf "stats: %d directional checks evaluated in %.3f ms@."
        (List.length report.Qvtr.Check.verdicts)
        (report.Qvtr.Check.elapsed *. 1000.);
    pp_metrics stats;
    if report.Qvtr.Check.consistent then 0 else 1
  | Error msg ->
    Format.eprintf "error: %s@." msg;
    2

(* ------------------------------------------------------------------ *)
(* enforce                                                             *)

let pp_stats_block stats r =
  if stats then begin
    Format.printf "@.--- stats ---@.%a@." Echo.Telemetry.pp
      r.Echo.Engine.stats;
    pp_metrics stats
  end

(* The menu of [--all], printing only the target models. *)
let print_menu ~targets repairs =
  Format.printf "%d minimal repair(s):@." (List.length repairs);
  List.iteri
    (fun i r ->
      Format.printf "@.--- repair %d: %a ---@." (i + 1) Echo.Engine.pp_outcome
        (Echo.Engine.Enforced r);
      List.iter
        (fun (p, m) ->
          if List.mem (Mdl.Ident.name p) targets then
            Format.printf "%s@." (Mdl.Serialize.model_to_string m))
        r.Echo.Engine.repaired)
    repairs

(* One repair, every model printed or written to [out_file]. *)
let print_repair ~out_file r =
  Format.printf "%a@." Echo.Engine.pp_outcome (Echo.Engine.Enforced r);
  let rendered =
    String.concat "\n\n"
      (List.map (fun (_, m) -> Mdl.Serialize.model_to_string m) r.Echo.Engine.repaired)
  in
  match out_file with
  | Some path ->
    let oc = open_out path in
    output_string oc (rendered ^ "\n");
    close_out oc;
    Format.printf "repaired models written to %s@." path
  | None -> Format.printf "%s@." rendered

let run_enforce trans_file mm_file models_file targets standard backend
    slack all no_lint no_sbp stats out_file trace =
  let fail msg =
    Format.eprintf "error: %s@." msg;
    2
  in
  (* the menu is enumerated on the iterative rung order only *)
  if all && backend = "maxsat" then
    fail
      "--all enumerates with the iterative backend; it cannot be combined \
       with --backend maxsat"
  else if all && out_file <> None then
    fail "--all prints a menu of repairs; it cannot be combined with -o"
  else
  with_trace trace @@ fun () ->
  let sbp = not no_sbp in
  let mode = mode_of_standard standard in
  let tgts = Echo.Target.of_list targets in
  match
    let* trans, metamodels, models =
      load_inputs ~trans_file ~mm_file ~models_file
    in
    advisory_lint ~no_lint ~trans_file trans ~metamodels ~models;
    let* outcomes =
      if all then
        Echo.Engine.enforce_all ~mode ~slack_objects:slack ~sbp trans
          ~metamodels ~models ~targets:tgts
      else
        let backend =
          match backend with
          | "maxsat" -> Echo.Engine.Maxsat
          | _ -> Echo.Engine.Iterative
        in
        Result.map
          (fun o -> [ o ])
          (Echo.Engine.enforce ~backend ~mode ~slack_objects:slack ~sbp trans
             ~metamodels ~models ~targets:tgts)
    in
    Ok (trans, metamodels, models, outcomes)
  with
  | Error msg -> fail msg
  | Ok (trans, metamodels, models, outcomes) -> (
    match
      List.filter_map
        (function Echo.Engine.Enforced r -> Some r | _ -> None)
        outcomes
    with
    | r :: _ as repairs ->
      if all then print_menu ~targets repairs
      else List.iter (print_repair ~out_file) repairs;
      (* a menu shares one encoding: every repair carries the same
         roll-up, so the stats print once *)
      pp_stats_block stats r;
      0
    | [] -> (
      List.iter (fun o -> Format.printf "%a@." Echo.Engine.pp_outcome o) outcomes;
      match outcomes with
      | [ Echo.Engine.Already_consistent ] -> 0
      | _ ->
        (* explain which directional checks obstruct the target set *)
        (match
           Echo.Engine.diagnose ~mode ~slack_objects:slack trans ~metamodels
             ~models ~targets:tgts
         with
        | Ok ds ->
          List.iter
            (fun d ->
              if not d.Echo.Engine.d_satisfiable then
                Format.printf "  obstruction: %a@." Echo.Engine.pp_diagnosis d)
            ds
        | Error _ -> ());
        1))

(* ------------------------------------------------------------------ *)
(* session: replay an edit script on a long-lived incremental session.
   Server.Replay sends the requests of `qvtr serve` to an in-process
   engine, so the CLI and the wire protocol cannot drift. *)

let run_session trans_file mm_file models_file edits_file targets standard
    slack headroom stats trace =
  with_trace trace @@ fun () ->
  let spec =
    {
      Server.Protocol.o_transformation = read_file trans_file;
      o_metamodels = read_file mm_file;
      o_models = read_file models_file;
      o_targets = targets;
      o_standard = standard;
      o_slack = slack;
      o_headroom = headroom;
    }
  in
  match Server.Replay.run spec (read_file edits_file) with
  | Error msg ->
    Format.eprintf "error: %s@." msg;
    2
  | Ok records ->
    Format.printf "%-28s %5s %6s %6s %5s  %-26s %-26s@." "step" "edits"
      "re-enc" "consis" "match" "session (ms/confl/props)"
      "scratch (ms/confl/props)";
    let pp_side (s : Incr.Session.step_stats) =
      Printf.sprintf "%8.2f %6d %9d" (s.Incr.Session.wall *. 1000.)
        s.Incr.Session.conflicts s.Incr.Session.propagations
    in
    List.iter
      (fun (r : Server.Replay.step) ->
        Format.printf "%-28s %5d %6s %6s %5s  %-26s %-26s@." r.label r.edits
          (if r.rebuilt then "yes" else "-")
          (if r.consistent then "yes" else "no")
          (if r.verdicts_match then "yes" else "NO")
          (pp_side r.warm) (pp_side r.scratch))
      records;
    if stats then begin
      let sum f =
        List.fold_left
          (fun (a, b) (r : Server.Replay.step) ->
            (a + f r.warm, b + f r.scratch))
          (0, 0) records
      in
      let c_s, c_c = sum (fun s -> s.Incr.Session.conflicts) in
      let p_s, p_c = sum (fun s -> s.Incr.Session.propagations) in
      Format.printf
        "totals: session %d conflicts / %d propagations; from-scratch %d / \
         %d@."
        c_s p_s c_c p_c;
      pp_metrics stats
    end;
    if List.for_all (fun (r : Server.Replay.step) -> r.verdicts_match) records
    then 0
    else 1

(* ------------------------------------------------------------------ *)
(* serve: long-lived multi-session daemon                              *)

let run_serve socket tcp admin_tcp jobs max_live snapshot_dir slow_ms
    reqlog_path sample_interval =
  match (socket, tcp) with
  | None, None ->
    Format.eprintf "error: one of --socket PATH or --tcp PORT is required@.";
    2
  | Some _, Some _ ->
    Format.eprintf "error: --socket and --tcp are mutually exclusive@.";
    2
  | _ ->
    let addr, pretty =
      match (socket, tcp) with
      | Some path, None -> (Server.Net.Unix_sock path, "unix:" ^ path)
      | None, Some port -> (Server.Net.Tcp port, Printf.sprintf "tcp:127.0.0.1:%d" port)
      | _ -> assert false
    in
    let reqlog =
      Option.map (fun p -> Server.Reqlog.create ~path:p ()) reqlog_path
    in
    (* -j 0 (the default) sizes the pool from the available cores *)
    let jobs = if jobs <= 0 then Parallel.Pool.default_jobs () else jobs in
    let engine =
      Server.Engine.create ~jobs ~max_live ~snapshot_dir
        ?slow_ms ?reqlog ()
    in
    (* the sampler keeps scrape-visible gauges fresh between requests:
       GC stats from Obs.Runtime itself, engine queue/session gauges
       and the domain count from these hooks *)
    Obs.Runtime.on_sample "server.gauges" (fun () ->
        ignore (Server.Engine.stats_json engine));
    let g_domains = Obs.Metrics.gauge "runtime.domains" in
    Obs.Runtime.on_sample "server.domains" (fun () ->
        Obs.Metrics.set_gauge g_domains
          (float_of_int (Server.Engine.jobs engine + 1)));
    Obs.Runtime.start ~interval_s:sample_interval ();
    let ready () =
      Format.eprintf "qvtr serve: listening on %s%s@." pretty
        (match admin_tcp with
        | Some p -> Printf.sprintf " (admin http on 127.0.0.1:%d)" p
        | None -> "")
    in
    (match Server.Net.serve ~ready ?admin:admin_tcp ~engine addr with
    | Ok () -> 0
    | Error msg ->
      Format.eprintf "error: %s@." msg;
      2)

(* ------------------------------------------------------------------ *)
(* top: live terminal view over the admin plane's /metrics             *)

let find_substring hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i =
    if i + nn > nh then None
    else if String.sub hay i nn = needle then Some i
    else go (i + 1)
  in
  go 0

let http_get ~port path =
  match Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 with
  | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
  | fd -> (
    let finally () = try Unix.close fd with Unix.Unix_error _ -> () in
    match
      Fun.protect ~finally @@ fun () ->
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      let req = Printf.sprintf "GET %s HTTP/1.0\r\n\r\n" path in
      let b = Bytes.of_string req in
      ignore (Unix.write fd b 0 (Bytes.length b));
      let buf = Buffer.create 8192 in
      let chunk = Bytes.create 8192 in
      let rec rd () =
        match Unix.read fd chunk 0 (Bytes.length chunk) with
        | 0 -> ()
        | n ->
          Buffer.add_subbytes buf chunk 0 n;
          rd ()
      in
      rd ();
      Buffer.contents buf
    with
    | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
    | raw -> (
      match find_substring raw "\r\n\r\n" with
      | None -> Error "malformed HTTP response (no header/body separator)"
      | Some i ->
        let body = String.sub raw (i + 4) (String.length raw - i - 4) in
        let status_line =
          match find_substring raw "\r\n" with
          | Some e -> String.sub raw 0 e
          | None -> raw
        in
        if find_substring status_line "200" = None then
          Error (Printf.sprintf "admin plane answered %S" status_line)
        else Ok body))

(* Verbs present in the scrape: every histogram named
   server_queue_wait_<verb>_s contributes one row. *)
let top_verbs (m : Obs.Prom.t) =
  List.filter_map
    (fun (name, kind) ->
      let prefix = "server_queue_wait_" and suffix = "_s" in
      let np = String.length prefix and ns = String.length suffix in
      let n = String.length name in
      if
        kind = "histogram"
        && n > np + ns
        && String.sub name 0 np = prefix
        && String.sub name (n - ns) ns = suffix
      then Some (String.sub name np (n - np - ns))
      else None)
    m.Obs.Prom.types

let render_top (m : Obs.Prom.t) =
  let buf = Buffer.create 2048 in
  let gauge name = Option.value ~default:0. (Obs.Prom.gauge_value m name) in
  let cnt name = Option.value ~default:0 (Obs.Prom.counter_value m name) in
  let pf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  pf "qvtr top — uptime %.0fs  sessions %g live / %g cold  conns %g  \
      domains %g\n"
    (gauge "runtime_uptime_s")
    (gauge "server_sessions_live")
    (gauge "server_sessions_cold")
    (gauge "server_connections")
    (gauge "runtime_domains");
  pf "queues: depth %g (worst session %g, oldest head %.3fs)   requests %d  \
      errors %d (protocol %d)  slow %d\n"
    (gauge "server_queue_depth")
    (gauge "server_queue_depth_max")
    (gauge "server_queue_age_max_s")
    (cnt "server_requests") (cnt "server_errors")
    (cnt "server_protocol_errors")
    (cnt "server_slow_requests");
  let warm =
    Option.value ~default:0 (Obs.Prom.histogram_count m "server_recheck_warm_s")
  in
  let scratch =
    Option.value ~default:0
      (Obs.Prom.histogram_count m "server_recheck_scratch_s")
  in
  let total_recheck = warm + scratch in
  pf "rechecks: %d warm / %d scratch (%.0f%% warm)   churn: %d opened  %d \
      evicted  %d revived  %d closed  %d edits coalesced\n"
    warm scratch
    (if total_recheck = 0 then 0.
     else 100. *. float_of_int warm /. float_of_int total_recheck)
    (cnt "server_sessions_opened")
    (cnt "server_sessions_evicted")
    (cnt "server_sessions_revived")
    (cnt "server_sessions_closed")
    (cnt "server_edits_coalesced");
  pf "gc: heap %.1f MB  minor %g  major %g  compactions %g\n"
    (gauge "runtime_gc_heap_words" *. 8. /. 1048576.)
    (gauge "runtime_gc_minor_collections")
    (gauge "runtime_gc_major_collections")
    (gauge "runtime_gc_compactions");
  pf "symmetry: %d orbits  %d sbp clauses  %d dedup discards   sat: %d phase \
      flips  %d minimized lits\n"
    (cnt "relog_symmetry_orbits")
    (cnt "relog_symmetry_sbp_clauses")
    (cnt "echo_repair_dedup_discards")
    (cnt "sat_phase_flips")
    (cnt "sat_minimized_lits");
  pf "\n%-12s %8s  %9s %9s  %9s %9s  %9s %9s\n" "verb" "count" "wait p50"
    "wait p99" "serve p50" "serve p99" "total p50" "total p99";
  let ms name q =
    match Obs.Prom.percentile m name q with
    | Some v -> Printf.sprintf "%.2f" (v *. 1000.)
    | None -> "-"
  in
  List.iter
    (fun verb ->
      let count =
        Option.value ~default:0
          (Obs.Prom.histogram_count m ("server_queue_wait_" ^ verb ^ "_s"))
      in
      let qw = "server_queue_wait_" ^ verb ^ "_s" in
      let sv = "server_service_" ^ verb ^ "_s" in
      let lt = "server_latency_" ^ verb ^ "_s" in
      pf "%-12s %8d  %9s %9s  %9s %9s  %9s %9s\n" verb count (ms qw 0.5)
        (ms qw 0.99) (ms sv 0.5) (ms sv 0.99) (ms lt 0.5) (ms lt 0.99))
    (List.sort compare (top_verbs m));
  Buffer.contents buf

let run_top admin_tcp iterations interval no_clear =
  let rec loop remaining code =
    if remaining = 0 then code
    else begin
      let code =
        match http_get ~port:admin_tcp "/metrics" with
        | Error msg ->
          Format.printf "qvtr top: %s@." msg;
          1
        | Ok body -> (
          match Obs.Prom.parse body with
          | Error msg ->
            Format.printf "qvtr top: bad /metrics payload: %s@." msg;
            1
          | Ok m ->
            if not no_clear then print_string "\027[2J\027[H";
            print_string (render_top m);
            flush stdout;
            0)
      in
      let remaining = if remaining > 0 then remaining - 1 else remaining in
      if remaining <> 0 then Unix.sleepf interval;
      loop remaining code
    end
  in
  (* iterations <= 0 means run until interrupted *)
  loop (if iterations <= 0 then -1 else iterations) 0

(* ------------------------------------------------------------------ *)
(* traces                                                              *)

let run_traces trans_file mm_file models_file standard =
  match
    let* trans, metamodels, models =
      load_inputs ~trans_file ~mm_file ~models_file
    in
    Qvtr.Check.traces ~mode:(mode_of_standard standard) trans ~metamodels ~models
  with
  | Ok [] ->
    Format.printf "no relation matches@.";
    0
  | Ok traces ->
    List.iter (fun t -> Format.printf "%a@." Qvtr.Check.pp_trace t) traces;
    0
  | Error msg ->
    Format.eprintf "error: %s@." msg;
    2

(* ------------------------------------------------------------------ *)
(* lint: static analysis with source-located diagnostics               *)

let run_lint trans_file mm_file models_file json werror suppress =
  let src = read_file trans_file in
  match
    let* mms = Mdl.Serialize.parse_metamodels (read_file mm_file) in
    let metamodels = List.map (fun mm -> (Mdl.Metamodel.name mm, mm)) mms in
    let* models =
      match models_file with
      | None -> Ok None
      | Some f ->
        let* ms = Mdl.Serialize.parse_models mms (read_file f) in
        Ok (Some (List.map (fun m -> (Mdl.Model.name m, m)) ms))
    in
    Ok (metamodels, models)
  with
  | Error msg ->
    Format.eprintf "error: %s@." msg;
    2
  | Ok (metamodels, models) ->
    let config = { Lint.Driver.default_config with werror; suppress } in
    let diags =
      Lint.Driver.lint_source ~config ~file:trans_file ?models src ~metamodels
    in
    if json then
      print_endline (Obs.Json.to_string (Lint.Diagnostic.list_to_json diags))
    else begin
      List.iter (fun d -> print_endline (Lint.Diagnostic.render ~src d)) diags;
      Format.printf "%s@." (Lint.Driver.summary diags)
    end;
    if Lint.Driver.error_count diags > 0 then 1 else 0

(* ------------------------------------------------------------------ *)
(* fmt: parse and pretty-print a transformation                        *)

let run_fmt trans_file =
  match Qvtr.Parser.parse (read_file trans_file) with
  | Ok t ->
    print_endline (Qvtr.Parser.to_string t);
    0
  | Error msg ->
    Format.eprintf "error: %s@." msg;
    2

(* ------------------------------------------------------------------ *)
(* demo: generate the paper's example inputs into a directory          *)

let run_demo dir =
  let () = try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> () in
  let write name contents =
    let oc = open_out (Filename.concat dir name) in
    output_string oc contents;
    close_out oc
  in
  write "featureconfig.qvtr" (Featuremodel.Fm.source ~k:2);
  write "metamodels.mdl"
    (Mdl.Serialize.metamodel_to_string Featuremodel.Fm.cf_metamodel
    ^ "\n\n"
    ^ Mdl.Serialize.metamodel_to_string Featuremodel.Fm.fm_metamodel
    ^ "\n");
  let s = Featuremodel.Scenarios.new_mandatory_feature in
  let models =
    Featuremodel.Fm.bind ~cfs:s.Featuremodel.Scenarios.cfs
      ~fm:s.Featuremodel.Scenarios.fm
  in
  write "models.mdl"
    (String.concat "\n\n"
       (List.map (fun (_, m) -> Mdl.Serialize.model_to_string m) models)
    ^ "\n");
  (* an edit-replay script for `qvtr session`: demote every feature to
     optional, then restore the original feature model *)
  let fm_bound =
    match
      List.find_opt
        (fun (p, _) -> Mdl.Ident.equal p (Mdl.Ident.make "fm"))
        models
    with
    | Some (_, m) -> m
    | None -> assert false
  in
  let all_optional =
    Featuremodel.Fm.feature_model ~name:"fm"
      (List.map
         (fun (n, _) -> (n, false))
         (Featuremodel.Fm.fm_features fm_bound))
  in
  write "edits.replay"
    ("== all features optional\n"
    ^ Mdl.Serialize.model_to_string all_optional
    ^ "\n\n== restore the feature model\n"
    ^ Mdl.Serialize.model_to_string fm_bound
    ^ "\n");
  Format.printf
    "wrote %s/{featureconfig.qvtr, metamodels.mdl, models.mdl, edits.replay}@.try:@.  qvtr check -t \
     %s/featureconfig.qvtr -M %s/metamodels.mdl -m %s/models.mdl@.  qvtr enforce -t \
     %s/featureconfig.qvtr -M %s/metamodels.mdl -m %s/models.mdl --target cf1 \
     --target cf2@.  qvtr session -t %s/featureconfig.qvtr -M %s/metamodels.mdl \
     -m %s/models.mdl --edits %s/edits.replay@."
    dir dir dir dir dir dir dir dir dir dir dir;
  0

(* ------------------------------------------------------------------ *)
(* cmdliner plumbing                                                   *)

open Cmdliner

let trans_arg =
  Arg.(
    required
    & opt (some file) None
    & info [ "t"; "transformation" ] ~docv:"FILE" ~doc:"QVT-R transformation file.")

let mm_arg =
  Arg.(
    required
    & opt (some file) None
    & info [ "M"; "metamodels" ] ~docv:"FILE" ~doc:"Metamodels file.")

let models_arg =
  Arg.(
    required
    & opt (some file) None
    & info [ "m"; "models" ] ~docv:"FILE" ~doc:"Models file.")

let standard_arg =
  Arg.(
    value & flag
    & info [ "standard" ]
        ~doc:
          "Use the standard OMG checking semantics (ignore dependencies blocks).")

let stats_arg =
  Arg.(
    value & flag
    & info [ "stats" ]
        ~doc:
          "Print per-phase telemetry: translation size (vars/clauses), solver \
           counters, distance iterations, wall-clock timings.")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Record a structured trace of the run and write it to FILE in \
           Chrome trace-event JSON (open in Perfetto or about://tracing). \
           One track per worker domain; spans cover parse, translate, CNF \
           build and every solver call.")

let no_lint_arg =
  Arg.(
    value & flag
    & info [ "no-lint" ]
        ~doc:"Skip the advisory lint warnings printed before the run.")

let no_sbp_arg =
  Arg.(
    value & flag
    & info [ "no-sbp" ]
        ~doc:
          "Disable symmetry breaking: no lex-leader predicates, so the \
           search visits every symmetric variant of each repair. Verdicts \
           and distances are unchanged; searches are larger, and the \
           repair menu of $(b,--all) lists isomorphic variants \
           separately.")

let check_cmd =
  let doc = "check consistency of models under a QVT-R transformation" in
  Cmd.v
    (Cmd.info "check" ~doc)
    Term.(
      const run_check $ trans_arg $ mm_arg $ models_arg $ standard_arg
      $ no_lint_arg $ stats_arg $ trace_arg)

let targets_arg =
  Arg.(
    non_empty & opt_all string []
    & info [ "target" ] ~docv:"PARAM"
        ~doc:"Model parameter to repair (repeatable — the paper's multidirectional \
              target sets).")

let backend_arg =
  Arg.(
    value
    & opt
        (enum [ ("iterative", "iterative"); ("maxsat", "maxsat") ])
        "iterative"
    & info [ "backend" ]
        ~doc:
          "Repair backend: iterative (Echo's distance ladder, started \
           at a lower bound proved from UNSAT cores) or maxsat (Echo's \
           PMax-SAT extension: one \
           unbounded solve, then bounds below each model's distance \
           until UNSAT, then the ladder from there). Both find the same \
           minimal distance. $(b,--all) needs the iterative backend.")

let jobs_arg =
  Arg.(
    value & opt int 0
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Size of the session worker pool: up to N sessions are served at \
           once, each request on one domain. N = 0 (the default) auto-sizes \
           from the available cores (Domain.recommended_domain_count); an \
           explicit N is always honoured as given.")

let slack_arg =
  Arg.(
    value & opt int 2
    & info [ "slack" ] ~doc:"Fresh objects available per target model.")

let out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "o"; "output" ] ~docv:"FILE"
        ~doc:"Write repaired models to FILE (not with $(b,--all)).")

let all_arg =
  Arg.(
    value & flag
    & info [ "all" ]
        ~doc:
          "Enumerate every minimal repair instead of returning one \
           (iterative backend only; prints the menu, so $(b,-o) is an \
           error).")

let enforce_cmd =
  let doc = "repair the target models to restore consistency (least change)" in
  Cmd.v
    (Cmd.info "enforce" ~doc)
    Term.(
      const run_enforce $ trans_arg $ mm_arg $ models_arg $ targets_arg
      $ standard_arg $ backend_arg $ slack_arg $ all_arg
      $ no_lint_arg $ no_sbp_arg $ stats_arg $ out_arg $ trace_arg)

let edits_arg =
  Arg.(
    required
    & opt (some file) None
    & info [ "edits" ] ~docv:"FILE"
        ~doc:
          "Edit-replay script: blocks of models separated by `== <label>' \
           lines; each block is diffed against the running state to form \
           one edit batch.")

let session_targets_arg =
  Arg.(
    value & opt_all string []
    & info [ "target" ] ~docv:"PARAM"
        ~doc:
          "Model parameter the session may repair (repeatable; default: all \
           parameters).")

let headroom_arg =
  Arg.(
    value & opt int 6
    & info [ "headroom" ]
        ~doc:
          "Object creations absorbed by edits before the universe is \
           re-encoded.")

let session_cmd =
  let doc =
    "replay an edit script on a long-lived incremental session, comparing \
     every re-check against the first re-check of a fresh session"
  in
  Cmd.v
    (Cmd.info "session" ~doc)
    Term.(
      const run_session $ trans_arg $ mm_arg $ models_arg $ edits_arg
      $ session_targets_arg $ standard_arg $ slack_arg $ headroom_arg
      $ stats_arg $ trace_arg)

let socket_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH"
        ~doc:"Listen on a Unix domain socket at PATH.")

let tcp_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "tcp" ] ~docv:"PORT" ~doc:"Listen on loopback TCP at PORT.")

let max_live_arg =
  Arg.(
    value & opt int 64
    & info [ "max-live" ] ~docv:"N"
        ~doc:
          "Keep at most N sessions (and their solver state) in memory; the \
           least-recently-used idle session beyond that is evicted to a \
           durable snapshot and transparently revived on its next request.")

let snapshot_dir_arg =
  Arg.(
    value & opt string "./qvtr-sessions"
    & info [ "snapshot-dir" ] ~docv:"DIR"
        ~doc:"Directory for eviction/snapshot files (created on demand).")

let admin_tcp_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "admin-tcp" ] ~docv:"PORT"
        ~doc:
          "Also serve a read-only HTTP admin plane on loopback TCP at PORT: \
           GET /metrics (Prometheus text format), /healthz, /sessions.")

let slow_ms_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "slow-ms" ] ~docv:"MS"
        ~doc:
          "Flag replies slower than MS milliseconds end-to-end: bump the \
           server.slow_requests counter and mark the request-log record \
           slow:true.")

let reqlog_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "reqlog" ] ~docv:"FILE"
        ~doc:
          "Append one JSON record per answered protocol frame to FILE \
           (request id, session, verb, queue-wait and service seconds, \
           outcome, slow flag).")

let sample_interval_arg =
  Arg.(
    value & opt float 5.0
    & info [ "sample-interval" ] ~docv:"SECS"
        ~doc:
          "Cadence of the runtime sampler thread that refreshes GC, \
           session and queue gauges for scrapes (default 5s).")

let serve_cmd =
  let doc = "run the long-lived multi-session transformation server" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Hosts many concurrent incremental sessions, one per editor or \
         client, and answers newline-framed JSON requests (verbs: open, \
         apply_edits, recheck, rerepair, commit, snapshot, close, stats) \
         over a Unix or loopback TCP socket. Work is scheduled on a worker \
         pool, one in-flight request per session and fair across sessions; \
         bursts of apply_edits coalesce into one re-pin. $(b,qvtr session) \
         drives the same engine in-process.";
    ]
  in
  Cmd.v
    (Cmd.info "serve" ~doc ~man)
    Term.(
      const run_serve $ socket_arg $ tcp_arg $ admin_tcp_arg $ jobs_arg
      $ max_live_arg $ snapshot_dir_arg $ slow_ms_arg $ reqlog_arg
      $ sample_interval_arg)

let top_admin_arg =
  Arg.(
    required
    & opt (some int) None
    & info [ "admin-tcp" ] ~docv:"PORT"
        ~doc:"Admin-plane port of the qvtr serve to watch (its --admin-tcp).")

let top_iterations_arg =
  Arg.(
    value & opt int 0
    & info [ "n"; "iterations" ] ~docv:"N"
        ~doc:"Render N frames then exit (0 = run until interrupted).")

let top_interval_arg =
  Arg.(
    value & opt float 2.0
    & info [ "interval" ] ~docv:"SECS" ~doc:"Refresh interval (default 2s).")

let no_clear_arg =
  Arg.(
    value & flag
    & info [ "no-clear" ]
        ~doc:
          "Do not clear the terminal between frames (append them instead — \
           for logs and CI).")

let top_cmd =
  let doc = "live terminal view of a running qvtr serve" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Polls GET /metrics on the server's admin plane and renders a \
         refreshing dashboard: per-verb request counts with queue-wait, \
         service and end-to-end p50/p99 latencies, total and worst-session \
         queue depth and age, warm/scratch recheck split, session churn \
         (opened/evicted/revived/closed), connection count and GC headline \
         numbers. The server must be started with $(b,--admin-tcp PORT).";
    ]
  in
  Cmd.v
    (Cmd.info "top" ~doc ~man)
    Term.(
      const run_top $ top_admin_arg $ top_iterations_arg $ top_interval_arg
      $ no_clear_arg)

let lint_models_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "m"; "models" ] ~docv:"FILE"
        ~doc:
          "Models file (optional). When given, lint also runs the \
           model-bounded vacuity pass (W009).")

let json_arg =
  Arg.(
    value & flag
    & info [ "json" ] ~doc:"Emit diagnostics as a JSON array on stdout.")

let werror_arg =
  Arg.(
    value & flag
    & info [ "werror" ] ~doc:"Treat warnings as errors (exit non-zero).")

let suppress_arg =
  Arg.(
    value & opt_all string []
    & info [ "suppress" ] ~docv:"CODE"
        ~doc:"Suppress a diagnostic code, e.g. --suppress W004 (repeatable).")

let lint_cmd =
  let doc = "statically analyze a QVT-R transformation" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Parses and typechecks the transformation, then runs \
         static-analysis passes: unreachable relations, redundant \
         checking dependencies, unenforceable model parameters, \
         unused and single-domain variables, shadowing, abstract \
         classes in enforce targets, multiplicity conflicts, and — \
         with $(b,--models) — directional checks that are constant \
         under the given models.";
      `P
        "Every diagnostic carries a stable code (E0xx errors, W0xx \
         warnings) and a file:line:col anchor with a source excerpt.";
    ]
  in
  Cmd.v
    (Cmd.info "lint" ~doc ~man)
    Term.(
      const run_lint $ trans_arg $ mm_arg $ lint_models_arg $ json_arg
      $ werror_arg $ suppress_arg)

let fmt_cmd =
  let doc = "parse and pretty-print a QVT-R transformation" in
  Cmd.v (Cmd.info "fmt" ~doc) Term.(const run_fmt $ trans_arg)

let traces_cmd =
  let doc = "list relation matches (QVT trace links) on the models" in
  Cmd.v
    (Cmd.info "traces" ~doc)
    Term.(const run_traces $ trans_arg $ mm_arg $ models_arg $ standard_arg)

let demo_dir_arg =
  Arg.(value & pos 0 string "demo" & info [] ~docv:"DIR" ~doc:"Output directory.")

let demo_cmd =
  let doc = "write the paper's running example (metamodels, models, QVT-R)" in
  Cmd.v (Cmd.info "demo" ~doc) Term.(const run_demo $ demo_dir_arg)

let main =
  let doc = "multidirectional QVT-R transformations (EDBT'14 reproduction)" in
  Cmd.group
    (Cmd.info "qvtr" ~version:"1.0.0" ~doc)
    [
      check_cmd;
      enforce_cmd;
      session_cmd;
      serve_cmd;
      top_cmd;
      traces_cmd;
      lint_cmd;
      fmt_cmd;
      demo_cmd;
    ]

let () = exit (Cmd.eval' main)
