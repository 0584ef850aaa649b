module Json = Obs.Json
module Metrics = Obs.Metrics
module P = Protocol
module Session = Incr.Session
module Ident = Mdl.Ident

(* ------------------------------------------------------------------ *)
(* Instrumentation                                                     *)

let m_requests = Metrics.counter "server.requests"
let m_errors = Metrics.counter "server.errors"
let m_opened = Metrics.counter "server.sessions_opened"
let m_evicted = Metrics.counter "server.sessions_evicted"
let m_revived = Metrics.counter "server.sessions_revived"
let m_closed = Metrics.counter "server.sessions_closed"
let m_coalesced = Metrics.counter "server.edits_coalesced"
let m_slow = Metrics.counter "server.slow_requests"

(* Evictions whose snapshot could not be written: the session stays
   live, so the engine runs over [max_live] until a save succeeds. *)
let m_snapshot_errors = Metrics.counter "server.snapshot_errors"

let g_live = Metrics.gauge "server.sessions_live"
let g_cold = Metrics.gauge "server.sessions_cold"
let g_depth = Metrics.gauge "server.queue_depth"
let g_depth_max = Metrics.gauge "server.queue_depth_max"
let g_age_max = Metrics.gauge "server.queue_age_max_s"
let h_warm = Metrics.histogram "server.recheck.warm_s"
let h_scratch = Metrics.histogram "server.recheck.scratch_s"
let h_latency verb = Metrics.histogram ("server.latency." ^ verb ^ "_s")

(* The end-to-end latency above splits into two per-verb halves:
   enqueue -> dequeue (how long the frame sat behind its session's
   earlier work — the congestion signal ROADMAP 1c needs) and
   dequeue -> reply (the work itself). *)
let h_queue_wait verb = Metrics.histogram ("server.queue_wait." ^ verb ^ "_s")
let h_service verb = Metrics.histogram ("server.service." ^ verb ^ "_s")

(* ------------------------------------------------------------------ *)
(* State                                                               *)

type live = {
  l_spec : P.open_spec;
  l_sess : Session.t;
  l_mms : Mdl.Metamodel.t list;
  mutable l_menu : Session.repair list;  (** last rerepair's menu *)
}

type entry_state =
  | Empty  (** open accepted, not yet processed (or failed) *)
  | Live of live
  | Cold of string  (** evicted; snapshot path *)

type pending_req = {
  p_req : P.req;
  p_enq : float;  (** enqueue wall time, for the latency histograms *)
  mutable p_deq : float;  (** dequeue wall time; [p_enq] until popped *)
  p_reply : P.resp -> unit;
  mutable p_answered : bool;  (** set once its reply is sent *)
}

type entry = {
  e_name : string;
  mutable e_state : entry_state;
  e_queue : pending_req Queue.t;
  mutable e_busy : bool;  (** a turn for this entry is scheduled/running *)
  mutable e_stamp : int;  (** LRU clock value of the last touch *)
}

type t = {
  pool : Parallel.Pool.t;
  mu : Mutex.t;  (** guards [tbl], queues, flags, [tick], [pending] *)
  tbl : (string, entry) Hashtbl.t;
  max_live : int;
  dir : string;
  mutable tick : int;
  mutable pending : int;  (** submitted, not yet replied *)
  done_cv : Condition.t;
  slow_s : float;  (** replies slower than this bump [server.slow_requests] *)
  reqlog : Reqlog.t;  (** every reply funnels through here, counted *)
  served : int Atomic.t;  (** frames answered (== reqlog count) *)
  symmetry : bool;  (** slack-symmetry chains on session repairs *)
}

let create ?(jobs = 1) ?(max_live = 64) ?(snapshot_dir = "./qvtr-sessions")
    ?slow_ms ?reqlog ?(symmetry = true) () =
  {
    pool = Parallel.Pool.create ~jobs;
    mu = Mutex.create ();
    tbl = Hashtbl.create 16;
    max_live = max 1 max_live;
    dir = snapshot_dir;
    tick = 0;
    pending = 0;
    done_cv = Condition.create ();
    slow_s =
      (match slow_ms with Some ms -> ms /. 1000. | None -> infinity);
    reqlog = (match reqlog with Some r -> r | None -> Reqlog.create ());
    served = Atomic.make 0;
    symmetry;
  }

let jobs t = Parallel.Pool.jobs t.pool

(* mu held. Besides the totals, track the worst single session: the
   deepest queue and the oldest still-queued head frame. A runaway
   client shows up here long before it dominates the totals. *)
let refresh_gauges t =
  let live = ref 0 and cold = ref 0 and depth = ref 0 in
  let depth_max = ref 0 and age_max = ref 0. in
  let now = Unix.gettimeofday () in
  Hashtbl.iter
    (fun _ e ->
      (match e.e_state with
      | Live _ -> incr live
      | Cold _ -> incr cold
      | Empty -> ());
      let d = Queue.length e.e_queue in
      depth := !depth + d;
      if d > !depth_max then depth_max := d;
      match Queue.peek_opt e.e_queue with
      | Some head ->
        let age = now -. head.p_enq in
        if age > !age_max then age_max := age
      | None -> ())
    t.tbl;
  Metrics.set_gauge g_live (float_of_int !live);
  Metrics.set_gauge g_cold (float_of_int !cold);
  Metrics.set_gauge g_depth (float_of_int !depth);
  Metrics.set_gauge g_depth_max (float_of_int !depth_max);
  Metrics.set_gauge g_age_max !age_max

(* mu held *)
let touch t e =
  t.tick <- t.tick + 1;
  e.e_stamp <- t.tick

(* mu held. Evict least-recently-used idle sessions until the live
   count is back under the cap. Busy entries and entries with queued
   work are never candidates (their state is owned by their turn); if
   everything is busy we run over cap until someone idles. *)
let rec evict_if_needed t =
  let live =
    Hashtbl.fold
      (fun _ e n -> match e.e_state with Live _ -> n + 1 | _ -> n)
      t.tbl 0
  in
  if live > t.max_live then begin
    let candidate =
      Hashtbl.fold
        (fun _ e acc ->
          match e.e_state with
          | Live _ when (not e.e_busy) && Queue.is_empty e.e_queue -> (
            match acc with
            | Some best when best.e_stamp <= e.e_stamp -> acc
            | _ -> Some e)
          | _ -> acc)
        t.tbl None
    in
    match candidate with
    | None -> ()
    | Some e -> (
      match e.e_state with
      | Live l -> (
        let snap = Snapshot.of_session ~spec:l.l_spec l.l_sess in
        match Snapshot.save ~dir:t.dir ~name:e.e_name snap with
        | Ok path ->
          e.e_state <- Cold path;
          Metrics.incr m_evicted;
          evict_if_needed t
        | Error _ -> Metrics.incr m_snapshot_errors)
      | _ -> ())
  end

let stats_json t =
  Mutex.lock t.mu;
  refresh_gauges t;
  Mutex.unlock t.mu;
  Json.Obj
    [
      ("sessions_live", Json.Int (int_of_float (Metrics.gauge_value g_live)));
      ("sessions_cold", Json.Int (int_of_float (Metrics.gauge_value g_cold)));
      ("queue_depth", Json.Int (int_of_float (Metrics.gauge_value g_depth)));
      ("metrics", Metrics.to_json ());
    ]

(* Per-session view for the admin plane's [/sessions]: who is live,
   who is evicted, and whose queue is backing up — the runaway-client
   lens that aggregate gauges can't provide. *)
let sessions_json t =
  Mutex.lock t.mu;
  refresh_gauges t;
  let now = Unix.gettimeofday () in
  let rows =
    Hashtbl.fold
      (fun name e acc ->
        let state =
          match e.e_state with
          | Live _ -> "live"
          | Cold _ -> "cold"
          | Empty -> "opening"
        in
        let age =
          match Queue.peek_opt e.e_queue with
          | Some head -> now -. head.p_enq
          | None -> 0.
        in
        Json.Obj
          [
            ("session", Json.String name);
            ("state", Json.String state);
            ("queue_depth", Json.Int (Queue.length e.e_queue));
            ("queue_age_s", Json.Float age);
            ("busy", Json.Bool e.e_busy);
            ("lru_stamp", Json.Int e.e_stamp);
          ]
        :: acc)
      t.tbl []
  in
  Mutex.unlock t.mu;
  let rows =
    List.sort
      (fun a b ->
        compare
          (Json.to_string_opt (Json.member "session" a))
          (Json.to_string_opt (Json.member "session" b)))
      rows
  in
  Json.Obj [ ("sessions", Json.List rows) ]

let frames_served t = Atomic.get t.served
let request_log t = t.reqlog

(* ------------------------------------------------------------------ *)
(* Replies                                                             *)

(* Every reply — queued or answered inline at submit time — funnels
   through here exactly once, so [served] and the request log agree
   with the frame count by construction (E11 asserts reqlog records ==
   frames served). Timing split: [enq -> deq] is queue wait, [deq ->
   reply] is service; inline replies never queued, so their [deq] is
   their [enq] and the wait is zero. *)
let finish t ~(req : P.req) ~enq ~deq reply result =
  let verb = P.verb_of_request req.q_req in
  let now = Unix.gettimeofday () in
  let queue_wait = Float.max 0. (deq -. enq) in
  let service = Float.max 0. (now -. deq) in
  let total = Float.max 0. (now -. enq) in
  Metrics.observe (h_latency verb) total;
  Metrics.observe (h_queue_wait verb) queue_wait;
  Metrics.observe (h_service verb) service;
  let slow = total >= t.slow_s in
  if slow then Metrics.incr m_slow;
  (match result with Error _ -> Metrics.incr m_errors | Ok _ -> ());
  Reqlog.log t.reqlog ~ts:(Unix.gettimeofday ()) ~id:req.q_id
    ~session:req.q_session ~verb ~queue_wait_s:queue_wait ~service_s:service
    ~outcome:(match result with Ok _ -> "ok" | Error _ -> "error")
    ~slow;
  ignore (Atomic.fetch_and_add t.served 1);
  reply { P.s_id = req.q_id; s_result = result }

(* A reply answered synchronously at submit time (stats, addressing
   errors): no queue, no [pending] involvement. *)
let reply_inline t reply (req : P.req) enq result =
  finish t ~req ~enq ~deq:enq reply result

(* A reply for a queued request: same accounting plus [pending]. *)
let answer t pr result =
  pr.p_answered <- true;
  finish t ~req:pr.p_req ~enq:pr.p_enq ~deq:pr.p_deq pr.p_reply result;
  Mutex.lock t.mu;
  t.pending <- t.pending - 1;
  if t.pending = 0 then Condition.broadcast t.done_cv;
  Mutex.unlock t.mu

(* ------------------------------------------------------------------ *)
(* Payload builders                                                    *)

let verdict_of (v : Session.verdict) =
  {
    P.w_relation = Ident.name v.Session.v_relation;
    w_sources = List.map Ident.name v.Session.v_direction.Qvtr.Ast.dep_sources;
    w_target = Ident.name v.Session.v_direction.Qvtr.Ast.dep_target;
    w_holds = v.Session.v_holds;
    w_blame =
      List.map
        (fun (f : Session.fact) ->
          ( Ident.name f.Session.f_rel,
            List.map Ident.name (Array.to_list f.Session.f_atoms) ))
        v.Session.v_blame;
  }

let menu_entry_of targets (r : Session.repair) =
  {
    P.m_relational_distance = r.Session.r_relational_distance;
    m_edit_distance = r.Session.r_edit_distance;
    m_models =
      List.filter_map
        (fun (p, m) ->
          if Ident.Set.mem p targets then
            Some (Ident.name p, Mdl.Serialize.model_to_string m)
          else None)
        r.Session.r_models;
  }

(* ------------------------------------------------------------------ *)
(* Turn execution (on a pool worker, or inline at jobs = 1)            *)

(* Revive a cold entry in place. Runs inside the entry's turn (so
   [e_state] is ours to mutate); only the state flip and the eviction
   sweep need the lock. *)
let ensure_live t e =
  match e.e_state with
  | Live l -> Ok l
  | Empty -> Error (Printf.sprintf "session %S is not open" e.e_name)
  | Cold path -> (
    let revived =
      Result.bind (Snapshot.load path) (fun snap ->
          Result.map
            (fun (sess, mms) -> (snap, sess, mms))
            (Snapshot.revive ~symmetry:t.symmetry snap))
    in
    match revived with
    | Error err -> Error (Printf.sprintf "revive %S: %s" e.e_name err)
    | Ok (snap, sess, mms) ->
      let l =
        { l_spec = snap.Snapshot.spec; l_sess = sess; l_mms = mms; l_menu = [] }
      in
      Mutex.lock t.mu;
      e.e_state <- Live l;
      Metrics.incr m_revived;
      evict_if_needed t;
      Mutex.unlock t.mu;
      Ok l)

let handle_open t e pr (spec : P.open_spec) =
  match e.e_state with
  | Live _ | Cold _ ->
    answer t pr (Error (Printf.sprintf "session %S already open" e.e_name))
  | Empty -> (
    match Snapshot.hydrate ~symmetry:t.symmetry spec with
    | Error err ->
      (* leave no husk behind: the name can be re-opened *)
      Mutex.lock t.mu;
      Hashtbl.remove t.tbl e.e_name;
      refresh_gauges t;
      Mutex.unlock t.mu;
      answer t pr (Error err)
    | Ok (sess, mms) ->
      Mutex.lock t.mu;
      e.e_state <- Live { l_spec = spec; l_sess = sess; l_mms = mms; l_menu = [] };
      Metrics.incr m_opened;
      evict_if_needed t;
      refresh_gauges t;
      Mutex.unlock t.mu;
      answer t pr (Ok (P.Opened { revived = false })))

let handle_close t e pr =
  (match e.e_state with
  | Live _ -> Metrics.incr m_closed
  | Cold _ | Empty -> ());
  Mutex.lock t.mu;
  Hashtbl.remove t.tbl e.e_name;
  e.e_state <- Empty;
  refresh_gauges t;
  Mutex.unlock t.mu;
  answer t pr (Ok P.Closed);
  (* requests pipelined behind the close bounce with a clear error *)
  Mutex.lock t.mu;
  let rec drain_q () =
    match Queue.take_opt e.e_queue with
    | None -> ()
    | Some stale ->
      Mutex.unlock t.mu;
      answer t stale (Error (Printf.sprintf "session %S closed" e.e_name));
      Mutex.lock t.mu;
      drain_q ()
  in
  drain_q ();
  refresh_gauges t;
  Mutex.unlock t.mu

let observe_recheck (stats : Session.step_stats) =
  Metrics.observe
    (if stats.Session.translated then h_scratch else h_warm)
    stats.Session.wall

let handle_simple t e pr =
  match ensure_live t e with
  | Error err -> answer t pr (Error err)
  | Ok l -> (
    match pr.p_req.P.q_req with
    | P.Recheck { blame } -> (
      match Session.recheck ~blame l.l_sess with
      | Error err -> answer t pr (Error err)
      | Ok report ->
        observe_recheck report.Session.check_stats;
        answer t pr
          (Ok
             (P.Checked
                {
                  consistent = report.Session.consistent;
                  verdicts = List.map verdict_of report.Session.verdicts;
                  stats = report.Session.check_stats;
                })))
    | P.Rerepair { limit } -> (
      match Session.rerepair ~limit l.l_sess with
      | Error err -> answer t pr (Error err)
      | Ok report ->
        let outcome, repairs =
          match report.Session.outcome with
          | Session.Already_consistent -> ("already_consistent", [])
          | Session.Cannot_restore -> ("cannot_restore", [])
          | Session.Repaired rs -> ("repaired", rs)
        in
        l.l_menu <- repairs;
        let targets = Session.targets l.l_sess in
        answer t pr
          (Ok
             (P.Repaired
                {
                  outcome;
                  menu = List.map (menu_entry_of targets) repairs;
                  stats = report.Session.repair_stats;
                })))
    | P.Commit { choice } -> (
      match List.nth_opt l.l_menu choice with
      | None ->
        answer t pr
          (Error
             (Printf.sprintf
                "commit: no repair %d in the last menu (%d entries; run \
                 rerepair first)"
                choice (List.length l.l_menu)))
      | Some repair -> (
        match Session.commit l.l_sess repair with
        | Error err -> answer t pr (Error err)
        | Ok () ->
          l.l_menu <- [];
          answer t pr (Ok P.Committed)))
    | P.Snapshot -> (
      let snap = Snapshot.of_session ~spec:l.l_spec l.l_sess in
      match Snapshot.save ~dir:t.dir ~name:e.e_name snap with
      | Error err -> answer t pr (Error err)
      | Ok path ->
        answer t pr
          (Ok
             (P.Snapshotted
                { path; fingerprint = snap.Snapshot.fingerprint })))
    | P.Open _ | P.Apply_edits _ | P.Close | P.Stats ->
      (* routed elsewhere *)
      answer t pr (Error "internal: verb misrouted"))

(* A burst of consecutive apply_edits frames, coalesced into one
   session batch. Each frame's models are validated and diffed against
   the state as projected by the frames before it; frames that fail to
   parse are answered individually and drop out of the batch. *)
let handle_edits t e prs =
  match ensure_live t e with
  | Error err -> List.iter (fun pr -> answer t pr (Error err)) prs
  | Ok l ->
    let projected = ref (Session.models l.l_sess) in
    (* per-parameter scripts, concatenated in arrival order: applying
       the merged script to the pre-batch model replays the frames
       sequentially (Edit.apply_script folds left) *)
    let merged : (Ident.t * Mdl.Edit.t list) list ref = ref [] in
    let parsed =
      List.map
        (fun pr ->
          let text =
            match pr.p_req.P.q_req with
            | P.Apply_edits { models } -> models
            | _ -> assert false
          in
          match Mdl.Serialize.parse_models l.l_mms text with
          | Error err -> (pr, Error (Printf.sprintf "apply_edits: %s" err))
          | Ok ms -> (
            let unknown =
              List.find_opt
                (fun m ->
                  not (List.mem_assoc (Mdl.Model.name m) !projected))
                ms
            in
            match unknown with
            | Some m ->
              ( pr,
                Error
                  (Printf.sprintf "apply_edits: unknown parameter %s"
                     (Ident.name (Mdl.Model.name m))) )
            | None ->
              let edits = ref 0 in
              List.iter
                (fun m ->
                  let p = Mdl.Model.name m in
                  let before = List.assoc p !projected in
                  let script = Mdl.Diff.script before m in
                  edits := !edits + List.length script;
                  projected :=
                    List.map
                      (fun (q, old) ->
                        if Ident.equal q p then (q, m) else (q, old))
                      !projected;
                  if script <> [] then
                    merged :=
                      if List.mem_assoc p !merged then
                        List.map
                          (fun (q, sc) ->
                            if Ident.equal q p then (q, sc @ script)
                            else (q, sc))
                          !merged
                      else !merged @ [ (p, script) ])
                ms;
              (pr, Ok !edits)))
        prs
    in
    (match List.length prs with
    | n when n > 1 -> Metrics.add m_coalesced (n - 1)
    | _ -> ());
    let apply_result =
      match !merged with
      | [] -> Ok ()
      | batch -> Session.apply_edits l.l_sess batch
    in
    List.iter
      (fun (pr, r) ->
        match (r, apply_result) with
        | Error err, _ -> answer t pr (Error err)
        | Ok _, Error err ->
          answer t pr (Error (Printf.sprintf "apply_edits: %s" err))
        | Ok edits, Ok () -> answer t pr (Ok (P.Applied { edits })))
      parsed

(* mu held: pop this turn's work — one request, or every consecutive
   leading apply_edits frame (the coalescing window). *)
let pop_batch e =
  let deq = Unix.gettimeofday () in
  let popped =
    match Queue.peek_opt e.e_queue with
    | None -> []
    | Some { p_req = { P.q_req = P.Apply_edits _; _ }; _ } ->
      let rec take acc =
        match Queue.peek_opt e.e_queue with
        | Some { p_req = { P.q_req = P.Apply_edits _; _ }; _ } ->
          take (Queue.pop e.e_queue :: acc)
        | _ -> List.rev acc
      in
      take []
    | Some _ -> [ Queue.pop e.e_queue ]
  in
  List.iter (fun pr -> pr.p_deq <- deq) popped;
  popped

(* A handler that raises must not wedge its session: every frame of
   the batch still unanswered gets an internal-error reply (counted in
   [server.errors] like any error), so each frame is answered exactly
   once, [pending] drains, and the entry goes idle as usual. *)
let run_turn t e =
  Mutex.lock t.mu;
  let batch = pop_batch e in
  touch t e;
  refresh_gauges t;
  Mutex.unlock t.mu;
  try
    match batch with
    | [] -> ()
    | [ pr ] -> (
      let verb = P.verb_of_request pr.p_req.P.q_req in
      Obs.Trace.with_span ~name:("server." ^ verb) @@ fun () ->
      match pr.p_req.P.q_req with
      | P.Open spec -> handle_open t e pr spec
      | P.Close -> handle_close t e pr
      | P.Apply_edits _ -> handle_edits t e [ pr ]
      | _ -> handle_simple t e pr)
    | prs ->
      Obs.Trace.with_span ~name:"server.apply_edits" @@ fun () ->
      handle_edits t e prs
  with exn ->
    let msg = "internal error: " ^ Printexc.to_string exn in
    List.iter (fun pr -> if not pr.p_answered then answer t pr (Error msg)) batch

(* One turn, then hand the session back to the pool's queue tail so
   other sessions interleave. At jobs = 1 the pool runs tasks inline
   at submit time, so rescheduling through it would recurse — loop
   here instead. *)
let rec run_turns t e =
  run_turn t e;
  Mutex.lock t.mu;
  let more = not (Queue.is_empty e.e_queue) in
  if not more then begin
    e.e_busy <- false;
    (* an entry going idle may be the candidate an over-cap sweep was
       missing (its reply races the idle flip) — re-run the sweep *)
    evict_if_needed t;
    refresh_gauges t
  end;
  Mutex.unlock t.mu;
  if more then begin
    if Parallel.Pool.jobs t.pool = 1 then run_turns t e
    else ignore (Parallel.Pool.submit t.pool (fun _tok -> run_turns t e))
  end

let schedule t e = ignore (Parallel.Pool.submit t.pool (fun _tok -> run_turns t e))

(* ------------------------------------------------------------------ *)
(* Submission                                                          *)

let submit t (req : P.req) reply =
  Metrics.incr m_requests;
  let enq = Unix.gettimeofday () in
  match req.q_req with
  | P.Stats ->
    reply_inline t reply req enq (Ok (P.Stats_snapshot (stats_json t)))
  | _ -> (
    Mutex.lock t.mu;
    let resolved =
      match (Hashtbl.find_opt t.tbl req.q_session, req.q_req) with
      | None, P.Open _ ->
        let e =
          {
            e_name = req.q_session;
            e_state = Empty;
            e_queue = Queue.create ();
            e_busy = false;
            e_stamp = 0;
          }
        in
        Hashtbl.replace t.tbl req.q_session e;
        Ok e
      | None, _ -> Error (Printf.sprintf "unknown session %S" req.q_session)
      | Some _, P.Open _ ->
        Error (Printf.sprintf "session %S already open" req.q_session)
      | Some e, _ -> Ok e
    in
    match resolved with
    | Error msg ->
      Mutex.unlock t.mu;
      reply_inline t reply req enq (Error msg)
    | Ok e ->
      t.pending <- t.pending + 1;
      touch t e;
      Queue.push
        { p_req = req; p_enq = enq; p_deq = enq; p_reply = reply; p_answered = false }
        e.e_queue;
      refresh_gauges t;
      let start = not e.e_busy in
      if start then e.e_busy <- true;
      Mutex.unlock t.mu;
      if start then schedule t e)

let call t req =
  let mu = Mutex.create () in
  let cv = Condition.create () in
  let slot = ref None in
  submit t req (fun resp ->
      Mutex.lock mu;
      slot := Some resp;
      Condition.signal cv;
      Mutex.unlock mu);
  Mutex.lock mu;
  while !slot = None do
    Condition.wait cv mu
  done;
  Mutex.unlock mu;
  Option.get !slot

let drain t =
  Mutex.lock t.mu;
  while t.pending > 0 do
    Condition.wait t.done_cv t.mu
  done;
  Mutex.unlock t.mu

let shutdown t =
  drain t;
  Parallel.Pool.shutdown t.pool
