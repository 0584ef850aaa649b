(* Tests for lib/server: the wire codec, durable snapshots, and the
   multi-session engine behind `qvtr serve`.

   The load-bearing properties:
   - protocol frames round-trip through the codec, and malformed
     frames are rejected naming the offending field;
   - an evicted-then-revived session answers with verdicts, menus and
     distances identical to one that never left memory (the snapshot
     round-trip guarantee), and corrupted/mis-versioned snapshot files
     are rejected with explicit errors;
   - request handling is jobs-invariant (a pool of workers computes
     exactly what the inline jobs=1 path does), requests to one
     session serialize in arrival order, and an LRU cap far below the
     client count never loses edits. *)

module P = Server.Protocol
module E = Server.Engine
module Snap = Server.Snapshot
module S = Incr.Session
module F = Featuremodel.Fm
module Ident = Mdl.Ident

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let check_contains ctx ~sub s =
  if not (contains ~sub s) then
    Alcotest.failf "%s: expected %S inside %S" ctx sub s

let replace ~sub ~by s =
  let n = String.length s and m = String.length sub in
  let rec find i =
    if i + m > n then None
    else if String.sub s i m = sub then Some i
    else find (i + 1)
  in
  match find 0 with
  | None -> Alcotest.failf "substring %S not found" sub
  | Some i -> String.sub s 0 i ^ by ^ String.sub s (i + m) (n - i - m)

let tmpdir tag =
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "mdqvtr-test-%s-%d" tag (Unix.getpid ()))

(* ------------------------------------------------------------------ *)
(* Fixtures: the paper's feature-model/configuration transformation    *)

let base_fm = [ ("A", true); ("B", false) ]

let models_text ~cf1 ~cf2 ~fm =
  String.concat "\n"
    (List.map Mdl.Serialize.model_to_string
       [
         F.feature_model ~name:"fm" fm;
         F.configuration ~name:"cf1" cf1;
         F.configuration ~name:"cf2" cf2;
       ])

let spec models =
  {
    P.o_transformation = F.source ~k:2;
    o_metamodels =
      Mdl.Serialize.metamodel_to_string F.fm_metamodel
      ^ "\n"
      ^ Mdl.Serialize.metamodel_to_string F.cf_metamodel;
    o_models = models;
    o_targets = [ "cf1"; "cf2" ];
    o_standard = false;
    o_slack = 2;
    o_headroom = 6;
  }

let base_spec () = spec (models_text ~cf1:[ "A" ] ~cf2:[ "A" ] ~fm:base_fm)

let next_id = Atomic.make 1

let call eng ?(session = "s") req =
  E.call eng
    { P.q_id = Atomic.fetch_and_add next_id 1; q_session = session; q_req = req }

let ok ctx (resp : P.resp) =
  match resp.P.s_result with
  | Ok p -> p
  | Error e -> Alcotest.failf "%s: unexpected error: %s" ctx e

let err ctx (resp : P.resp) =
  match resp.P.s_result with
  | Error e -> e
  | Ok _ -> Alcotest.failf "%s: expected an error reply" ctx

let checked ctx resp =
  match ok ctx resp with
  | P.Checked { consistent; verdicts; _ } -> (consistent, verdicts)
  | _ -> Alcotest.failf "%s: expected a Checked payload" ctx

let repaired ctx resp =
  match ok ctx resp with
  | P.Repaired { outcome; menu; _ } ->
    ( outcome,
      List.sort compare
        (List.map
           (fun (m : P.menu_entry) ->
             ( m.P.m_relational_distance,
               m.P.m_edit_distance,
               List.sort compare m.P.m_models ))
           menu) )
  | _ -> Alcotest.failf "%s: expected a Repaired payload" ctx

(* ------------------------------------------------------------------ *)
(* Protocol codec                                                      *)

let test_codec_round_trip () =
  let reqs =
    [
      { P.q_id = 1; q_session = "s1"; q_req = P.Open (base_spec ()) };
      {
        P.q_id = 2;
        q_session = "s1";
        q_req = P.Apply_edits { models = "model cf1 : CF {\n}" };
      };
      { P.q_id = 3; q_session = "s1"; q_req = P.Recheck { blame = true } };
      { P.q_id = 4; q_session = "s1"; q_req = P.Rerepair { limit = 8 } };
      { P.q_id = 5; q_session = "s1"; q_req = P.Commit { choice = 2 } };
      { P.q_id = 6; q_session = "s1"; q_req = P.Snapshot };
      { P.q_id = 7; q_session = "s1"; q_req = P.Close };
      { P.q_id = 8; q_session = ""; q_req = P.Stats };
    ]
  in
  List.iter
    (fun r ->
      match P.parse_request (P.request_to_string r) with
      | Ok r' ->
        Alcotest.(check bool)
          (P.verb_of_request r.P.q_req ^ " round-trips")
          true (r = r')
      | Error e -> Alcotest.fail e)
    reqs;
  let stats =
    {
      S.wall = 0.5;
      solver_calls = 3;
      conflicts = 7;
      propagations = 41;
      decisions = 11;
      translated = true;
      translate_s = 0.25;
    }
  in
  let resps =
    [
      ("open", { P.s_id = 1; s_result = Ok (P.Opened { revived = true }) });
      ("apply_edits", { P.s_id = 2; s_result = Ok (P.Applied { edits = 4 }) });
      ( "recheck",
        {
          P.s_id = 3;
          s_result =
            Ok
              (P.Checked
                 {
                   consistent = false;
                   verdicts =
                     [
                       {
                         P.w_relation = "MandatoryFeatures";
                         w_sources = [ "fm" ];
                         w_target = "cf1";
                         w_holds = false;
                         w_blame =
                           [ ("Feature", [ "fm"; "A" ], true); ("Feature", [ "cf1"; "B" ], false) ];
                       };
                     ];
                   stats;
                 });
        } );
      ( "rerepair",
        {
          P.s_id = 4;
          s_result =
            Ok
              (P.Repaired
                 {
                   outcome = "repaired";
                   menu =
                     [
                       {
                         P.m_relational_distance = 1;
                         m_edit_distance = 2;
                         m_models = [ ("cf1", "model cf1 : CF {\n}") ];
                       };
                     ];
                   stats;
                 });
        } );
      ("commit", { P.s_id = 5; s_result = Ok P.Committed });
      ( "snapshot",
        {
          P.s_id = 6;
          s_result = Ok (P.Snapshotted { path = "/tmp/s1.snap"; fingerprint = "abcd" });
        } );
      ("close", { P.s_id = 7; s_result = Ok P.Closed });
      ("recheck", { P.s_id = 9; s_result = Error "unknown session \"x\"" });
    ]
  in
  List.iter
    (fun (verb, r) ->
      match P.parse_response (P.response_to_string ~verb r) with
      | Ok r' ->
        Alcotest.(check bool) (verb ^ " response round-trips") true (r = r')
      | Error e -> Alcotest.fail e)
    resps;
  (* a blame entry without "present" decodes as a present fact *)
  match
    P.parse_response
      {|{"id":3,"verb":"recheck","ok":true,"consistent":false,
         "verdicts":[{"relation":"R","target":"cf1",
                      "blame":[{"relation":"Feature","atoms":["fm","A"]}]}],
         "stats":{"wall_time_s":0,"solver_calls":0,"conflicts":0,
                  "propagations":0,"decisions":0,"translate_s":0}}|}
  with
  | Ok { P.s_result = Ok (P.Checked { verdicts = [ v ]; _ }); _ } ->
    Alcotest.(check bool) "blame without present is present" true
      (v.P.w_blame = [ ("Feature", [ "fm"; "A" ], true) ])
  | Ok _ -> Alcotest.fail "expected one checked verdict"
  | Error e -> Alcotest.fail e

let test_codec_rejects_malformed () =
  let bad =
    [
      ("not json", "{");
      ("not an object", "[1,2]");
      ("missing verb", {|{"id":1,"session":"s"}|});
      ("unknown verb", {|{"id":1,"verb":"zap","session":"s"}|});
      ("missing session", {|{"id":1,"verb":"recheck"}|});
      ("missing models", {|{"id":1,"verb":"apply_edits","session":"s"}|});
      ( "mistyped field",
        {|{"id":1,"verb":"recheck","session":"s","blame":"yes"}|} );
      ( "mistyped id",
        {|{"id":"one","verb":"recheck","session":"s"}|} );
    ]
  in
  List.iter
    (fun (ctx, line) ->
      match P.parse_request line with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%s: frame %S must be rejected" ctx line)
    bad

let test_codec_rejects_out_of_range () =
  List.iter
    (fun (field, line) ->
      match P.parse_request line with
      | Error e -> check_contains line ~sub:(Printf.sprintf "%S" field) e
      | Ok _ -> Alcotest.failf "frame %S must be rejected" line)
    [
      ("choice", {|{"id":1,"verb":"commit","session":"s","choice":-1}|});
      ("limit", {|{"id":1,"verb":"rerepair","session":"s","limit":0}|});
      ("limit", {|{"id":1,"verb":"rerepair","session":"s","limit":-3}|});
    ]

(* ------------------------------------------------------------------ *)
(* Snapshot round-trip                                                 *)

let hydrate_exn ?extra_values sp =
  match Snap.hydrate ?extra_values sp with
  | Ok (sess, _) -> sess
  | Error e -> Alcotest.fail e

let recheck_exn sess =
  match S.recheck sess with Ok r -> r | Error e -> Alcotest.fail e

let rerepair_exn sess =
  match S.rerepair ~limit:16 sess with Ok r -> r | Error e -> Alcotest.fail e

let edit_to sess ~cf1 ~cf2 ~fm =
  let desired =
    F.bind
      ~cfs:[ F.configuration ~name:"cf1" cf1; F.configuration ~name:"cf2" cf2 ]
      ~fm:(F.feature_model ~name:"fm" fm)
  in
  let batch =
    List.filter_map
      (fun (p, after) ->
        match List.assoc_opt p (S.models sess) with
        | None -> None
        | Some before -> (
          match Mdl.Diff.script before after with
          | [] -> None
          | edits -> Some (p, edits)))
      desired
  in
  match S.apply_edits sess batch with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let verdict_keys (r : S.check_report) =
  List.map
    (fun (v : S.verdict) ->
      (Ident.name v.S.v_relation, v.S.v_direction, v.S.v_holds))
    r.S.verdicts

let repair_key tgts models =
  models
  |> List.filter (fun (p, _) -> Ident.Set.mem p tgts)
  |> List.map (fun (p, m) -> (Ident.name p, Mdl.Serialize.model_to_string m))
  |> List.sort compare

let menu_keys tgts (r : S.repair_report) =
  match r.S.outcome with
  | S.Already_consistent -> `Consistent
  | S.Cannot_restore -> `Cannot
  | S.Repaired reps ->
    `Menu
      (List.sort compare
         (List.map
            (fun (rp : S.repair) ->
              ( rp.S.r_relational_distance,
                rp.S.r_edit_distance,
                repair_key tgts rp.S.r_models ))
            reps))

let test_snapshot_round_trip () =
  let sp = base_spec () in
  let sess = hydrate_exn sp in
  (* grow the value universe past the spec's own text: a brand-new
     feature name arrives through an edit, not through o_models *)
  edit_to sess ~cf1:[ "A"; "C" ] ~cf2:[] ~fm:base_fm;
  let live_check = recheck_exn sess in
  let live_rep = rerepair_exn sess in
  let snap = Snap.of_session ~spec:sp sess in
  Alcotest.(check bool) "fingerprint non-empty" true (snap.Snap.fingerprint <> "");
  let text = Snap.to_string snap in
  let snap' =
    match Snap.of_string text with Ok s -> s | Error e -> Alcotest.fail e
  in
  Alcotest.(check string)
    "fingerprint survives to_string/of_string" snap.Snap.fingerprint
    snap'.Snap.fingerprint;
  Alcotest.(check bool) "spec survives" true (snap.Snap.spec = snap'.Snap.spec);
  (* file round-trip too: save + load *)
  let dir = tmpdir "snap" in
  let path =
    match Snap.save ~dir ~name:"victim" snap with
    | Ok p -> p
    | Error e -> Alcotest.fail e
  in
  let snap'' =
    match Snap.load path with Ok s -> s | Error e -> Alcotest.fail e
  in
  Alcotest.(check string)
    "fingerprint survives save/load" snap.Snap.fingerprint
    snap''.Snap.fingerprint;
  let sess' =
    match Snap.revive snap'' with
    | Ok (s, _) -> s
    | Error e -> Alcotest.fail e
  in
  let rev_check = recheck_exn sess' in
  Alcotest.(check bool)
    "revived consistency verdict" live_check.S.consistent
    rev_check.S.consistent;
  Alcotest.(check bool)
    "revived per-direction verdicts" true
    (verdict_keys live_check = verdict_keys rev_check);
  let rev_rep = rerepair_exn sess' in
  Alcotest.(check bool)
    "revived repair menu, distances included" true
    (menu_keys (S.targets sess) live_rep = menu_keys (S.targets sess') rev_rep)

let test_snapshot_rejects_corruption () =
  let sess = hydrate_exn (base_spec ()) in
  let snap = Snap.of_session ~spec:(base_spec ()) sess in
  let text = Snap.to_string snap in
  (match Snap.of_string (replace ~sub:Snap.format_version ~by:"mdqvtr-snapshot/9" text) with
  | Error e ->
    check_contains "version mismatch names the format" ~sub:"not supported" e
  | Ok _ -> Alcotest.fail "unknown format version must be rejected");
  let flipped =
    let f = snap.Snap.fingerprint in
    let c = if f.[0] = '0' then "1" else "0" in
    c ^ String.sub f 1 (String.length f - 1)
  in
  (match Snap.of_string (replace ~sub:snap.Snap.fingerprint ~by:flipped text) with
  | Error e ->
    check_contains "bad digest names the mismatch" ~sub:"fingerprint mismatch" e
  | Ok _ -> Alcotest.fail "a wrong fingerprint must be rejected");
  match Snap.of_string "not a snapshot" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "garbage must be rejected"

(* ------------------------------------------------------------------ *)
(* Engine: eviction transparency                                       *)

(* The same request sequence with and without LRU pressure: a cap of 1
   forces the victim to be evicted by the bystander and revived by its
   own next request; the payloads must not change. *)
let eviction_sequence ~evict =
  let evicted0 =
    Obs.Metrics.counter_value (Obs.Metrics.counter "server.sessions_evicted")
  in
  let eng =
    E.create ~jobs:1
      ~max_live:(if evict then 1 else 8)
      ~snapshot_dir:(tmpdir (if evict then "ev1" else "ev8"))
      ()
  in
  let r = ref [] in
  let push x = r := x :: !r in
  ignore (ok "open victim" (call eng ~session:"victim" (P.Open (base_spec ()))));
  (match
     ok "apply"
       (call eng ~session:"victim"
          (P.Apply_edits
             { models = models_text ~cf1:[ "A" ] ~cf2:[] ~fm:base_fm }))
   with
  | P.Applied { edits } -> push (`Edits edits)
  | _ -> Alcotest.fail "expected Applied");
  push (`Check (checked "recheck 1" (call eng ~session:"victim" (P.Recheck { blame = false }))));
  if evict then
    ignore
      (ok "open bystander"
         (call eng ~session:"bystander" (P.Open (base_spec ()))));
  push (`Repair (repaired "rerepair" (call eng ~session:"victim" (P.Rerepair { limit = 8 }))));
  (match ok "commit" (call eng ~session:"victim" (P.Commit { choice = 0 })) with
  | P.Committed -> ()
  | _ -> Alcotest.fail "expected Committed");
  push (`Check (checked "recheck 2" (call eng ~session:"victim" (P.Recheck { blame = false }))));
  E.shutdown eng;
  let evicted =
    Obs.Metrics.counter_value (Obs.Metrics.counter "server.sessions_evicted")
    - evicted0
  in
  if evict then
    Alcotest.(check bool) "LRU pressure actually evicted" true (evicted > 0)
  else Alcotest.(check int) "no eviction without pressure" 0 evicted;
  List.rev !r

let test_eviction_is_transparent () =
  let plain = eviction_sequence ~evict:false in
  let churned = eviction_sequence ~evict:true in
  Alcotest.(check bool)
    "evicted-then-revived payloads identical to never-evicted" true
    (plain = churned)

(* ------------------------------------------------------------------ *)
(* Engine: jobs invariance                                             *)

(* Four clients, each with its own session and target state; replies
   gathered through async submit. Payloads must not depend on the
   worker-pool size. *)
let client_states =
  [
    ("c0", ([ "A" ], ([] : string list), base_fm));
    ("c1", ([ "A" ], [ "A" ], [ ("A", true); ("B", true) ]));
    ("c2", ([ "A"; "B" ], [ "A"; "B" ], base_fm));
    ("c3", ([ "A" ], [ "A" ], base_fm));
  ]

let run_clients ~jobs =
  let eng =
    E.create ~jobs ~max_live:8
      ~snapshot_dir:(tmpdir (Printf.sprintf "inv%d" jobs))
      ()
  in
  let mu = Mutex.create () in
  let replies = Hashtbl.create 16 in
  let submit session req =
    let id = Atomic.fetch_and_add next_id 1 in
    E.submit eng
      { P.q_id = id; q_session = session; q_req = req }
      (fun resp ->
        Mutex.lock mu;
        Hashtbl.replace replies (session, P.verb_of_request req) resp;
        Mutex.unlock mu);
  in
  List.iter (fun (c, _) -> submit c (P.Open (base_spec ()))) client_states;
  E.drain eng;
  List.iter
    (fun (c, (cf1, cf2, fm)) ->
      submit c (P.Apply_edits { models = models_text ~cf1 ~cf2 ~fm });
      submit c (P.Recheck { blame = true });
      submit c (P.Rerepair { limit = 4 }))
    client_states;
  E.drain eng;
  let out =
    List.map
      (fun (c, _) ->
        let get verb = Hashtbl.find replies (c, verb) in
        ( c,
          checked (c ^ " recheck") (get "recheck"),
          repaired (c ^ " rerepair") (get "rerepair") ))
      client_states
  in
  E.shutdown eng;
  out

let test_parallel_clients_jobs_invariant () =
  let serial = run_clients ~jobs:1 in
  let pooled = run_clients ~jobs:4 in
  List.iter2
    (fun (c, chk1, rep1) (_, chk2, rep2) ->
      Alcotest.(check bool) (c ^ ": recheck jobs-invariant") true (chk1 = chk2);
      Alcotest.(check bool) (c ^ ": rerepair jobs-invariant") true (rep1 = rep2))
    serial pooled

(* ------------------------------------------------------------------ *)
(* Engine: per-session serialization                                   *)

let test_interleaved_requests_serialize () =
  let eng = E.create ~jobs:4 ~max_live:4 ~snapshot_dir:(tmpdir "ser") () in
  ignore (ok "open" (call eng ~session:"s" (P.Open (base_spec ()))));
  let mu = Mutex.create () in
  let arrivals = ref [] in
  let submit req =
    let id = Atomic.fetch_and_add next_id 1 in
    E.submit eng
      { P.q_id = id; q_session = "s"; q_req = req }
      (fun resp ->
        Mutex.lock mu;
        arrivals := resp :: !arrivals;
        Mutex.unlock mu);
    id
  in
  (* a burst the engine is free to coalesce: edit -> recheck -> edit ->
     recheck, all in flight at once; the first recheck must see the
     inconsistent state, the second the repaired-by-hand state *)
  let i1 = submit (P.Apply_edits { models = models_text ~cf1:[ "A" ] ~cf2:[] ~fm:base_fm }) in
  let i2 = submit (P.Recheck { blame = false }) in
  let i3 = submit (P.Apply_edits { models = models_text ~cf1:[ "A" ] ~cf2:[ "A" ] ~fm:base_fm }) in
  let i4 = submit (P.Recheck { blame = false }) in
  E.drain eng;
  let replies = List.rev !arrivals in
  Alcotest.(check (list int))
    "replies arrive in request order" [ i1; i2; i3; i4 ]
    (List.map (fun (r : P.resp) -> r.P.s_id) replies);
  let find id = List.find (fun (r : P.resp) -> r.P.s_id = id) replies in
  let c1, _ = checked "first recheck" (find i2) in
  let c2, _ = checked "second recheck" (find i4) in
  Alcotest.(check bool) "first recheck sees its own edit" false c1;
  Alcotest.(check bool) "second recheck sees the restore" true c2;
  E.shutdown eng

(* An editor firing saves: three apply_edits frames and a recheck,
   submitted from inside the open reply so that they queue behind the
   session's busy turn. The engine must fold the three saves into one
   batch, the recheck must see the last save, and every frame must be
   served and logged exactly once. The saves' verdicts differ pairwise
   (MF broken, consistent, OF broken), so a recheck that ran before
   the last save shows. *)
let test_edits_coalesce_behind_busy_turn () =
  let coalesced () =
    Obs.Metrics.counter_value (Obs.Metrics.counter "server.edits_coalesced")
  in
  let saves =
    [
      ([ "A" ], [], base_fm);
      ([ "A" ], [ "A" ], base_fm);
      ([ "A"; "B" ], [ "A" ], [ ("A", true) ]);
    ]
  in
  let control (cf1, cf2, fm) =
    let rep = recheck_exn (hydrate_exn (spec (models_text ~cf1 ~cf2 ~fm))) in
    ( rep.S.consistent,
      List.map
        (fun (v : S.verdict) -> (Ident.name v.S.v_relation, v.S.v_holds))
        rep.S.verdicts )
  in
  let expected = control (List.nth saves 2) in
  List.iter
    (fun st ->
      Alcotest.(check bool) "fixture: the last save is distinguishable" true
        (control st <> expected))
    [ List.nth saves 0; List.nth saves 1 ];
  List.iter
    (fun jobs ->
      let reqlog = Server.Reqlog.create () in
      let eng =
        E.create ~jobs ~max_live:4
          ~snapshot_dir:(tmpdir (Printf.sprintf "coalesce%d" jobs))
          ~reqlog ()
      in
      (* the callbacks only record: an exception raised inside a reply
         callback would escape the engine's accounting *)
      let replies = Array.init 5 (fun _ -> Atomic.make None) in
      let submitted = Atomic.make 0 in
      let submit req on_reply =
        let i = Atomic.fetch_and_add submitted 1 in
        E.submit eng
          { P.q_id = Atomic.fetch_and_add next_id 1; q_session = "s"; q_req = req }
          (fun r ->
            Atomic.set replies.(i) (Some r);
            on_reply ())
      in
      let c0 = coalesced () in
      submit (P.Open (base_spec ())) (fun () ->
          List.iter
            (fun (cf1, cf2, fm) ->
              submit (P.Apply_edits { models = models_text ~cf1 ~cf2 ~fm }) ignore)
            saves;
          submit (P.Recheck { blame = false }) ignore);
      E.drain eng;
      E.shutdown eng;
      let ctx = Printf.sprintf "jobs %d" jobs in
      let reply i =
        match Atomic.get replies.(i) with
        | Some r -> r
        | None -> Alcotest.failf "%s: frame %d never answered" ctx i
      in
      ignore (ok (ctx ^ " open") (reply 0));
      List.iter
        (fun i ->
          match ok (ctx ^ " apply_edits") (reply i) with
          | P.Applied _ -> ()
          | _ -> Alcotest.failf "%s: expected Applied" ctx)
        [ 1; 2; 3 ];
      Alcotest.(check int) (ctx ^ ": three saves coalesced into one batch") 2
        (coalesced () - c0);
      let consistent, verdicts = checked (ctx ^ " recheck") (reply 4) in
      Alcotest.(check bool) (ctx ^ ": recheck sees the last save") true
        (( consistent,
           List.map (fun (w : P.verdict) -> (w.P.w_relation, w.P.w_holds)) verdicts )
        = expected);
      Alcotest.(check int) (ctx ^ ": frames served") (Atomic.get submitted)
        (E.frames_served eng);
      Alcotest.(check int) (ctx ^ ": one log record per frame") (Atomic.get submitted)
        (Server.Reqlog.count reqlog))
    [ 1; 2 ]

(* ------------------------------------------------------------------ *)
(* Engine: LRU cap far below the client count                          *)

let test_lru_never_loses_edits () =
  let evicted0 =
    Obs.Metrics.counter_value (Obs.Metrics.counter "server.sessions_evicted")
  in
  let revived0 =
    Obs.Metrics.counter_value (Obs.Metrics.counter "server.sessions_revived")
  in
  let eng = E.create ~jobs:1 ~max_live:2 ~snapshot_dir:(tmpdir "lru") () in
  let clients = List.init 5 (fun i -> Printf.sprintf "c%d" i) in
  (* every client walks through three distinct states; interleaving the
     clients round-robin keeps evicting whoever went idle last *)
  let state i r =
    let cf1 = if r >= 2 then [ "A"; "B" ] else [ "A" ] in
    let cf2 = if r >= 1 && i < 3 then [] else [ "A" ] in
    let fm = if r >= 3 && i mod 2 = 0 then [ ("A", true); ("B", true) ] else base_fm in
    (cf1, cf2, fm)
  in
  List.iter
    (fun c -> ignore (ok ("open " ^ c) (call eng ~session:c (P.Open (base_spec ())))))
    clients;
  for r = 1 to 3 do
    List.iteri
      (fun i c ->
        let cf1, cf2, fm = state i r in
        match
          ok
            (Printf.sprintf "%s round %d" c r)
            (call eng ~session:c
               (P.Apply_edits { models = models_text ~cf1 ~cf2 ~fm }))
        with
        | P.Applied _ -> ()
        | _ -> Alcotest.fail "expected Applied")
      clients
  done;
  (* no edit was lost: each session's durable snapshot restates exactly
     the client's final models, and its verdicts equal a fresh
     session's over that state *)
  List.iteri
    (fun i c ->
      let cf1, cf2, fm = state i 3 in
      let expected =
        List.sort compare
          (List.map
             (fun m -> (Ident.name (Mdl.Model.name m), Mdl.Serialize.model_to_string m))
             [
               F.feature_model ~name:"fm" fm;
               F.configuration ~name:"cf1" cf1;
               F.configuration ~name:"cf2" cf2;
             ])
      in
      let path =
        match ok (c ^ " snapshot") (call eng ~session:c P.Snapshot) with
        | P.Snapshotted { path; _ } -> path
        | _ -> Alcotest.fail "expected Snapshotted"
      in
      let snap =
        match Snap.load path with Ok s -> s | Error e -> Alcotest.fail e
      in
      let stored =
        match
          Mdl.Serialize.parse_models [ F.fm_metamodel; F.cf_metamodel ]
            snap.Snap.spec.P.o_models
        with
        | Ok ms ->
          List.sort compare
            (List.map
               (fun m ->
                 (Ident.name (Mdl.Model.name m), Mdl.Serialize.model_to_string m))
               ms)
        | Error e -> Alcotest.fail e
      in
      Alcotest.(check bool) (c ^ ": snapshot restates every edit") true
        (stored = expected);
      let consistent, verdicts =
        checked (c ^ " final recheck") (call eng ~session:c (P.Recheck { blame = false }))
      in
      let control = hydrate_exn (spec (models_text ~cf1 ~cf2 ~fm)) in
      let control_rep = recheck_exn control in
      Alcotest.(check bool) (c ^ ": consistency equals fresh control")
        control_rep.S.consistent consistent;
      Alcotest.(check bool) (c ^ ": verdicts equal fresh control") true
        (List.map
           (fun (v : S.verdict) -> (Ident.name v.S.v_relation, v.S.v_holds))
           control_rep.S.verdicts
        = List.map (fun (w : P.verdict) -> (w.P.w_relation, w.P.w_holds)) verdicts))
    clients;
  E.shutdown eng;
  let evicted =
    Obs.Metrics.counter_value (Obs.Metrics.counter "server.sessions_evicted")
    - evicted0
  in
  let revived =
    Obs.Metrics.counter_value (Obs.Metrics.counter "server.sessions_revived")
    - revived0
  in
  Alcotest.(check bool) "cap 2 with 5 clients churned" true
    (evicted > 0 && revived > 0)

(* ------------------------------------------------------------------ *)
(* Engine: addressing errors and stats                                 *)

let test_engine_addressing () =
  let eng = E.create ~jobs:1 ~max_live:4 ~snapshot_dir:(tmpdir "addr") () in
  check_contains "unknown session" ~sub:"unknown session"
    (err "recheck nowhere" (call eng ~session:"nope" (P.Recheck { blame = false })));
  ignore (ok "open s" (call eng ~session:"s" (P.Open (base_spec ()))));
  check_contains "double open" ~sub:"already open"
    (err "reopen s" (call eng ~session:"s" (P.Open (base_spec ()))));
  check_contains "commit without menu" ~sub:"rerepair first"
    (err "stale commit" (call eng ~session:"s" (P.Commit { choice = 0 })));
  (match ok "close" (call eng ~session:"s" P.Close) with
  | P.Closed -> ()
  | _ -> Alcotest.fail "expected Closed");
  check_contains "closed sessions are forgotten" ~sub:"unknown session"
    (err "recheck closed" (call eng ~session:"s" (P.Recheck { blame = false })));
  (match ok "stats" (call eng ~session:"" P.Stats) with
  | P.Stats_snapshot j ->
    (match Obs.Json.to_int_opt (Obs.Json.member "sessions_live" j) with
    | Some n -> Alcotest.(check int) "no sessions left live" 0 n
    | None -> Alcotest.fail "stats payload must carry sessions_live")
  | _ -> Alcotest.fail "expected Stats_snapshot");
  E.shutdown eng

(* Frames the wire codec rejects can still reach the engine from an
   in-process caller. A zero repair limit must be an error (not a
   false cannot_restore), and a handler that raises (a negative menu
   index) must still be answered: the session keeps serving, drain
   returns, and every frame is counted and logged exactly once. *)
let test_hostile_frames_answered () =
  let errors () = Obs.Metrics.counter_value (Obs.Metrics.counter "server.errors") in
  List.iter
    (fun jobs ->
      let dir = tmpdir (Printf.sprintf "hostile-%d" jobs) in
      (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
      let log_path = Filename.concat dir "req.jsonl" in
      (try Sys.remove log_path with Sys_error _ -> ());
      let reqlog = Server.Reqlog.create ~path:log_path () in
      let eng = E.create ~jobs ~max_live:4 ~snapshot_dir:dir ~reqlog () in
      let errors0 = errors () in
      ignore (ok "open" (call eng (P.Open (base_spec ()))));
      ignore
        (ok "apply"
           (call eng (P.Apply_edits { models = models_text ~cf1:[ "A" ] ~cf2:[] ~fm:base_fm })));
      check_contains "limit 0" ~sub:"limit" (err "rerepair 0" (call eng (P.Rerepair { limit = 0 })));
      (match repaired "rerepair 4" (call eng (P.Rerepair { limit = 4 })) with
      | "repaired", _ :: _ -> ()
      | outcome, _ -> Alcotest.failf "limit 4 must repair, got %s" outcome);
      (* pipelined: the raising commit, then a recheck behind it *)
      let replies = Array.make 2 None in
      List.iteri
        (fun i req ->
          E.submit eng
            { P.q_id = Atomic.fetch_and_add next_id 1; q_session = "s"; q_req = req }
            (fun r -> replies.(i) <- Some r))
        [ P.Commit { choice = -1 }; P.Recheck { blame = false } ];
      let deadline = Unix.gettimeofday () +. 30.0 in
      while Array.exists Option.is_none replies && Unix.gettimeofday () < deadline do
        Unix.sleepf 0.005
      done;
      (match replies with
      | [| Some commit; Some recheck |] ->
        check_contains "commit -1" ~sub:"internal error" (err "commit -1" commit);
        ignore (checked "recheck after the failed commit" recheck)
      | _ -> Alcotest.failf "jobs %d: a frame behind a raising handler was never answered" jobs);
      E.drain eng;
      E.shutdown eng;
      Server.Reqlog.close reqlog;
      Alcotest.(check int) "both errors counted" 2 (errors () - errors0);
      Alcotest.(check int) "frames served" 6 (E.frames_served eng);
      Alcotest.(check int) "one record per frame" 6 (Server.Reqlog.count reqlog))
    [ 1; 2 ]

(* ------------------------------------------------------------------ *)
(* Telemetry plane: queue-wait accounting, request log, slow counter   *)

let test_queue_accounting_and_reqlog () =
  let m = Obs.Metrics.counter in
  let slow0 = Obs.Metrics.counter_value (m "server.slow_requests") in
  let qw_recheck = Obs.Metrics.histogram "server.queue_wait.recheck_s" in
  let sv_recheck = Obs.Metrics.histogram "server.service.recheck_s" in
  let qw0 = Obs.Metrics.histogram_count qw_recheck in
  let sv0 = Obs.Metrics.histogram_count sv_recheck in
  let dir = tmpdir "reqlog" in
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let log_path = Filename.concat dir "req.jsonl" in
  (try Sys.remove log_path with Sys_error _ -> ());
  let reqlog = Server.Reqlog.create ~path:log_path () in
  (* slow_ms 0: every reply crosses the threshold, so the slow counter
     must advance once per frame — exactly like the record count *)
  let eng = E.create ~jobs:1 ~max_live:4 ~snapshot_dir:dir ~slow_ms:0.0 ~reqlog () in
  ignore (ok "open" (call eng ~session:"q" (P.Open (base_spec ()))));
  (match
     ok "apply"
       (call eng ~session:"q"
          (P.Apply_edits { models = models_text ~cf1:[ "A" ] ~cf2:[] ~fm:base_fm }))
   with
  | P.Applied _ -> ()
  | _ -> Alcotest.fail "expected Applied");
  ignore (checked "recheck 1" (call eng ~session:"q" (P.Recheck { blame = false })));
  ignore (checked "recheck 2" (call eng ~session:"q" (P.Recheck { blame = false })));
  ignore (err "unknown session" (call eng ~session:"ghost" (P.Recheck { blame = false })));
  (match ok "stats" (call eng ~session:"" P.Stats) with
  | P.Stats_snapshot _ -> ()
  | _ -> Alcotest.fail "expected Stats_snapshot");
  E.shutdown eng;
  Server.Reqlog.close reqlog;
  (* zero lost, zero double-counted: engine counter == reqlog count ==
     frames submitted *)
  Alcotest.(check int) "frames served" 6 (E.frames_served eng);
  Alcotest.(check int) "reqlog counted every reply" 6 (Server.Reqlog.count reqlog);
  Alcotest.(check int) "every frame was slow at slow_ms=0" 6
    (Obs.Metrics.counter_value (m "server.slow_requests") - slow0);
  (* the two queued rechecks split into queue-wait + service samples;
     the unknown-session recheck was answered inline and contributes to
     the same verb histograms, so +3 each *)
  Alcotest.(check int) "queue-wait samples per verb" 3
    (Obs.Metrics.histogram_count qw_recheck - qw0);
  Alcotest.(check int) "service samples per verb" 3
    (Obs.Metrics.histogram_count sv_recheck - sv0);
  (* the JSONL file strict-parses, one record per frame, schema intact *)
  let ic = open_in log_path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> ());
  close_in ic;
  let lines = List.rev !lines in
  Alcotest.(check int) "one JSONL record per frame" 6 (List.length lines);
  let verbs =
    List.map
      (fun line ->
        match Obs.Json.of_string line with
        | Error e -> Alcotest.failf "record is not strict JSON: %s" e
        | Ok j ->
          List.iter
            (fun field ->
              if Obs.Json.member field j = Obs.Json.Null then
                Alcotest.failf "record %s lacks %s" line field)
            [ "ts"; "id"; "session"; "verb"; "queue_wait_s"; "service_s";
              "outcome"; "slow" ];
          (match Obs.Json.to_bool_opt (Obs.Json.member "slow" j) with
          | Some true -> ()
          | _ -> Alcotest.fail "slow_ms=0 must flag every record slow");
          Option.get (Obs.Json.to_string_opt (Obs.Json.member "verb" j)))
      lines
  in
  Alcotest.(check (list string))
    "verbs in reply order"
    [ "open"; "apply_edits"; "recheck"; "recheck"; "recheck"; "stats" ]
    verbs

let test_sessions_json () =
  let eng = E.create ~jobs:1 ~max_live:4 ~snapshot_dir:(tmpdir "sess") () in
  ignore (ok "open a" (call eng ~session:"alpha" (P.Open (base_spec ()))));
  ignore (ok "open b" (call eng ~session:"beta" (P.Open (base_spec ()))));
  let j = E.sessions_json eng in
  let rows = Obs.Json.to_list (Obs.Json.member "sessions" j) in
  Alcotest.(check int) "two sessions listed" 2 (List.length rows);
  Alcotest.(check (list (option string)))
    "sorted by name"
    [ Some "alpha"; Some "beta" ]
    (List.map (fun r -> Obs.Json.to_string_opt (Obs.Json.member "session" r)) rows);
  List.iter
    (fun r ->
      Alcotest.(check (option string))
        "state is live" (Some "live")
        (Obs.Json.to_string_opt (Obs.Json.member "state" r));
      Alcotest.(check (option int))
        "idle queue" (Some 0)
        (Obs.Json.to_int_opt (Obs.Json.member "queue_depth" r));
      Alcotest.(check (option bool))
        "not busy" (Some false)
        (Obs.Json.to_bool_opt (Obs.Json.member "busy" r)))
    rows;
  E.shutdown eng

(* Satellite: malformed frames are counted globally and per connection,
   and never reach the engine. Driven through Net.feed — the exact
   code path a live connection's drain loop runs. *)
let test_net_feed_protocol_errors () =
  let proto0 =
    Obs.Metrics.counter_value (Obs.Metrics.counter "server.protocol_errors")
  in
  let eng = E.create ~jobs:1 ~max_live:4 ~snapshot_dir:(tmpdir "feed") () in
  let served0 = E.frames_served eng in
  let replies = ref [] in
  let send line = replies := line :: !replies in
  let proto_errors = ref 0 in
  let feed = Server.Net.feed ~engine:eng ~proto_errors ~send in
  feed "this is not json";
  feed "";
  feed "   ";
  feed {|{"id":41,"verb":"recheck"}|};
  feed {|{"id":42,"session":"","verb":"stats"}|};
  E.drain eng;
  E.shutdown eng;
  let replies = List.rev !replies in
  Alcotest.(check int) "per-connection tally" 2 !proto_errors;
  Alcotest.(check int) "global protocol_errors counter" 2
    (Obs.Metrics.counter_value (Obs.Metrics.counter "server.protocol_errors")
    - proto0);
  (* blank lines are ignored; malformed frames never reach the engine *)
  Alcotest.(check int) "only the valid frame reached the engine" 1
    (E.frames_served eng - served0);
  Alcotest.(check int) "every non-blank frame got a reply" 3
    (List.length replies);
  (match replies with
  | [ r1; r2; r3 ] ->
    check_contains "first error reply carries the tally"
      ~sub:"protocol error 1 on this connection" r1;
    check_contains "second error reply carries the tally"
      ~sub:"protocol error 2 on this connection" r2;
    check_contains "the valid stats frame is answered" ~sub:"\"ok\":true" r3
  | _ -> Alcotest.fail "expected exactly three replies")

(* Framing without a socket: chunk boundaries anywhere, several frames
   per chunk, a linear cost, and a cap that closes the connection. *)
let test_net_framing () =
  let module N = Server.Net in
  let frames ~limit pending chunk =
    match N.frames ~limit pending chunk with
    | lines, Ok pending -> (lines, pending)
    | _, Error n -> Alcotest.failf "unexpected oversized frame (%d bytes)" n
  in
  let feed_all ~limit chunks =
    List.fold_left
      (fun (pending, acc) chunk ->
        let lines, pending = frames ~limit pending chunk in
        (pending, acc @ lines))
      (N.empty, []) chunks
  in
  let frame = {|{"id":7,"session":"","verb":"stats"}|} in
  let _, lines =
    feed_all ~limit:64
      (List.init (String.length frame + 1) (fun i ->
           if i < String.length frame then String.make 1 frame.[i] else "\n"))
  in
  Alcotest.(check (list string)) "a frame fed a byte at a time" [ frame ] lines;
  let lines, pending = frames ~limit:64 N.empty "a\nbb\n\nccc\ndd" in
  Alcotest.(check (list string)) "several frames in one chunk" [ "a"; "bb"; ""; "ccc" ] lines;
  let lines, _ = frames ~limit:64 pending "d\n" in
  Alcotest.(check (list string)) "the tail joins the next chunk" [ "ddd" ] lines;
  let _, lines = feed_all ~limit:4 [ "ab"; "cd\n" ] in
  Alcotest.(check (list string)) "a frame at the limit passes" [ "abcd" ] lines;
  let oversized = function [], Error n -> n | _ -> 0 in
  Alcotest.(check int) "a complete frame over the limit" 5
    (oversized (N.frames ~limit:4 N.empty "abcde\n"));
  let _, pending = frames ~limit:4 N.empty "abc" in
  Alcotest.(check int) "an unterminated frame over the limit" 5
    (oversized (N.frames ~limit:4 pending "de"));
  (* 4 MiB in 64 KiB reads: each byte is copied a bounded number of
     times (re-copying the pending tail per read would be ~128 MiB) *)
  let chunk = String.make 65536 'x' in
  let a0 = Gc.allocated_bytes () in
  let _, lines = feed_all ~limit:N.max_frame_bytes (List.init 64 (fun _ -> chunk) @ [ "\n" ]) in
  let allocated = Gc.allocated_bytes () -. a0 in
  Alcotest.(check (list int)) "one 4 MiB frame" [ 64 * 65536 ] (List.map String.length lines);
  if allocated > 4. *. float_of_int (64 * 65536) then
    Alcotest.failf "framing 4 MiB allocated %.0f bytes" allocated;
  (* an oversized frame: one error naming the limit, counted, close *)
  let proto0 = Obs.Metrics.counter_value (Obs.Metrics.counter "server.protocol_errors") in
  let eng = E.create ~jobs:1 ~max_live:4 ~snapshot_dir:(tmpdir "framing") () in
  let replies = ref [] in
  let proto_errors = ref 0 in
  let kept =
    N.receive ~limit:64 ~engine:eng ~proto_errors
      ~send:(fun l -> replies := l :: !replies)
      N.empty
      (frame ^ "\n" ^ String.make 100 'x')
  in
  E.drain eng;
  E.shutdown eng;
  Alcotest.(check bool) "an oversized frame closes the connection" true (kept = None);
  Alcotest.(check int) "counted on the connection" 1 !proto_errors;
  Alcotest.(check int) "counted in server.protocol_errors" 1
    (Obs.Metrics.counter_value (Obs.Metrics.counter "server.protocol_errors") - proto0);
  match List.rev !replies with
  | [ stats; error ] ->
    check_contains "the frame before it is answered" ~sub:"\"ok\":true" stats;
    check_contains "one error naming the limit" ~sub:"64-byte limit" error
  | rs -> Alcotest.failf "expected two replies, got %d" (List.length rs)

(* ------------------------------------------------------------------ *)
(* Snapshot save failures                                              *)

let write_file path text =
  let oc = open_out_bin path in
  output_string oc text;
  close_out oc

let tmp_entries dir =
  List.filter
    (fun f -> Filename.check_suffix f ".tmp")
    (Array.to_list (Sys.readdir dir))

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

(* A failed save leaves neither its temp file nor an open descriptor
   behind: the rename fails when [<name>.snap] is a non-empty
   directory, and the final flush fails when the temp path leads to
   /dev/full (where the host has one). *)
let test_snapshot_save_failures_clean_up () =
  let sp = base_spec () in
  let snap = Snap.of_session ~spec:sp (hydrate_exn sp) in
  let dir = tmpdir "snapfail" in
  rm_rf dir;
  Unix.mkdir dir 0o755;
  let blocker = Filename.concat dir "victim.snap" in
  Unix.mkdir blocker 0o755;
  write_file (Filename.concat blocker "occupant") "x";
  (match Snap.save ~dir ~name:"victim" snap with
  | Ok p -> Alcotest.failf "save over a non-empty directory succeeded: %s" p
  | Error _ -> ());
  Alcotest.(check (list string)) "no temp file after a failed rename" [] (tmp_entries dir);
  Alcotest.(check bool) "the blocking directory is untouched" true
    (Sys.file_exists (Filename.concat blocker "occupant"));
  if Sys.file_exists "/dev/full" && Sys.file_exists "/proc/self/fd" then begin
    let fds () = Array.length (Sys.readdir "/proc/self/fd") in
    let tmp = Filename.concat dir "full.snap.tmp" in
    let before = fds () in
    for _ = 1 to 3 do
      Unix.symlink "/dev/full" tmp;
      match Snap.save ~dir ~name:"full" snap with
      | Ok p -> Alcotest.failf "save onto /dev/full succeeded: %s" p
      | Error _ -> ()
    done;
    Alcotest.(check int) "no descriptor leaked by failed writes" before (fds ());
    Alcotest.(check (list string)) "no temp file after a failed write" [] (tmp_entries dir)
  end;
  rm_rf dir

(* An eviction whose snapshot cannot be written is counted, and the
   session it could not evict keeps answering. *)
let test_eviction_save_errors_counted () =
  let errors = Obs.Metrics.counter "server.snapshot_errors" in
  let e0 = Obs.Metrics.counter_value errors in
  let not_a_dir = tmpdir "notadir" in
  rm_rf not_a_dir;
  write_file not_a_dir "a regular file, not a snapshot directory";
  let eng = E.create ~jobs:1 ~max_live:1 ~snapshot_dir:not_a_dir () in
  List.iter
    (fun session -> ignore (ok ("open " ^ session) (call eng ~session (P.Open (base_spec ())))))
    [ "s1"; "s2" ];
  List.iter
    (fun session ->
      let consistent, _ =
        checked ("recheck " ^ session) (call eng ~session (P.Recheck { blame = false }))
      in
      Alcotest.(check bool) (session ^ " verdict") true consistent)
    [ "s1"; "s2" ];
  Alcotest.(check bool) "server.snapshot_errors advanced" true
    (Obs.Metrics.counter_value errors > e0);
  check_contains "/metrics exports the counter" ~sub:"server_snapshot_errors"
    (Obs.Metrics.to_prometheus ());
  E.shutdown eng;
  rm_rf not_a_dir

let suite =
  [
    Alcotest.test_case "protocol frames round-trip" `Quick test_codec_round_trip;
    Alcotest.test_case "protocol rejects malformed frames" `Quick
      test_codec_rejects_malformed;
    Alcotest.test_case "snapshot round-trip revives verdicts and menus" `Quick
      test_snapshot_round_trip;
    Alcotest.test_case "snapshot rejects corruption" `Quick
      test_snapshot_rejects_corruption;
    Alcotest.test_case "eviction is transparent" `Quick
      test_eviction_is_transparent;
    Alcotest.test_case "parallel clients are jobs-invariant" `Slow
      test_parallel_clients_jobs_invariant;
    Alcotest.test_case "interleaved requests serialize" `Quick
      test_interleaved_requests_serialize;
    Alcotest.test_case "LRU cap 2, 5 clients: no edit lost" `Slow
      test_lru_never_loses_edits;
    Alcotest.test_case "protocol rejects negative choice and zero limit" `Quick
      test_codec_rejects_out_of_range;
    Alcotest.test_case "raising handlers and zero limits are answered" `Quick
      test_hostile_frames_answered;
    Alcotest.test_case "addressing errors and stats" `Quick
      test_engine_addressing;
    Alcotest.test_case "queue-wait accounting and request log" `Quick
      test_queue_accounting_and_reqlog;
    Alcotest.test_case "sessions_json lists every session" `Quick
      test_sessions_json;
    Alcotest.test_case "net feed counts protocol errors" `Quick
      test_net_feed_protocol_errors;
    Alcotest.test_case "net framing is linear and bounded" `Quick test_net_framing;
    Alcotest.test_case "failed snapshot saves clean up" `Quick
      test_snapshot_save_failures_clean_up;
    Alcotest.test_case "failed eviction saves are counted" `Quick
      test_eviction_save_errors_counted;
    Alcotest.test_case "edits coalesce behind a busy turn" `Quick
      test_edits_coalesce_behind_busy_turn;
  ]
