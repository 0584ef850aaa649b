module Json = Obs.Json

type open_spec = {
  o_transformation : string;
  o_metamodels : string;
  o_models : string;
  o_targets : string list;
  o_standard : bool;
  o_slack : int;
  o_headroom : int;
}

type request =
  | Open of open_spec
  | Apply_edits of { models : string }
  | Recheck of { blame : bool }
  | Rerepair of { limit : int }
  | Commit of { choice : int }
  | Snapshot
  | Close
  | Stats

type req = {
  q_id : int;
  q_session : string;
  q_req : request;
}

type verdict = {
  w_relation : string;
  w_sources : string list;
  w_target : string;
  w_holds : bool;
  w_blame : (string * string list * bool) list;
}

type menu_entry = {
  m_relational_distance : int;
  m_edit_distance : int;
  m_models : (string * string) list;
}

type payload =
  | Opened of { revived : bool }
  | Applied of { edits : int }
  | Checked of {
      consistent : bool;
      verdicts : verdict list;
      stats : Incr.Session.step_stats;
    }
  | Repaired of {
      outcome : string;
      menu : menu_entry list;
      stats : Incr.Session.step_stats;
    }
  | Committed
  | Snapshotted of { path : string; fingerprint : string }
  | Closed
  | Stats_snapshot of Json.t

type resp = {
  s_id : int;
  s_result : (payload, string) result;
}

let verb_of_request = function
  | Open _ -> "open"
  | Apply_edits _ -> "apply_edits"
  | Recheck _ -> "recheck"
  | Rerepair _ -> "rerepair"
  | Commit _ -> "commit"
  | Snapshot -> "snapshot"
  | Close -> "close"
  | Stats -> "stats"

(* ------------------------------------------------------------------ *)
(* Encoding                                                            *)

let request_to_json { q_id; q_session; q_req } =
  let base = [ ("id", Json.Int q_id); ("verb", Json.String (verb_of_request q_req)) ] in
  let session =
    match q_req with Stats -> [] | _ -> [ ("session", Json.String q_session) ]
  in
  let fields =
    match q_req with
    | Open o ->
      [
        ("transformation", Json.String o.o_transformation);
        ("metamodels", Json.String o.o_metamodels);
        ("models", Json.String o.o_models);
        ("targets", Json.List (List.map (fun t -> Json.String t) o.o_targets));
        ("standard", Json.Bool o.o_standard);
        ("slack", Json.Int o.o_slack);
        ("headroom", Json.Int o.o_headroom);
      ]
    | Apply_edits { models } -> [ ("models", Json.String models) ]
    | Recheck { blame } -> [ ("blame", Json.Bool blame) ]
    | Rerepair { limit } -> [ ("limit", Json.Int limit) ]
    | Commit { choice } -> [ ("choice", Json.Int choice) ]
    | Snapshot | Close | Stats -> []
  in
  Json.Obj (base @ session @ fields)

let request_to_string r = Json.to_string (request_to_json r)

let step_stats_to_json (s : Incr.Session.step_stats) =
  Json.Obj
    [
      ("wall_time_s", Json.Float s.wall);
      ("solver_calls", Json.Int s.solver_calls);
      ("conflicts", Json.Int s.conflicts);
      ("propagations", Json.Int s.propagations);
      ("decisions", Json.Int s.decisions);
      ("translated", Json.Bool s.translated);
      ("translate_s", Json.Float s.translate_s);
    ]

let verdict_to_json w =
  Json.Obj
    [
      ("relation", Json.String w.w_relation);
      ("sources", Json.List (List.map (fun s -> Json.String s) w.w_sources));
      ("target", Json.String w.w_target);
      ("holds", Json.Bool w.w_holds);
      ( "blame",
        Json.List
          (List.map
             (fun (rel, atoms, present) ->
               Json.Obj
                 [
                   ("relation", Json.String rel);
                   ("atoms", Json.List (List.map (fun a -> Json.String a) atoms));
                   ("present", Json.Bool present);
                 ])
             w.w_blame) );
    ]

let menu_entry_to_json m =
  Json.Obj
    [
      ("relational_distance", Json.Int m.m_relational_distance);
      ("edit_distance", Json.Int m.m_edit_distance);
      ( "models",
        Json.Obj (List.map (fun (p, text) -> (p, Json.String text)) m.m_models) );
    ]

let payload_fields = function
  | Opened { revived } -> [ ("revived", Json.Bool revived) ]
  | Applied { edits } -> [ ("edits", Json.Int edits) ]
  | Checked { consistent; verdicts; stats } ->
    [
      ("consistent", Json.Bool consistent);
      ("verdicts", Json.List (List.map verdict_to_json verdicts));
      ("stats", step_stats_to_json stats);
    ]
  | Repaired { outcome; menu; stats } ->
    [
      ("outcome", Json.String outcome);
      ("menu", Json.List (List.map menu_entry_to_json menu));
      ("stats", step_stats_to_json stats);
    ]
  | Committed -> []
  | Snapshotted { path; fingerprint } ->
    [ ("path", Json.String path); ("fingerprint", Json.String fingerprint) ]
  | Closed -> []
  | Stats_snapshot j -> [ ("stats", j) ]

let response_to_json ~verb { s_id; s_result } =
  let base = [ ("id", Json.Int s_id); ("verb", Json.String verb) ] in
  match s_result with
  | Ok p -> Json.Obj (base @ (("ok", Json.Bool true) :: payload_fields p))
  | Error e -> Json.Obj (base @ [ ("ok", Json.Bool false); ("error", Json.String e) ])

let response_to_string ~verb r = Json.to_string (response_to_json ~verb r)

(* ------------------------------------------------------------------ *)
(* Decoding                                                            *)

let ( let* ) = Result.bind

let field_string j k =
  match Json.to_string_opt (Json.member k j) with
  | Some s -> Ok s
  | None -> Error (Printf.sprintf "field %S: expected a string" k)

let field_string_default j k d =
  match Json.member k j with
  | Json.Null -> Ok d
  | v -> (
    match Json.to_string_opt v with
    | Some s -> Ok s
    | None -> Error (Printf.sprintf "field %S: expected a string" k))

let field_int_default j k d =
  match Json.member k j with
  | Json.Null -> Ok d
  | v -> (
    match Json.to_int_opt v with
    | Some n -> Ok n
    | None -> Error (Printf.sprintf "field %S: expected an integer" k))

let field_bool_default j k d =
  match Json.member k j with
  | Json.Null -> Ok d
  | v -> (
    match Json.to_bool_opt v with
    | Some b -> Ok b
    | None -> Error (Printf.sprintf "field %S: expected a boolean" k))

let field_string_list_default j k d =
  match Json.member k j with
  | Json.Null -> Ok d
  | Json.List xs ->
    List.fold_left
      (fun acc x ->
        let* acc = acc in
        match Json.to_string_opt x with
        | Some s -> Ok (s :: acc)
        | None -> Error (Printf.sprintf "field %S: expected strings" k))
      (Ok []) xs
    |> Result.map List.rev
  | _ -> Error (Printf.sprintf "field %S: expected a list of strings" k)

let request_of_json j =
  match j with
  | Json.Obj _ ->
    let* id =
      match Json.to_int_opt (Json.member "id" j) with
      | Some n -> Ok n
      | None -> Error "field \"id\": expected an integer"
    in
    let* verb = field_string j "verb" in
    let* session =
      if verb = "stats" then field_string_default j "session" ""
      else
        match Json.to_string_opt (Json.member "session" j) with
        | Some s when s <> "" -> Ok s
        | Some _ -> Error "field \"session\": must be non-empty"
        | None -> Error "field \"session\": expected a string"
    in
    let* request =
      match verb with
      | "open" ->
        let* o_transformation = field_string j "transformation" in
        let* o_metamodels = field_string j "metamodels" in
        let* o_models = field_string j "models" in
        let* o_targets = field_string_list_default j "targets" [] in
        let* o_standard = field_bool_default j "standard" false in
        let* o_slack = field_int_default j "slack" 2 in
        let* o_headroom = field_int_default j "headroom" 6 in
        Ok
          (Open
             {
               o_transformation;
               o_metamodels;
               o_models;
               o_targets;
               o_standard;
               o_slack;
               o_headroom;
             })
      | "apply_edits" ->
        let* models = field_string j "models" in
        Ok (Apply_edits { models })
      | "recheck" ->
        let* blame = field_bool_default j "blame" false in
        Ok (Recheck { blame })
      | "rerepair" ->
        let* limit = field_int_default j "limit" 16 in
        if limit < 1 then Error "field \"limit\": must be at least 1"
        else Ok (Rerepair { limit })
      | "commit" ->
        let* choice = field_int_default j "choice" 0 in
        if choice < 0 then Error "field \"choice\": must be non-negative"
        else Ok (Commit { choice })
      | "snapshot" -> Ok Snapshot
      | "close" -> Ok Close
      | "stats" -> Ok Stats
      | v -> Error (Printf.sprintf "unknown verb %S" v)
    in
    Ok { q_id = id; q_session = session; q_req = request }
  | _ -> Error "request frame: expected a JSON object"

let parse_request line =
  match Json.of_string line with
  | Error e -> Error (Printf.sprintf "request frame: %s" e)
  | Ok j -> request_of_json j

let step_stats_of_json j : (Incr.Session.step_stats, string) result =
  let num k =
    match Json.member k j with
    | Json.Float f -> Ok f
    | Json.Int n -> Ok (float_of_int n)
    | _ -> Error (Printf.sprintf "stats field %S: expected a number" k)
  in
  let int k =
    match Json.to_int_opt (Json.member k j) with
    | Some n -> Ok n
    | None -> Error (Printf.sprintf "stats field %S: expected an integer" k)
  in
  let* wall = num "wall_time_s" in
  let* solver_calls = int "solver_calls" in
  let* conflicts = int "conflicts" in
  let* propagations = int "propagations" in
  let* decisions = int "decisions" in
  let* translated = field_bool_default j "translated" false in
  let* translate_s = num "translate_s" in
  Ok
    {
      Incr.Session.wall;
      solver_calls;
      conflicts;
      propagations;
      decisions;
      translated;
      translate_s;
    }

let verdict_of_json j =
  let* w_relation = field_string j "relation" in
  let* w_sources = field_string_list_default j "sources" [] in
  let* w_target = field_string j "target" in
  let* w_holds = field_bool_default j "holds" false in
  let* w_blame =
    List.fold_left
      (fun acc b ->
        let* acc = acc in
        let* rel = field_string b "relation" in
        let* atoms = field_string_list_default b "atoms" [] in
        let* present = field_bool_default b "present" true in
        Ok ((rel, atoms, present) :: acc))
      (Ok [])
      (Json.to_list (Json.member "blame" j))
    |> Result.map List.rev
  in
  Ok { w_relation; w_sources; w_target; w_holds; w_blame }

let menu_entry_of_json j =
  let* m_relational_distance = field_int_default j "relational_distance" 0 in
  let* m_edit_distance = field_int_default j "edit_distance" 0 in
  let* m_models =
    match Json.member "models" j with
    | Json.Obj fields ->
      List.fold_left
        (fun acc (p, v) ->
          let* acc = acc in
          match Json.to_string_opt v with
          | Some text -> Ok ((p, text) :: acc)
          | None -> Error "menu entry: model text must be a string")
        (Ok []) fields
      |> Result.map List.rev
    | _ -> Error "menu entry: field \"models\": expected an object"
  in
  Ok { m_relational_distance; m_edit_distance; m_models }

let collect f xs =
  List.fold_left
    (fun acc x ->
      let* acc = acc in
      let* y = f x in
      Ok (y :: acc))
    (Ok []) xs
  |> Result.map List.rev

let response_of_json j =
  match j with
  | Json.Obj _ ->
    let* id =
      match Json.to_int_opt (Json.member "id" j) with
      | Some n -> Ok n
      | None -> Error "field \"id\": expected an integer"
    in
    let* ok =
      match Json.to_bool_opt (Json.member "ok" j) with
      | Some b -> Ok b
      | None -> Error "field \"ok\": expected a boolean"
    in
    if not ok then
      let* e = field_string j "error" in
      Ok { s_id = id; s_result = Error e }
    else
      let* verb = field_string j "verb" in
      let* payload =
        match verb with
        | "open" ->
          let* revived = field_bool_default j "revived" false in
          Ok (Opened { revived })
        | "apply_edits" ->
          let* edits = field_int_default j "edits" 0 in
          Ok (Applied { edits })
        | "recheck" ->
          let* consistent = field_bool_default j "consistent" false in
          let* verdicts =
            collect verdict_of_json (Json.to_list (Json.member "verdicts" j))
          in
          let* stats = step_stats_of_json (Json.member "stats" j) in
          Ok (Checked { consistent; verdicts; stats })
        | "rerepair" ->
          let* outcome = field_string j "outcome" in
          let* menu =
            collect menu_entry_of_json (Json.to_list (Json.member "menu" j))
          in
          let* stats = step_stats_of_json (Json.member "stats" j) in
          Ok (Repaired { outcome; menu; stats })
        | "commit" -> Ok Committed
        | "snapshot" ->
          let* path = field_string j "path" in
          let* fingerprint = field_string j "fingerprint" in
          Ok (Snapshotted { path; fingerprint })
        | "close" -> Ok Closed
        | "stats" -> Ok (Stats_snapshot (Json.member "stats" j))
        | v -> Error (Printf.sprintf "unknown verb %S in response" v)
      in
      Ok { s_id = id; s_result = Ok payload }
  | _ -> Error "response frame: expected a JSON object"

let parse_response line =
  match Json.of_string line with
  | Error e -> Error (Printf.sprintf "response frame: %s" e)
  | Ok j -> response_of_json j
