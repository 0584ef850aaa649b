module Json = Obs.Json

type t = {
  spec : Protocol.open_spec;
  values : Mdl.Value.t list;
  fingerprint : string;
}

let format_version = "mdqvtr-snapshot/1"

let ( let* ) = Result.bind

(* ------------------------------------------------------------------ *)
(* Opening a session from an open_spec — shared by the open verb and
   revival, so both interpret the texts identically.                   *)

let hydrate ?(extra_values = []) (spec : Protocol.open_spec) =
  let* trans = Qvtr.Parser.parse ~file:"<open:transformation>" spec.o_transformation in
  let* mms = Mdl.Serialize.parse_metamodels spec.o_metamodels in
  let* models = Mdl.Serialize.parse_models mms spec.o_models in
  let metamodels = List.map (fun mm -> (Mdl.Metamodel.name mm, mm)) mms in
  let bound = List.map (fun m -> (Mdl.Model.name m, m)) models in
  let targets =
    match spec.o_targets with
    | [] -> Mdl.Ident.Set.of_list (Qvtr.Ast.param_names trans)
    | ts -> Echo.Target.of_list ts
  in
  let mode =
    if spec.o_standard then Qvtr.Semantics.Standard else Qvtr.Semantics.Extended
  in
  let* sess =
    Incr.Session.open_session ~mode ~slack_budget:spec.o_slack
      ~headroom:spec.o_headroom ~extra_values
      ~transformation:trans ~metamodels ~models:bound ~targets ()
  in
  Ok (sess, mms)

(* ------------------------------------------------------------------ *)
(* Capture                                                             *)

let payload_json { spec; values; _ } =
  Json.Obj
    [
      ("transformation", Json.String spec.Protocol.o_transformation);
      ("metamodels", Json.String spec.Protocol.o_metamodels);
      ("models", Json.String spec.Protocol.o_models);
      ( "targets",
        Json.List (List.map (fun t -> Json.String t) spec.Protocol.o_targets) );
      ("standard", Json.Bool spec.Protocol.o_standard);
      ("slack", Json.Int spec.Protocol.o_slack);
      ("headroom", Json.Int spec.Protocol.o_headroom);
      ( "values",
        Json.List
          (List.map
             (fun v -> Json.String (Mdl.Serialize.value_to_string v))
             values) );
    ]

let fingerprint_of t =
  Digest.to_hex (Digest.string (Json.to_string (payload_json t)))

let of_session ~(spec : Protocol.open_spec) sess =
  let models_text =
    Incr.Session.models sess
    |> List.map (fun (_, m) -> Mdl.Serialize.model_to_string m)
    |> String.concat "\n"
  in
  let spec = { spec with Protocol.o_models = models_text } in
  let values = Incr.Session.value_universe sess in
  let t = { spec; values; fingerprint = "" } in
  { t with fingerprint = fingerprint_of t }

let to_string t =
  Json.to_string
    (Json.Obj
       [
         ("format", Json.String format_version);
         ("fingerprint", Json.String (fingerprint_of t));
         ("payload", payload_json t);
       ])

let of_string text =
  let* j =
    match Json.of_string text with
    | Ok j -> Ok j
    | Error e -> Error (Printf.sprintf "snapshot: %s" e)
  in
  let* () =
    match Json.to_string_opt (Json.member "format" j) with
    | Some v when v = format_version -> Ok ()
    | Some v ->
      Error
        (Printf.sprintf "snapshot: format %S not supported (expected %S)" v
           format_version)
    | None -> Error "snapshot: missing \"format\" field"
  in
  let* claimed =
    match Json.to_string_opt (Json.member "fingerprint" j) with
    | Some f -> Ok f
    | None -> Error "snapshot: missing \"fingerprint\" field"
  in
  let payload = Json.member "payload" j in
  let actual = Digest.to_hex (Digest.string (Json.to_string payload)) in
  let* () =
    if String.equal claimed actual then Ok ()
    else
      Error
        (Printf.sprintf
           "snapshot: fingerprint mismatch (file claims %s, payload hashes to \
            %s) — the snapshot is corrupt or was edited"
           claimed actual)
  in
  let str k =
    match Json.to_string_opt (Json.member k payload) with
    | Some s -> Ok s
    | None -> Error (Printf.sprintf "snapshot: payload field %S missing" k)
  in
  let* o_transformation = str "transformation" in
  let* o_metamodels = str "metamodels" in
  let* o_models = str "models" in
  let o_targets =
    Json.to_list (Json.member "targets" payload)
    |> List.filter_map Json.to_string_opt
  in
  let o_standard =
    Option.value ~default:false
      (Json.to_bool_opt (Json.member "standard" payload))
  in
  let o_slack =
    Option.value ~default:2 (Json.to_int_opt (Json.member "slack" payload))
  in
  let o_headroom =
    Option.value ~default:6 (Json.to_int_opt (Json.member "headroom" payload))
  in
  let* values =
    List.fold_left
      (fun acc v ->
        let* acc = acc in
        match Json.to_string_opt v with
        | None -> Error "snapshot: \"values\" entries must be strings"
        | Some s ->
          let* value = Mdl.Serialize.value_of_string s in
          Ok (value :: acc))
      (Ok [])
      (Json.to_list (Json.member "values" payload))
    |> Result.map List.rev
  in
  Ok
    {
      spec =
        {
          Protocol.o_transformation;
          o_metamodels;
          o_models;
          o_targets;
          o_standard;
          o_slack;
          o_headroom;
        };
      values;
      fingerprint = claimed;
    }

(* ------------------------------------------------------------------ *)
(* Files                                                               *)

let sanitize name =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' | '.' -> c
      | _ -> '_')
    name

(* Write to [<name>.snap.tmp], then rename over [<name>.snap]. On
   every error path the channel is closed and the temp file removed:
   a long-running daemon must not leak a descriptor, or leave a
   half-written file behind, per failed save. *)
let save ~dir ~name t =
  try
    if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
    let path = Filename.concat dir (sanitize name ^ ".snap") in
    let tmp = path ^ ".tmp" in
    let oc = open_out_bin tmp in
    let renamed = ref false in
    Fun.protect
      ~finally:(fun () ->
        close_out_noerr oc;
        if not !renamed then try Sys.remove tmp with Sys_error _ -> ())
      (fun () ->
        output_string oc (to_string t);
        output_char oc '\n';
        close_out oc;
        Sys.rename tmp path;
        renamed := true);
    Ok path
  with
  | Unix.Unix_error (e, _, arg) ->
    Error (Printf.sprintf "snapshot: %s: %s" arg (Unix.error_message e))
  | Sys_error e -> Error (Printf.sprintf "snapshot: %s" e)

let load path =
  match
    let ic = open_in_bin path in
    let len = in_channel_length ic in
    let s = really_input_string ic len in
    close_in ic;
    s
  with
  | s -> of_string (String.trim s)
  | exception Sys_error e -> Error (Printf.sprintf "snapshot: %s" e)

let revive t = hydrate ~extra_values:t.values t.spec
