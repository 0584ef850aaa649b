(* [serve]: an in-process [Server.Engine] — the core [qvtr serve]
   exposes over its socket — at jobs = 2 with max_live = 4 and 8
   clients, in closed-loop rounds as in E11.

   In each round every client pipelines 3 [apply_edits] frames (model
   snapshots after one warm toggle each) and then a [recheck]; every
   4th round it follows the recheck reply with [rerepair] and, when the
   menu is non-empty, [commit] of its first entry. The next round
   starts when every reply of the round has arrived, so the
   eviction/revival churn under the live-session cap follows from the
   client count and the seed, not from timing. Reply callbacks only
   record; all checking happens between rounds, outside the timed
   wall.

   A check op runs from sending the round's first edit frame to the
   recheck reply; a repair op is the rerepair round trip. Each run
   keeps its snapshots and its request log in a fresh directory under
   [.perfbench-tmp/] in the working directory and removes it at the
   end. *)

open Common
module SE = Server.Engine
module P = Server.Protocol
module Model = Mdl.Model
module V = Mdl.Value

let jobs = 2
let clients = 8
let max_live = 4
let n_features = 6
let repair_every = 4
let menu_limit = 4
let targets = [ "cf1"; "cf2" ]
let feature = I.make "Feature"
let name_attr = I.make "name"
let mandatory_attr = I.make "mandatory"

let metamodels_text =
  Mdl.Serialize.metamodel_to_string F.fm_metamodel
  ^ "\n"
  ^ Mdl.Serialize.metamodel_to_string F.cf_metamodel

let metamodels =
  match Mdl.Serialize.parse_metamodels metamodels_text with
  | Ok mms -> mms
  | Error e -> failwith e

type client = {
  c_name : string;
  rng : Random.State.t;
  mutable cur : (I.t * Model.t) list;
  mutable last_id : (string * int) list;  (** id each deselected feature had *)
  mutable next_id : int;
  (* filled by reply callbacks, read after the round drains *)
  mutable sent : float;
  mutable checked : (float * P.resp) option;
  mutable rr_sent : float;
  mutable repaired : (float * P.resp) option;
  mutable committed : P.resp option;
  mutable frame_errors : string list;
}

let text models = String.concat "\n" (List.map (fun (_, m) -> Mdl.Serialize.model_to_string m) models)

let new_client ~seed c =
  let rng = Random.State.make [| seed; c; 0x5e7e |] in
  let cfs, fm = fixed_state rng ~k:2 ~n_features ~mandatory:2 ~extras:2 in
  let cur = F.bind ~cfs ~fm in
  {
    c_name = Printf.sprintf "c%d" c;
    rng;
    cur;
    last_id = [];
    next_id = 1 + List.fold_left (fun acc (_, m) -> List.fold_left max acc (Model.objects m)) 0 cur;
    sent = 0.;
    checked = None;
    rr_sent = 0.;
    repaired = None;
    committed = None;
    frame_errors = [];
  }

let set_model c p m = c.cur <- List.map (fun (q, old) -> if I.name q = p then (q, m) else (q, old)) c.cur
let name_of m id = match Model.get_attr1 m id name_attr with Some (V.Str s) -> s | _ -> ""

(* One editor save: flip a mandatory flag (2 in 3) or toggle one
   selection, re-selecting under the id the feature last had. Returns
   the changed model as an [apply_edits] snapshot. *)
let toggle c =
  let pick l = List.nth l (Random.State.int c.rng (List.length l)) in
  let fm = model_of c.cur "fm" in
  let fid = pick (Model.objects fm) in
  let p, m =
    if Random.State.int c.rng 3 > 0 then
      let b = Model.get_attr1 fm fid mandatory_attr = Some (V.Bool true) in
      ("fm", Model.set_attr1 fm fid mandatory_attr (V.Bool (not b)))
    else
      let p = pick targets in
      let cf = model_of c.cur p and n = name_of fm fid in
      match List.find_opt (fun id -> name_of cf id = n) (Model.objects cf) with
      | Some id ->
        c.last_id <- (p ^ "/" ^ n, id) :: c.last_id;
        (p, Model.delete_object cf id)
      | None ->
        let id =
          match List.assoc_opt (p ^ "/" ^ n) c.last_id with
          | Some id when not (Model.mem cf id) -> id
          | _ ->
            (* repairs create objects too: stay clear of their ids *)
            let id = List.fold_left max c.next_id (List.map succ (Model.objects cf)) in
            c.next_id <- id + 1;
            id
        in
        (p, Model.set_attr1 (Model.add_object_with_id cf ~id ~cls:feature) id name_attr (V.Str n))
  in
  set_model c p m;
  Mdl.Serialize.model_to_string m

type t = {
  engine : SE.t;
  dir : string;
  reqlog : Server.Reqlog.t;
  cs : client array;
  next_frame : int Atomic.t;
  mutable first_op_frame : int;
  mutable round : int;
}

let frame t c q_req = { P.q_id = Atomic.fetch_and_add t.next_frame 1; q_session = c.c_name; q_req }

let spec c =
  {
    P.o_transformation = F.source ~k:2;
    o_metamodels = metamodels_text;
    o_models = text c.cur;
    o_targets = targets;
    o_standard = false;
    o_slack = 2;
    o_headroom = 2;
  }

let rec remove_tree path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let tmp_root = ".perfbench-tmp"
let dirs_made = Atomic.make 0

let fresh_dir () =
  if not (Sys.file_exists tmp_root) then Sys.mkdir tmp_root 0o755;
  let dir =
    Filename.concat tmp_root
      (Printf.sprintf "serve-%d-%d" (Unix.getpid ()) (Atomic.fetch_and_add dirs_made 1))
  in
  if Sys.file_exists dir then remove_tree dir;
  Sys.mkdir dir 0o755;
  dir

let expect what = function
  | Ok _ -> ()
  | Error e -> failwith (Printf.sprintf "serve set-up, %s: %s" what e)

(* ------------------------------------------------------------------ *)
(* Rounds                                                              *)

let reset c =
  c.checked <- None;
  c.repaired <- None;
  c.committed <- None;
  c.frame_errors <- []

let submit t c q_req k = SE.submit t.engine (frame t c q_req) k

let send_round t ~repair_round c =
  let snapshots = List.init 3 (fun _ -> toggle c) in
  c.sent <- now ();
  List.iter
    (fun models ->
      submit t c (P.Apply_edits { models }) (fun r ->
          match r.P.s_result with
          | Ok _ -> ()
          | Error e -> c.frame_errors <- e :: c.frame_errors))
    snapshots;
  submit t c (P.Recheck { blame = false }) (fun r ->
      c.checked <- Some (now (), r);
      if repair_round then begin
        c.rr_sent <- now ();
        submit t c (P.Rerepair { limit = menu_limit }) (fun r ->
            c.repaired <- Some (now (), r);
            match r.P.s_result with
            | Ok (P.Repaired { menu = _ :: _; _ }) ->
              submit t c (P.Commit { choice = 0 }) (fun r -> c.committed <- Some r)
            | _ -> ())
      end)

let parse_menu_entry c (e : P.menu_entry) =
  List.fold_left
    (fun acc (p, s) ->
      match acc with
      | Error _ -> acc
      | Ok binding -> (
        if not (List.mem p targets) then Error ("menu entry restates non-target " ^ p)
        else
          match Mdl.Serialize.parse_models metamodels s with
          | Ok [ m ] -> Ok (List.map (fun (q, old) -> if I.name q = p then (q, m) else (q, old)) binding)
          | Ok _ -> Error "menu entry model count"
          | Error e -> Error e))
    (Ok c.cur) e.P.m_models

let settle t (tl : tally) c =
  List.iter (fun e -> error tl ("apply_edits: " ^ e)) c.frame_errors;
  let expected = consistent ~k:2 c.cur in
  (match c.checked with
  | None -> error tl "recheck: no reply"
  | Some (at, r) -> (
    tl.attempted <- tl.attempted + 1;
    record_check tl (at -. c.sent);
    tl.op_wall <- tl.op_wall +. (at -. c.sent);
    match r.P.s_result with
    | Ok (P.Checked { consistent; _ }) ->
      if consistent <> expected then
        wrong tl "serve %s round %d: verdict %b, oracle %b" c.c_name t.round consistent expected
    | Ok _ -> error tl "recheck: unexpected payload"
    | Error e -> error tl ("recheck: " ^ e)));
  match c.repaired with
  | None -> ()
  | Some (at, r) -> (
    tl.attempted <- tl.attempted + 1;
    record_repair tl (at -. c.rr_sent);
    tl.op_wall <- tl.op_wall +. (at -. c.rr_sent);
    let what = Printf.sprintf "serve %s round %d" c.c_name t.round in
    match r.P.s_result with
    | Error e -> error tl ("rerepair: " ^ e)
    | Ok (P.Repaired { outcome = "already_consistent"; _ }) ->
      if not expected then wrong tl "%s: already_consistent on an inconsistent state" what
    | Ok (P.Repaired { outcome = "cannot_restore"; _ }) ->
      if expected then wrong tl "%s: cannot_restore on a consistent state" what
      else tl.unverified <- tl.unverified + 1
    | Ok (P.Repaired { outcome = "repaired"; menu = first :: _ as menu; _ }) -> (
      tl.repairs_returned <- tl.repairs_returned + 1;
      if expected then wrong tl "%s: repaired a consistent state" what;
      let entries = List.map (parse_menu_entry c) menu in
      List.iter
        (function
          | Error e -> wrong tl "%s: %s" what e
          | Ok binding -> check_repair tl ~k:2 ~what ~targets ~before:c.cur binding)
        entries;
      if List.exists (fun (e : P.menu_entry) -> e.P.m_relational_distance <> first.P.m_relational_distance) menu
      then wrong tl "%s: menu entries at different distances" what;
      match (c.committed, List.hd entries) with
      | Some { P.s_result = Ok P.Committed; _ }, Ok binding -> c.cur <- binding
      | Some { P.s_result = Error e; _ }, _ -> error tl ("commit: " ^ e)
      | _ -> error tl "commit: no reply")
    | Ok _ -> error tl "rerepair: unexpected payload")

let run t tl ~continue_ =
  if t.first_op_frame = 0 then t.first_op_frame <- Atomic.get t.next_frame;
  while continue_ () do
    t.round <- t.round + 1;
    let repair_round = t.round mod repair_every = 0 in
    Array.iter reset t.cs;
    let t0 = now () in
    Array.iter (send_round t ~repair_round) t.cs;
    SE.drain t.engine;
    tl.busy <- tl.busy +. (now () -. t0);
    Array.iter (settle t tl) t.cs
  done

(* ------------------------------------------------------------------ *)
(* Request-log accounting (traced pass)                                *)

type record = { id : int; verb : string; queue_wait : float }

let read_reqlog path =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | exception End_of_file ->
      close_in ic;
      List.rev acc
    | line -> (
      match Obs.Json.of_string line with
      | Error e -> failwith ("request log: " ^ e)
      | Ok j ->
        let num k = match Obs.Json.member k j with Obs.Json.Float f -> f | Obs.Json.Int i -> float_of_int i | _ -> 0. in
        go
          ({
             id = Option.value (Obs.Json.to_int_opt (Obs.Json.member "id" j)) ~default:0;
             verb = Option.value (Obs.Json.to_string_opt (Obs.Json.member "verb" j)) ~default:"";
             queue_wait = num "queue_wait_s";
           }
          :: acc))
  in
  go []

(* Raw per-frame queue waits of the op frames, and the op time spent
   waiting: the final frames' (recheck, rerepair) logged queue waits,
   less the time their own session spent serving the op's edit frames
   in the meantime — that is service, attributed through its spans. *)
let queue_wait t spans =
  SE.shutdown t.engine;
  Server.Reqlog.close t.reqlog;
  let ops =
    List.filter
      (fun r -> r.id >= t.first_op_frame && List.mem r.verb [ "apply_edits"; "recheck"; "rerepair" ])
      (read_reqlog (Filename.concat t.dir "reqlog.jsonl"))
  in
  let final = List.filter (fun r -> r.verb <> "apply_edits") ops in
  let edit_service =
    List.fold_left (fun acc (s : Attrib.span) -> if s.name = "server.apply_edits" then acc +. s.dur else acc) 0. spans
  in
  ( Array.of_list (List.map (fun r -> r.queue_wait) ops),
    List.fold_left (fun acc r -> acc +. r.queue_wait) 0. final -. edit_service )

let scope name =
  match name with
  | "server.apply_edits" | "server.recheck" | "server.rerepair" -> `In
  | _ when Attrib.prefixed "server." name -> `Out
  | _ -> `Pass

let dispose t () =
  SE.shutdown t.engine;
  Server.Reqlog.close t.reqlog;
  remove_tree t.dir;
  try Sys.rmdir tmp_root with Sys_error _ -> ()

(* Set-up: the engine, every client's open, and every first verdict. *)
let prepare ~seed =
  let dir = fresh_dir () in
  let reqlog = Server.Reqlog.create ~path:(Filename.concat dir "reqlog.jsonl") () in
  let t =
    {
      engine = SE.create ~jobs ~max_live ~snapshot_dir:(Filename.concat dir "snapshots") ~reqlog ();
      dir;
      reqlog;
      cs = Array.init clients (new_client ~seed);
      next_frame = Atomic.make 1;
      first_op_frame = 0;
      round = 0;
    }
  in
  let replies = Array.make clients (Error "no reply") in
  let all q =
    Array.iteri (fun i c -> submit t c (q c) (fun r -> replies.(i) <- r.P.s_result)) t.cs;
    SE.drain t.engine;
    Array.iter (expect (P.verb_of_request (q t.cs.(0)))) replies
  in
  all (fun c -> P.Open (spec c));
  all (fun _ -> P.Recheck { blame = false });
  { run = run t; dispose = dispose t; latencies = raw_latencies; queue_wait = queue_wait t }

let apply_frames (tl : tally) = 3 * List.length tl.checks
