(* [session]: one [Incr.Session] per pass over a 12-feature, k = 2
   universe, driven by a seeded edit script, rechecking after every
   batch.

   Batch kinds follow a fixed cycle of 20: 14 single flag or selection
   toggles that the frozen encoding can express (the warm
   assumption-flip path), 3 bulk batches of 3-6 such toggles, 2 that
   force a re-encode (a brand-new feature name, or more object
   creations than the headroom absorbs) and 1 that returns the models
   to the state of the last re-encode, which the translation cache
   revives. Every 5th inconsistent state is repaired with
   [rerepair ~limit:16] and the first repair committed.

   The script is generated batch by batch against the bench's own copy
   of the models, so it follows the committed repairs. To keep toggles
   on the warm path the generator mirrors the session's documented
   slack accounting: an object id is reusable without a re-encode once
   the encoding has seen it, and each unseen id uses up one unit of
   headroom. A pass ends after [pass_batches] batches and the next
   opens a fresh session, so per-op cost does not drift with run
   length as the value universe grows. *)

open Common
module S = Incr.Session
module Ed = Mdl.Edit
module Model = Mdl.Model
module V = Mdl.Value
module IS = Set.Make (Int)

let n_features = 12
let headroom = 2
let slack_budget = 2
let pass_batches = 20
let repair_every = 5
let targets = [ "cf1"; "cf2" ]
let params = [ "cf1"; "cf2"; "fm" ]
let feature = I.make "Feature"
let name_attr = I.make "name"
let mandatory_attr = I.make "mandatory"

type gen = {
  rng : Random.State.t;
  mutable cur : (I.t * Model.t) list;  (** the bench's copy of the models *)
  known : (string, IS.t) Hashtbl.t;  (** ids the encoding can express *)
  consumed : (string, int) Hashtbl.t;  (** headroom used since the last re-encode *)
  mutable pending : bool;  (** the next solve re-encodes *)
  mutable values : V.Set.t;
  mutable encoded : (I.t * Model.t) list;  (** the state last encoded *)
  next_id : (string, int) Hashtbl.t;
  mutable fresh_names : int;
  mutable undo : [ `Flag of int | `Select of string * string ] list;
}

let ids m = IS.of_list (Model.objects m)

let all_values models =
  List.fold_left (fun acc (_, m) -> V.Set.union acc (Model.all_values m)) V.Set.empty models

let encoded g =
  List.iter
    (fun p -> Hashtbl.replace g.known p (ids (model_of g.cur p)); Hashtbl.replace g.consumed p 0)
    params;
  g.pending <- false;
  g.encoded <- g.cur

let new_gen ~seed ~pass =
  let rng = Random.State.make [| seed; pass; 0x5e55 |] in
  let cfs, fm = fixed_state rng ~k:2 ~n_features ~mandatory:4 ~extras:3 in
  let cur = F.bind ~cfs ~fm in
  let g =
    {
      rng;
      cur;
      known = Hashtbl.create 3;
      consumed = Hashtbl.create 3;
      pending = false;
      values = all_values cur;
      encoded = cur;
      next_id = Hashtbl.create 3;
      fresh_names = 0;
      undo = [];
    }
  in
  List.iter (fun p -> Hashtbl.replace g.next_id p (1 + IS.fold max (ids (model_of cur p)) 0)) params;
  encoded g;
  g

(* The session's bookkeeping for one applied script, mirrored. *)
let mirror g p edits =
  List.iter
    (function
      | Ed.Add_object { id; _ } ->
        Hashtbl.replace g.next_id p (max (Hashtbl.find g.next_id p) (id + 1));
        let known = Hashtbl.find g.known p in
        if (not g.pending) && not (IS.mem id known) then begin
          let used = Hashtbl.find g.consumed p in
          if used >= headroom then g.pending <- true
          else begin
            Hashtbl.replace g.consumed p (used + 1);
            Hashtbl.replace g.known p (IS.add id known)
          end
        end
      | Ed.Set_attr { after; _ } ->
        List.iter
          (fun v ->
            if not (V.Set.mem v g.values) then begin
              g.values <- V.Set.add v g.values;
              g.pending <- true
            end)
          after
      | Ed.Delete_object _ | Ed.Add_ref _ | Ed.Del_ref _ -> ())
    edits

(* Apply [edits] to parameter [p] of the bench's copy and append them
   to [batch] (one merged script per parameter, as the session wants). *)
let edit g batch p edits =
  match Ed.apply_script (model_of g.cur p) edits with
  | Error e -> failwith ("session edit generator: " ^ e)
  | Ok m ->
    g.cur <- List.map (fun (q, old) -> if I.name q = p then (q, m) else (q, old)) g.cur;
    mirror g p edits;
    if List.mem_assoc p !batch then
      batch := List.map (fun (q, es) -> if q = p then (q, es @ edits) else (q, es)) !batch
    else batch := !batch @ [ (p, edits) ]

let pick rng l = List.nth l (Random.State.int rng (List.length l))
let name_of m id = match Model.get_attr1 m id name_attr with Some (V.Str s) -> s | _ -> ""

let set_name id ~before n =
  Ed.Set_attr { id; attr = name_attr; before; after = [ V.Str n ] }

let add_feature ?mandatory id n =
  [ Ed.Add_object { id; cls = feature }; set_name id ~before:[] n ]
  @
  match mandatory with
  | Some b -> [ Ed.Set_attr { id; attr = mandatory_attr; before = []; after = [ V.Bool b ] } ]
  | None -> []

let fresh_id g p =
  let id = Hashtbl.find g.next_id p in
  Hashtbl.replace g.next_id p (id + 1);
  id

let flip_flag g batch id =
  let b = Model.get_attr1 (model_of g.cur "fm") id mandatory_attr = Some (V.Bool true) in
  edit g batch "fm"
    [ Ed.Set_attr { id; attr = mandatory_attr; before = [ V.Bool b ]; after = [ V.Bool (not b) ] } ]

let selected g p n =
  let cf = model_of g.cur p in
  List.find_opt (fun id -> name_of cf id = n) (Model.objects cf)

(* Ids of [p] the encoding already has and [p] does not use. *)
let free_ids g p = IS.elements (IS.diff (Hashtbl.find g.known p) (ids (model_of g.cur p)))

(* Flip [Flag id] in the feature model, or select / deselect feature
   [n] in configuration [p] ([Select (p, n)]), re-selecting under an id
   the encoding already has. *)
let toggle_one g batch = function
  | `Flag id -> flip_flag g batch id
  | `Select (p, n) -> (
    match selected g p n with
    | Some id -> edit g batch p [ Ed.Delete_object { id } ]
    | None -> edit g batch p (add_feature (pick g.rng (free_ids g p)) n))

(* How far a state is outside the band the edits keep to: 3-5
   mandatory features, 3-8 selections per configuration. Inside it
   every configuration can still be repaired (it can select every
   mandatory feature by renaming objects or creating at most
   [slack_budget] new ones) and the optimum stays a few edits away, so
   each repair request has a bounded answer the oracle can check. *)
let off_band ~mandatory ~sizes =
  let out lo hi x = max 0 (lo - x) + max 0 (x - hi) in
  out 3 5 mandatory + List.fold_left (fun acc s -> acc + out 3 8 s) 0 sizes

(* A toggle is generated only if it applies without a re-encode and
   does not take the state further outside the band. *)
let allowed g target =
  let fm = model_of g.cur "fm" in
  let is_mandatory id = Model.get_attr1 fm id mandatory_attr = Some (V.Bool true) in
  let mandatory = List.length (List.filter is_mandatory (Model.objects fm)) in
  let size p = List.length (Model.objects (model_of g.cur p)) in
  let sizes = List.map size targets in
  let after_mandatory, after_sizes, applicable =
    match target with
    | `Flag id -> ((if is_mandatory id then mandatory - 1 else mandatory + 1), sizes, true)
    | `Select (p, n) -> (
      let resize d = List.map (fun q -> if q = p then size q + d else size q) targets in
      match selected g p n with
      | Some _ -> (mandatory, resize (-1), true)
      | None -> (mandatory, resize 1, free_ids g p <> []))
  in
  applicable
  && off_band ~mandatory:after_mandatory ~sizes:after_sizes <= off_band ~mandatory ~sizes

(* An editor's toggle: half the time it takes back the latest toggle
   not yet taken back (flip-and-flip-back, as in E9), otherwise a new
   flag or selection toggle. *)
let rec toggle ?(tries = 16) g batch =
  match g.undo with
  | last :: rest when Random.State.bool g.rng && allowed g last ->
    g.undo <- rest;
    toggle_one g batch last
  | _ ->
    let fm = model_of g.cur "fm" in
    let id = pick g.rng (Model.objects fm) in
    let target = if Random.State.bool g.rng then `Flag id else `Select (pick g.rng targets, name_of fm id) in
    if allowed g target then begin
      g.undo <- target :: g.undo;
      toggle_one g batch target
    end
    else if tries > 0 then toggle ~tries:(tries - 1) g batch

(* A feature object to re-create: a configuration's if any has one. *)
let victim g =
  match List.filter (fun p -> Model.objects (model_of g.cur p) <> []) targets with
  | [] -> ("fm", pick g.rng (Model.objects (model_of g.cur "fm")))
  | ps ->
    let p = pick g.rng ps in
    (p, pick g.rng (Model.objects (model_of g.cur p)))

(* Delete one object and re-create it under [headroom + 1] fresh ids in
   turn — more creations than the headroom absorbs. With [restore] the
   original id comes back last, so the models end where they started. *)
let recreate g batch ~restore =
  let p, id = victim g in
  let m = model_of g.cur p in
  let n = name_of m id in
  let mandatory =
    if p <> "fm" then None
    else match Model.get_attr1 m id mandatory_attr with Some (V.Bool b) -> Some b | _ -> None
  in
  let last = ref id in
  let chain =
    List.concat
      (List.init (headroom + 1) (fun _ ->
           let y = fresh_id g p in
           let step = Ed.Delete_object { id = !last } :: add_feature ?mandatory y n in
           last := y;
           step))
  in
  let back = if restore then Ed.Delete_object { id = !last } :: add_feature ?mandatory id n else [] in
  edit g batch p (chain @ back)

let rename g batch =
  let fm = model_of g.cur "fm" in
  let id = pick g.rng (Model.objects fm) in
  let n = name_of fm id in
  g.fresh_names <- g.fresh_names + 1;
  let n' = Printf.sprintf "G%d" g.fresh_names in
  edit g batch "fm" [ set_name id ~before:[ V.Str n ] n' ];
  List.iter
    (fun p ->
      let cf = model_of g.cur p in
      List.iter
        (fun x -> if name_of cf x = n then edit g batch p [ set_name x ~before:[ V.Str n ] n' ])
        (Model.objects cf))
    targets

(* Back to the state of the last re-encode, then force a re-encode
   that finds that state in the translation cache. *)
let revert g batch =
  let target = g.encoded in
  List.iter
    (fun p ->
      match Mdl.Diff.script (model_of g.cur p) (model_of target p) with
      | [] -> ()
      | script -> edit g batch p script)
    params;
  recreate g batch ~restore:true

let next_batch g index =
  let batch = ref [] in
  (match index mod 20 with
  | 5 -> rename g batch
  | 15 -> recreate g batch ~restore:false
  | 10 -> revert g batch
  | 2 | 9 | 17 ->
    for _ = 1 to 3 + Random.State.int g.rng 4 do
      toggle g batch
    done
  | _ -> toggle g batch);
  List.map (fun (p, es) -> (I.make p, es)) !batch

(* ------------------------------------------------------------------ *)

let trans = F.transformation ~k:2

let open_pass ~seed ~pass =
  let g = new_gen ~seed ~pass in
  let sess =
    match
      S.open_session ~slack_budget ~headroom ~transformation:trans ~metamodels:F.metamodels ~models:g.cur
        ~targets:(Echo.Target.of_list targets) ()
    with
    | Ok s -> s
    | Error e -> failwith ("session open: " ^ e)
  in
  (match S.recheck sess with Ok _ -> () | Error e -> failwith ("session first recheck: " ^ e));
  (g, sess)

(* Outside the timed span: a from-scratch [enforce_all] over the same
   state and search space must reach the same optimum. *)
let cross_check t sess g outcome =
  let fresh =
    Echo.Engine.enforce_all ~limit:1 ~slack_objects:(S.slack_budget sess)
      ~extra_values:(S.value_universe sess) trans ~metamodels:F.metamodels ~models:g.cur
      ~targets:(Echo.Target.of_list targets)
  in
  let ours = match outcome with S.Repaired (r :: _) -> Some r.S.r_relational_distance | _ -> None in
  match fresh with
  | Error e -> error t e
  | Ok outs ->
    let theirs =
      match outs with
      | Echo.Engine.Enforced r :: _ -> Some r.Echo.Engine.relational_distance
      | _ -> None
    in
    if ours = theirs then t.cross_checked <- t.cross_checked + 1
    else wrong t "session: rerepair optimum differs from a from-scratch enforce_all"

let repair t g sess ~cross =
  match timed_op t (record_repair t) (fun () -> call "incr" "rerepair" (fun () -> S.rerepair ~limit:16 sess)) with
  | Error e -> error t e
  | Ok report -> (
    if cross then outside (fun () -> cross_check t sess g report.S.outcome);
    match report.S.outcome with
    | S.Already_consistent -> wrong t "session: already_consistent on an inconsistent state"
    | S.Cannot_restore -> if not cross then t.unverified <- t.unverified + 1
    | S.Repaired [] -> wrong t "session: empty repair menu"
    | S.Repaired (first :: _ as menu) -> (
      t.repairs_returned <- t.repairs_returned + 1;
      List.iter
        (fun r -> check_repair t ~k:2 ~what:"session rerepair" ~targets ~before:g.cur r.S.r_models)
        menu;
      if List.exists (fun r -> r.S.r_relational_distance <> first.S.r_relational_distance) menu then
        wrong t "session: menu entries at different distances";
      match S.commit sess first with
      | Error e -> error t e
      | Ok () ->
        List.iter
          (fun p ->
            let before = model_of g.cur p and after = model_of first.S.r_models p in
            g.cur <- List.map (fun (q, m) -> if I.name q = p then (q, after) else (q, m)) g.cur;
            mirror g p (Mdl.Diff.script before after))
          targets))

let prepare ~seed =
  let state = ref (open_pass ~seed ~pass:0) in
  let pass = ref 0 and index = ref 0 and inconsistent = ref 0 and repairs = ref 0 in
  let run t ~continue_ =
    while continue_ () do
      if !index = pass_batches then begin
        incr pass;
        index := 0;
        state := outside (fun () -> open_pass ~seed ~pass:!pass)
      end;
      let g, sess = !state in
      let batch = next_batch g !index in
      incr index;
      let checked =
        timed_op t (record_check t) (fun () ->
            Result.bind
              (call "incr" "apply_edits" (fun () -> S.apply_edits sess batch))
              (fun () -> call "incr" "recheck" (fun () -> S.recheck sess)))
      in
      if g.pending then encoded g;
      match checked with
      | Error e -> error t e
      | Ok report ->
        let expected = consistent ~k:2 g.cur in
        if report.S.consistent <> expected then
          wrong t "session batch %d of pass %d: verdict %b, oracle %b" !index !pass
            report.S.consistent expected
        else if not expected then begin
          incr inconsistent;
          if !inconsistent mod repair_every = 0 then begin
            incr repairs;
            repair t g sess ~cross:(!repairs mod 4 = 1)
          end
        end
    done
  in
  { run; dispose = ignore; latencies = raw_latencies; queue_wait = no_queue }
