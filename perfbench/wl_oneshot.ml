(* [oneshot]: a closed loop of CLI-equivalent requests on one thread.

   Each request is the text a [qvtr check]/[qvtr enforce] run reads —
   the spec [F.source ~k], the two metamodels and the k + 1 models —
   parsed and checked afresh, then repaired when inconsistent. Request
   kinds follow a fixed cycle of 20 so every run, whatever its seed and
   length, sees the same mix: 1 in 5 a deep repair (m in 1..3 new
   mandatory features, d* = 4m), 1 in 10 an E12-style symmetric menu,
   the rest a consistent [Gen] state over 3-6 features with k in
   {2, 3}, perturbed by one [Gen.perturbation] (the four kinds in
   turn) and repaired on one of the E6 target shapes. Backends rotate:
   iterative 2 in 4, MaxSAT 1 in 4, [enforce_all] 1 in 4. The seed
   draws the states and the perturbed features.

   The loop goes over the pool in passes of about ten seconds each,
   and a request's latency is its best over the passes. Every pass
   does the same work, so the best filters out the phases of a few
   seconds in which a shared host runs everything up to 1.5x slower. *)

open Common
module G = Featuremodel.Gen
module E = Echo.Engine

type action = Enforce of E.backend | Enforce_all of int

type request = {
  index : int;
  k : int;
  spec : string;
  mms : string;
  models : string;
  state : (I.t * Mdl.Model.t) list;  (** the oracle's own copy *)
  action : action;
  targets : string list;
  slack : int option;
  cross_check : bool;  (** re-derive the optimum with the other backend *)
}

let metamodels_text =
  Mdl.Serialize.metamodel_to_string F.cf_metamodel
  ^ "\n"
  ^ Mdl.Serialize.metamodel_to_string F.fm_metamodel

let shapes ~k r =
  let cfs = cf_params k and cf = Printf.sprintf "cf%d" r in
  [| [ "fm" ]; [ cf ]; cfs; "fm" :: List.filter (fun c -> c <> cf) cfs |]

(* The [kind]-th of the four [Gen.perturbation] kinds, with its
   feature and configuration drawn from the state, or a drawn kind when
   that one does not apply (no optional or no mandatory feature). The
   cycle over kinds keeps every run's mix of repair problems alike. *)
let perturbation rng (cfs, fm) kind =
  let k = List.length cfs in
  let pick l = List.nth l (Random.State.int rng (List.length l)) in
  let features mandatory =
    List.filter_map (fun (n, m) -> if m = mandatory then Some n else None) (F.fm_features fm)
  in
  match (kind, features false, features true) with
  | 0, _, _ -> Some (G.Add_mandatory_to_fm "X1")
  | 1, _, _ -> Some (G.Select_unknown { cf_index = Random.State.int rng k; feature = "X1" })
  | 2, (_ :: _ as optional), _ -> Some (G.Select_everywhere (pick optional))
  | 3, _, (_ :: _ as mandatory) ->
    Some (G.Drop_selection { cf_index = Random.State.int rng k; feature = pick mandatory })
  | _ -> G.random_perturbation rng (cfs, fm)

let request ~seed index =
  let rng = Random.State.make [| seed; index |] in
  let action =
    match index mod 4 with
    | 0 | 1 -> Enforce E.Iterative
    | 2 -> Enforce E.Maxsat
    | _ -> Enforce_all 16
  in
  let k, (cfs, fm), action, targets, slack =
    if index mod 5 = 0 then begin
      (* deep, E8's shape on a two-feature pool: both features
         mandatory and selected everywhere, plus m new mandatory ones
         that only all configurations together can absorb *)
      let m = 1 + (index / 5 mod 3) in
      let cfs, fm = fixed_state rng ~k:2 ~n_features:2 ~mandatory:2 ~extras:0 in
      let fm =
        F.feature_model ~name:"fm"
          (F.fm_features fm @ List.init m (fun i -> (Printf.sprintf "N%d" (i + 1), true)))
      in
      (2, (cfs, fm), action, cf_params 2, Some (max 2 m))
    end
    else if index mod 10 = 3 then
      (* E12's sym3: an empty configuration against three
         interchangeable mandatory features *)
      ( 1,
        ( [ F.configuration ~name:"cf1" [] ],
          F.feature_model ~name:"fm" (List.init 3 (fun i -> (Printf.sprintf "F%d" (i + 1), true))) ),
        Enforce_all 32,
        [ "cf1" ],
        Some 4 )
    else begin
      let k = 2 + (index / 3 mod 2) in
      let state = G.consistent_state rng ~k ~n_features:(3 + (index / 2 mod 4)) in
      let state =
        match perturbation rng state (index / 6 mod 4) with
        | Some p -> G.apply_perturbation state p
        | None -> state
      in
      let targets = (shapes ~k (1 + Random.State.int rng k)).(index / 4 mod 4) in
      (k, state, action, targets, None)
    end
  in
  let state = F.bind ~cfs ~fm in
  {
    index;
    k;
    spec = F.source ~k;
    mms = metamodels_text;
    models = String.concat "\n" (List.map (fun (_, m) -> Mdl.Serialize.model_to_string m) state);
    state;
    action;
    targets;
    slack;
    cross_check = Random.State.int rng 8 = 0;
  }

let pool_size = 800

let generate ~seed = Array.init pool_size (request ~seed)

(* ------------------------------------------------------------------ *)

let parse req =
  let ( let* ) = Result.bind in
  let* trans = call "qvtr" "parse" (fun () -> Qvtr.Parser.parse req.spec) in
  let* mms = call "mdl" "parse" (fun () -> Mdl.Serialize.parse_metamodels req.mms) in
  let* models = call "mdl" "parse" (fun () -> Mdl.Serialize.parse_models mms req.models) in
  Ok
    ( trans,
      List.map (fun mm -> (Mdl.Metamodel.name mm, mm)) mms,
      List.map (fun m -> (Mdl.Model.name m, m)) models )

let enforce req action (trans, metamodels, models) =
  let targets = Echo.Target.of_list req.targets in
  match action with
  | Enforce backend ->
    Result.map (fun o -> [ o ])
      (call "echo" "enforce" (fun () ->
           E.enforce ~backend ?slack_objects:req.slack trans ~metamodels ~models ~targets))
  | Enforce_all limit ->
    call "echo" "enforce_all" (fun () ->
        E.enforce_all ~limit ?slack_objects:req.slack trans ~metamodels ~models ~targets)

(* [Some d] for a repair at relational distance [d], [None] for
   [Cannot_restore]. *)
let optimum = function
  | [ E.Cannot_restore ] -> Ok None
  | E.Enforced r :: _ -> Ok (Some r.E.relational_distance)
  | _ -> Error "no repair outcome"

let verify_repairs t req outcomes =
  let what = Printf.sprintf "oneshot request %d" req.index in
  match outcomes with
  | [ E.Already_consistent ] -> wrong t "%s: already_consistent on an inconsistent state" what
  | [ E.Cannot_restore ] -> if not req.cross_check then t.unverified <- t.unverified + 1
  | _ ->
    t.repairs_returned <- t.repairs_returned + 1;
    let dists =
      List.filter_map
        (function
          | E.Enforced r ->
            check_repair t ~k:req.k ~what ~targets:req.targets ~before:req.state r.E.repaired;
            Some r.E.relational_distance
          | E.Already_consistent | E.Cannot_restore ->
            wrong t "%s: menu mixes outcomes" what;
            None)
        outcomes
    in
    if List.length (List.sort_uniq compare dists) > 1 then
      wrong t "%s: menu entries at different distances" what

(* Outside the timed span: the other backend must find the same
   optimum (or also fail to restore). *)
let cross_check t req parsed outcomes =
  let other =
    match req.action with
    | Enforce E.Maxsat -> Enforce E.Iterative
    | Enforce _ | Enforce_all _ -> Enforce E.Maxsat
  in
  match (optimum outcomes, Result.bind (enforce req other parsed) optimum) with
  | Ok a, Ok b when a = b -> t.cross_checked <- t.cross_checked + 1
  | Ok _, Ok _ -> wrong t "oneshot request %d: backends disagree on the optimum" req.index
  | Error e, _ | _, Error e -> error t e

(* Each op's latency is recorded raw, and as the request's best. *)
let serve_request t ~best_check ~best_repair ~first_pass req =
  let best a dt = a.(req.index) <- Float.min a.(req.index) dt in
  let checked =
    timed_op t (fun dt -> record_check t dt; best best_check dt) (fun () ->
        Result.bind (parse req) (fun ((trans, metamodels, models) as parsed) ->
            Result.map
              (fun report -> (parsed, report))
              (call "qvtr" "check" (fun () -> E.check trans ~metamodels ~models))))
  in
  match checked with
  | Error e -> error t e
  | Ok (parsed, report) ->
    let expected = consistent ~k:req.k req.state in
    if report.Qvtr.Check.consistent <> expected then
      wrong t "oneshot request %d: verdict %b, oracle %b" req.index
        report.Qvtr.Check.consistent expected
    else if not expected then begin
      match
        timed_op t (fun dt -> record_repair t dt; best best_repair dt) (fun () ->
            enforce req req.action parsed)
      with
      | Error e -> error t e
      | Ok outcomes ->
        verify_repairs t req outcomes;
        if req.cross_check && first_pass then outside (fun () -> cross_check t req parsed outcomes)
    end

let prepare ~seed =
  let requests = generate ~seed in
  let best_check = Array.make pool_size Float.infinity in
  let best_repair = Array.make pool_size Float.infinity in
  let next = ref 0 in
  let run t ~continue_ =
    while continue_ () do
      serve_request t ~best_check ~best_repair ~first_pass:(!next < pool_size)
        requests.(!next mod pool_size);
      incr next
    done
  in
  let latencies _ =
    let served a = List.filter Float.is_finite (Array.to_list a) in
    let checks = served best_check and repairs = served best_repair in
    {
      check_samples = checks;
      repair_samples = repairs;
      (* the ops of one pass over their best wall *)
      ops_per_s =
        float_of_int (List.length checks + List.length repairs)
        /. List.fold_left ( +. ) 0. (checks @ repairs);
    }
  in
  { run; dispose = ignore; latencies; queue_wait = no_queue }
