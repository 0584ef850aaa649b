module Ident = Mdl.Ident
module TS = Relog.Rel.Tupleset

type t = {
  enc : Qvtr.Encode.t;
  tgts : Target.t;
  original : Relog.Instance.t;
  bnds : Relog.Bounds.t;
  directional : (Ident.t * Qvtr.Ast.dependency * Relog.Ast.formula) list;
  consistency : Relog.Ast.formula;
  structural : Relog.Ast.formula list;
  weights : int Ident.Map.t;  (* param -> weight *)
  originals : (Ident.t * Mdl.Model.t) list;
  sbp : bool;
}

let param_of_rel = Qvtr.Encode.param_of_rel

let build ?mode ?(slack_objects = 2) ?(extra_values = [])
    ?(model_weights = []) ?(sbp = true) ~transformation ~metamodels ~models
    ~targets () =
  let ( let* ) = Result.bind in
  let* () =
    Target.validate ~params:(Qvtr.Ast.param_names transformation) targets
  in
  let* fe =
    Qvtr.Front.create ?mode ~slack_objects ~extra_values transformation
      ~metamodels ~models
  in
  let enc = fe.Qvtr.Front.encoding in
  try
    (* Evaluation order matters beyond this function: compiling these
       formulas interns identifiers, whose tags order the primary
       registry's iteration, and with it the CNF. *)
    let directional =
      List.map
        (fun (r, d, f) -> (r.Qvtr.Ast.r_name, d, f))
        (Lazy.force fe.Qvtr.Front.top)
    in
    let structural =
      List.concat_map
        (fun p -> Qvtr.Encode.structural_formulas enc ~param:p)
        (Ident.Set.elements targets)
    in
    let weights =
      List.fold_left
        (fun acc p ->
          let w =
            match List.find_opt (fun (q, _) -> Ident.equal q p) model_weights with
            | Some (_, w) -> w
            | None -> 1
          in
          if w <= 0 then invalid_arg "Space.build: weights must be positive";
          Ident.Map.add p w acc)
        Ident.Map.empty (Qvtr.Encode.params enc)
    in
    Ok
      {
        enc;
        tgts = targets;
        original = Qvtr.Encode.check_instance enc;
        bnds = Qvtr.Encode.bounds enc ~targets;
        directional;
        consistency =
          Relog.Ast.conj (List.map (fun (_, _, f) -> f) directional);
        structural;
        weights;
        originals = models;
        sbp;
      }
  with
  | Qvtr.Semantics.Compile_error msg -> Error msg
  | Invalid_argument msg -> Error msg

let encoding s = s.enc
let directional_formulas s = s.directional
let consistent s = Relog.Eval.holds s.original s.consistency
let structural s = s.structural
let formulas s = s.consistency :: s.structural
let use_sbp s = s.sbp

(* The one-shot symmetry pass. Only the target models' object atoms
   (existing and slack) may move. Everything else stays fixed: value
   atoms, whose identity is observable in a repair menu ("attr = 5"
   and "attr = 7" are different repairs, not isomorphic ones), frozen
   models' objects, and every atom a formula names. The target
   relations' original values are respected: without them a
   permutation could move an instance to one at a different relational
   distance from the original, and the ladder's "UNSAT at level l"
   would no longer prove there is no repair at distance l. Frozen
   relations are exactly bound, so preserving their bounds already
   preserves them. *)
let sbp_orbits s =
  let movable =
    List.fold_left
      (fun acc p ->
        let acc =
          List.fold_left
            (fun acc a -> Ident.Set.add a acc)
            acc
            (Qvtr.Encode.slack_atom_names s.enc p)
        in
        Mdl.Model.fold_objects
          (fun id _ acc -> Ident.Set.add (Qvtr.Encode.obj_atom_name p id) acc)
          (Qvtr.Encode.model_of_param s.enc p)
          acc)
      Ident.Set.empty
      (Ident.Set.elements s.tgts)
  in
  let fixed =
    List.fold_left
      (fun acc a -> if Ident.Set.mem a movable then acc else Ident.Set.add a acc)
      Ident.Set.empty
      (Relog.Rel.Universe.atoms (Qvtr.Encode.universe s.enc))
  in
  let fixed =
    List.fold_left
      (fun acc f -> Ident.Set.union acc (Relog.Ast.free_atoms f))
      fixed (formulas s)
  in
  let respect =
    List.filter_map
      (fun r ->
        match param_of_rel r with
        | Some p when Ident.Set.mem p s.tgts ->
          Some (Relog.Instance.get s.original r)
        | _ -> None)
      (Relog.Bounds.relations s.bnds)
  in
  Relog.Symmetry.orbits ~fixed ~respect s.bnds

let bounds s = s.bnds

let weight_of_rel s r =
  match param_of_rel r with
  | Some p -> (
    match Ident.Map.find_opt p s.weights with Some w -> Some w | None -> None)
  | None -> None

let change_literals s trans =
  Relog.Translate.fold_primaries trans
    (fun r tuple v acc ->
      match weight_of_rel s r with
      | None -> acc  (* value relations etc. — never primary in practice *)
      | Some w ->
        let originally = TS.mem tuple (Relog.Instance.get s.original r) in
        let lit = if originally then Sat.Lit.neg_of v else Sat.Lit.pos v in
        (lit, w) :: acc)
    []

let decode_targets s inst =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | (p, original) :: rest ->
      if not (Ident.Set.mem p s.tgts) then go ((p, original) :: acc) rest
      else (
        match Qvtr.Encode.decode_model s.enc inst ~param:p with
        | Error msg -> Error msg
        | Ok m ->
          let violations = Mdl.Conformance.check m in
          if violations <> [] then
            Error
              (Format.asprintf "decoded %a does not conform: %a" Ident.pp p
                 Mdl.Conformance.pp_report violations)
          else go ((p, m) :: acc) rest)
  in
  go [] s.originals

let relational_distance s inst =
  List.fold_left
    (fun acc r ->
      match (param_of_rel r, Relog.Bounds.get s.bnds r) with
      | Some p, Some _ when Ident.Set.mem p s.tgts ->
        let w = Option.value ~default:1 (Ident.Map.find_opt p s.weights) in
        let a = Relog.Instance.get s.original r in
        let b = Relog.Instance.get inst r in
        let sym = TS.cardinal (TS.diff a b) + TS.cardinal (TS.diff b a) in
        acc + (w * sym)
      | _ -> acc)
    0
    (Relog.Bounds.relations s.bnds)

let edit_distance s repaired =
  List.fold_left
    (fun acc (p, original) ->
      if Ident.Set.mem p s.tgts then
        match List.find_opt (fun (q, _) -> Ident.equal q p) repaired with
        | Some (_, m) -> acc + Mdl.Distance.delta original m
        | None -> acc
      else acc)
    0 s.originals
