module Ident = Mdl.Ident
module Model = Mdl.Model

type step = {
  s_label : string;
  s_batch : (Ident.t * Mdl.Edit.t list) list;
}

type step_record = {
  sr_label : string;
  sr_edits : int;
  sr_rebuilt : bool;
  sr_session_consistent : bool;
  sr_scratch_consistent : bool;
  sr_verdicts_match : bool;
  sr_session : Session.step_stats;
  sr_scratch : Session.step_stats;
}

let steps_of_snapshots ~base snapshots =
  let step_of state (label, snap) =
    let batch =
      List.filter_map
        (fun (p, after) ->
          match List.assoc_opt p state with
          | None -> None
          | Some before -> (
            match Mdl.Diff.script before after with
            | [] -> None
            | edits -> Some (p, edits)))
        snap
    in
    let state =
      List.map
        (fun (p, m) ->
          match List.assoc_opt p snap with Some m' -> (p, m') | None -> (p, m))
        state
    in
    (state, { s_label = label; s_batch = batch })
  in
  let _, steps = List.fold_left_map step_of base snapshots in
  steps

(* Blocks are delimited by lines starting with "=="; the marker line's
   remainder is the label. Each body is padded with newlines up to its
   position in the file, so line/col coordinates in any parse error
   raised inside a block are absolute script-file positions — the
   serializer's lexer counts from line 1 of whatever string it gets. *)
let blocks text =
  let lines = String.split_on_char '\n' text in
  let _, rev_blocks, err =
    List.fold_left
      (fun (lineno, blocks, err) line ->
        if err <> None then (lineno + 1, blocks, err)
        else if String.length line >= 2 && String.sub line 0 2 = "==" then begin
          let label =
            String.trim (String.sub line 2 (String.length line - 2))
          in
          let buf = Buffer.create 256 in
          for _ = 1 to lineno do
            Buffer.add_char buf '\n'
          done;
          (lineno + 1, (label, lineno, buf) :: blocks, err)
        end
        else begin
          match blocks with
          | (_, _, buf) :: _ ->
            Buffer.add_string buf line;
            Buffer.add_char buf '\n';
            (lineno + 1, blocks, err)
          | [] ->
            if String.trim line = "" then (lineno + 1, blocks, err)
            else
              ( lineno + 1,
                blocks,
                Some
                  (Printf.sprintf
                     "replay script: line %d: text before the first == step \
                      marker"
                     lineno) )
        end)
      (1, [], None) lines
  in
  match err with
  | Some e -> Error e
  | None ->
    Ok
      (List.rev_map
         (fun (label, line, buf) -> (label, line, Buffer.contents buf))
         rev_blocks)

let parse ~metamodels ~base text =
  let ( let* ) = Result.bind in
  let* bs = blocks text in
  let* rev_snapshots =
    List.fold_left
      (fun acc (label, line, body) ->
        let* acc = acc in
        match Mdl.Serialize.parse_models metamodels body with
        | Ok ms -> Ok ((label, List.map (fun m -> (Model.name m, m)) ms) :: acc)
        | Error e ->
          Error
            (Printf.sprintf "replay script: step %S (marker at line %d): %s"
               label line e))
      (Ok []) bs
  in
  Ok (steps_of_snapshots ~base (List.rev rev_snapshots))

let verdicts_match (a : Session.check_report) (b : Session.check_report) =
  List.length a.Session.verdicts = List.length b.Session.verdicts
  && List.for_all2
       (fun (x : Session.verdict) (y : Session.verdict) ->
         Ident.equal x.Session.v_relation y.Session.v_relation
         && x.Session.v_direction = y.Session.v_direction
         && x.Session.v_holds = y.Session.v_holds)
       a.Session.verdicts b.Session.verdicts

let run ?mode ?slack_budget ?headroom ~transformation ~metamodels ~models
    ~targets steps =
  let ( let* ) = Result.bind in
  let open_fresh models =
    Session.open_session ?mode ?slack_budget ?headroom ~transformation
      ~metamodels ~models ~targets ()
  in
  let* sess = open_fresh models in
  (* warm-up: pay the session's own translation before step 1 *)
  let* _ = Session.recheck sess in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | st :: rest ->
      let rebuilds0 = Session.rebuilds sess in
      let* () = Session.apply_edits sess st.s_batch in
      let* warm = Session.recheck sess in
      (* the baseline: a fresh session over the same post-edit models,
         paying cold solves and its check stage (a template clone once
         the shape has been seen) *)
      let* scratch_sess = open_fresh (Session.models sess) in
      let* scratch = Session.recheck scratch_sess in
      let record =
        {
          sr_label = st.s_label;
          sr_edits =
            List.fold_left (fun n (_, es) -> n + List.length es) 0 st.s_batch;
          sr_rebuilt = Session.rebuilds sess > rebuilds0;
          sr_session_consistent = warm.Session.consistent;
          sr_scratch_consistent = scratch.Session.consistent;
          sr_verdicts_match = verdicts_match warm scratch;
          sr_session = warm.Session.check_stats;
          sr_scratch = scratch.Session.check_stats;
        }
      in
      go (record :: acc) rest
  in
  go [] steps
