module P = Protocol

type step = {
  label : string;
  edits : int;
  rebuilt : bool;
  consistent : bool;
  verdicts_match : bool;
  warm : Incr.Session.step_stats;
  scratch : Incr.Session.step_stats;
}

let ( let* ) = Result.bind

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

(* The state after a block: each restated model replaces its
   parameter's, in block order, as apply_edits diffs them. *)
let project state ms =
  List.fold_left
    (fun state m ->
      let p = Mdl.Model.name m in
      List.map
        (fun (q, old) -> if Mdl.Ident.equal q p then (q, m) else (q, old))
        state)
    state ms

let run (spec : P.open_spec) script =
  let* mms = Mdl.Serialize.parse_metamodels spec.o_metamodels in
  let* models = Mdl.Serialize.parse_models mms spec.o_models in
  let* bs = blocks script in
  (* a block may restate only the session's own parameters *)
  let params = List.map Mdl.Model.name models in
  let* rev_snapshots =
    List.fold_left
      (fun acc (label, line, body) ->
        let* acc = acc in
        let parsed =
          let* ms = Mdl.Serialize.parse_models mms body in
          match
            List.find_opt
              (fun p -> not (List.exists (Mdl.Ident.equal p) params))
              (List.map Mdl.Model.name ms)
          with
          | Some p -> Error ("unknown parameter " ^ Mdl.Ident.name p)
          | None -> Ok ms
        in
        match parsed with
        | Ok ms -> Ok ((label, body, ms) :: acc)
        | Error e ->
          Error
            (Printf.sprintf "replay script: step %S (marker at line %d): %s"
               label line e))
      (Ok []) bs
  in
  let engine = Engine.create ~jobs:1 () in
  Fun.protect ~finally:(fun () -> Engine.shutdown engine) @@ fun () ->
  let next_id = ref 0 in
  let call session q_req =
    incr next_id;
    (Engine.call engine { P.q_id = !next_id; q_session = session; q_req })
      .P.s_result
  in
  let recheck session =
    match call session (P.Recheck { blame = false }) with
    | Ok (P.Checked { consistent; verdicts; stats }) ->
      Ok (consistent, verdicts, stats)
    | Ok _ -> Error "unexpected reply to recheck"
    | Error e -> Error e
  in
  let step state (label, body, ms) =
    let state = project state ms in
    let* edits =
      match call "main" (P.Apply_edits { models = body }) with
      | Ok (P.Applied { edits }) -> Ok edits
      | Ok _ -> Error "unexpected reply to apply_edits"
      | Error e -> Error e
    in
    let* consistent, warm_vs, warm = recheck "main" in
    let models =
      String.concat "\n"
        (List.map (fun (_, m) -> Mdl.Serialize.model_to_string m) state)
    in
    let* _ = call "scratch" (P.Open { spec with o_models = models }) in
    let* _, scratch_vs, scratch = recheck "scratch" in
    let* _ = call "scratch" P.Close in
    Ok
      ( state,
        {
          label;
          edits;
          rebuilt = warm.Incr.Session.translated;
          consistent;
          verdicts_match = warm_vs = scratch_vs;
          warm;
          scratch;
        } )
  in
  let* _ = call "main" (P.Open spec) in
  (* warm-up: [main] pays for its check stage before step 1 *)
  let* _ = recheck "main" in
  let rec go state acc = function
    | [] -> Ok (List.rev acc)
    | snap :: rest ->
      let* state, r = step state snap in
      go state (r :: acc) rest
  in
  go
    (List.map (fun m -> (Mdl.Model.name m, m)) models)
    [] (List.rev rev_snapshots)
