(* Clause-for-clause pins of from-scratch translations, and search
   pins of the solver that runs them.

   Each cnf.pin case builds a solver from nothing and digests its
   problem clause database (Sat.Solver.fold_clauses: root-level units,
   then every stored clause in order) together with the variable
   count. The expected values are what the previous translation
   kernels (circuit interning, Tseitin, clause loading, totalizer)
   emitted. A kernel change must leave every variable, clause and
   clause order exactly as it was, so the solver search, its counters
   and its answers cannot move. Each search case (below) runs a
   fixed solve sequence and pins the solver's counters and answers,
   so a solver kernel change must also search exactly as before.

   This is its own executable, not a suite of test_main: variable
   numbering follows identifier interning order, which a shared test
   process would make depend on every test that ran before. A change
   to which identifiers the libraries intern at start-up can move the
   digests without any kernel change; re-record them then, from the
   commit before the change, never from the change itself. *)

module F = Featuremodel.Fm
module Ident = Mdl.Ident

type pin = { vars : int; clauses : int; digest : string }

let pin_of solver =
  let b = Buffer.create 65536 in
  let clauses =
    Sat.Solver.fold_clauses
      (fun c n ->
        Array.iter
          (fun l ->
            Buffer.add_string b (string_of_int (Sat.Lit.to_int l));
            Buffer.add_char b ' ')
          c;
        Buffer.add_string b "0\n";
        n + 1)
      solver 0
  in
  let vars = Sat.Solver.nb_vars solver in
  Buffer.add_string b (Printf.sprintf "p %d %d\n" vars clauses);
  { vars; clauses; digest = Digest.to_hex (Digest.string (Buffer.contents b)) }

let pp_pin ppf p = Format.fprintf ppf "{ vars = %d; clauses = %d; digest = %S }" p.vars p.clauses p.digest
let pin = Alcotest.testable pp_pin ( = )

(* (a) E8's deep repair with m = 2 new mandatory features over a
   four-feature pool: the repair space's bounds and formulas, prepared
   the way the iterative backend prepares them. *)
let deep_repair_finder () =
  let pool = Featuremodel.Gen.feature_names 4 in
  let cfs = [ F.configuration ~name:"cf1" pool; F.configuration ~name:"cf2" pool ] in
  let fm =
    F.feature_model ~name:"fm"
      (List.map (fun f -> (f, true)) pool @ List.init 2 (fun i -> (Printf.sprintf "N%d" i, true)))
  in
  match
    Echo.Space.build ~slack_objects:2 ~transformation:(F.transformation ~k:2)
      ~metamodels:F.metamodels ~models:(F.bind ~cfs ~fm)
      ~targets:(Echo.Target.of_list [ "cf1"; "cf2" ])
      ()
  with
  | Error e -> Alcotest.fail e
  | Ok space -> Relog.Finder.prepare (Echo.Space.bounds space) (Echo.Space.formulas space)

let deep_repair () = pin_of (Relog.Finder.solver (deep_repair_finder ()))

(* (b) A session's check translation of a six-feature, k = 2 state:
   one finder over the all-mutable bounds, one guard per direction.
   Also returns the models of that state and of a second one over the
   same objects, in which cf1 lacks the mandatory F5. *)
let check_finder () =
  let trans = F.transformation ~k:2 in
  let fm =
    F.feature_model ~name:"fm"
      [ ("F1", true); ("F2", true); ("F3", false); ("F4", false); ("F5", true); ("F6", false) ]
  in
  let cfs =
    [
      F.configuration ~name:"cf1" [ "F1"; "F2"; "F3"; "F5" ];
      F.configuration ~name:"cf2" [ "F1"; "F2"; "F5"; "F6" ];
    ]
  in
  let models = F.bind ~cfs ~fm in
  let broken = F.bind ~cfs:[ F.configuration ~name:"cf1" [ "F1"; "F2"; "F3" ]; List.nth cfs 1 ] ~fm in
  let info =
    match Qvtr.Typecheck.check trans ~metamodels:F.metamodels with
    | Ok info -> info
    | Error _ -> Alcotest.fail "typecheck"
  in
  match
    Qvtr.Encode.create ~transformation:trans ~metamodels:F.metamodels ~models
      ~slack_objects:4 ()
  with
  | Error e -> Alcotest.fail e
  | Ok enc ->
    let sem = Qvtr.Semantics.create enc info in
    let bounds =
      Qvtr.Encode.bounds enc ~targets:(Ident.Set.of_list (List.map fst models))
    in
    let finder = Relog.Finder.create bounds in
    let dirs = Qvtr.Semantics.top_formulas sem in
    Alcotest.(check int) "five directions" 5 (List.length dirs);
    let guards = List.map (fun (_, _, f) -> Relog.Finder.guard finder f) dirs in
    (enc, [ models; broken ], finder, guards)

let session_check () =
  let _, _, finder, _ = check_finder () in
  pin_of (Relog.Finder.solver finder)

(* (c) A totalizer over 128 fresh inputs, uncapped (sessions) and
   k-bounded (the iterative repair's distance cap). *)
let totalizer ?cap () =
  let s = Sat.Solver.create () in
  let inputs = List.init 128 (fun _ -> Sat.Lit.pos (Sat.Solver.new_var s)) in
  ignore (Sat.Cardinality.build ?cap s inputs);
  pin_of s

(* Search pins. The clause pins above show the solver is handed the
   same clauses; these show it searches them the same way. Each runs
   a fixed solve sequence and records the solver's counters after it
   together with a digest of every answer, so a change to the solver
   kernel (clause storage, propagation, analysis, reduction, cloning)
   that is meant to repeat the search exactly must leave each of them
   equal. Recorded from the solver before the kernel change. *)

type search = {
  decisions : int;
  propagations : int;
  conflicts : int;
  restarts : int;
  reduces : int;
  learnt : int;
  answers : string;
}

let pp_search ppf p =
  Format.fprintf ppf
    "{ decisions = %d; propagations = %d; conflicts = %d; restarts = %d; reduces = %d; \
     learnt = %d; answers = %S }"
    p.decisions p.propagations p.conflicts p.restarts p.reduces p.learnt p.answers

let search = Alcotest.testable pp_search ( = )

let search_of solver answers =
  let st = Sat.Solver.stats solver in
  {
    decisions = st.decisions;
    propagations = st.propagations;
    conflicts = st.conflicts;
    restarts = st.restarts;
    reduces = st.reduces;
    learnt = st.learnt;
    answers = Digest.to_hex (Digest.string (Buffer.contents answers));
  }

let add_lits b lits =
  List.iter (fun l -> Buffer.add_string b (string_of_int (Sat.Lit.to_int l) ^ " ")) lits;
  Buffer.add_char b '\n'

(* (a) The first eight instances of the E8 m = 2 finder, each
   digested as the value of every primary. *)
let enumerate_e8 () =
  let finder = deep_repair_finder () in
  let b = Buffer.create 4096 in
  List.iter
    (fun inst ->
      Relog.Translate.fold_primaries (Relog.Finder.translation finder)
        (fun r tuple _ () ->
          Buffer.add_char b
            (if Relog.Rel.Tupleset.mem tuple (Relog.Instance.get inst r) then '1' else '0'))
        ();
      Buffer.add_char b '\n')
    (Relog.Finder.enumerate ~limit:8 finder);
  search_of (Relog.Finder.solver finder) b

(* (e) (a) with a learnt cap of 20, so the enumeration reduces the
   learnt database; then a clone of its solver, solved once more and
   under each of the first eight primaries negated. The clone carries
   the reduced learnt clauses in database order, so this pins the
   reduction's survivors, their order and their copy. *)
let clone_e8 () =
  let finder = deep_repair_finder () in
  Sat.Solver.set_learnt_cap (Relog.Finder.solver finder) 20;
  ignore (Relog.Finder.enumerate ~limit:8 finder);
  Alcotest.(check bool) "the enumeration reduced" true
    ((Sat.Solver.stats (Relog.Finder.solver finder)).reduces > 0);
  let c = Sat.Solver.clone (Relog.Finder.solver finder) in
  let b = Buffer.create 256 in
  let answer r = Buffer.add_string b (if r = Sat.Solver.Sat then "sat\n" else "unsat\n") in
  answer (Sat.Solver.solve c);
  let prims =
    Relog.Translate.fold_primaries (Relog.Finder.translation finder) (fun _ _ v acc -> v :: acc) []
  in
  List.iteri
    (fun i v -> if i < 8 then answer (Sat.Solver.solve ~assumptions:[ Sat.Lit.neg_of v ] c))
    (List.rev prims);
  search_of c b

(* The check pins of a session: every primary of a model parameter
   pinned to its value in the state, class extents before features,
   then by relation name and tuple (Incr.Session's order). *)
let check_pins enc models finder =
  let param_of r =
    match String.index_opt (Ident.name r) '$' with
    | None -> None
    | Some i -> Some (Ident.make (String.sub (Ident.name r) 0 i))
  in
  let is_ft r =
    match String.index_opt (Ident.name r) '$' with
    | Some i ->
      String.length (Ident.name r) > i + 3 && String.sub (Ident.name r) (i + 1) 3 = "ft$"
    | None -> false
  in
  let facts = Hashtbl.create 256 in
  List.iter
    (fun (p, m) ->
      List.iter
        (fun (r, tuple) -> Hashtbl.replace facts (Ident.name r, tuple) ())
        (Qvtr.Encode.model_facts enc ~param:p m))
    models;
  let prims =
    Relog.Translate.fold_primaries (Relog.Finder.translation finder)
      (fun r tuple v acc -> if param_of r = None then acc else (r, tuple, v) :: acc)
      []
    |> Array.of_list
  in
  Array.sort
    (fun (ra, ta, _) (rb, tb, _) ->
      let c = compare (is_ft ra) (is_ft rb) in
      if c <> 0 then c
      else
        let c = String.compare (Ident.name ra) (Ident.name rb) in
        if c <> 0 then c else compare ta tb)
    prims;
  Array.fold_right
    (fun (r, tuple, v) acc ->
      (if Hashtbl.mem facts (Ident.name r, tuple) then Sat.Lit.pos v else Sat.Lit.neg_of v)
      :: acc)
    prims []

(* For each state, solve each direction in turn under the state's
   pins plus its guard, as [Incr.Session.recheck ~blame:true] does;
   minimise the core of each violated direction. *)
let solve_directions solver states guards =
  let b = Buffer.create 1024 in
  List.iter
    (fun pins ->
      List.iter
        (fun g ->
          match Sat.Solver.solve ~assumptions:(pins @ [ g ]) solver with
          | Sat.Solver.Sat -> Buffer.add_string b "sat\n"
          | Sat.Solver.Unsat ->
            Buffer.add_string b "unsat ";
            add_lits b (Sat.Solver.minimize_core solver))
        guards)
    states;
  b

(* (b) The five direction guards of the six-feature check finder, in
   the consistent state and then in the broken one. *)
let check_directions () =
  let enc, states, finder, guards = check_finder () in
  let solver = Relog.Finder.solver finder in
  let states = List.map (fun m -> check_pins enc m finder) states in
  search_of solver (solve_directions solver states guards)

(* (d) A clone of (b)'s solver, after (b), re-solving (b). *)
let clone_directions () =
  let enc, states, finder, guards = check_finder () in
  let solver = Relog.Finder.solver finder in
  let states = List.map (fun m -> check_pins enc m finder) states in
  ignore (solve_directions solver states guards);
  let c = Sat.Solver.clone solver in
  search_of c (solve_directions c states guards)

(* (c) Pigeonhole 8 -> 7: thousands of conflicts and several learnt
   database reductions. *)
let pigeonhole () =
  let n = 8 and m = 7 in
  let s = Sat.Solver.create () in
  let v = Array.init n (fun _ -> Array.init m (fun _ -> Sat.Solver.new_var s)) in
  for i = 0 to n - 1 do
    Sat.Solver.add_clause s (List.init m (fun j -> Sat.Lit.pos v.(i).(j)))
  done;
  for j = 0 to m - 1 do
    for i = 0 to n - 1 do
      for k = i + 1 to n - 1 do
        Sat.Solver.add_clause s [ Sat.Lit.neg_of v.(i).(j); Sat.Lit.neg_of v.(k).(j) ]
      done
    done
  done;
  let b = Buffer.create 16 in
  Buffer.add_string b (if Sat.Solver.solve s = Sat.Solver.Sat then "sat" else "unsat");
  search_of s b

let search_case name run expected =
  Alcotest.test_case name `Quick (fun () ->
      Alcotest.check search "search" expected (run ()))

let case name build expected =
  Alcotest.test_case name `Quick (fun () ->
      Alcotest.check pin "clause database" expected (build ()))

let () =
  Alcotest.run "cnf_pin"
    [
      ( "cnf.pin",
        [
          case "E8 deep repair m = 2 (Finder.prepare)" deep_repair
            { vars = 822; clauses = 3174; digest = "a4fa7cc6fa77ec90c45834dbc045cc64" };
          case "six-feature k = 2 check guards (Finder.guard)" session_check
            { vars = 1405; clauses = 12179; digest = "27a6d89a25ce18685fc754a8b03c7e5e" };
          case "totalizer over 128 inputs" totalizer
            { vars = 1024; clauses = 9024; digest = "54fbeb0355d598e22b8828927ed9f7ab" };
          case "totalizer over 128 inputs, cap 12" (totalizer ~cap:12)
            { vars = 707; clauses = 2152; digest = "2a29fabecf364bdbd48086bd60f8f08f" };
        ] );
      (* No group name longer than "cnf.pin": Alcotest cuts test names
         in its report to a width set by the longest group name, so a
         longer one would change how the cnf.pin cases are reported. *)
      ( "search",
        [
          search_case "E8 m = 2 enumerate, limit 8" enumerate_e8
            { decisions = 394; propagations = 21239; conflicts = 111; restarts = 1; reduces = 0;
              learnt = 111; answers = "6b43bcf715f76b791815af7df41fa748" };
          search_case "six-feature check directions" check_directions
            { decisions = 5494; propagations = 29428; conflicts = 6; restarts = 0; reduces = 0;
              learnt = 6; answers = "3e2ecfee84a1f9ac10027e00fe2403d6" };
          search_case "pigeonhole 8 -> 7" pigeonhole
            { decisions = 6437; propagations = 95130; conflicts = 5317; restarts = 28; reduces = 4;
              learnt = 1920; answers = "ab76ca464eefa1865434cd026016aa8e" };
          search_case "clone of the check solver, re-solving" clone_directions
            { decisions = 5654; propagations = 28969; conflicts = 8; restarts = 0; reduces = 0;
              learnt = 14; answers = "3e2ecfee84a1f9ac10027e00fe2403d6" };
          search_case "clone of the E8 solver after enumeration" clone_e8
            { decisions = 312; propagations = 19804; conflicts = 95; restarts = 0; reduces = 0;
              learnt = 159; answers = "92b09651dca25b96bb655d6cb072d954" };
        ] );
    ]
