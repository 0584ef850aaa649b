(* Clause-for-clause pins of from-scratch translations.

   Each case builds a solver from nothing and digests its problem
   clause database (Sat.Solver.fold_clauses: root-level units, then
   every stored clause in order) together with the variable count.
   The expected values are what the previous translation kernels
   (circuit interning, Tseitin, clause loading, totalizer) emitted. A
   kernel change must leave every variable, clause and clause order
   exactly as it was, so the solver search, its counters and its
   answers cannot move.

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
let deep_repair () =
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
  | Ok space ->
    let finder = Relog.Finder.prepare (Echo.Space.bounds space) (Echo.Space.formulas space) in
    pin_of (Relog.Finder.solver finder)

(* (b) A session's check translation of a six-feature, k = 2 state:
   one finder over the all-mutable bounds, one guard per direction. *)
let session_check () =
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
    List.iter (fun (_, _, f) -> ignore (Relog.Finder.guard finder f)) dirs;
    pin_of (Relog.Finder.solver finder)

(* (c) A totalizer over 128 fresh inputs, uncapped (sessions) and
   k-bounded (the iterative repair's distance cap). *)
let totalizer ?cap () =
  let s = Sat.Solver.create () in
  let inputs = List.init 128 (fun _ -> Sat.Lit.pos (Sat.Solver.new_var s)) in
  ignore (Sat.Cardinality.build ?cap s inputs);
  pin_of s

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
    ]
