(* Active symmetry-breaking state: the caller's extra fixed atoms and
   respected tuplesets (so a rebind can re-run the analysis), plus the
   guard literal the current SBP clauses hang off. *)
type sbp_state = {
  mutable sbp_guard : Sat.Lit.t;
  sbp_fixed : Mdl.Ident.Set.t;
  sbp_respect : Rel.Tupleset.t list;
}

type t = {
  trans : Translate.t;
  mutable last : Sat.Lit.t array option;
      (* the last model's primaries, each negated: its blocking
         clause *)
  mutable last_assumed : Sat.Lit.t list;
      (* assumptions of the last solve, for assumption-aware blocking *)
  mutable fixed_atoms : Mdl.Ident.Set.t;
      (* atoms named by any formula seen by this finder: never permutable *)
  mutable sbp : sbp_state option;
  (* telemetry *)
  solve_span : Sat.Telemetry.span;
  mutable n_sat : int;
  mutable n_unsat : int;
  mutable n_blocked : int;
}

let make trans =
  {
    trans;
    last = None;
    last_assumed = [];
    fixed_atoms = Mdl.Ident.Set.empty;
    sbp = None;
    solve_span = Sat.Telemetry.span ();
    n_sat = 0;
    n_unsat = 0;
    n_blocked = 0;
  }

let solver t = Translate.solver t.trans

(* (Re-)run the symmetry analysis on the current bounds and assert the
   lex-leader predicates under a fresh guard literal. Clauses from any
   earlier emission stay in the solver but are inert once their guard
   stops being assumed. Returns the number of clauses emitted. *)
let emit_sbp t st =
  let fixed = Mdl.Ident.Set.union t.fixed_atoms st.sbp_fixed in
  let orbs =
    Symmetry.orbits ~fixed ~respect:st.sbp_respect (Translate.bounds t.trans)
  in
  let g = Sat.Lit.pos (Sat.Solver.new_var (solver t)) in
  st.sbp_guard <- g;
  Symmetry.break ~guard:g t.trans orbs

(* Every formula routed through the finder contributes its named atoms
   to the fixed set. If SBPs are already asserted and the formula
   names an atom they were allowed to permute, they are stale — the
   formula can now distinguish atoms within an orbit — so re-emit
   under a fresh guard. *)
let note_formula t f =
  let atoms = Ast.free_atoms f in
  if not (Mdl.Ident.Set.subset atoms t.fixed_atoms) then begin
    t.fixed_atoms <- Mdl.Ident.Set.union t.fixed_atoms atoms;
    Option.iter (fun st -> ignore (emit_sbp t st)) t.sbp
  end

let prepare bnds formulas =
  let trans = Translate.create bnds in
  List.iter (Translate.materialize trans) (Bounds.relations bnds);
  List.iter (Translate.assert_formula trans) formulas;
  let t = make trans in
  List.iter (note_formula t) formulas;
  t

let prepare_guarded bnds formulas =
  let trans = Translate.create bnds in
  List.iter (Translate.materialize trans) (Bounds.relations bnds);
  let guards = List.map (Translate.formula_lit trans) formulas in
  let t = make trans in
  List.iter (note_formula t) formulas;
  (t, guards)

let create bnds =
  let trans = Translate.create bnds in
  List.iter (Translate.materialize trans) (Bounds.relations bnds);
  make trans

let guard t f =
  note_formula t f;
  Translate.formula_lit t.trans f

let assert_formula t f =
  note_formula t f;
  Translate.assert_formula t.trans f

let add_symmetry ?(fixed = Mdl.Ident.Set.empty) ?(respect = []) t =
  let st =
    { sbp_guard = Sat.Lit.pos 0; sbp_fixed = fixed; sbp_respect = respect }
  in
  let n = emit_sbp t st in
  t.sbp <- Some st;
  n

let sbp_assumptions t =
  match t.sbp with None -> [] | Some st -> [ st.sbp_guard ]

let rebind t bnds =
  let changed = Translate.rebind t.trans bnds in
  List.iter (Translate.materialize t.trans) (Bounds.relations bnds);
  t.last <- None;
  t.last_assumed <- [];
  (* Changed bounds change the orbits; stale SBPs are retired by
     abandoning their guard and re-emitted for the new bounds. *)
  if changed > 0 then Option.iter (fun st -> ignore (emit_sbp t st)) t.sbp;
  changed

let translation t = t.trans
let clone_solver t = Sat.Solver.clone (solver t)
let interrupt t = Sat.Solver.interrupt (solver t)
let decode_with t value_of = Translate.decode_with t.trans value_of

type outcome =
  | Sat of Instance.t
  | Unsat

let solve ?(assumptions = []) t =
  (* The SBP guard goes first: a stable assumption prefix across
     solves preserves the solver's trail-reuse fast path. *)
  let assumptions = sbp_assumptions t @ assumptions in
  t.last_assumed <- assumptions;
  match
    Sat.Telemetry.timed t.solve_span (fun () ->
        Sat.Solver.solve ~assumptions (solver t))
  with
  | Sat.Solver.Unsat ->
    t.last <- None;
    t.n_unsat <- t.n_unsat + 1;
    Unsat
  | Sat.Solver.Sat ->
    let blocking =
      Translate.fold_primaries t.trans
        (fun _ _ v acc ->
          (if Sat.Solver.value (solver t) v then Sat.Lit.neg_of v else Sat.Lit.pos v)
          :: acc)
        []
    in
    t.last <- Some (Array.of_list blocking);
    t.n_sat <- t.n_sat + 1;
    Sat (Translate.decode t.trans)

let new_scope t = Sat.Lit.pos (Sat.Solver.new_var (solver t))

(* Blocking after [solve ~assumptions] needs care with primaries the
   assumptions pinned. The plain block repeats their (negated) values,
   which bakes the assumption context into the clause: sound, because
   the clause is inert (trivially satisfied) under any assumption set
   that differs on a pinned primary — but the clause then blocks
   nothing outside its birth context either, and each one permanently
   drags the whole context along. Simply dropping the pinned literals
   instead would be unsound: the remaining clause would exclude the
   unpinned part of the instance under {e every} future assumption
   set, not just the one it was found under.

   A [~scope] literal resolves this: the clause mentions only the
   primaries the solver actually chose — assumption literals are never
   baked into the block — plus [¬scope], so the block is active
   exactly in solves that assume [scope]. Callers enumerate under an
   assumption context by pairing it with one scope literal; switching
   contexts (and scopes) retracts every block of the old context, so
   enumerations under different assumption sets stay independent. *)
let block ?scope t =
  match t.last with
  | None -> ()
  | Some lits ->
    let clause =
      match scope with
      | None -> lits
      | Some g ->
        let assumed = Hashtbl.create 16 in
        List.iter
          (fun l -> Hashtbl.replace assumed (Sat.Lit.var l) ())
          t.last_assumed;
        let clause = Array.make (Array.length lits + 1) (Sat.Lit.neg g) in
        let n = ref 1 in
        Array.iter
          (fun l ->
            if not (Hashtbl.mem assumed (Sat.Lit.var l)) then begin
              clause.(!n) <- l;
              incr n
            end)
          lits;
        Array.sub clause 0 !n
    in
    Sat.Solver.add_clause_array (solver t) clause;
    t.n_blocked <- t.n_blocked + 1;
    t.last <- None

let enumerate ?limit t =
  let rec go acc n =
    match limit with
    | Some l when n >= l -> List.rev acc
    | _ -> (
      match solve t with
      | Unsat -> List.rev acc
      | Sat inst ->
        block t;
        go (inst :: acc) (n + 1))
  in
  go [] 0

let count ?limit t = List.length (enumerate ?limit t)

type stats = {
  translation : Translate.stats;
  solver : Sat.Solver.stats;
  solves : int;
  sat : int;
  unsat : int;
  blocked : int;
  solve_time : float;
}

let stats t =
  {
    translation = Translate.stats t.trans;
    solver = Sat.Solver.stats (solver t);
    solves = t.n_sat + t.n_unsat;
    sat = t.n_sat;
    unsat = t.n_unsat;
    blocked = t.n_blocked;
    solve_time = Sat.Telemetry.seconds t.solve_span;
  }
