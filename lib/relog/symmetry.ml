(* Orbit detection over bounds and lex-leader SBP generation. See the
   interface for the construction; the shapes here stay deliberately
   simple (universes in this stack are tens of atoms, tuplesets
   hundreds of tuples), so the quadratic greedy classing is far from
   any hot path — on E12's symmetric menus the analysis takes well
   under a millisecond ([relog.symmetry.analysis_s]). *)

module TS = Rel.Tupleset

type orbit = int list

let m_orbits = Obs.Metrics.counter "relog.symmetry.orbits"
let m_sbp_clauses = Obs.Metrics.counter "relog.symmetry.sbp_clauses"
let m_analysis = Obs.Metrics.histogram "relog.symmetry.analysis_s"

let swap_tuple i j (t : Rel.Tuple.t) : Rel.Tuple.t =
  Array.map (fun a -> if a = i then j else if a = j then i else a) t

let perm_tuple pi (t : Rel.Tuple.t) : Rel.Tuple.t = Array.map pi t

(* All the tuplesets a permutation must preserve: each relation's
   lower and upper bound, plus the caller's respected sets. *)
let constraint_sets ?(respect = []) bnds =
  List.concat_map
    (fun r ->
      match Bounds.get bnds r with
      | Some (lo, up) -> [ lo; up ]
      | None -> [])
    (Bounds.relations bnds)
  @ respect

exception Not_auto

(* Is the transposition (i j) an automorphism of every tupleset?
   Tuples not mentioning i or j are their own image, so only the
   mentioning ones are checked. *)
let swap_ok i j tss =
  match
    List.iter
      (fun ts ->
        TS.fold
          (fun t () ->
            if
              Array.exists (fun a -> a = i || a = j) t
              && not (TS.mem (swap_tuple i j t) ts)
            then raise Not_auto)
          ts ())
      tss
  with
  | () -> true
  | exception Not_auto -> false

let is_automorphism ?respect bnds pi =
  List.for_all
    (fun ts -> TS.equal ts (TS.of_list (List.map (perm_tuple pi) (TS.to_list ts))))
    (constraint_sets ?respect bnds)

let orbits ?(fixed = Mdl.Ident.Set.empty) ?respect bnds =
  let t0 = Obs.Clock.now () in
  let u = Bounds.universe bnds in
  let n = Rel.Universe.size u in
  let tss = constraint_sets ?respect bnds in
  let is_fixed i = Mdl.Ident.Set.mem (Rel.Universe.atom u i) fixed in
  (* Greedy representative classing: atom [i] joins the first class
     whose representative [r] satisfies [swap_ok r i]. The check
     against the representative alone is exact — if (r c) and (r d)
     are automorphisms then so is (c d) = (r c)(r d)(r c) — so every
     transposition within a class is an automorphism and the class
     carries the full symmetric group. *)
  let classes = ref [] in
  for i = 0 to n - 1 do
    if not (is_fixed i) then begin
      let rec place = function
        | [] -> classes := (i, ref [ i ]) :: !classes
        | (rep, members) :: rest ->
          if swap_ok rep i tss then members := i :: !members else place rest
      in
      place !classes
    end
  done;
  let orbs =
    List.filter_map
      (fun (_, members) ->
        match List.rev !members with
        | _ :: _ :: _ as o -> Some o
        | _ -> None)
      (List.rev !classes)
  in
  Obs.Metrics.add m_orbits (List.length orbs);
  Obs.Metrics.observe m_analysis (Obs.Clock.since t0);
  orbs

(* The canonical primary-variable order: relation name, then tuple.
   Stable across processes (unlike raw interning order), so SBPs —
   and therefore solver search and the repair menus CI fingerprints —
   do not depend on interning accidents. *)
let primaries trans =
  Translate.fold_primaries trans (fun r t v acc -> (r, t, v) :: acc) []
  |> List.sort (fun (r1, t1, _) (r2, t2, _) ->
         match Mdl.Ident.compare_name r1 r2 with
         | 0 -> Rel.Tuple.compare t1 t2
         | c -> c)

let break ?guard ?max_length trans orbs =
  let solver = Translate.solver trans in
  let prims = primaries trans in
  let n_clauses = ref 0 in
  let add c =
    Sat.Solver.add_clause solver c;
    incr n_clauses
  in
  let guard_prefix = match guard with None -> [] | Some g -> [ Sat.Lit.neg g ] in
  let break_pair a b =
    (* Positions this transposition moves, in canonical order: primary
       (r, t) with swap(t) ≠ t. Since the swap is a bounds
       automorphism, swap(t) is also in upper \ lower, so its primary
       variable exists; a missing image (an unmaterialized relation's
       stray registry entry) truncates the chain, which is sound —
       any prefix of a lex-leader constraint is implied by it. *)
    let positions =
      List.filter_map
        (fun (r, t, v) ->
          let t' = swap_tuple a b t in
          if Rel.Tuple.compare t t' = 0 then None
          else
            match Translate.primary_var trans r t' with
            | Some w -> Some (v, w)
            | None -> None)
        prims
    in
    let positions =
      match max_length with
      | None -> positions
      | Some k -> List.filteri (fun i _ -> i < k) positions
    in
    (* Chained lex-leader encoding of V ≤lex π(V): with e_{k-1} the
       "prefix equal through k-1" variable (absent at k = 0),
         main:  ¬g ∨ ¬e_{k-1} ∨ ¬v_k ∨ w_k
         defn:  e_{k-1} ∧ (v_k ↔ w_k) → e_k   (two clauses)
       The definitional clauses only force e_k true under genuine
       prefix equality, so spurious aux assignments can never cut a
       lex-leader; they carry no guard because with the guard off the
       main clauses are vacuous and the aux chain is inert. *)
    let rec chain prev = function
      | [] -> ()
      | (v, w) :: rest ->
        let prev_prefix =
          match prev with None -> [] | Some e -> [ Sat.Lit.neg_of e ]
        in
        add (guard_prefix @ prev_prefix @ [ Sat.Lit.neg_of v; Sat.Lit.pos w ]);
        (match rest with
        | [] -> ()
        | _ :: _ ->
          let e = Sat.Solver.new_var solver in
          add
            (prev_prefix
            @ [ Sat.Lit.neg_of v; Sat.Lit.neg_of w; Sat.Lit.pos e ]);
          add (prev_prefix @ [ Sat.Lit.pos v; Sat.Lit.pos w; Sat.Lit.pos e ]);
          chain (Some e) rest)
    in
    chain None positions
  in
  List.iter
    (fun orbit ->
      let rec pairs = function
        | a :: (b :: _ as rest) ->
          break_pair a b;
          pairs rest
        | _ -> ()
      in
      pairs orbit)
    orbs;
  Obs.Metrics.add m_sbp_clauses !n_clauses;
  !n_clauses
