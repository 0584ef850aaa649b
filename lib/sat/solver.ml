(* A MiniSat-style CDCL solver.

   Conventions:
   - assignment per variable: -1 unassigned, 1 true, 0 false;
   - a literal l is true iff its variable is assigned to [sign l];
   - clauses are int arrays of literals. The literal array is
     IMMUTABLE once the clause is built: the two watched literals are
     the [w0]/[w1] fields (literal values, not indices), so
     propagation never writes into [lits]. This is what makes
     {!clone} cheap — clones share the literal arrays and only carry
     their own clause records (watch fields, activity);
   - watch lists are indexed by the literal that must become FALSE for
     the clause to need attention (i.e. clause c watches lit p via the
     list of [Lit.neg p]); clause [c] sits in [watches.(c.w0)] and
     [watches.(c.w1)], exactly. *)

type clause = {
  lits : int array;  (* immutable; shared between clones *)
  mutable w0 : int;  (* watched literal values; w0 <> w1 *)
  mutable w1 : int;
  mutable activity : float;
  mutable removed : bool;
}

(* Growable vector of clauses / ints. *)
module Vec = struct
  type 'a t = {
    mutable data : 'a array;
    mutable size : int;
    dummy : 'a;
  }

  let create dummy = { data = Array.make 16 dummy; size = 0; dummy }

  let push v x =
    if v.size = Array.length v.data then begin
      let data = Array.make (2 * Array.length v.data) v.dummy in
      Array.blit v.data 0 data 0 v.size;
      v.data <- data
    end;
    v.data.(v.size) <- x;
    v.size <- v.size + 1

  let get v i = v.data.(i)
  let set v i x = v.data.(i) <- x
  let size v = v.size
  let shrink v n = v.size <- n
  let copy v = { data = Array.copy v.data; size = v.size; dummy = v.dummy }
end

type t = {
  (* clause database *)
  clauses : clause Vec.t;  (* problem clauses *)
  learnts : clause Vec.t;
  (* watches.(lit) = clauses that must be inspected when [lit] becomes
     false. *)
  mutable watches : clause Vec.t array;
  (* assignment *)
  mutable assign : int array;  (* var -> -1/0/1 *)
  mutable level : int array;
  mutable reason : clause option array;
  mutable phase : bool array;
  trail : int Vec.t;  (* literals in assignment order *)
  trail_lim : int Vec.t;  (* decision-level boundaries in trail *)
  mutable qhead : int;
  (* branching *)
  mutable activity : float array;
  mutable var_inc : float;
  mutable cla_inc : float;
  mutable heap : int array;  (* binary max-heap of vars *)
  mutable heap_size : int;
  mutable heap_pos : int array;  (* var -> index in heap, -1 if absent *)
  mutable seen : bool array;
  mutable nvars : int;
  mutable ok : bool;  (* false once the clause set is unsat at level 0 *)
  (* learnt-database reduction threshold: once the learnt count
     exceeds it, the low-activity half is dropped at the next restart
     and the threshold grows geometrically (bounded growth, not
     unbounded accumulation). <= 0 means "not sized yet": the first
     solve derives it from the problem size. *)
  mutable max_learnts : float;
  mutable conflict_core : int list;  (* assumption literals of the last final conflict *)
  (* assumptions of the last solve, for prefix trail reuse: a Sat
     answer leaves the trail in place, and the next solve resumes from
     the longest shared assumption prefix instead of level 0 *)
  mutable last_assumps : int array;
  (* cooperative interruption: set from another domain, checked at the
     top of the CDCL loop *)
  stop : bool Atomic.t;
  (* statistics *)
  mutable n_decisions : int;
  mutable n_propagations : int;
  mutable n_conflicts : int;
  mutable n_restarts : int;
  mutable n_reduces : int;
  mutable n_learnt_total : int;  (* learnt clauses ever recorded *)
  mutable n_solves : int;
  mutable solve_time : float;  (* wall seconds spent inside [solve] *)
  (* phase saving: assignments overwriting the saved polarity *)
  mutable n_phase_flips : int;
  (* literals removed from learnt clauses by recursive minimization *)
  mutable n_minimized : int;
}

let dummy_clause = { lits = [||]; w0 = 0; w1 = 0; activity = 0.0; removed = false }

let create () =
  {
    clauses = Vec.create dummy_clause;
    learnts = Vec.create dummy_clause;
    watches = Array.init 2 (fun _ -> Vec.create dummy_clause);
    assign = Array.make 1 (-1);
    level = Array.make 1 (-1);
    reason = Array.make 1 None;
    phase = Array.make 1 false;
    trail = Vec.create 0;
    trail_lim = Vec.create 0;
    qhead = 0;
    activity = Array.make 1 0.0;
    var_inc = 1.0;
    cla_inc = 1.0;
    heap = Array.make 1 0;
    heap_size = 0;
    heap_pos = Array.make 1 (-1);
    seen = Array.make 1 false;
    nvars = 0;
    ok = true;
    max_learnts = 0.0;
    conflict_core = [];
    last_assumps = [||];
    stop = Atomic.make false;
    n_decisions = 0;
    n_propagations = 0;
    n_conflicts = 0;
    n_restarts = 0;
    n_reduces = 0;
    n_learnt_total = 0;
    n_solves = 0;
    solve_time = 0.0;
    n_phase_flips = 0;
    n_minimized = 0;
  }

let nb_vars s = s.nvars
let nb_clauses s = Vec.size s.clauses

(* ----------------------------------------------------------------- *)
(* Heap of variables ordered by activity                               *)

let heap_lt s a b = s.activity.(a) > s.activity.(b)

let heap_swap s i j =
  let a = s.heap.(i) and b = s.heap.(j) in
  s.heap.(i) <- b;
  s.heap.(j) <- a;
  s.heap_pos.(b) <- i;
  s.heap_pos.(a) <- j

let rec heap_up s i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if heap_lt s s.heap.(i) s.heap.(parent) then begin
      heap_swap s i parent;
      heap_up s parent
    end
  end

let rec heap_down s i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let best = ref i in
  if l < s.heap_size && heap_lt s s.heap.(l) s.heap.(!best) then best := l;
  if r < s.heap_size && heap_lt s s.heap.(r) s.heap.(!best) then best := r;
  if !best <> i then begin
    heap_swap s i !best;
    heap_down s !best
  end

let heap_insert s v =
  if s.heap_pos.(v) < 0 then begin
    s.heap.(s.heap_size) <- v;
    s.heap_pos.(v) <- s.heap_size;
    s.heap_size <- s.heap_size + 1;
    heap_up s (s.heap_size - 1)
  end

let heap_pop s =
  let top = s.heap.(0) in
  s.heap_pos.(top) <- -1;
  s.heap_size <- s.heap_size - 1;
  if s.heap_size > 0 then begin
    s.heap.(0) <- s.heap.(s.heap_size);
    s.heap_pos.(s.heap.(0)) <- 0;
    heap_down s 0
  end;
  top

let heap_decrease s v = if s.heap_pos.(v) >= 0 then heap_up s s.heap_pos.(v)

(* ----------------------------------------------------------------- *)
(* Variables                                                           *)

let grow_array arr n dummy =
  let len = Array.length arr in
  if n <= len then arr
  else begin
    let arr' = Array.make (max n (2 * len)) dummy in
    Array.blit arr 0 arr' 0 len;
    arr'
  end

let new_var s =
  let v = s.nvars in
  s.nvars <- v + 1;
  s.assign <- grow_array s.assign (v + 1) (-1);
  s.level <- grow_array s.level (v + 1) (-1);
  s.reason <- grow_array s.reason (v + 1) None;
  s.phase <- grow_array s.phase (v + 1) false;
  s.activity <- grow_array s.activity (v + 1) 0.0;
  s.heap <- grow_array s.heap (v + 1) 0;
  s.heap_pos <- grow_array s.heap_pos (v + 1) (-1);
  s.seen <- grow_array s.seen (v + 1) false;
  let nlits = 2 * (v + 1) in
  if Array.length s.watches < nlits then begin
    let watches = Array.init (max nlits (2 * Array.length s.watches)) (fun i ->
        if i < Array.length s.watches then s.watches.(i) else Vec.create dummy_clause)
    in
    s.watches <- watches
  end;
  s.assign.(v) <- -1;
  s.level.(v) <- -1;
  s.reason.(v) <- None;
  s.heap_pos.(v) <- -1;
  heap_insert s v;
  v

(* ----------------------------------------------------------------- *)
(* Assignment                                                          *)

let lit_is_true s l = s.assign.(Lit.var l) = (if Lit.sign l then 1 else 0)
let lit_is_false s l = s.assign.(Lit.var l) = (if Lit.sign l then 0 else 1)
let lit_is_unassigned s l = s.assign.(Lit.var l) = -1
let decision_level s = Vec.size s.trail_lim

let enqueue s l reason =
  let v = Lit.var l in
  s.assign.(v) <- (if Lit.sign l then 1 else 0);
  s.level.(v) <- decision_level s;
  s.reason.(v) <- reason;
  if s.phase.(v) <> Lit.sign l then s.n_phase_flips <- s.n_phase_flips + 1;
  s.phase.(v) <- Lit.sign l;
  Vec.push s.trail l;
  s.n_propagations <- s.n_propagations + 1

let cancel_until s lvl =
  if decision_level s > lvl then begin
    let bound = Vec.get s.trail_lim lvl in
    for i = Vec.size s.trail - 1 downto bound do
      let l = Vec.get s.trail i in
      let v = Lit.var l in
      s.assign.(v) <- -1;
      s.reason.(v) <- None;
      s.level.(v) <- -1;
      heap_insert s v
    done;
    Vec.shrink s.trail bound;
    Vec.shrink s.trail_lim lvl;
    s.qhead <- bound
  end

(* ----------------------------------------------------------------- *)
(* Propagation                                                         *)

exception Conflict of clause
exception Interrupted

(* Propagate all enqueued facts; raise [Conflict] on a falsified
   clause.

   The cooperative stop flag is polled here too, between propagation
   waves (every 64 trail positions): a cube-enumeration or portfolio
   loser whose solve is deep inside one long propagation run must
   still stop within a bounded number of enqueues, not only at the
   next decision boundary. The check sits before the wave's watch
   lists are touched, so an [Interrupted] raised here leaves every
   watch list consistent (the pending literal simply stays queued);
   the flag itself is left set — [solve] owns consuming it. *)
let propagate s =
  while s.qhead < Vec.size s.trail do
    if s.qhead land 63 = 0 && Atomic.get s.stop then raise Interrupted;
    let p = Vec.get s.trail s.qhead in
    s.qhead <- s.qhead + 1;
    (* p just became true: visit clauses watching ¬p. *)
    let false_lit = Lit.neg p in
    let ws = s.watches.(false_lit) in
    let n = Vec.size ws in
    let kept = ref 0 in
    (try
       for i = 0 to n - 1 do
         let c = Vec.get ws i in
         (* Normalize: the false literal in w1. *)
         if c.w0 = false_lit then begin
           c.w0 <- c.w1;
           c.w1 <- false_lit
         end;
         if lit_is_true s c.w0 then begin
           (* Clause already satisfied: keep the watch. *)
           Vec.set ws !kept c;
           incr kept
         end
         else begin
           (* Look for a new literal to watch; [lits] is never written
              (watch state lives in w0/w1), so the scan may cross the
              current watches — skip w0 explicitly, and false_lit is
              excluded by being false. *)
           let lits = c.lits in
           let len = Array.length lits in
           let found = ref false in
           let j = ref 0 in
           while (not !found) && !j < len do
             let l = lits.(!j) in
             if l <> c.w0 && not (lit_is_false s l) then begin
               c.w1 <- l;
               Vec.push s.watches.(l) c;
               found := true
             end;
             incr j
           done;
           if not !found then begin
             (* Unit or conflicting. *)
             Vec.set ws !kept c;
             incr kept;
             if lit_is_false s c.w0 then begin
               (* Conflict: keep remaining watches before raising. *)
               for k = i + 1 to n - 1 do
                 Vec.set ws !kept (Vec.get ws k);
                 incr kept
               done;
               Vec.shrink ws !kept;
               raise (Conflict c)
             end
             else enqueue s c.w0 (Some c)
           end
         end
       done;
       Vec.shrink ws !kept
     with Conflict _ as e -> raise e)
  done

(* ----------------------------------------------------------------- *)
(* Activity                                                            *)

let var_decay = 0.95
let clause_decay = 0.999

let bump_var s v =
  s.activity.(v) <- s.activity.(v) +. s.var_inc;
  if s.activity.(v) > 1e100 then begin
    for i = 0 to s.nvars - 1 do
      s.activity.(i) <- s.activity.(i) *. 1e-100
    done;
    s.var_inc <- s.var_inc *. 1e-100
  end;
  heap_decrease s v

let decay_activities s =
  s.var_inc <- s.var_inc /. var_decay;
  s.cla_inc <- s.cla_inc /. clause_decay

let bump_clause s (c : clause) =
  c.activity <- c.activity +. s.cla_inc;
  if c.activity > 1e20 then c.activity <- c.activity *. 1e-20

(* ----------------------------------------------------------------- *)
(* Clause attachment                                                   *)

let attach_clause s c =
  Vec.push s.watches.(c.w0) c;
  Vec.push s.watches.(c.w1) c

(* Ascending in place. Clauses are short (Tseitin gates, totalizer
   merges, blocking clauses), so insertion sort wins below a cutoff. *)
let sort_lits a =
  let n = Array.length a in
  if n > 16 then Array.sort Int.compare a
  else
    for i = 1 to n - 1 do
      let x = a.(i) in
      let j = ref (i - 1) in
      while !j >= 0 && a.(!j) > x do
        a.(!j + 1) <- a.(!j);
        decr j
      done;
      a.(!j + 1) <- x
    done

let add_clause_array s a =
  if s.ok then begin
    (* Clauses are always added at the root level; a previous [solve]
       may have left the trail at a positive decision level. *)
    cancel_until s 0;
    (* Normalize in one pass over the sorted literals: merge
       duplicates, detect tautologies (a complementary pair is
       adjacent once sorted: pos v = 2v, neg v = 2v + 1) and clauses
       satisfied at level 0, and compact away level-0-false
       literals. *)
    sort_lits a;
    let n = Array.length a in
    let kept = ref 0 and prev = ref (-1) and drop = ref false in
    for i = 0 to n - 1 do
      let l = a.(i) in
      if l <> !prev then begin
        if Lit.neg !prev = l then drop := true;
        prev := l;
        if s.level.(Lit.var l) = 0 then begin
          if lit_is_true s l then drop := true
        end
        else begin
          a.(!kept) <- l;
          incr kept
        end
      end
    done;
    if not !drop then begin
      match !kept with
      | 0 -> s.ok <- false
      | 1 ->
        let l = a.(0) in
        (* Unit clause: assign at level 0. Callers add clauses only at
           level 0 (before/between solves). *)
        assert (decision_level s = 0);
        if lit_is_false s l then s.ok <- false
        else if lit_is_unassigned s l then begin
          enqueue s l None;
          (* A stale interrupt flag may fire inside this propagation
             (e.g. a blocking clause added right after a cancelled
             solve): swallow it here — clause addition is not
             interruptible work — and leave the flag set for the next
             [solve] to consume. *)
          try propagate s with
          | Conflict _ -> s.ok <- false
          | Interrupted -> ()
        end
      | k ->
        let arr = if k = n then a else Array.sub a 0 k in
        let c =
          { lits = arr; w0 = arr.(0); w1 = arr.(1); activity = 0.0; removed = false }
        in
        Vec.push s.clauses c;
        attach_clause s c
    end
  end

let add_clause s lits = add_clause_array s (Array.of_list lits)

let fold_clauses f s acc =
  let root_end =
    if decision_level s = 0 then Vec.size s.trail else Vec.get s.trail_lim 0
  in
  let acc = ref acc in
  for i = 0 to root_end - 1 do
    acc := f [| Vec.get s.trail i |] !acc
  done;
  for i = 0 to Vec.size s.clauses - 1 do
    acc := f (Array.copy (Vec.get s.clauses i).lits) !acc
  done;
  !acc

(* ----------------------------------------------------------------- *)
(* Conflict analysis (first UIP)                                       *)

(* Recursive learnt-clause minimization (self-subsumption over the
   implication graph): a tail literal is redundant when it has a
   reason and every reason literal is at level 0, already in the
   clause ([seen]), or itself redundant. Precondition: [seen] is true
   exactly on the tail literals of the learnt clause. A successful
   check leaves its marks in [seen] (memoizing the established
   redundancies for later checks) and records them in [to_clear]; a
   failed check undoes only the marks it added. Tail literals live
   strictly below the current decision level, so the walk never
   reaches the UIP or any current-level variable. *)
let lit_redundant s to_clear p =
  if s.reason.(Lit.var p) = None then false
  else begin
    let added = ref [] in
    let stack = ref [ p ] in
    let ok = ref true in
    (try
       while !stack <> [] do
         let l = List.hd !stack in
         stack := List.tl !stack;
         let c =
           match s.reason.(Lit.var l) with
           | Some c -> c
           | None -> assert false
         in
         Array.iter
           (fun q ->
             let v = Lit.var q in
             if v <> Lit.var l && (not s.seen.(v)) && s.level.(v) > 0 then begin
               if s.reason.(v) = None then raise Exit;
               s.seen.(v) <- true;
               added := v :: !added;
               stack := q :: !stack
             end)
           c.lits
       done
     with Exit ->
       ok := false;
       List.iter (fun v -> s.seen.(v) <- false) !added);
    if !ok then to_clear := List.rev_append !added !to_clear;
    !ok
  end

let analyze s confl =
  let learnt = ref [] in
  let path_count = ref 0 in
  let p = ref (-1) in
  (* -1 means "whole conflict clause" on the first iteration *)
  let idx = ref (Vec.size s.trail - 1) in
  let btlevel = ref 0 in
  let confl = ref confl in
  let continue = ref true in
  while !continue do
    bump_clause s !confl;
    let lits = !confl.lits in
    (* Skip the pivot literal by variable (clauses never repeat a
       variable): the asserting literal no longer sits at a known
       index now that [lits] is immutable and watches live in w0/w1. *)
    let skip = if !p = -1 then -1 else Lit.var !p in
    for j = 0 to Array.length lits - 1 do
      let q = lits.(j) in
      let v = Lit.var q in
      if v <> skip && (not s.seen.(v)) && s.level.(v) > 0 then begin
        bump_var s v;
        s.seen.(v) <- true;
        if s.level.(v) >= decision_level s then incr path_count
        else begin
          learnt := q :: !learnt;
          if s.level.(v) > !btlevel then btlevel := s.level.(v)
        end
      end
    done;
    (* Select next literal on the trail to expand. *)
    let rec next () =
      let l = Vec.get s.trail !idx in
      decr idx;
      if s.seen.(Lit.var l) then l else next ()
    in
    let l = next () in
    s.seen.(Lit.var l) <- false;
    decr path_count;
    if !path_count <= 0 then begin
      p := l;
      continue := false
    end
    else begin
      (match s.reason.(Lit.var l) with
      | Some c -> confl := c
      | None -> assert false);
      p := l
    end
  done;
  (* Minimize the tail: drop redundant literals (the learnt clause
     can only shrink, never grow). Dropped literals keep their [seen]
     mark for the duration — later redundancy checks may lean on them,
     which is sound because they are themselves implied by the rest. *)
  let tail = !learnt in
  let to_clear = ref [] in
  let kept =
    List.filter
      (fun q ->
        if lit_redundant s to_clear q then begin
          s.n_minimized <- s.n_minimized + 1;
          false
        end
        else true)
      tail
  in
  (* The backtrack level is the highest level among surviving tail
     literals (0 when the minimized clause is asserting at the root). *)
  let btlevel = List.fold_left (fun acc q -> max acc s.level.(Lit.var q)) 0 kept in
  let learnt = Lit.neg !p :: kept in
  (* Clear seen flags for reuse — over the original tail (dropped
     literals included) and everything the redundancy checks marked. *)
  List.iter (fun l -> s.seen.(Lit.var l) <- false) tail;
  List.iter (fun v -> s.seen.(v) <- false) !to_clear;
  (learnt, btlevel)

(* After a conflict directly caused by assumptions: collect the subset
   of assumptions implying the conflict, starting from literal [p]
   (a failed assumption). *)
let analyze_final s p assumption_set =
  let core = ref [] in
  if s.level.(Lit.var p) > 0 then begin
    s.seen.(Lit.var p) <- true;
    for i = Vec.size s.trail - 1 downto 0 do
      let l = Vec.get s.trail i in
      let v = Lit.var l in
      if s.seen.(v) then begin
        (match s.reason.(v) with
        | None ->
          (* A decision — under assumption-driven search all decisions
             at these levels are assumptions. *)
          if Hashtbl.mem assumption_set l then core := l :: !core
        | Some c ->
          Array.iter
            (fun q -> if s.level.(Lit.var q) > 0 then s.seen.(Lit.var q) <- true)
            c.lits);
        s.seen.(v) <- false
      end
    done
  end;
  !core

(* ----------------------------------------------------------------- *)
(* Search                                                              *)

(* The Luby restart sequence 1 1 2 1 1 2 4 ... scaled by [y^k]. *)
let luby y x =
  let size = ref 1 and seq = ref 0 in
  while !size < x + 1 do
    incr seq;
    size := (2 * !size) + 1
  done;
  let x = ref x in
  while !size - 1 <> !x do
    size := (!size - 1) / 2;
    decr seq;
    x := !x mod !size
  done;
  y ** float_of_int !seq

let record_learnt s learnt btlevel =
  match learnt with
  | [] -> assert false
  | [ l ] ->
    cancel_until s 0;
    if lit_is_unassigned s l then begin
      enqueue s l None;
      (try propagate s with Conflict _ -> s.ok <- false)
    end
    else if lit_is_false s l then s.ok <- false
  | first :: _ ->
    cancel_until s btlevel;
    (* Put a highest-level literal (w.r.t. remaining assignment) second
       so watches stay valid: the asserting literal is first, a literal
       from btlevel second. *)
    let arr = Array.of_list learnt in
    let max_i = ref 1 in
    for i = 2 to Array.length arr - 1 do
      if s.level.(Lit.var arr.(i)) > s.level.(Lit.var arr.(!max_i)) then max_i := i
    done;
    let tmp = arr.(1) in
    arr.(1) <- arr.(!max_i);
    arr.(!max_i) <- tmp;
    (* [arr] is freshly built and never written again: watches start
       on the asserting literal and the btlevel literal. *)
    let c =
      { lits = arr; w0 = arr.(0); w1 = arr.(1); activity = 0.0; removed = false }
    in
    bump_clause s c;
    Vec.push s.learnts c;
    s.n_learnt_total <- s.n_learnt_total + 1;
    attach_clause s c;
    enqueue s first (Some c)

(* Drop the low-activity half of the learnt clauses. Clauses serving
   as reasons for current assignments are kept. Watch lists are
   rebuilt to exclude removed clauses. *)
let reduce_db s =
  let n = Vec.size s.learnts in
  if n > 0 then begin
    let all = Array.init n (Vec.get s.learnts) in
    (* protect reasons *)
    let protected c =
      let keep = ref false in
      for i = 0 to Vec.size s.trail - 1 do
        match s.reason.(Lit.var (Vec.get s.trail i)) with
        | Some r when r == c -> keep := true
        | Some _ | None -> ()
      done;
      !keep
    in
    Array.sort
      (fun (a : clause) (b : clause) -> Float.compare b.activity a.activity)
      all;
    let cutoff = n / 2 in
    Array.iteri
      (fun i c ->
        if i >= cutoff && Array.length c.lits > 2 && not (protected c) then
          c.removed <- true)
      all;
    (* rebuild the learnt vector and the watch lists *)
    Vec.shrink s.learnts 0;
    Array.iter (fun c -> if not c.removed then Vec.push s.learnts c) all;
    Array.iter
      (fun ws ->
        let kept = ref 0 in
        for i = 0 to Vec.size ws - 1 do
          let c = Vec.get ws i in
          if not c.removed then begin
            Vec.set ws !kept c;
            incr kept
          end
        done;
        Vec.shrink ws !kept)
      s.watches
  end

type result =
  | Sat
  | Unsat

exception Found of result

let pick_branch_var s =
  let rec go () =
    if s.heap_size = 0 then -1
    else
      let v = heap_pop s in
      if s.assign.(v) = -1 then v else go ()
  in
  go ()

(* Process-wide cumulative counters across every solver instance, so
   callers that create many solvers (bench experiments, enumeration
   loops) can still measure total search effort by snapshot/diff.
   Registered in the Obs.Metrics registry (lock-free counters under
   the hood), so one [Obs.Metrics.dump] covers the solver too;
   [global_stats]/[reset_global_stats] keep their exact semantics. *)
let g_decisions = Obs.Metrics.counter "sat.decisions"
let g_propagations = Obs.Metrics.counter "sat.propagations"
let g_conflicts = Obs.Metrics.counter "sat.conflicts"
let g_restarts = Obs.Metrics.counter "sat.restarts"
let g_reduces = Obs.Metrics.counter "sat.reduces"
let g_learnt = Obs.Metrics.counter "sat.learnt"
let g_solves = Obs.Metrics.counter "sat.solves"
let g_phase_flips = Obs.Metrics.counter "sat.phase_flips"
let g_minimized = Obs.Metrics.counter "sat.minimized_lits"

(* Per-call solve durations: the histogram's sum is the old [g_time]
   total, and the p50/p90/p99 spread is new signal (one long solve vs
   many short ones tell very different performance stories). *)
let g_solve_time = Obs.Metrics.histogram "sat.solve_time_s"

let interrupt s = Atomic.set s.stop true

(* Tests (and embedders with tight memory budgets) can force early
   reductions by shrinking the threshold; growth continues
   geometrically from the forced value. *)
let set_learnt_cap s n = s.max_learnts <- float_of_int (max 1 n)

let solve_inner ~assumptions s =
  s.conflict_core <- [];
  (* Size the learnt-DB threshold on first use: a third of the problem
     clauses, floored so small instances never reduce. *)
  if s.max_learnts <= 0.0 then
    s.max_learnts <-
      Float.max 1000.0 (float_of_int (Vec.size s.clauses) /. 3.0);
  if not s.ok then Unsat
  else begin
    let assumption_set = Hashtbl.create (List.length assumptions) in
    List.iter (fun l -> Hashtbl.replace assumption_set l ()) assumptions;
    let assumptions = Array.of_list assumptions in
    (* Assumption-prefix trail reuse: a Sat answer leaves the trail
       frozen, and anything that invalidates it (add_clause, an Unsat
       answer) cancels to level 0 — so every decision level still on
       the trail is the propagation closure of the corresponding
       prefix of the previous solve's assumptions. If the new
       assumptions share that prefix, resume below it: only the suffix
       is re-propagated, which is what makes back-to-back assumption
       solves over a mostly-unchanged model cheap. *)
    let reuse =
      let n =
        min (decision_level s)
          (min (Array.length assumptions) (Array.length s.last_assumps))
      in
      let i = ref 0 in
      while !i < n && assumptions.(!i) = s.last_assumps.(!i) do
        incr i
      done;
      !i
    in
    s.last_assumps <- assumptions;
    let max_conflicts = ref 100.0 in
    let restart_count = ref 0 in
    let outcome = ref None in
    let first_episode = ref true in
    (try
       while true do
         (* One restart-bounded search episode. *)
         let conflicts_here = ref 0 in
         cancel_until s (if !first_episode then reuse else 0);
         first_episode := false;
         (try
            while true do
              (* Cleanup (flag consumption, backtrack to root) is
                 centralized in the episode loop's handler below, which
                 also covers an [Interrupted] raised from deep inside
                 [propagate]. *)
              if Atomic.get s.stop then raise Interrupted;
              (try
                 propagate s;
                 (* No conflict: decide. *)
                 if float_of_int !conflicts_here >= !max_conflicts then begin
                   (* Restart. *)
                   s.n_restarts <- s.n_restarts + 1;
                   (* Restarts are the natural sampling points for the
                      trace's counter track: frequent enough to chart
                      search progress, rare enough to stay cheap. The
                      [enabled] guard keeps the CDCL loop free of any
                      tracing cost otherwise. *)
                   if Obs.Trace.enabled () then
                     Obs.Trace.counter "sat.search"
                       [
                         ("conflicts", float_of_int s.n_conflicts);
                         ("propagations", float_of_int s.n_propagations);
                         ("learnt", float_of_int (Vec.size s.learnts));
                       ];
                   raise Exit
                 end;
                 (* Assumption decisions first. *)
                 let dl = decision_level s in
                 if dl < Array.length assumptions then begin
                   let a = assumptions.(dl) in
                   if lit_is_true s a then begin
                     (* Already satisfied: open an empty decision level
                        so indices keep matching. *)
                     Vec.push s.trail_lim (Vec.size s.trail)
                   end
                   else if lit_is_false s a then begin
                     s.conflict_core <- a :: analyze_final s (Lit.neg a) assumption_set;
                     raise (Found Unsat)
                   end
                   else begin
                     Vec.push s.trail_lim (Vec.size s.trail);
                     s.n_decisions <- s.n_decisions + 1;
                     enqueue s a None
                   end
                 end
                 else begin
                   let v = pick_branch_var s in
                   if v < 0 then raise (Found Sat);
                   Vec.push s.trail_lim (Vec.size s.trail);
                   s.n_decisions <- s.n_decisions + 1;
                   enqueue s (Lit.make v s.phase.(v)) None
                 end
               with Conflict c ->
                 s.n_conflicts <- s.n_conflicts + 1;
                 incr conflicts_here;
                 if decision_level s = 0 then begin
                   s.ok <- false;
                   raise (Found Unsat)
                 end;
                 (* A conflict below the assumption levels must not
                    backtrack past them blindly: analyze computes the
                    proper level; if the learnt clause is asserting at a
                    level inside the assumptions, that is fine — the
                    assumption decisions will be replayed. *)
                 let learnt, btlevel = analyze s c in
                 record_learnt s learnt btlevel;
                 if not s.ok then raise (Found Unsat);
                 decay_activities s)
            done
          with Exit -> ());
         incr restart_count;
         (* Restarts are the safe points to shrink the learnt-clause
            database: backtrack to the root, drop the low-activity
            half once the DB outgrows the adaptive threshold, and grow
            the threshold geometrically so learning still deepens over
            a long run while propagation stops paying for dead
            clauses. *)
         if float_of_int (Vec.size s.learnts) > s.max_learnts then begin
           cancel_until s 0;
           reduce_db s;
           s.n_reduces <- s.n_reduces + 1;
           s.max_learnts <- s.max_learnts *. 1.3
         end;
         max_conflicts := 100.0 *. luby 2.0 !restart_count
       done
     with
    | Found r -> outcome := Some r
    | Interrupted ->
      (* Leave the solver reusable: consume the flag and return to the
         root level before unwinding, wherever the raise came from
         (decision boundary or mid-propagation). *)
      Atomic.set s.stop false;
      cancel_until s 0;
      raise Interrupted);
    let r = match !outcome with Some r -> r | None -> assert false in
    (match r with
    | Sat ->
      (* Freeze the model before leaving the search state. *)
      ()
    | Unsat -> cancel_until s 0);
    r
  end

let solve ?(assumptions = []) s =
  let t0 = Telemetry.now () in
  let d0 = s.n_decisions
  and p0 = s.n_propagations
  and c0 = s.n_conflicts
  and r0 = s.n_restarts
  and rd0 = s.n_reduces
  and l0 = s.n_learnt_total
  and pf0 = s.n_phase_flips
  and m0 = s.n_minimized in
  (* The finally block also runs when the solve is interrupted: the
     effort spent before the interrupt still counts. *)
  Fun.protect
    ~finally:(fun () ->
      let dt = Telemetry.now () -. t0 in
      s.n_solves <- s.n_solves + 1;
      s.solve_time <- s.solve_time +. dt;
      Obs.Metrics.add g_decisions (s.n_decisions - d0);
      Obs.Metrics.add g_propagations (s.n_propagations - p0);
      Obs.Metrics.add g_conflicts (s.n_conflicts - c0);
      Obs.Metrics.add g_restarts (s.n_restarts - r0);
      Obs.Metrics.add g_reduces (s.n_reduces - rd0);
      Obs.Metrics.add g_learnt (s.n_learnt_total - l0);
      Obs.Metrics.add g_phase_flips (s.n_phase_flips - pf0);
      Obs.Metrics.add g_minimized (s.n_minimized - m0);
      Obs.Metrics.incr g_solves;
      Obs.Metrics.observe g_solve_time dt)
    (fun () -> solve_inner ~assumptions s)

let value s v = if v < s.nvars then s.assign.(v) = 1 else false

let lit_value s l = if Lit.sign l then value s (Lit.var l) else not (value s (Lit.var l))

(* The raw core collected by [analyze_final] can mention an assumption
   more than once (the failed assumption is consed onto the collected
   set) and its order reflects the trail, i.e. the assumption order of
   the failing solve. Canonicalize: deduplicate and sort, so the
   reported core is a set — equal input assumption sets give equal
   cores regardless of the order they were passed in. *)
let unsat_core s = List.sort_uniq Int.compare s.conflict_core

(* Greedy deletion-based core minimization. Starting from [core] (by
   default the last solve's core), try dropping each literal in turn:
   re-solve under the remaining candidates and keep the literal only
   when its removal makes the instance satisfiable. Each Unsat answer
   also refines the candidate set to the newly reported core
   (clause-set refinement), which typically removes several literals
   per solve. The result is a minimal core: removing any single
   literal leaves a satisfiable set.

   Candidates are canonicalized first, and each keep/drop decision is
   driven purely by the SAT/UNSAT ground truth of a candidate subset —
   never by solver-state artifacts like the refined core of the
   re-solve — so the returned set is a function of the input set
   alone: permuting the input literals cannot change the result.
   Re-solves count towards the solver's statistics; the solver stays
   usable afterwards. *)
let minimize_core ?core s =
  let core0 =
    match core with
    | Some c -> List.sort_uniq Int.compare c
    | None -> unsat_core s
  in
  let rec shrink kept = function
    | [] -> kept
    | l :: rest -> (
      match solve ~assumptions:(List.rev_append kept rest) s with
      | Unsat -> shrink kept rest (* [l] is redundant *)
      | Sat -> shrink (l :: kept) rest)
  in
  let result = List.sort Int.compare (shrink [] core0) in
  s.conflict_core <- result;
  result

type stats = {
  decisions : int;
  propagations : int;
  conflicts : int;
  restarts : int;
  learnt : int;
  reduces : int;
  solves : int;
  solve_time : float;
}

(* Modernization counters live outside the [stats] record (which many
   aggregators duplicate field by field): per-instance accessors here,
   process-wide totals in the sat.phase_flips / sat.minimized_lits
   registry counters. *)
let phase_flips s = s.n_phase_flips
let minimized_lits s = s.n_minimized
let saved_phase s v = if v < s.nvars then s.phase.(v) else false

let stats s =
  {
    decisions = s.n_decisions;
    propagations = s.n_propagations;
    conflicts = s.n_conflicts;
    restarts = s.n_restarts;
    learnt = Vec.size s.learnts;
    reduces = s.n_reduces;
    solves = s.n_solves;
    solve_time = s.solve_time;
  }

let global_stats () =
  {
    decisions = Obs.Metrics.counter_value g_decisions;
    propagations = Obs.Metrics.counter_value g_propagations;
    conflicts = Obs.Metrics.counter_value g_conflicts;
    restarts = Obs.Metrics.counter_value g_restarts;
    learnt = Obs.Metrics.counter_value g_learnt;
    reduces = Obs.Metrics.counter_value g_reduces;
    solves = Obs.Metrics.counter_value g_solves;
    solve_time = Obs.Metrics.histogram_sum g_solve_time;
  }

let reset_global_stats () =
  Obs.Metrics.set_counter g_decisions 0;
  Obs.Metrics.set_counter g_propagations 0;
  Obs.Metrics.set_counter g_conflicts 0;
  Obs.Metrics.set_counter g_restarts 0;
  Obs.Metrics.set_counter g_reduces 0;
  Obs.Metrics.set_counter g_learnt 0;
  Obs.Metrics.set_counter g_solves 0;
  Obs.Metrics.set_counter g_phase_flips 0;
  Obs.Metrics.set_counter g_minimized 0;
  Obs.Metrics.reset_histogram g_solve_time

let pp_stats ppf st =
  Format.fprintf ppf
    "@[<h>solves %d; decisions %d; propagations %d; conflicts %d; restarts %d; \
     learnt %d; reduces %d; solve time %.3f ms@]"
    st.solves st.decisions st.propagations st.conflicts st.restarts st.learnt
    st.reduces (st.solve_time *. 1000.)

(* ----------------------------------------------------------------- *)
(* Cloning                                                             *)

(* Snapshot [s] into an independent solver: problem clauses, learnt
   clauses, the level-0 trail and the VSIDS/phase state all carry
   over, so a clone resumes with everything the original has already
   deduced. Must be called between solves (the original at rest, not
   mid-search); the original is only read.

   The literal arrays are NOT copied: [clause.lits] is immutable (see
   the header comment), so original and clones share every problem
   and learnt literal array — a clone allocates only the per-clause
   records (watch fields, activity) plus the per-variable arrays.
   That drops the per-clone cost from O(total literals) to O(clauses
   + vars), which is what makes one-clone-per-worker schemes (ladder
   probes, cube enumeration, portfolio lanes) affordable.

   Invariants restored on the copy:
   - each clone gets fresh clause records, so its watch fields w0/w1
     evolve independently; watch lists are rebuilt in database order;
   - reasons are dropped: after [cancel_until 0] only level-0
     assignments remain, and neither [analyze] nor [analyze_final]
     ever dereferences a level-0 reason;
   - the level-0 trail segment is propagation-closed (every level-0
     literal was processed through [propagate] while at level 0), so
     [qhead] can start at the trail end. *)
let clone s =
  let copy_vec_of_clauses v =
    let out = Vec.create dummy_clause in
    for i = 0 to Vec.size v - 1 do
      let c = Vec.get v i in
      Vec.push out
        { lits = c.lits; w0 = c.w0; w1 = c.w1; activity = c.activity;
          removed = false }
    done;
    out
  in
  let t =
    {
      clauses = copy_vec_of_clauses s.clauses;
      learnts = copy_vec_of_clauses s.learnts;
      watches = Array.init (Array.length s.watches) (fun _ -> Vec.create dummy_clause);
      assign = Array.copy s.assign;
      level = Array.copy s.level;
      reason = Array.make (Array.length s.reason) None;
      phase = Array.copy s.phase;
      trail = Vec.copy s.trail;
      trail_lim = Vec.copy s.trail_lim;
      qhead = 0;
      activity = Array.copy s.activity;
      var_inc = s.var_inc;
      cla_inc = s.cla_inc;
      heap = Array.copy s.heap;
      heap_size = s.heap_size;
      heap_pos = Array.copy s.heap_pos;
      seen = Array.make (Array.length s.seen) false;
      nvars = s.nvars;
      ok = s.ok;
      max_learnts = s.max_learnts;
      conflict_core = [];
      last_assumps = [||];
      stop = Atomic.make false;
      n_decisions = 0;
      n_propagations = 0;
      n_conflicts = 0;
      n_restarts = 0;
      n_reduces = 0;
      n_learnt_total = 0;
      n_solves = 0;
      solve_time = 0.0;
      n_phase_flips = 0;
      n_minimized = 0;
    }
  in
  for i = 0 to Vec.size t.clauses - 1 do
    attach_clause t (Vec.get t.clauses i)
  done;
  for i = 0 to Vec.size t.learnts - 1 do
    attach_clause t (Vec.get t.learnts i)
  done;
  cancel_until t 0;
  t.qhead <- Vec.size t.trail;
  t
