(* A MiniSat-style CDCL solver over int-only data structures.

   Conventions:
   - assignment per variable: -1 unassigned, 1 true, 0 false;
   - a literal l is true iff its variable is assigned to [sign l];
     literals follow {!Lit}'s encoding (var v is 2v, not v is 2v + 1),
     spelled out locally below because the hot loop cannot afford a
     cross-module call per literal;
   - clauses of three or more literals, and every learnt clause, live
     in a segmented int arena: a header of [header] ints (size,
     watched literals w0/w1, learnt id and removed flag) followed by
     the literals. A clause reference packs (segment, offset) into one
     int, >= 0. The literals are never written once stored: the two
     watched literals are the header's w0/w1 (literal values, not
     indices), so propagation only rewrites the header;
   - binary problem clauses live in the watch lists alone: {a, b} is
     the inline entry [bin b] in the list of a and [bin a] in the list
     of b. An inline entry is below -1, so its sign tells it from a
     clause reference. Its watches never move, so propagation reads
     the other literal's value and touches no clause memory;
   - watch lists are int arrays (with their fill in [nwatch]) of
     clause references and inline entries, indexed by the literal that
     must become FALSE for the clause to need attention (i.e. clause c
     watches lit p via the list of [Lit.neg p]); arena clause [c] sits
     in [watches.(w0 c)] and [watches.(w1 c)], exactly;
   - a variable's reason is the reference of the arena clause that
     implied it, the inline entry naming the other literal of the
     binary clause that did, or -1 for decisions and root-level units;
   - [clauses] lists the problem clauses in the order added: an arena
     reference, or a binary clause {a, b} (a < b) packed into one
     value below -1 by [pack]. A binary conflict is reported in that
     packed form too. Packing needs literals below 2^30.

   Nothing the propagation loop touches is a boxed value: it reads and
   writes int arrays only, so it makes no [caml_modify] call and
   allocates nothing.

   OCaml 5's [Array.make] (and so [Array.init], [map], [of_list]) of
   more than 256 elements allocates in the major heap, and when its
   initial element is a young block it first forces a stop-the-world
   minor collection to promote it. The watch table, one slot per
   literal, is therefore made over [[||]], which is statically
   allocated and never young, and filled afterwards. (The segment
   table holds a few dozen slots at most.) *)

(* ----------------------------------------------------------------- *)
(* Literals                                                            *)

let var l = l lsr 1
let sign l = l land 1 = 0
let neg l = l lxor 1

(* ----------------------------------------------------------------- *)
(* Growable int vectors                                                *)

(* Monomorphic on purpose: without flambda, a store into an ['a array]
   goes through the generic path even when ['a] is [int]. *)
module Ivec = struct
  type t = {
    mutable data : int array;
    mutable size : int;
  }

  let create () = { data = [||]; size = 0 }

  let push v x =
    if v.size = Array.length v.data then begin
      let data = Array.make (max 4 (2 * v.size)) 0 in
      Array.blit v.data 0 data 0 v.size;
      v.data <- data
    end;
    v.data.(v.size) <- x;
    v.size <- v.size + 1

  let get v i = v.data.(i)
  let copy v = { data = Array.copy v.data; size = v.size }
end

(* ----------------------------------------------------------------- *)
(* Clause arena                                                        *)

(* Header layout. [h_meta] holds [(learnt_id lsl 1) lor removed]; the
   learnt id is the clause's index in [learnts] (and in the activity
   array), -1 for problem clauses. *)
let h_size = 0
let h_w0 = 1
let h_w1 = 2
let h_meta = 3
let header = 4
let problem_meta = -1 lsl 1

let seg_bits = 32
let off_mask = (1 lsl seg_bits) - 1
let first_segment = 1024

(* The inline watch entry (and binary reason) naming the other literal
   [l]: -2 - l, below -1. It is its own inverse. *)
let bin l = -2 - l

(* A binary clause {a, b}, a < b, as one value below -1. *)
let pack a b = -2 - ((a lsl seg_bits) lor b)
let pack_fst p = (-2 - p) lsr seg_bits
let pack_snd p = (-2 - p) land off_mask

(* Problem clauses and learnt clauses fill separate chains of segments,
   each segment twice the size of the one before it. A full segment is
   never copied or grown: the next clause starts a new one. The learnt
   chain alone is compacted (by [reduce_db]). *)
type region = {
  mutable cur : int;  (* table slot of the segment being filled; -1 before the first *)
  mutable fill : int;  (* next free offset in it *)
  mutable last : int;  (* size of the newest segment *)
  slots : Ivec.t;  (* every table slot of this region *)
}

let new_region () = { cur = -1; fill = 0; last = 0; slots = Ivec.create () }

let copy_region r = { r with slots = Ivec.copy r.slots }

type t = {
  (* clause database *)
  mutable segs : int array array;  (* segment table; freed slots hold [||] *)
  mutable nslots : int;  (* table slots ever used *)
  free_slots : Ivec.t;
  problem : region;
  learnt : region;
  clauses : Ivec.t;  (* problem clauses (references or packed binaries), in order added *)
  learnts : Ivec.t;  (* learnt clause references; the i-th has learnt id i *)
  mutable lact : float array;  (* learnt id -> activity *)
  (* watches.(lit).(0 .. nwatch.(lit) - 1) = clauses that must be
     inspected when [lit] becomes false. *)
  mutable watches : int array array;
  mutable nwatch : int array;
  (* assignment *)
  mutable assign : int array;  (* var -> -1/0/1 *)
  mutable level : int array;
  mutable reason : int array;  (* var -> clause reference, -1 for none *)
  mutable phase : bool array;
  trail : Ivec.t;  (* literals in assignment order *)
  trail_lim : Ivec.t;  (* decision-level boundaries in trail *)
  mutable qhead : int;
  (* branching *)
  mutable activity : float array;
  mutable var_inc : float;
  mutable cla_inc : float;
  mutable heap : int array;  (* binary max-heap of vars *)
  mutable heap_size : int;
  mutable heap_pos : int array;  (* var -> index in heap, -1 if absent *)
  mutable seen : bool array;
  mutable amark : bool array;  (* literal -> is an assumption of the failing solve *)
  (* conflict-analysis scratch *)
  an_tail : Ivec.t;  (* learnt tail literals, in discovery order *)
  an_stack : Ivec.t;  (* redundancy check: literals to expand *)
  an_added : Ivec.t;  (* redundancy check: vars it marked *)
  an_clear : Ivec.t;  (* vars marked by successful redundancy checks *)
  an_learnt : Ivec.t;  (* the clause being learnt *)
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

let create () =
  {
    segs = [||];
    nslots = 0;
    free_slots = Ivec.create ();
    problem = new_region ();
    learnt = new_region ();
    clauses = Ivec.create ();
    learnts = Ivec.create ();
    lact = [||];
    watches = Array.make 2 [||];
    nwatch = Array.make 2 0;
    assign = Array.make 1 (-1);
    level = Array.make 1 (-1);
    reason = Array.make 1 (-1);
    phase = Array.make 1 false;
    trail = Ivec.create ();
    trail_lim = Ivec.create ();
    qhead = 0;
    activity = Array.make 1 0.0;
    var_inc = 1.0;
    cla_inc = 1.0;
    heap = Array.make 1 0;
    heap_size = 0;
    heap_pos = Array.make 1 (-1);
    seen = Array.make 1 false;
    amark = Array.make 2 false;
    an_tail = Ivec.create ();
    an_stack = Ivec.create ();
    an_added = Ivec.create ();
    an_clear = Ivec.create ();
    an_learnt = Ivec.create ();
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
let nb_clauses s = s.clauses.size

let seg_of s cr = s.segs.(cr lsr seg_bits)
let off cr = cr land off_mask

(* Open a fresh segment of [size] ints for [r], in a recycled table
   slot when one is free. *)
let new_segment s r size =
  let slot =
    if s.free_slots.size > 0 then begin
      s.free_slots.size <- s.free_slots.size - 1;
      Ivec.get s.free_slots s.free_slots.size
    end
    else begin
      if s.nslots = Array.length s.segs then begin
        let segs = Array.make (max 4 (2 * s.nslots)) [||] in
        Array.blit s.segs 0 segs 0 s.nslots;
        s.segs <- segs
      end;
      s.nslots <- s.nslots + 1;
      s.nslots - 1
    end
  in
  s.segs.(slot) <- Array.make size 0;
  r.cur <- slot;
  r.fill <- 0;
  r.last <- size;
  Ivec.push r.slots slot

(* Store lits.(0 .. n-1) as a clause of [r] watching its first two
   literals; returns its reference. *)
let store s r lits n meta =
  let words = header + n in
  if r.cur < 0 || r.fill + words > Array.length s.segs.(r.cur) then
    new_segment s r (max words (max first_segment (2 * r.last)));
  let seg = s.segs.(r.cur) and o = r.fill in
  seg.(o + h_size) <- n;
  seg.(o + h_w0) <- lits.(0);
  seg.(o + h_w1) <- lits.(1);
  seg.(o + h_meta) <- meta;
  for i = 0 to n - 1 do
    seg.(o + header + i) <- lits.(i)
  done;
  r.fill <- o + words;
  (r.cur lsl seg_bits) lor o

let clause_lits s cr =
  let seg = seg_of s cr and o = off cr in
  Array.sub seg (o + header) seg.(o + h_size)

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
  s.reason <- grow_array s.reason (v + 1) (-1);
  s.phase <- grow_array s.phase (v + 1) false;
  s.activity <- grow_array s.activity (v + 1) 0.0;
  s.heap <- grow_array s.heap (v + 1) 0;
  s.heap_pos <- grow_array s.heap_pos (v + 1) (-1);
  s.seen <- grow_array s.seen (v + 1) false;
  let nlits = 2 * (v + 1) in
  s.amark <- grow_array s.amark nlits false;
  s.watches <- grow_array s.watches nlits [||];
  s.nwatch <- grow_array s.nwatch nlits 0;
  s.assign.(v) <- -1;
  s.level.(v) <- -1;
  s.reason.(v) <- -1;
  s.heap_pos.(v) <- -1;
  heap_insert s v;
  v

(* ----------------------------------------------------------------- *)
(* Assignment                                                          *)

let lit_is_true s l = s.assign.(var l) = 1 - (l land 1)
let lit_is_false s l = s.assign.(var l) = l land 1
let lit_is_unassigned s l = s.assign.(var l) = -1
let decision_level s = s.trail_lim.size

let enqueue s l reason =
  let v = var l in
  s.assign.(v) <- 1 - (l land 1);
  s.level.(v) <- decision_level s;
  s.reason.(v) <- reason;
  if s.phase.(v) <> sign l then s.n_phase_flips <- s.n_phase_flips + 1;
  s.phase.(v) <- sign l;
  Ivec.push s.trail l;
  s.n_propagations <- s.n_propagations + 1

let cancel_until s lvl =
  if decision_level s > lvl then begin
    let bound = Ivec.get s.trail_lim lvl in
    for i = s.trail.size - 1 downto bound do
      let v = var (Ivec.get s.trail i) in
      s.assign.(v) <- -1;
      s.reason.(v) <- -1;
      s.level.(v) <- -1;
      heap_insert s v
    done;
    s.trail.size <- bound;
    s.trail_lim.size <- lvl;
    s.qhead <- bound
  end

(* ----------------------------------------------------------------- *)
(* Propagation                                                         *)

exception Interrupted

(* Append [x] to the watch list of [l]. *)
let watch s l x =
  let n = s.nwatch.(l) and data = s.watches.(l) in
  let data =
    if n < Array.length data then data
    else begin
      let grown = Array.make (max 4 (2 * n)) 0 in
      Array.blit data 0 grown 0 n;
      s.watches.(l) <- grown;
      grown
    end
  in
  data.(n) <- x;
  s.nwatch.(l) <- n + 1

(* Propagate all enqueued facts; returns the reference of a falsified
   arena clause, a falsified binary clause in [pack]ed form, or -1 when
   every clause is satisfied or unit-propagated.

   The cooperative stop flag is polled here too, between propagation
   waves (every 64 trail positions): a solve that is deep inside one
   long propagation run when it is interrupted must still stop within
   a bounded number of enqueues, not only at the next decision
   boundary. The check sits before the wave's watch
   lists are touched, so an [Interrupted] raised here leaves every
   watch list consistent (the pending literal simply stays queued);
   the flag itself is left set — [solve] owns consuming it. *)
let propagate s =
  let confl = ref (-1) in
  (* Neither array is replaced while propagating (only [new_var] and
     [new_segment] do that); reading them once keeps the loop from
     reloading them after every store. Nor is the list being scanned:
     [watch] only grows the list of a new watch, which is never the
     false literal. The literal tests below are
     [lit_is_true]/[lit_is_false] spelled out on [assign]. *)
  let assign = s.assign and segs = s.segs in
  while !confl = -1 && s.qhead < s.trail.size do
    if s.qhead land 63 = 0 && Atomic.get s.stop then raise Interrupted;
    let p = s.trail.data.(s.qhead) in
    s.qhead <- s.qhead + 1;
    (* p just became true: visit clauses watching ¬p. *)
    let false_lit = neg p in
    let wd = s.watches.(false_lit) in
    let n = s.nwatch.(false_lit) in
    let kept = ref 0 in
    let i = ref 0 in
    while !i < n && !confl = -1 do
      let cr = wd.(!i) in
      incr i;
      if cr < 0 then begin
        (* The binary clause {false_lit, q}: its watches never move. *)
        wd.(!kept) <- cr;
        incr kept;
        let q = bin cr in
        let vq = assign.(var q) in
        if vq = q land 1 then
          confl := if false_lit < q then pack false_lit q else pack q false_lit
        else if vq < 0 then enqueue s q (bin false_lit)
      end
      else begin
        let seg = segs.(cr lsr seg_bits) and o = cr land off_mask in
        (* Normalize: the false literal in w1. *)
        let w0 =
          let w0 = seg.(o + h_w0) in
          if w0 = false_lit then begin
            let w1 = seg.(o + h_w1) in
            seg.(o + h_w0) <- w1;
            seg.(o + h_w1) <- false_lit;
            w1
          end
          else w0
        in
        if assign.(var w0) = 1 - (w0 land 1) then begin
          (* Clause already satisfied: keep the watch. *)
          wd.(!kept) <- cr;
          incr kept
        end
        else begin
          (* Look for a new literal to watch; the literals are never
             written (watch state lives in the header), so the scan may
             cross the current watches — skip w0 explicitly, and
             false_lit is excluded by being false. *)
          let j = ref (o + header) in
          let stop = o + header + seg.(o + h_size) in
          while !j < stop do
            let l = seg.(!j) in
            if l <> w0 && assign.(var l) <> l land 1 then begin
              seg.(o + h_w1) <- l;
              watch s l cr;
              j := stop + 1
            end
            else incr j
          done;
          if !j = stop then begin
            (* Unit or conflicting. *)
            wd.(!kept) <- cr;
            incr kept;
            if assign.(var w0) = w0 land 1 then confl := cr else enqueue s w0 cr
          end
        end
      end
    done;
    (* After a conflict, keep the remaining watches. *)
    while !i < n do
      wd.(!kept) <- wd.(!i);
      incr kept;
      incr i
    done;
    s.nwatch.(false_lit) <- !kept
  done;
  !confl

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

(* Problem clauses carry no activity: only learnt clauses are ever
   ranked by it. *)
let bump_clause s cr =
  let id = (seg_of s cr).(off cr + h_meta) asr 1 in
  if id >= 0 then begin
    let a = s.lact.(id) +. s.cla_inc in
    s.lact.(id) <- (if a > 1e20 then a *. 1e-20 else a)
  end

(* ----------------------------------------------------------------- *)
(* Clause attachment                                                   *)

let attach_clause s cr =
  let seg = seg_of s cr and o = off cr in
  watch s seg.(o + h_w0) cr;
  watch s seg.(o + h_w1) cr

let attach_binary s p =
  let a = pack_fst p and b = pack_snd p in
  watch s a (bin b);
  watch s b (bin a)

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
        if neg !prev = l then drop := true;
        prev := l;
        if s.level.(var l) = 0 then begin
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
          enqueue s l (-1);
          (* A stale interrupt flag may fire inside this propagation
             (e.g. a blocking clause added right after a cancelled
             solve): swallow it here — clause addition is not
             interruptible work — and leave the flag set for the next
             [solve] to consume. *)
          match propagate s with
          | confl -> if confl <> -1 then s.ok <- false
          | exception Interrupted -> ()
        end
      | 2 ->
        let p = pack a.(0) a.(1) in
        Ivec.push s.clauses p;
        attach_binary s p
      | k ->
        let cr = store s s.problem a k problem_meta in
        Ivec.push s.clauses cr;
        attach_clause s cr
    end
  end

let add_clause s lits = add_clause_array s (Array.of_list lits)

let fold_clauses f s acc =
  let root_end =
    if decision_level s = 0 then s.trail.size else Ivec.get s.trail_lim 0
  in
  let acc = ref acc in
  for i = 0 to root_end - 1 do
    acc := f [| Ivec.get s.trail i |] !acc
  done;
  for i = 0 to s.clauses.size - 1 do
    let cr = Ivec.get s.clauses i in
    acc := f (if cr < 0 then [| pack_fst cr; pack_snd cr |] else clause_lits s cr) !acc
  done;
  !acc

(* ----------------------------------------------------------------- *)
(* Conflict analysis (first UIP)                                       *)

(* [lit_redundant]'s step on literal [q] of the reason of [l]: false
   when [q] is a decision, else marked and queued for expansion unless
   already settled. *)
let expand s l q =
  let v = var q in
  if v <> var l && (not s.seen.(v)) && s.level.(v) > 0 then
    if s.reason.(v) = -1 then false
    else begin
      s.seen.(v) <- true;
      Ivec.push s.an_added v;
      Ivec.push s.an_stack q;
      true
    end
  else true

(* Recursive learnt-clause minimization (self-subsumption over the
   implication graph): a tail literal is redundant when it has a
   reason and every reason literal is at level 0, already in the
   clause ([seen]), or itself redundant. Precondition: [seen] is true
   exactly on the tail literals of the learnt clause. A successful
   check leaves its marks in [seen] (memoizing the established
   redundancies for later checks) and records them in [an_clear]; a
   failed check undoes only the marks it added. Tail literals live
   strictly below the current decision level, so the walk never
   reaches the UIP or any current-level variable. *)
let lit_redundant s p =
  if s.reason.(var p) = -1 then false
  else begin
    let stack = s.an_stack and added = s.an_added in
    stack.size <- 0;
    added.size <- 0;
    Ivec.push stack p;
    let ok = ref true in
    while !ok && stack.size > 0 do
      stack.size <- stack.size - 1;
      let l = Ivec.get stack stack.size in
      let cr = s.reason.(var l) in
      if cr < 0 then ok := expand s l (bin cr)
      else begin
        let seg = seg_of s cr and o = off cr in
        let stop = o + header + seg.(o + h_size) in
        let j = ref (o + header) in
        while !ok && !j < stop do
          ok := expand s l seg.(!j);
          incr j
        done
      end
    done;
    for i = 0 to added.size - 1 do
      let v = Ivec.get added i in
      if !ok then Ivec.push s.an_clear v else s.seen.(v) <- false
    done;
    !ok
  end

(* Literal [q] of a conflict or of a reason: bump and mark it once.
   Returns 1 when it is at the current level (one more path to
   resolve); below it, it joins the learnt clause's tail. *)
let mark s q =
  let v = var q in
  if (not s.seen.(v)) && s.level.(v) > 0 then begin
    bump_var s v;
    s.seen.(v) <- true;
    if s.level.(v) >= decision_level s then 1
    else begin
      Ivec.push s.an_tail q;
      0
    end
  end
  else 0

(* Leaves the learnt clause in [an_learnt] (asserting literal first)
   and returns the backtrack level. *)
let analyze s confl =
  let tail = s.an_tail in
  tail.size <- 0;
  let path_count = ref 0 in
  let p = ref (-1) in
  (* -1 means "whole conflict clause" on the first iteration *)
  let idx = ref (s.trail.size - 1) in
  let confl = ref confl in
  let continue = ref true in
  while !continue do
    let c = !confl in
    if c >= 0 then begin
      bump_clause s c;
      let seg = seg_of s c and o = off c in
      (* Skip the pivot literal by variable (clauses never repeat a
         variable): the asserting literal sits at no known index, since
         the literals are immutable and watches live in w0/w1. *)
      let skip = if !p = -1 then -1 else var !p in
      for j = o + header to o + header + seg.(o + h_size) - 1 do
        if var seg.(j) <> skip then path_count := !path_count + mark s seg.(j)
      done
    end
    else if !p = -1 then begin
      (* A binary conflict, in its stored (ascending) literal order. *)
      path_count := !path_count + mark s (pack_fst c);
      path_count := !path_count + mark s (pack_snd c)
    end
    else (* A binary reason: the literal besides the pivot. *)
      path_count := !path_count + mark s (bin c);
    (* Select next literal on the trail to expand. *)
    while not s.seen.(var (Ivec.get s.trail !idx)) do
      decr idx
    done;
    let l = Ivec.get s.trail !idx in
    decr idx;
    s.seen.(var l) <- false;
    decr path_count;
    p := l;
    if !path_count <= 0 then continue := false
    else begin
      confl := s.reason.(var l);
      assert (!confl <> -1)
    end
  done;
  (* Minimize the tail, most recently found literal first: drop
     redundant literals (the learnt clause can only shrink, never
     grow). Dropped literals keep their [seen] mark for the duration —
     later redundancy checks may lean on them, which is sound because
     they are themselves implied by the rest. *)
  let learnt = s.an_learnt in
  learnt.size <- 0;
  Ivec.push learnt (neg !p);
  s.an_clear.size <- 0;
  let btlevel = ref 0 in
  for i = tail.size - 1 downto 0 do
    let q = Ivec.get tail i in
    if lit_redundant s q then s.n_minimized <- s.n_minimized + 1
    else begin
      Ivec.push learnt q;
      (* The backtrack level is the highest level among surviving
         tail literals (0 when the minimized clause is asserting at the
         root). *)
      btlevel := max !btlevel s.level.(var q)
    end
  done;
  (* Clear seen flags for reuse — over the original tail (dropped
     literals included) and everything the redundancy checks marked. *)
  for i = 0 to tail.size - 1 do
    s.seen.(var (Ivec.get tail i)) <- false
  done;
  for i = 0 to s.an_clear.size - 1 do
    s.seen.(Ivec.get s.an_clear i) <- false
  done;
  !btlevel

(* After a conflict directly caused by assumptions: collect the subset
   of assumptions implying the conflict, starting from literal [p]
   (a failed assumption). Assumption membership is a literal-indexed
   mark, set here and cleared before returning. *)
let analyze_final s p assumptions =
  let core = ref [] in
  if s.level.(var p) > 0 then begin
    Array.iter (fun a -> s.amark.(a) <- true) assumptions;
    s.seen.(var p) <- true;
    for i = s.trail.size - 1 downto 0 do
      let l = Ivec.get s.trail i in
      let v = var l in
      if s.seen.(v) then begin
        let cr = s.reason.(v) in
        if cr = -1 then begin
          (* A decision — under assumption-driven search all decisions
             at these levels are assumptions. *)
          if s.amark.(l) then core := l :: !core
        end
        else if cr < 0 then begin
          let q = bin cr in
          if s.level.(var q) > 0 then s.seen.(var q) <- true
        end
        else begin
          let seg = seg_of s cr and o = off cr in
          for j = o + header to o + header + seg.(o + h_size) - 1 do
            let q = seg.(j) in
            if s.level.(var q) > 0 then s.seen.(var q) <- true
          done
        end;
        s.seen.(v) <- false
      end
    done;
    Array.iter (fun a -> s.amark.(a) <- false) assumptions
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

(* Record the clause [analyze] left in [an_learnt]. *)
let record_learnt s btlevel =
  let learnt = s.an_learnt in
  let arr = learnt.data and n = learnt.size in
  if n = 1 then begin
    let l = arr.(0) in
    cancel_until s 0;
    if lit_is_unassigned s l then begin
      enqueue s l (-1);
      if propagate s <> -1 then s.ok <- false
    end
    else if lit_is_false s l then s.ok <- false
  end
  else begin
    cancel_until s btlevel;
    (* Put a highest-level literal (w.r.t. remaining assignment) second
       so watches stay valid: the asserting literal is first, a literal
       from btlevel second. *)
    let max_i = ref 1 in
    for i = 2 to n - 1 do
      if s.level.(var arr.(i)) > s.level.(var arr.(!max_i)) then max_i := i
    done;
    let tmp = arr.(1) in
    arr.(1) <- arr.(!max_i);
    arr.(!max_i) <- tmp;
    (* Watches start on the asserting literal and the btlevel
       literal. *)
    let id = s.learnts.size in
    let cr = store s s.learnt arr n (id lsl 1) in
    if id = Array.length s.lact then begin
      let lact = Array.make (max 16 (2 * id)) 0.0 in
      Array.blit s.lact 0 lact 0 id;
      s.lact <- lact
    end;
    s.lact.(id) <- 0.0;
    bump_clause s cr;
    Ivec.push s.learnts cr;
    s.n_learnt_total <- s.n_learnt_total + 1;
    attach_clause s cr;
    enqueue s arr.(0) cr
  end

(* Drop the low-activity half of the learnt clauses. Clauses serving
   as reasons for current assignments are kept. Runs at the root
   level.

   Survivors move, in activity order, into fresh segments, and the old
   learnt segments are freed, so storage follows the live clauses.
   Each moved clause leaves its new reference in its old header's w0
   slot; the watch lists and the level-0 reasons are then remapped
   through it (problem clauses never move), dropping removed clauses
   and keeping every list's order. *)
let reduce_db s =
  let n = s.learnts.size in
  if n > 0 then begin
    let meta cr = (seg_of s cr).(off cr + h_meta) in
    (* protect reasons: one pass over the trail *)
    let protected = Bytes.make n '\000' in
    for i = 0 to s.trail.size - 1 do
      let cr = s.reason.(var (Ivec.get s.trail i)) in
      if cr >= 0 && meta cr >= 0 then Bytes.set protected (meta cr asr 1) '\001'
    done;
    let act = s.lact in
    let all = Array.init n (fun i -> i) in
    Array.sort (fun a b -> Float.compare act.(b) act.(a)) all;
    let cutoff = n / 2 in
    let old = Array.sub s.learnts.data 0 n in
    let words = ref 0 in
    Array.iteri
      (fun i id ->
        let cr = old.(id) in
        let seg = seg_of s cr and o = off cr in
        if i >= cutoff && seg.(o + h_size) > 2 && Bytes.get protected id = '\000' then
          seg.(o + h_meta) <- seg.(o + h_meta) lor 1
        else words := !words + header + seg.(o + h_size))
      all;
    (* move the survivors, in order, into a fresh chain *)
    let old_slots = Ivec.copy s.learnt.slots in
    s.learnt.slots.size <- 0;
    s.learnt.cur <- -1;
    s.learnt.last <- 0;
    if !words > 0 then new_segment s s.learnt (max first_segment (2 * !words));
    s.learnts.size <- 0;
    let lact = Array.make (max 16 (2 * (n - cutoff))) 0.0 in
    Array.iter
      (fun id ->
        let cr = old.(id) in
        let seg = seg_of s cr and o = off cr in
        if seg.(o + h_meta) land 1 = 0 then begin
          let nid = s.learnts.size in
          let nr =
            store s s.learnt (Array.sub seg (o + header) seg.(o + h_size))
              seg.(o + h_size) (nid lsl 1)
          in
          let nseg = seg_of s nr and no = off nr in
          nseg.(no + h_w0) <- seg.(o + h_w0);
          nseg.(no + h_w1) <- seg.(o + h_w1);
          seg.(o + h_w0) <- nr;
          lact.(nid) <- act.(id);
          Ivec.push s.learnts nr
        end)
      all;
    s.lact <- lact;
    let forward cr =
      let seg = seg_of s cr and o = off cr in
      if seg.(o + h_meta) < 0 then cr else seg.(o + h_w0)
    in
    for l = 0 to Array.length s.watches - 1 do
      let wd = s.watches.(l) in
      let kept = ref 0 in
      for i = 0 to s.nwatch.(l) - 1 do
        let cr = wd.(i) in
        if cr < 0 then begin
          (* inline binary clauses never move *)
          wd.(!kept) <- cr;
          incr kept
        end
        else if meta cr land 1 = 0 then begin
          wd.(!kept) <- forward cr;
          incr kept
        end
      done;
      s.nwatch.(l) <- !kept
    done;
    for i = 0 to s.trail.size - 1 do
      let v = var (Ivec.get s.trail i) in
      if s.reason.(v) >= 0 then s.reason.(v) <- forward s.reason.(v)
    done;
    for i = 0 to old_slots.size - 1 do
      let slot = Ivec.get old_slots i in
      s.segs.(slot) <- [||];
      Ivec.push s.free_slots slot
    done
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
   the hood), so one [Obs.Metrics.dump] covers the solver too. *)
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
      Float.max 1000.0 (float_of_int s.clauses.size /. 3.0);
  if not s.ok then Unsat
  else begin
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
              let confl = propagate s in
              if confl <> -1 then begin
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
                let btlevel = analyze s confl in
                record_learnt s btlevel;
                if not s.ok then raise (Found Unsat);
                decay_activities s
              end
              else begin
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
                        ("learnt", float_of_int s.learnts.size);
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
                    Ivec.push s.trail_lim s.trail.size
                  end
                  else if lit_is_false s a then begin
                    s.conflict_core <- a :: analyze_final s (neg a) assumptions;
                    raise (Found Unsat)
                  end
                  else begin
                    Ivec.push s.trail_lim s.trail.size;
                    s.n_decisions <- s.n_decisions + 1;
                    enqueue s a (-1)
                  end
                end
                else begin
                  let v = pick_branch_var s in
                  if v < 0 then raise (Found Sat);
                  Ivec.push s.trail_lim s.trail.size;
                  s.n_decisions <- s.n_decisions + 1;
                  enqueue s (Lit.make v s.phase.(v)) (-1)
                end
              end
            done
          with Exit -> ());
         incr restart_count;
         (* Restarts are the safe points to shrink the learnt-clause
            database: backtrack to the root, drop the low-activity
            half once the DB outgrows the adaptive threshold, and grow
            the threshold geometrically so learning still deepens over
            a long run while propagation stops paying for dead
            clauses. *)
         if float_of_int s.learnts.size > s.max_learnts then begin
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
  let t0 = Obs.Clock.now () in
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
      let dt = Obs.Clock.now () -. t0 in
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

let lit_value s l = if sign l then value s (var l) else not (value s (var l))

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
    learnt = s.learnts.size;
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

   The clause arena is copied segment by segment (each a flat int
   array, so a block copy with no per-clause allocation); clause
   references stay valid because the clone keeps the segment table's
   layout. Binary problem clauses are in no segment: they are
   re-attached from their packed entries in [clauses].

   Cost: O(stored literals + vars), in a few dozen fixed allocations,
   one per segment and one int array per watched literal. No large
   array a clone makes starts from a young element, so a clone forces
   no minor collection. A six-feature session's check solver (981
   variables, 7,387 problem clauses of which 6,562 binary) clones in
   51k words and about 0.64 ms on one core of a 2-core VM.

   Invariants restored on the copy:
   - watch lists are rebuilt in database order (problem clauses as
     added, then learnt clauses), arena clauses from the copied
     headers' w0/w1, each list sized to fit;
   - reasons are dropped: after [cancel_until 0] only level-0
     assignments remain, and neither [analyze] nor [analyze_final]
     ever dereferences a level-0 reason;
   - the level-0 trail segment is propagation-closed (every level-0
     literal was processed through [propagate] while at level 0), so
     [qhead] can start at the trail end. *)
let clone s =
  let nlits = Array.length s.watches in
  let counts = Array.make nlits 0 in
  let count l = counts.(l) <- counts.(l) + 1 in
  let count_refs (v : Ivec.t) =
    for i = 0 to v.size - 1 do
      let cr = Ivec.get v i in
      if cr < 0 then begin
        count (pack_fst cr);
        count (pack_snd cr)
      end
      else begin
        let seg = seg_of s cr and o = off cr in
        count seg.(o + h_w0);
        count seg.(o + h_w1)
      end
    done
  in
  count_refs s.clauses;
  count_refs s.learnts;
  let watches = Array.make nlits [||] in
  for l = 0 to nlits - 1 do
    if counts.(l) > 0 then watches.(l) <- Array.make counts.(l) 0
  done;
  (* A segment being filled is copied only up to its fill mark: the
     clone's next clause then opens a new segment. *)
  let copy_seg slot seg =
    if slot = s.problem.cur then Array.sub seg 0 s.problem.fill
    else if slot = s.learnt.cur then Array.sub seg 0 s.learnt.fill
    else Array.copy seg
  in
  let t =
    {
      segs = Array.mapi copy_seg s.segs;
      nslots = s.nslots;
      free_slots = Ivec.copy s.free_slots;
      problem = copy_region s.problem;
      learnt = copy_region s.learnt;
      clauses = Ivec.copy s.clauses;
      learnts = Ivec.copy s.learnts;
      lact = Array.copy s.lact;
      watches;
      nwatch = Array.make nlits 0;
      assign = Array.copy s.assign;
      level = Array.copy s.level;
      reason = Array.make (Array.length s.reason) (-1);
      phase = Array.copy s.phase;
      trail = Ivec.copy s.trail;
      trail_lim = Ivec.copy s.trail_lim;
      qhead = 0;
      activity = Array.copy s.activity;
      var_inc = s.var_inc;
      cla_inc = s.cla_inc;
      heap = Array.copy s.heap;
      heap_size = s.heap_size;
      heap_pos = Array.copy s.heap_pos;
      seen = Array.make (Array.length s.seen) false;
      amark = Array.make (Array.length s.amark) false;
      an_tail = Ivec.create ();
      an_stack = Ivec.create ();
      an_added = Ivec.create ();
      an_clear = Ivec.create ();
      an_learnt = Ivec.create ();
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
  for i = 0 to t.clauses.size - 1 do
    let cr = Ivec.get t.clauses i in
    if cr < 0 then attach_binary t cr else attach_clause t cr
  done;
  for i = 0 to t.learnts.size - 1 do
    attach_clause t (Ivec.get t.learnts i)
  done;
  cancel_until t 0;
  t.qhead <- t.trail.size;
  t
