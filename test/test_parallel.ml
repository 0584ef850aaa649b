(* Tests for the multicore layer: the domain pool (fire-and-forget
   tasks, inline jobs = 1 mode), solver cloning (session check stages
   clone a never-solved template solver) and the solver's cooperative
   interrupt. *)

module P = Parallel.Pool
module S = Sat.Solver
module L = Sat.Lit

(* ------------------------------------------------------------------ *)
(* pool                                                                *)

let with_pool ~jobs f =
  let pool = P.create ~jobs in
  Fun.protect ~finally:(fun () -> P.shutdown pool) (fun () -> f pool)

let test_inline_pool () =
  let order = ref [] in
  with_pool ~jobs:1 (fun pool ->
      Alcotest.(check int) "jobs" 1 (P.jobs pool);
      P.submit pool (fun () -> order := 1 :: !order);
      order := 2 :: !order);
  (* jobs = 1 runs the task inline, during submit *)
  Alcotest.(check (list int)) "ran at submit time" [ 2; 1 ] !order

(* Every task runs, a raising one included, and shutdown returns only
   once they all have. *)
let test_submit_runs_every_task () =
  let squares = Array.make 20 0 in
  let ran = Atomic.make 0 in
  with_pool ~jobs:2 (fun pool ->
      P.submit pool (fun () ->
          Atomic.incr ran;
          failwith "dropped");
      for i = 0 to 19 do
        P.submit pool (fun () ->
            squares.(i) <- i * i;
            Atomic.incr ran)
      done);
  Alcotest.(check int) "every task ran" 21 (Atomic.get ran);
  Array.iteri (fun i sq -> Alcotest.(check int) "square" (i * i) sq) squares

(* ------------------------------------------------------------------ *)
(* solver cloning                                                      *)

let random_cnf rng nv nc =
  let s = S.create () in
  let vars = Array.init nv (fun _ -> S.new_var s) in
  let clauses =
    List.init nc (fun _ ->
        let width = 2 + Random.State.int rng 2 in
        List.init width (fun _ ->
            let v = vars.(Random.State.int rng nv) in
            if Random.State.bool rng then L.pos v else L.neg_of v))
  in
  List.iter (S.add_clause s) clauses;
  (s, clauses)

let satisfies value clauses =
  List.for_all (List.exists (fun l -> value (L.var l) = L.sign l)) clauses

let test_clone_equivalence () =
  let rng = Random.State.make [| 0xC10E |] in
  for _ = 1 to 50 do
    let nv = 4 + Random.State.int rng 8 in
    let s, clauses = random_cnf rng nv (8 + Random.State.int rng 30) in
    (* solve the original first so the clone inherits learnt clauses,
       activities and saved phases *)
    let r0 = S.solve s in
    let c = S.clone s in
    Alcotest.(check bool) "clone verdict agrees" true (S.solve c = r0);
    if r0 = S.Sat then begin
      Alcotest.(check bool) "original model satisfies the CNF" true
        (satisfies (S.value s) clauses);
      Alcotest.(check bool) "clone model satisfies the CNF" true
        (satisfies (S.value c) clauses)
    end;
    (* assumption verdicts are semantic: original and clone agree on
       each single-literal assumption *)
    for v = 0 to min 3 (nv - 1) do
      Alcotest.(check bool) "assumption verdict agrees" true
        (S.solve ~assumptions:[ L.pos v ] c = S.solve ~assumptions:[ L.pos v ] s)
    done
  done

(* duplicated from below to keep the clone tests self-contained *)
let pigeonhole_cnf n m =
  let s = S.create () in
  let v = Array.init n (fun _ -> Array.init m (fun _ -> S.new_var s)) in
  for i = 0 to n - 1 do
    S.add_clause s (List.init m (fun j -> L.pos v.(i).(j)))
  done;
  for j = 0 to m - 1 do
    for i = 0 to n - 1 do
      for k = i + 1 to n - 1 do
        S.add_clause s [ L.neg_of v.(i).(j); L.neg_of v.(k).(j) ]
      done
    done
  done;
  s

let test_clone_after_reduce () =
  (* reduce_db moves the surviving learnt clauses into fresh segments
     and remaps the watches through forwarding references; a clone
     taken after reductions copies that compacted store and must
     still be semantically equivalent. php(7,6)
     generates thousands of conflicts, so a learnt cap of 5 guarantees
     the reduce path actually runs (asserted — otherwise this test
     silently degrades to test_clone_equivalence). *)
  let s = pigeonhole_cnf 7 6 in
  S.set_learnt_cap s 5;
  Alcotest.(check bool) "php(7,6) unsat" true (S.solve s = S.Unsat);
  Alcotest.(check bool) "reduce_db exercised" true ((S.stats s).S.reduces > 0);
  let c = S.clone s in
  Alcotest.(check bool) "clone verdict agrees" true (S.solve c = S.Unsat);
  (* SAT-side coverage: random CNFs solved under the same tiny cap;
     models and assumption answers must survive whatever reductions
     happened along the way *)
  let rng = Random.State.make [| 0x5EED |] in
  for _ = 1 to 20 do
    let nv = 12 + Random.State.int rng 6 in
    let s, clauses = random_cnf rng nv (40 + Random.State.int rng 40) in
    S.set_learnt_cap s 5;
    let r0 = S.solve s in
    let c = S.clone s in
    Alcotest.(check bool) "clone verdict agrees" true (S.solve c = r0);
    if r0 = S.Sat then
      Alcotest.(check bool) "clone model satisfies the CNF" true
        (satisfies (S.value c) clauses);
    for v = 0 to min 3 (nv - 1) do
      Alcotest.(check bool) "assumption verdict agrees" true
        (S.solve ~assumptions:[ L.neg_of v ] c
        = S.solve ~assumptions:[ L.neg_of v ] s)
    done;
    (* keep solving the original: its later reductions must not
       corrupt the already-taken clone either way *)
    Alcotest.(check bool) "original verdict stable" true (S.solve s = r0)
  done

let test_clone_independent () =
  let s = S.create () in
  let v = Array.init 2 (fun _ -> S.new_var s) in
  S.add_clause s [ L.pos v.(0); L.pos v.(1) ];
  Alcotest.(check bool) "sat" true (S.solve s = S.Sat);
  let c = S.clone s in
  (* drive the clone unsat; the original must be unaffected *)
  S.add_clause c [ L.neg_of v.(0) ];
  S.add_clause c [ L.neg_of v.(1) ];
  Alcotest.(check bool) "clone unsat" true (S.solve c = S.Unsat);
  Alcotest.(check bool) "original still sat" true (S.solve s = S.Sat)

(* ------------------------------------------------------------------ *)
(* interruption                                                        *)

let pigeonhole n m =
  let s = S.create () in
  let v = Array.init n (fun _ -> Array.init m (fun _ -> S.new_var s)) in
  for i = 0 to n - 1 do
    S.add_clause s (List.init m (fun j -> L.pos v.(i).(j)))
  done;
  for j = 0 to m - 1 do
    for i = 0 to n - 1 do
      for k = i + 1 to n - 1 do
        S.add_clause s [ L.neg_of v.(i).(j); L.neg_of v.(k).(j) ]
      done
    done
  done;
  s

(* A solve running on a domain of its own, to interrupt from this one. *)
let solve_on_domain s =
  Domain.spawn (fun () ->
      match S.solve s with
      | r -> `Finished r
      | exception S.Interrupted -> `Interrupted)

let test_interrupt_then_solve () =
  let s = pigeonhole 6 5 in
  S.interrupt s;
  (match S.solve s with
  | exception S.Interrupted -> ()
  | _ -> Alcotest.fail "expected Interrupted");
  (* the flag is consumed: the solver is reusable afterwards *)
  Alcotest.(check bool) "solver reusable after interrupt" true
    (S.solve s = S.Unsat)

let test_interrupt_running_solve () =
  (* php(10,9) takes far longer than the interrupt latency; the test
     passes either way but exercises the mid-solve path in practice *)
  let s = pigeonhole 10 9 in
  let d = solve_on_domain s in
  Unix.sleepf 0.05;
  S.interrupt s;
  match Domain.join d with
  | `Interrupted -> ()
  | `Finished S.Unsat -> () (* solved before the interrupt landed *)
  | `Finished S.Sat -> Alcotest.fail "php(10,9) cannot be sat"

let test_interrupt_latency () =
  (* interrupt is polled every 64 trail positions inside propagate,
     not just at decision boundaries, so a running solve must return
     promptly. php(11,10) keeps one core busy for many seconds; the
     bound below is ~1000x the poll interval — generous enough for a
     loaded CI box, tight enough to catch a lost poll (which would run
     to completion). *)
  let s = pigeonhole 11 10 in
  let d = solve_on_domain s in
  Unix.sleepf 0.05;
  let t0 = Unix.gettimeofday () in
  S.interrupt s;
  let outcome = Domain.join d in
  let latency = Unix.gettimeofday () -. t0 in
  (match outcome with
  | `Interrupted | `Finished S.Unsat -> ()
  | `Finished S.Sat -> Alcotest.fail "php(11,10) cannot be sat");
  Alcotest.(check bool)
    (Printf.sprintf "interrupt latency %.3fs under bound" latency)
    true (latency < 1.0)

let suite =
  [
    Alcotest.test_case "inline pool (jobs = 1)" `Quick test_inline_pool;
    Alcotest.test_case "submit runs every task" `Quick test_submit_runs_every_task;
    Alcotest.test_case "clone equivalence (random CNFs)" `Slow
      test_clone_equivalence;
    Alcotest.test_case "clone equivalence after reduce_db" `Slow
      test_clone_after_reduce;
    Alcotest.test_case "clone independence" `Quick test_clone_independent;
    Alcotest.test_case "interrupt then solve" `Quick test_interrupt_then_solve;
    Alcotest.test_case "interrupt a running solve" `Quick
      test_interrupt_running_solve;
    Alcotest.test_case "interrupt latency is bounded" `Slow
      test_interrupt_latency;
  ]
