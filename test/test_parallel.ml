(* Tests for the multicore layer: the domain pool (futures, inline
   jobs = 1 mode, cancellation), solver cloning and interruption, and
   jobs-invariance of the parallel enforcement paths — the same
   relational distance and the same repair set at jobs = 1 and
   jobs = N (N from MDQVTR_JOBS, default 4). *)

module P = Parallel.Pool
module S = Sat.Solver
module L = Sat.Lit
module F = Featuremodel.Fm
module Sc = Featuremodel.Scenarios
module Eng = Echo.Engine

(* CI runs the suite at several MDQVTR_JOBS values; default exercises
   a genuinely parallel schedule. *)
let parallel_jobs =
  match Sys.getenv_opt "MDQVTR_JOBS" with
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some n when n >= 1 -> n
    | _ -> 4)
  | None -> 4

(* ------------------------------------------------------------------ *)
(* pool                                                                *)

let test_inline_pool () =
  P.with_pool ~jobs:1 (fun pool ->
      Alcotest.(check int) "jobs" 1 (P.jobs pool);
      let order = ref [] in
      let f =
        P.submit pool (fun _ ->
            order := 1 :: !order;
            41)
      in
      order := 2 :: !order;
      Alcotest.(check int) "result" 41 (P.await f);
      (* jobs = 1 runs the task inline, during submit *)
      Alcotest.(check (list int)) "ran at submit time" [ 2; 1 ] !order)

let test_submit_await () =
  P.with_pool ~jobs:2 (fun pool ->
      let futs = List.init 20 (fun i -> P.submit pool (fun _ -> i * i)) in
      List.iteri
        (fun i f -> Alcotest.(check int) "square" (i * i) (P.await f))
        futs)

let test_map_list_error () =
  P.with_pool ~jobs:2 (fun pool ->
      match
        P.map_list pool (fun _ x -> if x = 3 then failwith "boom" else x)
          [ 1; 2; 3; 4 ]
      with
      | _ -> Alcotest.fail "expected the task failure to re-raise"
      | exception Failure m -> Alcotest.(check string) "first error" "boom" m)

let test_cancel_queued_task () =
  P.with_pool ~jobs:2 (fun pool ->
      (* occupy both workers so the third task stays queued *)
      let gate = Atomic.make false in
      let blocker _ =
        while not (Atomic.get gate) do
          Domain.cpu_relax ()
        done
      in
      let b1 = P.submit pool blocker in
      let b2 = P.submit pool blocker in
      let f = P.submit pool (fun _ -> 42) in
      P.cancel f;
      Atomic.set gate true;
      P.await b1;
      P.await b2;
      match P.result f with
      | Error P.Cancelled -> ()
      | Ok _ -> Alcotest.fail "a task cancelled before starting must not run"
      | Error e -> raise e)

let test_on_cancel_hook () =
  P.with_pool ~jobs:2 (fun pool ->
      let started = Atomic.make false in
      let observed = Atomic.make false in
      let hook_runs = Atomic.make 0 in
      let f =
        P.submit pool (fun tok ->
            P.on_cancel tok (fun () -> Atomic.incr hook_runs);
            Atomic.set started true;
            while not (P.cancelled tok) do
              Domain.cpu_relax ()
            done;
            Atomic.set observed true;
            raise P.Cancelled)
      in
      (* make sure the task is running before cancelling it, otherwise
         it is dropped without executing at all *)
      while not (Atomic.get started) do
        Domain.cpu_relax ()
      done;
      P.cancel f;
      P.cancel f (* idempotent *);
      (match P.result f with
      | Error P.Cancelled -> ()
      | Ok _ -> Alcotest.fail "task should report cancellation"
      | Error e -> raise e);
      Alcotest.(check bool) "task observed its token" true (Atomic.get observed);
      Alcotest.(check int) "hook ran exactly once" 1 (Atomic.get hook_runs))

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
  P.with_pool ~jobs:2 (fun pool ->
      let f =
        P.submit pool (fun _ ->
            match S.solve s with
            | r -> `Finished r
            | exception S.Interrupted -> `Interrupted)
      in
      Unix.sleepf 0.05;
      S.interrupt s;
      match P.await f with
      | `Interrupted -> ()
      | `Finished S.Unsat -> () (* solved before the interrupt landed *)
      | `Finished S.Sat -> Alcotest.fail "php(10,9) cannot be sat")

let test_interrupt_latency () =
  (* interrupt is polled every 64 trail positions inside propagate,
     not just at decision boundaries, so a running solve must return
     promptly. php(11,10) keeps one core busy for many seconds; the
     bound below is ~1000x the poll interval — generous enough for a
     loaded CI box, tight enough to catch a lost poll (which would run
     to completion). *)
  let s = pigeonhole 11 10 in
  P.with_pool ~jobs:2 (fun pool ->
      let f =
        P.submit pool (fun _ ->
            match S.solve s with
            | r -> `Finished r
            | exception S.Interrupted -> `Interrupted)
      in
      Unix.sleepf 0.05;
      let t0 = Unix.gettimeofday () in
      S.interrupt s;
      let outcome = P.await f in
      let latency = Unix.gettimeofday () -. t0 in
      (match outcome with
      | `Interrupted | `Finished S.Unsat -> ()
      | `Finished S.Sat -> Alcotest.fail "php(11,10) cannot be sat");
      Alcotest.(check bool)
        (Printf.sprintf "interrupt latency %.3fs under bound" latency)
        true (latency < 1.0))

(* ------------------------------------------------------------------ *)
(* jobs-invariance of enforcement                                      *)

(* The repair layer sizes its speculation and sharding by the real
   core count; pretend the box has [n] cores so the parallel schedules
   under test are genuinely concurrent even on 1-core CI runners. *)
let with_workers n f =
  let prev = Sys.getenv_opt "MDQVTR_WORKERS" in
  Unix.putenv "MDQVTR_WORKERS" (string_of_int n);
  Fun.protect
    ~finally:(fun () ->
      Unix.putenv "MDQVTR_WORKERS" (Option.value prev ~default:""))
    f

let enforce ?backend ~jobs trans (s : Sc.t) targets =
  Eng.enforce ?backend ~jobs trans ~metamodels:F.metamodels
    ~models:(F.bind ~cfs:s.Sc.cfs ~fm:s.Sc.fm)
    ~targets:(Echo.Target.of_list targets)

let distance name = function
  | Ok (Eng.Enforced r) -> Some r.Eng.relational_distance
  | Ok Eng.Already_consistent -> Some 0
  | Ok Eng.Cannot_restore -> None
  | Error e -> Alcotest.failf "%s: %s" name e

let test_enforce_jobs_invariant () =
  with_workers 3 @@ fun () ->
  let trans = F.transformation ~k:2 in
  List.iter
    (fun (s : Sc.t) ->
      List.iter
        (fun targets ->
          let name =
            Printf.sprintf "%s -> {%s}" s.Sc.s_name (String.concat "," targets)
          in
          let d1 = distance name (enforce ~jobs:1 trans s targets) in
          let dn = distance name (enforce ~jobs:parallel_jobs trans s targets) in
          Alcotest.(check (option int)) name d1 dn)
        (s.Sc.restorable @ s.Sc.not_restorable))
    Sc.all

let outcome_key = function
  | Eng.Enforced r ->
    String.concat "\n"
      (List.map
         (fun (p, m) -> Mdl.Ident.name p ^ ":" ^ Mdl.Serialize.model_to_string m)
         r.Eng.repaired)
  | Eng.Already_consistent -> "<consistent>"
  | Eng.Cannot_restore -> "<cannot-restore>"

let test_enforce_all_jobs_invariant () =
  with_workers 3 @@ fun () ->
  let trans = F.transformation ~k:2 in
  List.iter
    (fun (s : Sc.t) ->
      List.iter
        (fun targets ->
          let name =
            Printf.sprintf "%s -> {%s}" s.Sc.s_name (String.concat "," targets)
          in
          let run jobs =
            match
              Eng.enforce_all ~jobs trans ~metamodels:F.metamodels
                ~models:(F.bind ~cfs:s.Sc.cfs ~fm:s.Sc.fm)
                ~targets:(Echo.Target.of_list targets)
            with
            | Ok outcomes -> List.map outcome_key outcomes
            | Error e -> Alcotest.failf "%s: %s" name e
          in
          (* complete enumeration in canonical order: the full repair
             set is identical whatever the worker schedule *)
          Alcotest.(check (list string)) name (run 1) (run parallel_jobs))
        s.Sc.restorable)
    Sc.all

let test_enforce_all_adaptive_shards () =
  (* Force the adaptive sharding machinery through its hot paths: a
     zero time budget makes every cube split-eligible, and the
     simulated 3-core box gives it real worker domains (and real
     starvation signals) even on the 1-core CI runner. The repair
     menu must still be canonical. *)
  with_workers 3 @@ fun () ->
  let trans = F.transformation ~k:2 in
  List.iter
    (fun (s : Sc.t) ->
      List.iter
        (fun targets ->
          let name =
            Printf.sprintf "%s -> {%s} (adaptive)" s.Sc.s_name
              (String.concat "," targets)
          in
          let run jobs =
            match
              Eng.enforce_all ~jobs ~split_after:0.0 trans
                ~metamodels:F.metamodels
                ~models:(F.bind ~cfs:s.Sc.cfs ~fm:s.Sc.fm)
                ~targets:(Echo.Target.of_list targets)
            with
            | Ok outcomes -> List.map outcome_key outcomes
            | Error e -> Alcotest.failf "%s: %s" name e
          in
          Alcotest.(check (list string)) name (run 1) (run parallel_jobs))
        s.Sc.restorable)
    Sc.all

let test_portfolio_wins_counted () =
  (* The BENCH_2..4 mystery: both portfolio win counters were zero
     because no caller ever raced (jobs defaulted to 1, which degrades
     Portfolio to the ladder). Assert the accounting works when a race
     does run: every race increments [portfolio_races], and a race
     that repairs successfully credits exactly one lane. *)
  let races = Obs.Metrics.counter "echo.engine.portfolio_races" in
  let it_wins = Obs.Metrics.counter "echo.engine.portfolio_iterative_wins" in
  let mx_wins = Obs.Metrics.counter "echo.engine.portfolio_maxsat_wins" in
  let snap () =
    ( Obs.Metrics.counter_value races,
      Obs.Metrics.counter_value it_wins + Obs.Metrics.counter_value mx_wins )
  in
  let races0, wins0 = snap () in
  let trans = F.transformation ~k:2 in
  let repaired = ref 0 in
  List.iter
    (fun (s : Sc.t) ->
      List.iter
        (fun targets ->
          match enforce ~backend:Eng.Portfolio ~jobs:2 trans s targets with
          | Ok (Eng.Enforced _) -> incr repaired
          | _ -> ())
        s.Sc.restorable)
    Sc.all;
  let races1, wins1 = snap () in
  Alcotest.(check bool) "some portfolio race actually repaired" true
    (!repaired > 0);
  Alcotest.(check bool) "every repair came from a counted race" true
    (races1 - races0 >= !repaired);
  Alcotest.(check int) "every successful race credited one winning lane"
    !repaired (wins1 - wins0)

let test_portfolio_agrees () =
  let trans = F.transformation ~k:2 in
  List.iter
    (fun (s : Sc.t) ->
      List.iter
        (fun targets ->
          let name =
            Printf.sprintf "%s -> {%s}" s.Sc.s_name (String.concat "," targets)
          in
          let d1 = distance name (enforce ~jobs:1 trans s targets) in
          let dp =
            distance name (enforce ~backend:Eng.Portfolio ~jobs:2 trans s targets)
          in
          Alcotest.(check (option int)) name d1 dp)
        (s.Sc.restorable @ s.Sc.not_restorable))
    Sc.all

let suite =
  [
    Alcotest.test_case "inline pool (jobs = 1)" `Quick test_inline_pool;
    Alcotest.test_case "submit and await" `Quick test_submit_await;
    Alcotest.test_case "map_list re-raises" `Quick test_map_list_error;
    Alcotest.test_case "cancel a queued task" `Quick test_cancel_queued_task;
    Alcotest.test_case "on_cancel hook" `Quick test_on_cancel_hook;
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
    Alcotest.test_case "enforce distance is jobs-invariant" `Slow
      test_enforce_jobs_invariant;
    Alcotest.test_case "enforce_all repair set is jobs-invariant" `Slow
      test_enforce_all_jobs_invariant;
    Alcotest.test_case "enforce_all canonical under adaptive sharding" `Slow
      test_enforce_all_adaptive_shards;
    Alcotest.test_case "portfolio wins are counted" `Slow
      test_portfolio_wins_counted;
    Alcotest.test_case "portfolio agrees with iterative" `Slow
      test_portfolio_agrees;
  ]
