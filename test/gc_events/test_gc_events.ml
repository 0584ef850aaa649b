(* Forced minor collections, counted by the runtime itself.

   OCaml 5's [Array.make] of more than 256 elements allocates in the
   major heap. When its initial element is a young block, it first
   forces a stop-the-world minor collection to promote that block, and
   the runtime counts one EV_C_FORCE_MINOR_MAKE_VECT. [Array.init],
   [map], [mapi] and [of_list] start from [Array.make] over their first
   element, so they do the same. A daemon clones a solver on every
   session revival, so a clone that forced a collection would stop
   every domain each time. These cases read the counter over a
   solver's clones, over a fresh solver's growth and over a
   histogram's registration, and require none; a control case makes a
   large array over a young block, to show that the count sees the
   event.

   This is its own executable, not a suite of test_main: the event
   ring is a file beside the process, and it records every domain's
   collections from [Runtime_events.start] on. *)

module S = Sat.Solver
module L = Sat.Lit

(* The EV_C_FORCE_MINOR_MAKE_VECT events while [f] runs. Events lost
   from the ring fail the case: a lost event could be a forced
   collection. *)
let forced_collections f =
  let forced = ref 0 and lost = ref 0 in
  let callbacks =
    Runtime_events.Callbacks.create
      ~runtime_counter:(fun _ _ counter n ->
        if counter = Runtime_events.EV_C_FORCE_MINOR_MAKE_VECT then forced := !forced + n)
      ~lost_events:(fun _ n -> lost := !lost + n)
      ()
  in
  let cursor = Runtime_events.create_cursor None in
  Fun.protect
    ~finally:(fun () -> Runtime_events.free_cursor cursor)
    (fun () ->
      ignore (Runtime_events.read_poll cursor callbacks None);
      forced := 0;
      ignore (Sys.opaque_identity (f ()));
      ignore (Runtime_events.read_poll cursor callbacks None);
      if !lost > 0 then Alcotest.failf "%d runtime events lost" !lost;
      !forced)

(* A solver over [n] variables: a chain of binary clauses and a
   ternary clause per variable, so its watch table has a slot per
   literal and both kinds of watch entry. *)
let solver n =
  let s = S.create () in
  let v = Array.init n (fun _ -> S.new_var s) in
  for i = 0 to n - 2 do
    S.add_clause s [ L.neg_of v.(i); L.pos v.(i + 1) ];
    S.add_clause s [ L.pos v.(i); L.neg_of v.((i + 1) mod n); L.pos v.((i + 7) mod n) ]
  done;
  s

let test_clones () =
  let s = solver 600 in
  Alcotest.(check bool) "solvable" true (S.solve s = S.Sat);
  let n = forced_collections (fun () -> List.init 20 (fun _ -> S.clone s)) in
  Alcotest.(check int) "forced minor collections over 20 clones" 0 n

let test_growth () =
  let n =
    forced_collections (fun () ->
        let s = S.create () in
        for _ = 1 to 200 do
          ignore (S.new_var s)
        done;
        s)
  in
  Alcotest.(check int) "forced minor collections while growing to 400 literals" 0 n

let test_histogram () =
  let n = forced_collections (fun () -> Obs.Metrics.histogram "test.gc_events_s") in
  Alcotest.(check int) "forced minor collections registering a histogram" 0 n

let test_control () =
  let n = forced_collections (fun () -> Array.init 1000 (fun _ -> ref 0)) in
  Alcotest.(check bool) "Array.init over young refs forces a collection" true (n >= 1)

let () =
  Runtime_events.start ();
  Alcotest.run "gc_events"
    [
      ( "forced",
        [
          Alcotest.test_case "clones of a 600-variable solver" `Quick test_clones;
          Alcotest.test_case "a fresh solver growing past 256 literals" `Quick test_growth;
          Alcotest.test_case "a histogram's 264 buckets" `Quick test_histogram;
          Alcotest.test_case "control: Array.init over young blocks" `Quick test_control;
        ] );
    ]
