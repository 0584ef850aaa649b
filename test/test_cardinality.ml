(* Tests for the totalizer encoding: at-most-k assumptions reflect
   input counts, and counting is exact against brute force. *)

module S = Sat.Solver
module L = Sat.Lit
module Card = Sat.Cardinality

let setup n =
  let s = S.create () in
  let vars = Array.init n (fun _ -> S.new_var s) in
  let card = Card.build s (Array.to_list (Array.map L.pos vars)) in
  (s, vars, card)

let force s vars bits =
  Array.iteri
    (fun i b -> S.add_clause s [ (if b then L.pos vars.(i) else L.neg_of vars.(i)) ])
    bits

let test_outputs_track_count () =
  (* set exactly 3 of 5 inputs: o1..o3 are forced, so capping the
     count below 3 is refuted, and o4 is not, so a cap of 3 holds *)
  let s, vars, card = setup 5 in
  force s vars [| true; false; true; true; false |];
  Alcotest.(check bool) "sat" true (S.solve s = S.Sat);
  for k = 0 to 2 do
    Alcotest.(check bool)
      (Printf.sprintf "at_most %d unsat" k)
      true
      (S.solve ~assumptions:(Card.at_most card k) s = S.Unsat)
  done;
  Alcotest.(check bool) "at_most 3 sat" true (S.solve ~assumptions:(Card.at_most card 3) s = S.Sat)

let test_at_most_zero () =
  let s, vars, card = setup 4 in
  S.add_clause s [ L.pos vars.(0); L.pos vars.(1) ];
  (* at least one input true -> at_most 0 unsat *)
  Alcotest.(check bool) "at_most 0 unsat" true
    (S.solve ~assumptions:(Card.at_most card 0) s = S.Unsat);
  Alcotest.(check bool) "at_most 1 sat" true
    (S.solve ~assumptions:(Card.at_most card 1) s = S.Sat)

let test_at_most_bounds () =
  let _, _, card = setup 3 in
  Alcotest.(check int) "k = n - 1 needs one assumption" 1 (List.length (Card.at_most card 2));
  Alcotest.(check (list int)) "k >= n needs no assumption" [] (Card.at_most card 3);
  match Card.at_most card (-1) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative k must raise"

let prop_exact_counting =
  QCheck.Test.make ~name:"at_most k sat iff forced count <= k" ~count:200
    (QCheck.pair QCheck.small_int (QCheck.int_bound 7))
    (fun (seed, k) ->
      let rng = Random.State.make [| seed |] in
      let n = 1 + Random.State.int rng 7 in
      let s, vars, card = setup n in
      let bits = Array.init n (fun _ -> Random.State.bool rng) in
      force s vars bits;
      let true_count = Array.fold_left (fun acc b -> acc + Bool.to_int b) 0 bits in
      let sat = S.solve ~assumptions:(Card.at_most card k) s = S.Sat in
      sat = (true_count <= k))

let prop_free_inputs_counting =
  QCheck.Test.make ~name:"at_most k leaves exactly sum_{i<=k} C(n,i) models" ~count:50
    (QCheck.pair (QCheck.int_range 1 5) (QCheck.int_bound 5))
    (fun (n, k) ->
      let s, vars, card = setup n in
      (* enumerate all models of the inputs under at_most k *)
      let binom n r =
        if r > n then 0
        else begin
          let num = ref 1 and den = ref 1 in
          for i = 1 to r do
            num := !num * (n - r + i);
            den := !den * i
          done;
          !num / !den
        end
      in
      let expected = List.fold_left (fun acc i -> acc + binom n i) 0 (List.init (min k n + 1) Fun.id) in
      let count = ref 0 in
      let rec enumerate () =
        match S.solve ~assumptions:(Card.at_most card k) s with
        | S.Unsat -> ()
        | S.Sat ->
          incr count;
          if !count > 64 then ()  (* safety net; n <= 5 keeps this small *)
          else begin
            (* block this input assignment *)
            let clause =
              Array.to_list
                (Array.map
                   (fun v -> if S.value s v then L.neg_of v else L.pos v)
                   vars)
            in
            S.add_clause s clause;
            enumerate ()
          end
      in
      enumerate ();
      !count = expected)

let suite =
  [
    Alcotest.test_case "outputs track count" `Quick test_outputs_track_count;
    Alcotest.test_case "at_most zero" `Quick test_at_most_zero;
    Alcotest.test_case "bounds" `Quick test_at_most_bounds;
    QCheck_alcotest.to_alcotest prop_exact_counting;
    QCheck_alcotest.to_alcotest prop_free_inputs_counting;
  ]
