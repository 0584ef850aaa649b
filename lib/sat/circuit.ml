type t = {
  node_id : int;
  node_view : view;
}

and view =
  | True
  | False
  | Input of Lit.t
  | Not of t
  | And of t array
  | Or of t array

(* Hash-consing table of And (resp. Or) nodes, keyed by the sorted,
   deduplicated operand array the node holds: equality and hash go
   over every child id, and a new node shares its key as its
   children. *)
module Operands = Hashtbl.Make (struct
  type nonrec t = t array

  let equal a b =
    let n = Array.length a in
    n = Array.length b
    &&
    let rec go i = i = n || (a.(i).node_id = b.(i).node_id && go (i + 1)) in
    go 0

  let hash a =
    let h = ref (Array.length a) in
    for i = 0 to Array.length a - 1 do
      h := (!h * 65599) + a.(i).node_id
    done;
    (!h lxor (!h lsr 29)) land max_int
end)

(* Nodes are numbered in creation order. Ids order gate children and
   Tseitin numbers gates in traversal order, so the CNF depends on
   which nodes get created and when: every fast path below must create
   exactly what the general normalisation would (test/cnf_pin pins the
   result). Constants, inputs and negations need no hashing: they live
   in fields and in dense arrays indexed by literal and by operand id,
   created on first request. *)
type builder = {
  ands : t Operands.t;
  ors : t Operands.t;
  mutable nots : t array;  (* operand id -> its Not node *)
  mutable inputs : t array;  (* literal -> its Input node *)
  mutable tru_node : t;
  mutable fls_node : t;
  mutable next : int;
  mutable buf : t array;  (* operand scratch of [gate] *)
}

(* Placeholder for "not created yet" slots. *)
let absent = { node_id = -1; node_view = True }

let builder () =
  {
    ands = Operands.create 1024;
    ors = Operands.create 1024;
    nots = Array.make 1024 absent;
    inputs = Array.make 256 absent;
    tru_node = absent;
    fls_node = absent;
    next = 0;
    buf = Array.make 64 absent;
  }

let view n = n.node_view
let id n = n.node_id

let fresh b view =
  let n = { node_id = b.next; node_view = view } in
  b.next <- b.next + 1;
  n

let grow arr i =
  let len = Array.length arr in
  if i < len then arr
  else begin
    let arr' = Array.make (max (i + 1) (2 * len)) absent in
    Array.blit arr 0 arr' 0 len;
    arr'
  end

let tru b =
  if b.tru_node == absent then b.tru_node <- fresh b True;
  b.tru_node

let fls b =
  if b.fls_node == absent then b.fls_node <- fresh b False;
  b.fls_node

let input b l =
  b.inputs <- grow b.inputs l;
  let n = b.inputs.(l) in
  if n != absent then n
  else begin
    let n = fresh b (Input l) in
    b.inputs.(l) <- n;
    n
  end

let is_true n = match n.node_view with True -> true | _ -> false
let is_false n = match n.node_view with False -> true | _ -> false

let not_ b n =
  match n.node_view with
  | True -> fls b
  | False -> tru b
  | Not m -> m
  | Input l -> input b (Lit.neg l)
  | And _ | Or _ ->
    b.nots <- grow b.nots n.node_id;
    let m = b.nots.(n.node_id) in
    if m != absent then m
    else begin
      let m = fresh b (Not n) in
      b.nots.(n.node_id) <- m;
      m
    end

let intern b tbl ops mk =
  match Operands.find_opt tbl ops with
  | Some n -> n
  | None ->
    let n = fresh b (mk ops) in
    Operands.add tbl ops n;
    n

let push b len n =
  b.buf <- grow b.buf len;
  b.buf.(len) <- n;
  len + 1

(* Gather the operands of an And ([is_and]) or Or into [b.buf]:
   nested gates of the same kind are flattened (their children are
   already normalised), the unit is dropped, and the zero absorbs
   everything ([-1]). *)
let rec collect b is_and len = function
  | [] -> len
  | n :: rest -> (
    match n.node_view with
    | True -> if is_and then collect b is_and len rest else -1
    | False -> if is_and then -1 else collect b is_and len rest
    | And cs when is_and -> collect b is_and (Array.fold_left (push b) len cs) rest
    | Or cs when not is_and -> collect b is_and (Array.fold_left (push b) len cs) rest
    | Input _ | Not _ | And _ | Or _ -> collect b is_and (push b len n) rest)

(* Sort [b.buf.(0 .. len-1)] by id and drop duplicates; returns the
   new length. *)
let sort_dedup b len =
  let a = b.buf in
  if len > 16 then begin
    let s = Array.sub a 0 len in
    Array.sort (fun x y -> Int.compare x.node_id y.node_id) s;
    Array.blit s 0 a 0 len
  end
  else
    for i = 1 to len - 1 do
      let x = a.(i) in
      let j = ref (i - 1) in
      while !j >= 0 && a.(!j).node_id > x.node_id do
        a.(!j + 1) <- a.(!j);
        decr j
      done;
      a.(!j + 1) <- x
    done;
  let k = ref 0 in
  for i = 0 to len - 1 do
    if !k = 0 || a.(!k - 1) != a.(i) then begin
      a.(!k) <- a.(i);
      incr k
    end
  done;
  !k

let mem_sorted b k n =
  let a = b.buf in
  let rec go lo hi =
    lo < hi
    &&
    let mid = (lo + hi) / 2 in
    let c = a.(mid).node_id in
    c = n.node_id || if c < n.node_id then go (mid + 1) hi else go lo mid
  in
  n != absent && go 0 k

(* A complementary pair (x and Not x, or two opposite inputs) among
   the [k] sorted operands forces the zero. *)
let complementary b k =
  let rec go i =
    i < k
    && ((match b.buf.(i).node_view with
        | Not m -> mem_sorted b k m
        | Input l ->
          let nl = Lit.neg l in
          nl < Array.length b.inputs && mem_sorted b k b.inputs.(nl)
        | True | False | And _ | Or _ -> false)
       || go (i + 1))
  in
  go 0

let zero b ~is_and = if is_and then fls b else tru b

let gate b ~is_and operands =
  let len = collect b is_and 0 operands in
  if len < 0 then zero b ~is_and
  else begin
    let k = sort_dedup b len in
    if complementary b k then zero b ~is_and
    else
      match k with
      | 0 -> zero b ~is_and:(not is_and)
      | 1 -> b.buf.(0)
      | _ ->
        let ops = Array.sub b.buf 0 k in
        if is_and then intern b b.ands ops (fun cs -> And cs)
        else intern b b.ors ops (fun cs -> Or cs)
  end

(* Two operands that are neither constants nor gates of the kind
   being built: what [gate] computes, without the scratch buffer. *)
let pair b ~is_and x y =
  let complement =
    match (x.node_view, y.node_view) with
    | Not m, _ -> m == y
    | _, Not m -> m == x
    | Input l, Input l' -> l' = Lit.neg l
    | _ -> false
  in
  if x == y then x
  else if complement then zero b ~is_and
  else begin
    let ops = if x.node_id < y.node_id then [| x; y |] else [| y; x |] in
    if is_and then intern b b.ands ops (fun cs -> And cs)
    else intern b b.ors ops (fun cs -> Or cs)
  end

let and_ b operands =
  match operands with
  | [ x; y ] -> (
    match (x.node_view, y.node_view) with
    | (Input _ | Not _ | Or _), (Input _ | Not _ | Or _) -> pair b ~is_and:true x y
    | _ -> gate b ~is_and:true operands)
  | _ -> gate b ~is_and:true operands

let or_ b operands =
  match operands with
  | [ x; y ] -> (
    match (x.node_view, y.node_view) with
    | (Input _ | Not _ | And _), (Input _ | Not _ | And _) -> pair b ~is_and:false x y
    | _ -> gate b ~is_and:false operands)
  | _ -> gate b ~is_and:false operands

let implies b x y = or_ b [ not_ b x; y ]
let iff b x y = and_ b [ implies b x y; implies b y x ]
let xor b x y = not_ b (iff b x y)
let ite b c t e = and_ b [ implies b c t; implies b (not_ b c) e ]

let size n =
  let seen = Hashtbl.create 64 in
  let rec go n =
    if not (Hashtbl.mem seen n.node_id) then begin
      Hashtbl.add seen n.node_id ();
      match n.node_view with
      | True | False | Input _ -> ()
      | Not m -> go m
      | And cs | Or cs -> Array.iter go cs
    end
  in
  go n;
  Hashtbl.length seen

let rec pp ppf n =
  match n.node_view with
  | True -> Format.pp_print_string ppf "true"
  | False -> Format.pp_print_string ppf "false"
  | Input l -> Lit.pp ppf l
  | Not m -> Format.fprintf ppf "!(%a)" pp m
  | And cs ->
    Format.fprintf ppf "(%a)"
      (Format.pp_print_array ~pp_sep:(fun f () -> Format.pp_print_string f " & ") pp)
      cs
  | Or cs ->
    Format.fprintf ppf "(%a)"
      (Format.pp_print_array ~pp_sep:(fun f () -> Format.pp_print_string f " | ") pp)
      cs
