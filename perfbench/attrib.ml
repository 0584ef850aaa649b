(* Per-layer attribution of traced op wall time.

   The benchmark attributes time from outside the library: it opens
   its own spans around the public calls it makes (named
   [bench.<layer>.<call>], plus one [bench.op] root per measured
   operation) and reads them back together with the spans the library
   already records, via [Obs.Trace.events].

   A span's self time is its duration minus the durations of its
   direct children recorded on the same domain. A child running on
   another domain (a [Parallel.Pool] task attached to the span through
   its trace context) overlaps its parent instead of being nested in
   its wall time, so it is not subtracted. Spans whose name belongs to
   no layer are reported as unattributed rather than dropped. *)

type span = {
  name : string;
  tid : int;
  id : int;
  parent : int;  (** logical parent span id, 0 for none *)
  start : float;
  dur : float;
  self : float;
}

let layers = [ "mdl"; "qvtr"; "relog"; "sat"; "echo"; "incr"; "server" ]

let prefixed p name =
  String.length name >= String.length p && String.sub name 0 (String.length p) = p

let layer_of name =
  if prefixed "bench." name then
    match String.split_on_char '.' name with
    | _ :: l :: _ :: _ when List.mem l layers -> Some l
    | _ -> None
  else if prefixed "session." name then Some "incr"
  else if prefixed "server." name then Some "server"
  else if prefixed "translate." name then Some "relog"
  else if prefixed "portfolio" name then Some "echo"
  else
    match name with
    | "typecheck" | "encode" | "check.eval" | "check" -> Some "qvtr"
    | "enforce" | "enforce_all" | "space.build" | "repair.prepare" -> Some "echo"
    | "repair.symmetry" -> Some "relog"
    | "solve" | "cnf.cardinality" -> Some "sat"
    | _ -> None

(* Closed spans of an event list (as [Obs.Trace.events] returns it:
   sorted by timestamp, stably, so each domain's events keep their
   recording order). Spans still open at the snapshot are dropped. *)
let spans (events : Obs.Trace.event list) =
  let stacks = Hashtbl.create 8 in
  let out = ref [] in
  List.iter
    (fun (e : Obs.Trace.event) ->
      let stack =
        match Hashtbl.find_opt stacks e.tid with
        | Some s -> s
        | None ->
          let s = ref [] in
          Hashtbl.replace stacks e.tid s;
          s
      in
      match e.ph with
      | `Begin -> stack := (e, ref 0.) :: !stack
      | `End -> (
        match !stack with
        | [] -> ()
        | ((b : Obs.Trace.event), children) :: rest ->
          let dur = e.ts -. b.ts in
          stack := rest;
          (match rest with (_, pc) :: _ -> pc := !pc +. dur | [] -> ());
          out :=
            {
              name = b.name;
              tid = b.tid;
              id = b.id;
              parent = b.parent;
              start = b.ts;
              dur;
              self = dur -. !children;
            }
            :: !out)
      | `Instant | `Counter -> ())
    events;
  List.rev !out

(* The spans whose nearest ancestor-or-self that [scope] classifies is
   classified [`In]; [`Pass] defers to the parent, and a span with no
   classified ancestor is out. Ancestry follows logical parents, so
   work handed to another domain stays inside its submitter's scope. *)
let select ~scope spans =
  let by_id = Hashtbl.create 1024 in
  List.iter (fun s -> Hashtbl.replace by_id s.id s) spans;
  let memo = Hashtbl.create 1024 in
  let rec inside s =
    match Hashtbl.find_opt memo s.id with
    | Some b -> b
    | None ->
      let b =
        match scope s.name with
        | `In -> true
        | `Out -> false
        | `Pass -> (
          match Hashtbl.find_opt by_id s.parent with
          | Some p when s.parent <> 0 -> inside p
          | _ -> false)
      in
      Hashtbl.replace memo s.id b;
      b
  in
  List.filter inside spans

let self_where p spans =
  List.fold_left (fun acc s -> if p s.name then acc +. s.self else acc) 0. spans

let self_of names spans = self_where (fun n -> List.mem n names) spans

(* Self time per layer, in [layers] order, and the self time of spans
   in no layer (op roots included). *)
let by_layer spans =
  let per = List.map (fun l -> (l, self_where (fun n -> layer_of n = Some l) spans)) layers in
  (per, self_where (fun n -> layer_of n = None) spans)
