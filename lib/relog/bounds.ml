module Ident = Mdl.Ident
module TS = Rel.Tupleset

type t = {
  universe : Rel.Universe.t;
  map : (TS.t * TS.t) Ident.Map.t;
}

let make universe = { universe; map = Ident.Map.empty }
let universe b = b.universe

let check_pair r ~lower ~upper =
  if not (TS.subset lower upper) then
    invalid_arg
      (Printf.sprintf "Bounds: lower bound of %s not within upper bound"
         (Ident.name r));
  match (TS.arity lower, TS.arity upper) with
  | Some a, Some b when a <> b ->
    invalid_arg (Printf.sprintf "Bounds: arity mismatch for %s" (Ident.name r))
  | _ -> ()

let bound b r ~lower ~upper =
  if Ident.Map.mem r b.map then
    invalid_arg (Printf.sprintf "Bounds: relation %s already bound" (Ident.name r));
  check_pair r ~lower ~upper;
  { b with map = Ident.Map.add r (lower, upper) b.map }

let exact b r ts = bound b r ~lower:ts ~upper:ts
let get b r = Ident.Map.find_opt r b.map

let arity b r =
  match get b r with
  | None -> None
  | Some (lower, upper) -> (
    match TS.arity upper with Some a -> Some a | None -> TS.arity lower)

let relations b =
  Ident.Map.bindings b.map |> List.map fst |> List.sort Ident.compare_name

let loosen b r ~lower ~upper =
  check_pair r ~lower ~upper;
  { b with map = Ident.Map.add r (lower, upper) b.map }

let pp ppf b =
  Format.fprintf ppf "@[<v>";
  List.iter
    (fun r ->
      let lower, upper = Option.get (get b r) in
      Format.fprintf ppf "%a : [%a, %a]@," Ident.pp r (TS.pp b.universe) lower
        (TS.pp b.universe) upper)
    (relations b);
  Format.fprintf ppf "@]"
