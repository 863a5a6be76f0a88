open Hextile_util
module Obs = Hextile_obs.Obs

type result = Empty | Unbounded | Opt of Rat.t

(* Append a variable z constrained by z = obj·x + const, then read off the
   rational bounds of z. *)
let with_objective p ~obj ~const =
  let n = Polyhedron.dim p in
  assert (Array.length obj = n);
  let space' = Space.append (Polyhedron.space p) [ "$obj" ] in
  let cs =
    List.map (fun c -> Constr.insert_dims c ~at:n ~count:1) (Polyhedron.constraints p)
  in
  let z_def =
    Constr.eq (Array.init (n + 1) (fun i -> if i = n then 1 else -obj.(i))) (-const)
  in
  Polyhedron.make space' (z_def :: cs)

let maximize p ~obj ?(const = 0) () =
  Obs.incr "poly.lp_solves";
  let q = with_objective p ~obj ~const in
  match Polyhedron.var_bounds q (Polyhedron.dim p) with
  | None -> Empty
  | Some (_, None) -> Unbounded
  | Some (_, Some hi) -> Opt hi

let minimize p ~obj ?(const = 0) () =
  Obs.incr "poly.lp_solves";
  let q = with_objective p ~obj ~const in
  match Polyhedron.var_bounds q (Polyhedron.dim p) with
  | None -> Empty
  | Some (None, _) -> Unbounded
  | Some (Some lo, _) -> Opt lo
