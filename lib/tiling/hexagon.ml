open Hextile_deps
open Hextile_util
open Hextile_poly
module Obs = Hextile_obs.Obs

type t = {
  h : int;
  w0 : int;
  cone : Cone.t;
  fl0 : int;
  fl1 : int;
  width : int;
  height : int;
  row_lo : int array;
  row_hi : int array;
}

let frac_part r = Rat.frac r

let min_w0 ~h (cone : Cone.t) =
  let bound d =
    Rat.add_int (Rat.add d (frac_part (Rat.mul_int d h))) (-1)
  in
  let m = Rat.max (bound cone.delta0) (bound cone.delta1) in
  max 0 (Rat.ceil m)

(* Constraints (6),(7),(8),(10),(12),(13) over local coordinates (a, b),
   cleared of denominators. δ0 = p0/q0, δ1 = p1/q1. *)
let shape_constraints ~h ~w0 ~fl0 ~fl1 (cone : Cone.t) =
  let p0 = Rat.num cone.delta0 and q0 = Rat.den cone.delta0 in
  let p1 = Rat.num cone.delta1 and q1 = Rat.den cone.delta1 in
  [
    (* (13): a >= 0 *)
    Constr.ge [| 1; 0 |] 0;
    (* (7): a <= 2h+1 *)
    Constr.ge [| -1; 0 |] ((2 * h) + 1);
    (* (6): p0·a - q0·b <= (2h+1)·p0 - q0·fl0 *)
    Constr.ge [| -p0; q0 |] (((2 * h) + 1) * p0 - (q0 * fl0));
    (* (8): p1·a + q1·b <= (2h+1)·p1 + q1·(fl0 + w0) *)
    Constr.ge [| -p1; -q1 |] ((((2 * h) + 1) * p1) + (q1 * (fl0 + w0)));
    (* (10): p1·a + q1·b >= h·p1 - (q1 - 1) *)
    Constr.ge [| p1; q1 |] (-(h * p1) + q1 - 1);
    (* (12): p0·a - q0·b >= h·p0 - q0·(fl0 + w0 + fl1) - (q0 - 1) *)
    Constr.ge [| p0; -q0 |] (-(h * p0) + (q0 * (fl0 + w0 + fl1)) + q0 - 1);
  ]

let make ~h ~w0 (cone : Cone.t) =
  if h < 0 then invalid_arg "Hexagon.make: h must be >= 0";
  if Rat.sign cone.delta0 < 0 || Rat.sign cone.delta1 < 0 then
    invalid_arg "Hexagon.make: cone slopes must be non-negative";
  let need = min_w0 ~h cone in
  if w0 < need then
    invalid_arg
      (Fmt.str "Hexagon.make: w0 = %d below convexity minimum %d (condition (1))"
         w0 need);
  let fl0 = Rat.floor (Rat.mul_int cone.delta0 h) in
  let fl1 = Rat.floor (Rat.mul_int cone.delta1 h) in
  let width = (2 * w0) + 2 + fl0 + fl1 in
  let height = (2 * h) + 2 in
  (* each row's [b] interval: the constraints solved for [b], (6) and
     (10) bounding it below, (8) and (12) above *)
  let p0 = Rat.num cone.delta0 and q0 = Rat.den cone.delta0 in
  let p1 = Rat.num cone.delta1 and q1 = Rat.den cone.delta1 in
  let row_lo =
    Array.init height (fun a ->
        max
          (Intutil.cdiv ((p0 * a) - (((2 * h) + 1) * p0) + (q0 * fl0)) q0)
          (Intutil.cdiv ((h * p1) - q1 + 1 - (p1 * a)) q1))
  and row_hi =
    Array.init height (fun a ->
        min
          (Intutil.fdiv ((((2 * h) + 1) * p1) + (q1 * (fl0 + w0)) - (p1 * a)) q1)
          (Intutil.fdiv ((p0 * a) - (h * p0) + (q0 * (fl0 + w0 + fl1)) + q0 - 1) q0))
  in
  (* bounded by construction; empty only for an inconsistent cone *)
  if not (Array.exists2 ( <= ) row_lo row_hi) then
    invalid_arg
      (Fmt.str "Hexagon.make: degenerate tile shape (h=%d, w0=%d)" h w0);
  Obs.incr "tiling.hexagons_built";
  { h; w0; cone; fl0; fl1; width; height; row_lo; row_hi }

let poly t =
  Polyhedron.make (Space.make [ "a"; "b" ])
    (shape_constraints ~h:t.h ~w0:t.w0 ~fl0:t.fl0 ~fl1:t.fl1 t.cone)

let contains t ~a ~b =
  a >= 0 && a < t.height && t.row_lo.(a) <= b && b <= t.row_hi.(a)

let points t =
  List.map (fun p -> (p.(0), p.(1))) (Polyhedron.enumerate (poly t))

let count t = Polyhedron.count (poly t)

let expected_count t = (t.h + 1) * t.width

let row_range t ~a =
  if a < 0 || a >= t.height || t.row_lo.(a) > t.row_hi.(a) then None
  else Some (t.row_lo.(a), t.row_hi.(a))

let render t =
  let buf = Buffer.create 256 in
  let bmax = t.width + t.fl0 + t.fl1 + 1 in
  for a = 0 to (2 * t.h) + 1 do
    Buffer.add_string buf (Fmt.str "a=%2d |" a);
    for b = 0 to bmax do
      Buffer.add_char buf (if contains t ~a ~b then '#' else '.')
    done;
    Buffer.add_char buf '\n'
  done;
  Buffer.contents buf

let pp ppf t =
  Fmt.pf ppf "hexagon(h=%d, w0=%d, %a, width=%d, points=%d)" t.h t.w0 Cone.pp
    t.cone t.width (count t)
