open Hextile_util
open Hextile_poly

type t = { hex : Hexagon.t; drift : int }

let make (hex : Hexagon.t) = { hex; drift = hex.fl1 - hex.fl0 }

(* The phase-0 box grid is shifted by (h+1) in time and by
   (fl1 + w0 + 1) in space relative to the phase-1 grid. *)
let u_shift t ~phase = if phase = 0 then t.hex.h + 1 else 0

(* Note: equation (3) of the paper writes the phase-0 space shift as
   [⌊δ1h⌋ + w0 + 1]; the box-offset geometry of Section 3.3.2 (opposite-
   phase neighbours at [-(w0+1+⌊δ0h⌋)] and [+(w0+1+⌊δ1h⌋)]) requires
   [⌊δ0h⌋ + w0 + 1], which coincides for the symmetric stencils the paper
   evaluates. We use the geometry-consistent value. Checked: with the
   paper's shift, every asymmetric-cone generated program in the test
   suite has points claimed by both phases or by neither, which the
   legality check rejects (test_tiling, "paper's eq. (3) shift
   rejected"). *)
let s_shift t ~phase = if phase = 0 then t.hex.fl0 + t.hex.w0 + 1 else 0

let time_tile t ~phase ~u = Intutil.fdiv (u + u_shift t ~phase) t.hex.height

let b_raw t ~phase ~u ~s0 =
  s0 + s_shift t ~phase + (time_tile t ~phase ~u * t.drift)

let local t ~phase ~u ~s0 =
  ( Intutil.fmod (u + u_shift t ~phase) t.hex.height,
    Intutil.fmod (b_raw t ~phase ~u ~s0) t.hex.width )

let space_tile t ~phase ~u ~s0 = Intutil.fdiv (b_raw t ~phase ~u ~s0) t.hex.width

let in_phase t ~phase ~u ~s0 =
  let a, b = local t ~phase ~u ~s0 in
  Hexagon.contains t.hex ~a ~b

let phase_of t ~u ~s0 =
  match (in_phase t ~phase:0 ~u ~s0, in_phase t ~phase:1 ~u ~s0) with
  | true, false -> 0
  | false, true -> 1
  | true, true ->
      invalid_arg (Fmt.str "Hex_schedule: (%d,%d) claimed by both phases" u s0)
  | false, false ->
      invalid_arg (Fmt.str "Hex_schedule: (%d,%d) claimed by neither phase" u s0)

let tile_of t ~u ~s0 =
  let phase = phase_of t ~u ~s0 in
  (time_tile t ~phase ~u, phase, space_tile t ~phase ~u ~s0)

let sched_vector t ~u ~s0 =
  let tt, phase, s_tile = tile_of t ~u ~s0 in
  let a, b = local t ~phase ~u ~s0 in
  [| tt; phase; s_tile; a; b |]

let tile_origin t ~phase ~tt ~s_tile =
  ( (tt * t.hex.height) - u_shift t ~phase,
    (s_tile * t.hex.width) - s_shift t ~phase - (tt * t.drift) )

let tile_points t ~phase ~tt ~s_tile =
  let u0, s00 = tile_origin t ~phase ~tt ~s_tile in
  List.map (fun (a, b) -> (u0 + a, s00 + b)) (Hexagon.points t.hex)

let tile_poly t ~phase ~tt ~s_tile =
  let u0, s00 = tile_origin t ~phase ~tt ~s_tile in
  let cs =
    List.map
      (fun (c : Constr.t) ->
        let ca = Constr.coeff c 0 and cb = Constr.coeff c 1 in
        { c with const = c.const - (ca * u0) - (cb * s00) })
      (Polyhedron.constraints (Hexagon.poly t.hex))
  in
  Polyhedron.make (Space.make [ "u"; "s0" ]) cs

let qmap t ~phase =
  let open Qaff in
  let u = var 0 and s0 = var 1 in
  let height = t.hex.height and width = t.hex.width in
  let ushifted = add u (const (u_shift t ~phase)) in
  let tt = fdiv ushifted height in
  let braw = add (add s0 (const (s_shift t ~phase))) (scale t.drift tt) in
  Qmap.make
    ~dom:(Space.make [ "u"; "s0" ])
    ~rng:(Space.make [ "T"; "S0"; "a"; "b" ])
    [| tt; fdiv braw width; fmod ushifted height; fmod braw width |]
