(** Hexagonal tile shapes (Section 3.3.2, Figure 4).

    Given the tile height [h], peak width [w0] and the dependence-cone
    slopes [δ0, δ1], the tile is the set of local box coordinates [(a, b)]
    satisfying the paper's constraints (6), (7), (8), (10), (12), (13).
    Local coordinate [a] spans the time direction (0 .. 2h+1), [b] the
    hexagonally tiled space direction (0 .. width-1).

    {b Row table.} With [a] fixed every constraint is linear in [b], so
    row [a] of the tile is an interval whose ends have a closed form
    ([δ0 = p0/q0], [δ1 = p1/q1] in lowest terms, [q0, q1 ≥ 1]):
    - [lo(a) = max(⌈(p0·a − (2h+1)·p0 + q0·fl0)/q0⌉, ⌈(h·p1 − q1 + 1 − p1·a)/q1⌉)],
      from (6) and (10);
    - [hi(a) = min(⌊((2h+1)·p1 + q1·(fl0+w0) − p1·a)/q1⌋,
      ⌊(p0·a − h·p0 + q0·(fl0+w0+fl1) + q0 − 1)/q0⌋)], from (8) and (12).

    [make] tabulates them once, in integer arithmetic, for the
    [height] rows [a ∈ [0, 2h+1]] that (7) and (13) admit. [contains],
    [row_range] and every consumer that scans rows (the simulator, the
    legality check, the tile model) read this table; {!poly} builds the
    same constraints as a polyhedron for codegen and for
    [points]/[count]. The property test ["row table = polyhedron"]
    checks that both describe one set.

    {b Non-degeneracy without an LP.} The shape is bounded by
    construction: [a] is confined to [[0, 2h+1]], and with [q0, q1 ≥ 1]
    each row has both a lower bound on [b] (from (6)) and an upper one
    (from (8)). [make] rejects a shape with no non-empty row. That is at
    least as strict as asking an LP for rational non-emptiness: an
    integer point is a rational one. *)

open Hextile_deps
open Hextile_util

type t = {
  h : int;
  w0 : int;
  cone : Cone.t;
  fl0 : int;  (** [⌊δ0·h⌋] *)
  fl1 : int;  (** [⌊δ1·h⌋] *)
  width : int;  (** horizontal tiling period [2w0 + 2 + fl0 + fl1] *)
  height : int;  (** vertical period of a phase pair, [2h + 2] *)
  row_lo : int array;
  row_hi : int array;
      (** length [height]: row [a] is [row_lo.(a) .. row_hi.(a)], empty
          iff [row_lo.(a) > row_hi.(a)] *)
}

val min_w0 : h:int -> Cone.t -> int
(** Smallest [w0] satisfying the convexity condition (1):
    [w0 ≥ max(δ0 + {δ0·h}, δ1 + {δ1·h}) - 1]. *)

val make : h:int -> w0:int -> Cone.t -> t
(** Raises [Invalid_argument] if [h < 0], [w0 < min_w0], a slope is
    negative, or no row is non-empty ("degenerate tile shape"). *)

val poly : t -> Hextile_poly.Polyhedron.t
(** The shape as a polyhedron over space [(a, b)], built on each call
    (six constraints): what codegen emits and [points]/[count]
    enumerate. *)

val contains : t -> a:int -> b:int -> bool
(** Row-table lookup: [false] for [a] outside [[0, height-1]]. *)

val points : t -> (int * int) list
(** All integer points of the tile, lexicographic in [(a, b)]. *)

val count : t -> int
val expected_count : t -> int
(** [(h+1) · width] — every full tile holds exactly this many points
    (the identical-point-count property the paper relies on to avoid
    thread divergence; for [δ0 = δ1 = 1] it equals the Section 3.7
    formula [2(1 + 2h + h² + w0(h+1))]). *)

val row_range : t -> a:int -> (int * int) option
(** Inclusive [b] range of tile row [a], [None] if the row is empty or
    [a] is outside [[0, height-1]]. Allocates; hot loops read
    [row_lo]/[row_hi] directly. *)

val render : t -> string
(** ASCII drawing of the tile in the style of Figure 4. *)

val pp : t Fmt.t
val frac_part : Rat.t -> Rat.t
