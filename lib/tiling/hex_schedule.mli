(** The two-phase hexagonal tile schedule on the [(u, s0)] plane
    (Section 3.3.3, Figure 5).

    Maps each point to tile coordinates [(T, phase, S0)] and local box
    coordinates [(a, b)]; phase 0 tiles of a time tile [T] execute before
    its phase 1 tiles, and tiles sharing [(T, phase)] are mutually
    independent (parallel wavefront). *)

type t = {
  hex : Hexagon.t;
  drift : int;  (** [⌊δ1·h⌋ - ⌊δ0·h⌋], the per-T horizontal box drift *)
}

val make : Hexagon.t -> t

val u_shift : t -> phase:int -> int
(** Time offset of a phase's box grid: [h + 1] for phase 0, [0] for
    phase 1. *)

val s_shift : t -> phase:int -> int
(** Space offset of a phase's box grid: [⌊δ0·h⌋ + w0 + 1] for phase 0,
    [0] for phase 1 (see the note on equation (3) in the implementation). *)

val time_tile : t -> phase:int -> u:int -> int
(** [T] per equations (2) (phase 0) and (4) (phase 1). *)

val local : t -> phase:int -> u:int -> s0:int -> int * int
(** Local box coordinates [(a, b)]. *)

val space_tile : t -> phase:int -> u:int -> s0:int -> int
(** [S0] per equations (3) and (5). *)

val phase_of : t -> u:int -> s0:int -> int
(** The unique phase whose hexagon contains the point. Raises
    [Invalid_argument] if the point is in both or neither — that would
    contradict the partition theorem, so it doubles as a self-check. *)

val tile_of : t -> u:int -> s0:int -> int * int * int
(** [(T, phase, S0)] of the owning tile. *)

val sched_vector : t -> u:int -> s0:int -> int array
(** The 5-vector [(T, phase, S0, a, b)]; lexicographic order on the first
    four components (with [b] parallel) is the execution order. *)

val tile_origin : t -> phase:int -> tt:int -> s_tile:int -> int * int
(** The [(u, s0)] of local coordinate [(0, 0)] in the given tile's box. *)

val tile_points : t -> phase:int -> tt:int -> s_tile:int -> (int * int) list
(** All [(u, s0)] points of a tile — the hexagon translated to its box. *)

val qmap : t -> phase:int -> Hextile_poly.Qmap.t
(** The schedule as a quasi-affine map [[u, s0] -> [T, S0, a, b]] — what
    the paper's Figure 6 writes out in constraint form. *)

val tile_poly : t -> phase:int -> tt:int -> s_tile:int -> Hextile_poly.Polyhedron.t
(** One tile as a polyhedron over global [(u, s0)] coordinates — the
    hexagon constraints translated to the tile's box origin. Its integer
    points equal {!tile_points}. *)
