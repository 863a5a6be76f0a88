(** Closed-form (analytic) model of one generic hybrid tile.

    The fast layer of the staged tile-size search: computes the exact
    iteration count and shared-memory footprint of a candidate [(h, w)]
    and sound lower/upper bounds on its global-load count directly from
    the hexagon row ranges, the classical tile widths and the static
    access offsets — without enumerating a single statement instance.
    All quantities refer to the same generic tile the exact layer
    enumerates ([tt = 7], [phase = 1], all spatial tiles [= 7]), so the
    exact counts agree bit for bit with [Tile_size.tile_stats]. *)

open Hextile_ir
open Hextile_deps
open Hextile_util

(** {1 Integer boxes} *)

type box = { lo : int array; hi : int array }
(** An axis-aligned box of integer points, both bounds inclusive per
    dimension. Empty when any [hi.(d) < lo.(d)]. *)

val volume : box -> int
val inter : box -> box -> box
val hull : box -> box -> box

(** {1 Per-program context} *)

type ainfo = {
  acc : Stencil.access;
  arr : int;  (** index into [array_names] *)
  fold : int;  (** storage slots of the array; 1 when not folded *)
  id : int;  (** unique access-occurrence id *)
}

type sinfo = { reads : ainfo array; write : ainfo }

type ctx = {
  prog : Stencil.t;
  k : int;
  dims : int;
  deps : Dep.t list;
  cone : Cone.t;
  delta1 : Rat.t array;  (** inner-dimension slopes, length [dims - 1] *)
  stmts : sinfo array;
  narrays : int;
  array_names : string array;
}

val ctx : ?deps:Dep.t list -> Stencil.t -> ctx
(** Resolve the program once for the whole search: dependences, cone,
    inner-dimension slopes and per-statement access records. [deps], if
    given, must equal [Dep.analyze prog]. Raises [Invalid_argument] on
    an invalid program. *)

(** {1 Per-[(h, w0)] slice} *)

type row = {
  a : int;
  blo : int;
  bhi : int;  (** inclusive [b] range of the hexagon row *)
  sidx : int;  (** statement executing at this row *)
  tstep : int;  (** logical time step of the row *)
  fl : int array;  (** [⌊δ1_d · a⌋] per inner dimension *)
}

type hslice = {
  cx : ctx;
  h : int;
  w0 : int;
  hex : Hexagon.t;
  u0 : int;
  s00 : int;  (** origin of the generic tile *)
  rows : row array;  (** non-empty rows, ascending [a] *)
}

val hslice : ctx -> h:int -> w0:int -> hslice
(** Build the hexagon for [(h, w0)] and tabulate its rows. Everything
    here is independent of the inner widths, so one slice serves a whole
    [w1 × ... × wn] product of candidates. Raises like [Hexagon.make]. *)

val hslice_of_hex : ctx -> Hexagon.t -> hslice
(** Same, for an already-built hexagon. *)

val access_box : hslice -> w:int array -> row -> ainfo -> box
(** The absolute spatial box the access touches over one hexagon row of
    the generic tile. Only [w.(1..)] are read. *)

val slot_of : row -> ainfo -> int
(** Storage slot of the access at this row ([fmod (tstep + time_off) fold]). *)

(** {1 Candidate analysis} *)

type footprint = {
  floats : int;
      (** exactly [Tile_size.tile_stats(...).footprint_box]: per touched
          array, bounding-box volume × number of live slots, summed *)
  boxes : box option array;  (** per-array bounding box, [None] if untouched *)
  slots : int array array;  (** per-array distinct slots, ascending *)
}

val footprint : hslice -> w:int array -> footprint
(** Exact shared-memory footprint of candidate [(h, w)]. Strictly
    increasing in every inner width [w.(d)], [d >= 1] (each per-array
    extent grows by the access-offset spread plus [w.(d)]), which is
    what makes whole-slice infeasibility pruning sound. *)

type estimate = {
  iterations : int;  (** exact: [Tile_size.tile_stats(...).iterations] *)
  fp : footprint;
  loads_lb : int;  (** sound lower bound on [tile_stats(...).loads] *)
  loads_ub : int;  (** sound upper bound on [tile_stats(...).loads] *)
}

val estimate : hslice -> w:int array -> estimate
(** Full analytic screen for one candidate: exact iterations and
    footprint, and load bounds obtained per (array, slot) by box
    inclusion–exclusion over consecutive row boxes (lower bound
    additionally subtracts the hull of already-flushed writes; upper
    bound caps the per-access union sum by the read hull volume). *)

(** {1 Classical tile windows}

    A hybrid launch's blocks fall into tile classes distinguished only
    by how the hexagon's per-row [s0] interval is clipped against the
    statement domain ([Hybrid_exec.class_key]). [Hybrid_exec.check_class]
    counts a clipped row's classical tiles and their covered cells with
    the closed forms below; the test suite checks each against a
    reference that enumerates the tiles. *)

val tiles_nonempty : Classical.t -> u:int -> lo:int -> hi:int -> int
(** Number of classical tiles whose (skewed) window at normalized time
    [u] meets [si ∈ [lo, hi]]: [tile(hi) - tile(lo) + 1] by
    monotonicity of [Classical.tile]. *)

val coverage : lo:int -> hi:int -> int
(** Total clipped window length summed over the tiles of
    [Classical.tile_range]: the windows of consecutive tiles partition
    the skewed axis, so the sum telescopes to [max 0 (hi - lo + 1)]
    independent of [u]. *)

