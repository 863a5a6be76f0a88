(** The hybrid hexagonal/classical tiling (Section 3.6).

    Combines the hexagonal schedule on [(u, s0)] with classical tilings of
    [s1..sn], mapping each statement instance to

    [[T, phase, S0, S1, ..., Sn, t', s'0, s'1, ..., s'n]]

    where [u = k·t + i] is the canonical schedule time of statement [i] at
    time iteration [t]. Execution semantics (Section 4.1): [T] and [phase]
    are the host loop (one kernel per phase); [S0] indexes parallel thread
    blocks; [S1..Sn] and [t'] are sequential loops inside the kernel;
    [s'0..s'n] are parallel thread dimensions with a barrier after every
    [t'] step. *)

open Hextile_deps
open Hextile_ir

type coords = {
  phase : int;
  tt : int;  (** time tile T *)
  tiles : int array;  (** [S0; S1; ...; Sn] *)
  a : int;  (** intra-tile time [t'] *)
  intra : int array;  (** [s'0 (= b); s'1; ...; s'n] *)
}

type t = {
  prog : Stencil.t;
  k : int;  (** number of statements *)
  dims : int;  (** spatial dimensions n+1 *)
  deps : Dep.t list;
  cone : Cone.t;  (** cone of the hexagonally tiled dimension s0 *)
  h : int;
  w : int array;  (** tile widths [w0; ...; wn] *)
  hex : Hexagon.t;
  hs : Hex_schedule.t;
  classical : Classical.t array;  (** for dims 1..n (length dims-1) *)
}

val make :
  ?hex_dim:int ->
  ?deps:Dep.t list ->
  ?cone:Cone.t ->
  ?hex:Hexagon.t ->
  Stencil.t ->
  h:int ->
  w:int array ->
  t
(** Build the hybrid tiling for a program. [w] has one width per spatial
    dimension. [hex_dim] (default 0) chooses which spatial dimension is
    hexagonally tiled; currently only 0 is supported (the IR convention
    puts the stride-1 dimension last, as the paper requires).
    Raises [Invalid_argument] on bad sizes or an invalid program.

    [deps], [cone] and [hex] let callers that build many tilings of the
    same program (the tile-size search) reuse the per-program analysis
    and the per-[(h, w0)] hexagon instead of recomputing them per
    candidate. They must equal what [make] would compute itself
    ([Dep.analyze prog], [Cone.of_deps deps ~dim:0],
    [Hexagon.make ~h ~w0:w.(0) cone]); a hexagon whose [(h, w0)] does
    not match is rejected, the rest is trusted. *)

val instance_u : t -> stmt:int -> tstep:int -> int
(** Canonical schedule time [u = k·t + i]. *)

val coords : t -> u:int -> s:int array -> coords
(** Tile/intra coordinates of a schedule point. *)

val vector : t -> coords -> int array
(** The full schedule vector [[T; phase; S0..Sn; t'; s'0..s'n]]. *)

val precedes : t -> coords -> coords -> bool
(** Whether a dependence from the first to the second instance is honored
    by the parallel execution model: strictly earlier [(T, phase)]; or the
    same hexagonal tile with the consumer in a lexicographically later
    classical tile; or the same tile everywhere with strictly increasing
    [t']. Same [(T, phase)] but different [S0] is never legal (those tiles
    run concurrently). *)

type violation = {
  dep : Dep.t;
  u : int;  (** schedule time of the source instance *)
  s : int array;  (** its spatial point *)
}
(** A dependence instance that [precedes] rejects: the source is
    [(u, s)], the destination [(u + Δu, s + Δs)]; both lie in their
    statements' domains. *)

val first_violation : t -> (string -> int) -> violation option
(** Whether some dependence instance of the concrete program (statement
    instances × analyzed distance vectors, both endpoints in the domain)
    is not honored by [precedes]; [None] if the tiling is legal. Exact,
    and its cost is bounded by one schedule period per dependence, by
    two facts.

    {b Separability.} For a dependence [(Δu, Δs)] the valid sources —
    the [(tstep, s)] whose source and destination both lie in their
    domains — form a box: the time range and each [s_d] range are
    constrained independently. [precedes] splits in two parts. The hex
    part reads only [(u, s0)] of both endpoints: an earlier
    [(T, phase)] precedes, a later one or the same one with another [S0]
    violates, and otherwise both points are in one hexagon at local
    times [a] and [a + Δu] (equal [T] and phase put [u + shift] of both
    in one [height] block). The rest compares [S1..Sn] lexicographically,
    then [t']. [Classical.tile] of dim [i] is [⌊(s_i + ⌊δ1i·a⌋)/w_i⌋]: it
    reads [(a, s_i)] only. Since the box is a product, the outcome
    vectors reachable at local time [a] are exactly the product of the
    per-dim outcome sets [M_i(a) ⊆ {lt, eq, gt}] of [tile(a, s_i)]
    against [tile(a + Δu, s_i + Δs_i)] over the valid [s_i]. A
    same-hexagon instance at [a] can violate iff some [j] has
    [gt ∈ M_j(a)] and [eq ∈ M_i(a)] for every [i < j], or every [M_i(a)]
    holds [eq] and [a ≥ a + Δu]. Shifting [s_i] by [w_i] moves both
    tiles by one, so one [w_i] of valid [s_i] gives the whole [M_i(a)].
    The check computes the [M_i] once per dependence, with one witness
    [s_i] per outcome, and scans only the [(tstep, s0)] plane.

    {b Periodicity.} The shifts [(u, s0) += (0, width)] and
    [(u, s0) += (height, −drift)] keep every point's phase and local
    [(a, b)], move [S0] (respectively [T]) of both endpoints by one, and
    leave [Δu], [Δs0] alone. The first adds [width] to
    [b_raw = s0 + shift + T·drift]; the second adds one to [T] and
    [drift − drift = 0] to [b_raw]. So the verdict at [(tstep, s0)]
    equals that at any lattice translate ([height] is a multiple of [k],
    so [u += height] is [tstep += height/k]). When the valid [s0] range
    spans at least [width], its first [width] values represent every
    class of the first shift; when, in addition, the valid [tstep] range
    spans at least [height/k], its first [height/k] steps × those
    [width] values are a fundamental domain of the whole lattice inside
    the valid box. The time range alone is never clamped to [height/k]:
    the lattice is skewed, and that shift moves [s0] by [−drift],
    possibly out of the box. Its pure time period is
    [g = width / gcd(drift, width)] such steps: [g·drift] is a multiple
    of [width], so [(g·height, 0)] is in the lattice, and a [tstep]
    range of at least [g·height/k] is clamped to that whatever the [s0]
    range.

    The named instance is the first violation found, scanning
    dependences in order, then [s0], then [tstep], with [s1..sn] taken
    from the witnesses. Raises [Invalid_argument] if a point lies in
    both or neither phase (the partition theorem's self-check, as in
    {!Hex_schedule.phase_of}). *)

val check_legality : t -> (string -> int) -> (unit, string) result
(** {!first_violation} as a verdict: [Error "dep … violated at u=… s=(…)"]
    names the dependence and the source instance. *)

val point_of_coords : t -> coords -> (int * int array) option
(** Reconstruct [(u, s)] from coordinates; [None] if the local coordinates
    fall outside the hexagon (not every [(a, b)] pair is a tile point). *)

val domain_u_bound : t -> (string -> int) -> int
(** Exclusive upper bound on [u]: [k · steps]. *)

val stmt_of_u : t -> int -> int
(** [u mod k] — the statement executing at schedule time [u]. *)

val tstep_of_u : t -> int -> int
