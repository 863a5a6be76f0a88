(** Convex integer polyhedra: conjunctions of affine constraints.

    The operations used by the tiler are Fourier–Motzkin projection,
    rational emptiness, and exact enumeration / counting of the integer
    points of bounded sets. Projection is rational (the standard FM
    over-approximation of integer projection), which is sufficient for the
    bound computations it is used for; enumeration and counting are exact
    over the integers. *)

type t

exception Unbounded of string
(** Raised by enumeration primitives when the set is infinite in the
    direction being enumerated. *)

val make : Space.t -> Constr.t list -> t
val space : t -> Space.t
val constraints : t -> Constr.t list
val dim : t -> int

val add_constraints : t -> Constr.t list -> t

val contains : t -> int array -> bool

val eliminate_keep : t -> int -> t
(** Fourier–Motzkin elimination of one variable. The dimension count is
    unchanged; the eliminated variable simply no longer occurs in any
    constraint. Uses an equality pivot when one is available.

    Results are memoized in a process-shared lock-free publish-once
    table, keyed by the canonicalized (sorted) constraint list and the
    eliminated variable, so repeated projections of the same system
    (tile-size search, bound queries) are computed once across every
    domain. A hit for a permuted-but-equal system returns the first
    computation's result — semantically the same projection, though the
    constraint order may differ from a cold computation's. Obs counters
    ([poly.fm_eliminations], [poly.fm_eq_pivots]) are replayed on hits,
    so counter totals are identical on hits and misses, on every domain,
    at every jobs value. *)

val fm_cache_stats : unit -> int * int
(** Process-wide [(hits, misses)] of the shared cache. *)

val fm_cache_clear : unit -> unit
(** Drop the shared cache's entries and reset its stats. *)

val project_prefix : t -> int -> t
(** [project_prefix p k] eliminates every variable with index [>= k]. *)

val is_empty_rational : t -> bool
(** Whether the set has no rational points. [false] does not guarantee an
    integer point exists; use [exists_point] for that. *)

val iter_points : t -> f:(int array -> unit) -> unit
(** Visit every integer point in lexicographic order. The callback
    receives a fresh array each time. Raises [Unbounded] if the set is
    infinite. *)

val fold_points : t -> init:'a -> f:('a -> int array -> 'a) -> 'a
val enumerate : t -> int array list
val count : t -> int
val exists_point : t -> bool
val sample : t -> int array option

val var_bounds : t -> int -> (Hextile_util.Rat.t option * Hextile_util.Rat.t option) option
(** [var_bounds p i] is [None] when [p] is rationally empty, otherwise
    [Some (lo, hi)] with the rational infimum/supremum of coordinate [i]
    ([None] meaning unbounded in that direction). *)

val pp : t Fmt.t
