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
    constraint. Uses an equality pivot when one is available. Counts
    [poly.fm_eliminations] and, for an equality pivot, [poly.fm_eq_pivots]
    in Obs. *)

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
