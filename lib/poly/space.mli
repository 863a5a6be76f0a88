(** Named dimension spaces.

    A space gives names to the coordinates of the integer vectors a
    polyhedron or quasi-affine map ranges over; it exists purely for
    pretty-printing. *)

type t

val make : string list -> t
(** Dimension names, outermost first. Names need not be distinct. *)

val dim : t -> int
val name : t -> int -> string
val names : t -> string list

val append : t -> string list -> t
(** Extend with extra trailing dimensions. *)

val equal : t -> t -> bool
val pp : t Fmt.t
