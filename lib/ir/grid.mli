(** Concrete array storage shared by the reference interpreter and the GPU
    simulator.

    A folded array ([fold = Some m]) stores [m] spatial grids; its full
    index vector is [slot :: spatial]. Initial contents are deterministic
    pseudo-random values so that independently executed schedules can be
    compared bit-for-bit. *)

type t = {
  decl : Stencil.array_decl;
  dims : int array;  (** concrete extents; leading fold slot included *)
  data : float array;
}

val alloc : Stencil.t -> (string -> int) -> (string, t) Hashtbl.t
(** Allocate and deterministically initialise every array of the program
    under the given parameter valuation. *)

val offset : t -> int array -> int
(** Row-major flat offset of a full index vector; raises
    [Invalid_argument] when out of bounds. *)

val get : t -> int array -> float
val set : t -> int array -> float -> unit

val slot : t -> int -> int
(** [slot g tau] maps a logical time index to a storage slot: [tau mod m]
    for folded arrays, [0] for in-place arrays (callers then drop the
    leading coordinate of the index). *)

val checksum : t -> float
val equal : t -> t -> bool
(** Same dimensions and bit-identical contents: a NaN equals only a NaN
    with the same bits, and [-0.0] differs from [0.0]. Stops at the first
    mismatch. *)

val find : (string, t) Hashtbl.t -> string -> t
