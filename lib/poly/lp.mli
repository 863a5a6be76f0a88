(** Exact rational linear programming over a polyhedron.

    Implemented by introducing the objective as a fresh variable and
    projecting everything else away with Fourier–Motzkin — exact over the
    rationals and perfectly adequate at the dimensions this project uses
    (≤ ~10 variables). *)

type result =
  | Empty  (** the feasible set has no rational point *)
  | Unbounded  (** the objective is unbounded in the requested direction *)
  | Opt of Hextile_util.Rat.t

val maximize : Polyhedron.t -> obj:int array -> ?const:int -> unit -> result
(** [maximize p ~obj ()] maximizes [obj · x + const] over the rational
    relaxation of [p]'s constraints (as integer-tightened by
    {!Constr.normalize}). [obj] must have length [Polyhedron.dim p]. *)

val minimize : Polyhedron.t -> obj:int array -> ?const:int -> unit -> result
