(** Quasi-affine expressions: affine forms extended with floor-division
    and modulo by positive integer constants.

    These are exactly the expressions needed to write down the hybrid
    schedule of the paper (equations (2)–(17)): sums of variables and
    constants, scaling, [⌊e/d⌋] and [e mod d]. *)

type t =
  | Const of int
  | Var of int  (** index into the ambient space *)
  | Add of t * t
  | Sub of t * t
  | Scale of int * t
  | Fdiv of t * int  (** floor division; divisor > 0 *)
  | Fmod of t * int  (** floor modulo; divisor > 0 *)

val const : int -> t
val var : int -> t
val add : t -> t -> t
val sub : t -> t -> t
val scale : int -> t -> t
val fdiv : t -> int -> t
val fmod : t -> int -> t
val ( + ) : t -> t -> t
val ( - ) : t -> t -> t

val eval : t -> int array -> int

val simplify : t -> t
(** Constant folding and elimination of zero/identity operations. *)

val to_affine_in : dim:int -> t -> (int array * int) option
(** When [e] contains no [Fdiv]/[Fmod], its coefficient vector (of length
    [dim]) and constant. [None] otherwise. *)

val max_var : t -> int
(** Largest variable index occurring, or [-1]. *)

val pp : Space.t -> t Fmt.t
