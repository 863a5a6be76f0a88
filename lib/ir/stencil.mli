(** Canonical stencil IR (the paper's Section 3.2 preprocessing target).

    A program is an outer time loop [t = 0 .. steps-1] containing [k >= 1]
    statements, each a perfect nest over [n+1] spatial dimensions. All
    array accesses have constant offsets relative to [(t, s0, ..., sn)].
    The canonical schedule is [Li[t, s] -> [k·t + i, s]]; its first output
    dimension carries every dependence, the spatial dimensions are fully
    parallel. *)

type access = {
  array : string;
  time_off : int;
      (** [c] in [A⟨t+c⟩[...]]; must be 0 for non-folded arrays. *)
  offsets : int array;  (** spatial offsets, one per spatial dimension *)
}

type binop = Add | Sub | Mul | Div

type fexpr =
  | Read of access
  | Fconst of float
  | Bin of binop * fexpr * fexpr
  | Neg of fexpr

type array_decl = {
  aname : string;
  extents : Affp.t array;  (** spatial extents *)
  fold : int option;
      (** [Some m]: time-multiplexed storage of [m] spatial grids, element
          [(τ mod m, x)] — the [A[(t+1)%2]] idiom. [None]: updated in
          place. *)
}

type stmt = {
  sname : string;
  lo : Affp.t array;  (** inclusive lower bounds per spatial dim *)
  hi : Affp.t array;  (** inclusive upper bounds per spatial dim *)
  write : access;
  rhs : fexpr;
}

type t = {
  name : string;
  params : string list;
  steps : Affp.t;  (** trip count of the time loop *)
  arrays : array_decl list;
  stmts : stmt list;
}

val reads : stmt -> access list
(** All read accesses in [rhs], in left-to-right order (with duplicates —
    each occurrence is one textual load before CSE). *)

val distinct_reads : stmt -> access list
(** Distinct cells read — the "Loads" column of Table 3 (first occurrence
    order). *)

val flops : stmt -> int
(** Arithmetic operation count of [rhs] after structural common
    subexpression elimination (each distinct subterm counts once; [Neg]
    counts as one op) — the "FLOPs/Stencil" column of Table 3. *)

val array_decl : t -> string -> array_decl
(** Raises [Not_found]. *)

val spatial_dims : t -> int
(** Number of spatial dimensions [n+1]; statements must agree. *)

val validate : t -> (unit, string) result
(** Structural checks: at least one statement, consistent dimensionality,
    accesses refer to declared arrays with matching arity, non-folded
    arrays accessed with [time_off = 0], each array written by at most one
    statement, statement names distinct — and the input envelope: a
    statement reads its own array's {e write slot} (the storage slot it
    writes, i.e. any cell of a non-folded array) only at the written cell.
    Every executor runs the instances of one statement at one time step
    in parallel, so a read of another instance's cell in that slot (an
    in-place Gauss-Seidel sweep) would race; the frontend, dependence
    analysis, tiling and every scheme reject such programs through this
    check. Reads of other slots, of other arrays, and of other
    statements' arrays are unrestricted. *)

val pp : t Fmt.t
val pp_access : access Fmt.t
val pp_fexpr : fexpr Fmt.t
