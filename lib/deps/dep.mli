(** Dependence analysis on canonical stencil programs.

    Replaces the isl-based dataflow analysis of the paper's toolchain.
    For the canonical form (constant access offsets, single writer per
    array, [k] statements under one time loop with schedule
    [Li[t,s] -> [k·t+i, s]]) every memory dependence has a constant
    distance vector in the schedule space [(u, s0, ..., sn)]; this module
    enumerates the minimal representatives.

    The analysis is memory-based (flow, anti and output dependences on
    storage cells). It is a conservative superset of value-based dataflow,
    which keeps every schedule it validates legal. *)

open Hextile_ir

type kind = Flow | Anti | Output

type t = {
  src : int;  (** source statement index *)
  dst : int;  (** destination statement index *)
  kind : kind;
  array : string;
  dist : int array;
      (** distance in schedule space: [Δu; Δs0; ...; Δsn] with [Δu >= 1] *)
}

val analyze : Stencil.t -> t list
(** All minimal dependence distances of the program. *)

val analyze_uncached : Stencil.t -> t list
(** The same function as {!analyze}; kept under this name for the
    end-to-end benchmark, which times the analysis through it. *)

val distance_vectors : t list -> int array list
(** Distinct distance vectors, sorted. *)

val pp : t Fmt.t
val pp_kind : kind Fmt.t
