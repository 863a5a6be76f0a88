(** Global-memory address assignment for grids.

    Each array is placed at a 256-byte-aligned base in a flat byte address
    space (in registration order), so coalescing and cache behaviour can
    be computed from concrete addresses. An optional per-array translation
    offset supports the aligned-loads optimization of Section 4.2.3.

    Addresses are read through a {!handle}, the array's placement resolved
    once by name: the executors resolve their handles when a context is
    made and their row loops only add offsets to {!base}. *)

type t

type handle
(** One placed array. Re-registering the array updates its handle in
    place, so a handle resolved earlier sees the new offset; a [base]
    {e value} read before the re-registration does not. *)

val create : unit -> t

val register : t -> Hextile_ir.Grid.t -> offset_floats:int -> unit
(** Explicitly place a grid, shifting its contents by [offset_floats]
    floats relative to the aligned base (tile-translation knob). Grids not
    registered are placed automatically with offset 0 on first
    {!resolve}. Re-registering keeps the original base and only updates
    the offset, so addresses never depend on registration order or
    timing — the executors pre-register every program array at context
    creation, which keeps first use race-free under parallel block
    execution. *)

val resolve : t -> Hextile_ir.Grid.t -> handle
(** The grid's placement (placing it with offset 0 if needed). *)

val base : handle -> int
(** Byte address of element 0 under the current offset, so that
    [addr h i = base h + 4*i]. *)

val addr : handle -> int -> int
(** Byte address of float element [flat_index] of the grid. *)
