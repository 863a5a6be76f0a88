(** Reference interpreter: sequential, textual-order execution of a
    stencil program. Ground truth for every tiled/simulated schedule.

    Each statement is compiled once per run: its right-hand side becomes
    a closure over the accesses' grid data and per-row flat bases, and
    the domain runs row by row along the innermost (stride-1) dimension,
    with both row endpoints bounds-checked through {!Grid.offset}.
    Instances are still evaluated and written one at a time in row-major
    order, so every instance sees the same operands, in-place
    read-after-write included, and performs the same IEEE operations as
    a per-instance tree walk. The interpreter shares no code with the
    scheme executors or their tapes: it is the independent side of every
    differential check. *)

val run : Stencil.t -> (string -> int) -> (string, Grid.t) Hashtbl.t
(** Allocate, initialise and run the whole program; returns final grids.
    Raises [Invalid_argument] when [Analysis.bounds_check] rejects the
    program under the valuation. *)

val stencil_updates : Stencil.t -> (string -> int) -> int
(** Total number of statement instances executed — the "stencils" of the
    paper's GStencils/second metric. *)
