(** Shared infrastructure for the scheme executors: execution context,
    warp-chunked memory phases, per-(array, slot) boxes and results. *)

open Hextile_ir
open Hextile_gpusim

type engine = Ref | Tape
(** Execution engine for statement rows. [Tape] (the default) runs
    warp-batched accounting through [Sim]'s allocation-free batched
    events and evaluates each row with one fused-plan call over the
    statement's {!Hextile_gpusim.Tape} register tape; [Ref] is the
    original per-lane closure interpreter, kept as the
    differential-testing reference.
    Both produce bit-identical grids and counters; when the
    {!Hextile_gpusim.Sanitize} sanitizer is enabled, the per-lane
    reference path runs regardless (it needs per-lane thread
    identities). *)

type src = private {
  sacc : Stencil.access;
  sgrid : Grid.t;  (** the context grid the access reads or writes *)
  sflat : int -> int array -> int;
      (** tstep -> point -> flat element index; raises
          [Invalid_argument] out of bounds *)
  saddr : Addrmap.handle;  (** the grid's global placement *)
}
(** One access of a statement, resolved against the context once. *)

type compiled
(** Per-statement facts fixed for the whole run, resolved in {!make_ctx}:
    flop count, distinct reads and write as {!src}s, the compiled
    evaluator (closure "JIT" over the grids), and the statement's register
    tape with its fused run plan. *)

type ctx = {
  sim : Sim.t;
  prog : Stencil.t;
  env : string -> int;
  grids : (string, Grid.t) Hashtbl.t;
  k : int;  (** statement count *)
  dims : int;  (** spatial dimensions *)
  steps : int;
  stmts : Stencil.stmt array;
  lo : int array array;  (** per statement, inclusive domain bounds *)
  hi : int array array;
  updates : int Atomic.t;
      (** statement instances executed (atomic: blocks of one launch may
          run on different domains; the sum is order-independent) *)
  compiled : compiled array;  (** indexed by statement index *)
  engine : engine;
}

val make_ctx : ?engine:engine -> Stencil.t -> (string -> int) -> Device.t -> ctx
(** [engine] defaults to {!Tape}. Raises [Invalid_argument] on a
    program [Stencil.validate] rejects (an in-place statement outside
    the input envelope among them) or with a reachable out-of-bounds
    access. Registers every array with the simulator's {!Addrmap} at
    offset 0 and compiles every statement.
    Address handles see a later {!Addrmap.register} of an alignment
    offset; a base value read from them does not, so read bases after
    any re-registration. *)

val stmt_reads : ctx -> stmt_idx:int -> src array
(** The statement's distinct reads, in first-occurrence order. *)

val stmt_write : ctx -> stmt_idx:int -> src

val resolve_reads : ctx -> Stencil.access list -> src array
(** Resolve a subset of a statement's reads (see [loads_subset] of
    {!exec_stmt_row}). *)

type result = {
  scheme : string;
  device : Device.t;
  counters : Counters.t;
  kernel_time : float;
  transfer_time : float;
  updates : int;
  grids : (string, Grid.t) Hashtbl.t;
  launches : Sim.launch list;  (** every kernel launch, in launch order *)
  blocks : int;  (** total blocks across all launches *)
  blocks_memoized : int;
      (** blocks retired by tile-class stream replay instead of live
          execution (hybrid scheme, [Tape] engine only) *)
  blocks_analytic : int;
      (** blocks retired by analytic class scaling (hybrid scheme,
          [--analytic] mode only): counters derived from the class
          representative's delta × population, grids from a compute-only
          tape replay *)
  classes : int;
      (** tile classes enumerated by the analytic mode, summed over
          launches (0 outside analytic mode) *)
  blit_rows : int;
      (** recorded compute rows retired through multi-row coalesced
          (bulk-blit) runs by the analytic epilogue's grid
          reconstruction; deterministic at every jobs value *)
  replay_lines : int;
      (** cache lines probed by the batched DRAM line replay;
          deterministic at every jobs value *)
  epilogue_ms : float;
      (** wall time spent in analytic launch epilogues (derive + DRAM
          replay + grid blits), main domain only — nondeterministic,
          never part of compared artifacts *)
  derive_ms : float;
      (** epilogue stage breakdown: class prep + counter derivation
          (parallel); same caveats as [epilogue_ms] *)
  dram_ms : float;  (** …sequential batched DRAM line replay *)
  grids_ms : float;  (** …parallel grid blits *)
}

val finish : ctx -> scheme:string -> result

val total_time : result -> float
val gstencils_per_s : result -> float
val gflops : result -> flops_per_update:float -> float

(** {2 Regions} *)

type box = { blo : int array; bhi : int array }
(** Inclusive spatial bounds; empty if any [blo > bhi]. *)

val empty_box : dims:int -> box
val box_is_empty : box -> bool
val box_count : box -> int

val box_inter : box -> box -> box

(** {2 Shared-memory layouts} *)

module Layout : sig
  (** Per-block shared memory: one box per (array, storage slot), packed
      row-major at consecutive base offsets. Addresses are word indices
      (for the bank-conflict model). *)

  type t

  type entry = private {
    lgrid : Grid.t;
    lslot : int;
    lbox : box;
    lbase : int;  (** word address of [lbox]'s first cell *)
  }
  (** One (array, slot) box, resolved at {!add}. *)

  val create : unit -> t
  val add : t -> grid:Grid.t -> slot:int -> box -> unit
  (** No-op if the box is empty or the (grid, slot) is already present.
      Grids are compared physically: pass the context's grids. *)

  val find : t -> grid:Grid.t -> slot:int -> entry option

  val addr : entry -> int array -> int array -> int
  (** [addr e point offsets]: word address of [point + offsets], clipped
      into the entry's box. *)

  val words : t -> int

  val iter : t -> f:(entry -> unit) -> unit
  (** Visits the entries in the order of a hash table keyed by (array
      name, slot) filled in [add] order. The copy-in phases iterate in
      this order, and the cache state, hence the counters, depend on
      it. *)
end

(** {2 Block-private overlays} *)

module Overlay : sig
  (** Dense per-block value stores for the overlapped schemes: one float
      array per (array, storage slot) over a box of spatial cells, filled
      from a snapshot when added. A block computes into its overlay so
      that the values it recomputes in its halo never reach the grids
      that concurrent blocks of the launch read. *)

  type t

  val create : unit -> t

  val add : t -> grid:Grid.t -> slot:int -> box:box -> src:float array -> unit
  (** Add storage slot [slot] of [grid] over [box] clipped to the array's
      spatial extents, filled row by row from [src], a data array laid
      out like [grid.data] — the grid itself or a {!snapshot} of it.
      Nothing if that box is empty or the slot is already present. *)

  val write_back : t -> grid:Grid.t -> slot:int -> box:box -> unit
  (** Copy the overlay's values over [box] into [grid]'s slot [slot].
      Raises [Invalid_argument] if [box] is not inside the slot's overlay
      box. *)
end

(** {2 Warp-level phases} *)

val exec_stmt_row :
  ctx ->
  stmt_idx:int ->
  tstep:int ->
  point:int array ->
  xs:int array ->
  ?overlay:Overlay.t ->
  ?layout:Layout.t ->
  ?count:bool ->
  ?loads_subset:src array ->
  global_reads:bool ->
  shared_replay:int ->
  interleave_store:bool ->
  use_shared:bool ->
  unit ->
  unit
(** Execute the instances of statement [stmt_idx] at [tstep] for all [x ∈ xs]
    varying the innermost dimension of [point] (other coordinates fixed),
    chunked into warps: account one load per distinct read (global or
    shared per [global_reads]), the statement's flops, and the store
    (shared when [use_shared], plus global when [interleave_store] or no
    shared memory is used); then perform the functional update.
    [overlay] redirects every read and the write of the functional
    update to the block's {!Overlay} (overlapped tiling computes into
    block-private copies seeded from a snapshot); an access outside it
    raises [Invalid_argument]. Without it the update reads and writes
    the context grids. Accounting is the same either way. [layout] is
    the block's shared memory: shared accesses are at the word address
    of their (array, slot) entry, 0 without one (only the per-lane
    reference path materializes shared addresses; they are bank-conflict
    neutral along a row and feed the sanitizer). [count]
    (default true) controls whether the instances count toward
    [ctx.updates]; [loads_subset] ({!resolve_reads}) restricts which reads are *accounted*
    as loads (register tiling keeps the rest in registers across the
    unrolled sweep — functional execution is unaffected). *)

val load_box_rows :
  ctx -> Layout.entry -> ?skip_x:(int array -> (int * int) option) -> unit -> unit
(** Copy-in phase: global loads of the entry's (array, slot) + shared
    stores into it, over all rows of its box (x = innermost dim varies).
    [skip_x row] gives an x-interval already present in shared memory
    (reuse) to exclude. Pure accounting. *)

val shared_copy_rows : ctx -> Layout.entry -> box:box -> unit
(** Dynamic-reuse phase: shared-to-shared movement of a region of the
    entry. *)

val store_cells : ctx -> grid:Grid.t -> cells:int list -> via_shared:bool -> unit
(** Copy-out phase: store the given flat cell indices (already grouped in
    ascending order), as warps of 32; [via_shared] adds the shared-memory
    read feeding each store. *)

val flat : Grid.t -> slot:int -> int array -> int
(** Flat element offset of a spatial point in storage slot [slot] (the
    slot is ignored for in-place arrays); raises [Invalid_argument] out
    of bounds. *)

val iter_box_rows : box -> f:(int array -> unit) -> unit
(** Iterate over rows: all coordinate prefixes; the callback receives the
    full point with x set to [blo] of the innermost dim. *)

type crows
(** Pre-resolved compute rows of one tile class: the hybrid executor
    compiles a representative's recorded [Compute] events once —
    coalescing adjacent same-statement same-tstep rows whose write and
    source bases continue each other exactly into long runs — and
    replays every class member as bulk fused-plan ([Tape.exec_plan])
    calls at a word offset (one scratch fetch and one updates-atomic per
    block). Rows with gapped or non-ascending store patterns (e.g.
    clipped boundary rows) stay single-row runs: the exact per-row
    fallback. *)

val compile_rows : ctx -> (int * int * int * int array * int) list -> crows
(** [(stmt_idx, tstep, wflat, src_flats, n)] per row. [tstep] is the
    row's time-step index (rows of different tsteps may be
    data-dependent and are never coalesced; rows are re-sorted into the
    dependency-safe ascending (tstep, statement, write) order
    internally, so any input order yields the same runs). Takes
    ownership of the [src_flats] arrays. *)

val exec_rows : ctx -> crows -> off:int -> unit
(** Run every row with [off] added to all flat word bases (write and
    sources), counting the instances toward [ctx.updates] and
    [sim.tape_instrs], and the rows retired through multi-row coalesced
    runs toward [sim.blit_rows] / [sim.analytic_blit_rows]. The caller
    guarantees the translated rows are in bounds — true for class
    members, whose exact execution touches the same cells. Counter
    effects are bit-identical to running each recorded row live. *)

val points : crows -> int
(** Statement instances per replay: the lanes of every compiled row. *)

val rows_stats : crows -> int * int * int
(** [(runs, recorded_rows, blit_rows)] of a compiled class — run-shape
    introspection for tests. *)

val snapshot : ctx -> (string, float array) Hashtbl.t
