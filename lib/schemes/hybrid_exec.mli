(** Execution of the hybrid hexagonal/classical schedule on the GPU
    simulator, following the paper's code generation (Section 4): a host
    loop over time tiles [T] launching one kernel per phase; thread blocks
    indexed by [S0]; sequential in-kernel loops over the classical tiles
    [S1..Sn] and the intra-tile time [t']; a barrier after every time
    step.

    The shared-memory strategy knobs reproduce the optimization ladder of
    Table 4:

    - (a) [no_shared] — all accesses to global memory;
    - (b) [shared] — copy-in / compute / copy-out phases on the
      rectangular box over-approximation;
    - (c) [+ interleave] — results stored to global memory as they are
      computed, no separate copy-out;
    - (d) [+ align] — arrays translated so tile loads are cache-line
      aligned (Section 4.2.3);
    - (e) [+ static reuse] — values reused between consecutive classical
      tiles via a static global→shared mapping (no copy, but bank-conflict
      replays — Table 5 measures 1.8 loads/request);
    - (f) [+ dynamic reuse] — reused values moved shared→shared between
      tiles (an extra copy phase, conflict-free accesses). *)

open Hextile_ir
open Hextile_gpusim

type reuse = No_reuse | Static | Dynamic

type strategy = {
  use_shared : bool;
  interleave : bool;
  align : bool;
  reuse : reuse;
}

val strategy_of_step : char -> strategy
(** ['a'] .. ['f'] — the Table 4 configurations. *)

val best_strategy : strategy
(** Configuration (f), the paper's best. *)

type config = {
  h : int;
  w : int array;
  threads : int;
  strategy : strategy;
  register_tile : bool;
      (** keep sweep-reusable values in registers across the unrolled
          point loop, eliminating their shared loads (the conclusion's
          "register tiling" direction; cf. the Figure 2 core, which keeps
          2 of jacobi's 5 values in flight) *)
}

val default_config : Stencil.t -> config
(** Paper-style sizes: for 3D the Table 4 choice (h=2, w=(7,10,32)); for
    2D h=3, w=(4,32); for 1D h=3, w0=16; threads 256 (320 for 3D). *)

val run :
  ?pool:Hextile_par.Par.pool ->
  ?engine:Common.engine ->
  ?analytic:bool ->
  ?name:string ->
  ?config:config ->
  Stencil.t ->
  (string -> int) ->
  Device.t ->
  Common.result
(** [pool] parallelizes each launch's blocks across the pool's domains
    (bit-identical results for any jobs value; see {!Sim.launch}).

    [analytic] (default [false]) enables the hierarchical simulation
    mode: each launch instance-executes exactly one representative block
    per interior tile class, derives every other interior block's
    counters by population scaling ({!Hextile_gpusim.Analytic}), models
    their DRAM traffic by compressed-trace L2 replay, and reproduces
    their grid writes with a compute-only tape replay — running
    boundary-clipped classes, and the members of any class whose
    recording was dropped, live. Counters are bit-identical to the exact
    simulator except the two DRAM fields, whose relative error is
    bounded by {!Hextile_gpusim.Analytic.dram_error_bound}; a run that
    derives no block equals the exact run bit for bit.
    [Common.result.blocks_analytic] reports how many blocks were
    derived.

    Without [analytic], blocks of a class other than its representative
    replay the representative's recorded stream ([blocks_memoized]).
    Either mode needs the [Tape] engine without the sanitizer, and
    otherwise runs every block live. A run that cannot take the mode it
    asked for falls back, records the reason as [Common.result.fallback]
    and counts it in an Obs counter:
    [sim.regime_fallback.unequal_stride] when the arrays do not share
    one s0 stride (every block then runs live), and
    [sim.regime_fallback.unaligned_stride] when an analytic run's shared
    stride is not a whole number of cache lines, the condition under
    which class translation is a cache bijection (the run memoizes
    instead). Results remain bit-identical across [--jobs] values. *)
