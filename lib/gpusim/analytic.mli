(** Counter scaling and the L2/DRAM model for the analytic (hierarchical)
    simulation mode.

    The hybrid executor partitions each launch's blocks into tile
    classes (equal [Hybrid_exec.class_key] ⇒ identical event streams up
    to one word offset [Δs00·stride0], shared by every array). The
    analytic mode instance-executes one representative per interior class plus
    every boundary-clipped block, and derives the remaining blocks:

    - {b Per-block counters} scale bit-exactly by class population
      ({!scale_into}) whenever every array shares one s0 stride
      and the translation is a whole number of cache lines
      ([4·stride0 mod line_bytes = 0]): coalescing runs shift by whole
      lines (line counts invariant), the per-block L1's set mapping is
      rotated bijectively (hit/miss sequence invariant), and shared
      memory events carry base-independent conflict counts. The executor
      checks this condition and falls back to exact memoized replay
      ({!Sim.replay_stream}) when it fails, counting
      [sim.regime_fallback.unaligned_stride].
    - {b DRAM traffic} depends on the shared cross-block L2 state, which
      a skipped block does not evolve. It is modelled by replaying each
      scaled block's {e compressed trace} — the set of distinct lines it
      loads/stores, sorted into line runs ({!line_runs}) and translated
      by the block's line delta — through the real shared L2 ({!replay_line_runs}). This keeps compulsory
      misses, inter-block halo reuse and eviction pressure, and drops only the repeated accesses
      that the block's own cache residency would absorb; the residual
      error against the exact simulator is bounded by
      {!dram_error_bound} (asserted, not just logged, by
      [test/test_analytic.ml] and the analytic bench). *)

val dram_error_bound : float
(** Documented relative error bound on [dram_read_transactions] and
    [dram_write_transactions] in analytic mode, measured as
    [|analytic - exact| / max 1 exact] over a whole run. All other
    counters are bit-exact. *)

val scale_into : Counters.t -> delta:Counters.t -> times:int -> unit
(** Add [times × delta] to every per-block-exact counter — all fields
    except [dram_read_transactions], [dram_write_transactions] (modelled
    separately) and [kernels] (owned by {!Sim.launch}). *)

val line_runs : Tileclass.stream -> line_bytes:int -> int array
(** The scaled blocks' compressed L2 trace: the distinct global lines a
    recorded stream loads and stores, as codes
    [(line lsl 1) lor write] (one per line per direction), sorted reads
    then writes, each by line, and coalesced into maximal consecutive
    runs, flattened as [(code, n)] pairs. The runs depend only on the
    set of codes, not on the order the stream touched them. Computed
    once per class; replaying in run order perturbs only the
    order-of-touch of distinct lines within one block's trace, which
    the {!dram_error_bound} contract already covers. *)

val replay_line_runs : Sim.t -> int array -> dline:int -> unit
(** Replay a {!line_runs} trace shifted by [dline] lines through
    the shared L2 with one {!L2.access_run} probe per run — per-line
    cache and DRAM-counter semantics identical to the exact simulator's
    L2 trace replay, in run order. Counts the probed lines toward
    [sim.analytic_replay_lines]. Main-domain only (launch epilogue). *)
