(** The CUDA-execution-model simulator.

    Scheme executors describe their kernels as OCaml code that walks
    blocks and warps, reporting every memory instruction with the concrete
    per-lane addresses; the simulator derives coalescing (128-byte
    transactions), L2/DRAM traffic, shared-memory bank conflicts and an
    analytic execution time per kernel launch (roofline over compute,
    DRAM, L2 and shared-memory throughput, plus launch and barrier
    overheads).

    Blocks of one launch are executed in a scrambled order, so schedules
    that wrongly assume an ordering between concurrent blocks tend to
    fail functional verification.

    Every block runs against its domain's private shadow (its own
    counter accumulator and L1 replica) and records its L2 access trace;
    the traces are replayed through the shared L2 in the scrambled block
    order. Without a [Hextile_par.Par] pool the blocks run as one chunk
    on the calling domain and each trace is replayed as its block
    retires; with one, {!launch} distributes contiguous chunks of the
    scrambled order across domains and replays after the join. Either
    way every counter, including L2/DRAM traffic and sanitizer findings,
    is bit-identical for any jobs value. *)

type fallback =
  | Unequal_stride  (** the arrays do not share one s0 stride *)
  | Unaligned_stride  (** the shared stride is not a whole number of lines *)
(** Why a run left the launch regime it asked for (see
    [Hextile_schemes.Hybrid_exec.run]). *)

val fallback_name : fallback -> string
(** ["unequal_stride"] or ["unaligned_stride"]. *)

type t = {
  dev : Device.t;
  total : Counters.t;
  l2 : L2.t;
  addr : Addrmap.t;
  mutable launches : launch list;
  blocks_memoized : int Atomic.t;
      (** blocks retired by {!replay_stream} instead of live execution *)
  blocks_analytic : int Atomic.t;
      (** blocks retired by analytic class scaling (counters derived from
          a representative's delta × class population, functional state
          from a compute-only tape replay) — never instanced *)
  tile_classes : int Atomic.t;
      (** tile classes enumerated by the analytic mode, summed over
          launches *)
  analytic_blit_rows : int Atomic.t;
      (** recorded compute rows retired through coalesced bulk runs by
          the analytic epilogue's grid reconstruction (the [blit_rows]
          summary key) — deterministic at every jobs value *)
  analytic_replay_lines : int Atomic.t;
      (** L2 line probes issued by the batched compressed-trace DRAM
          replay (the [replay_lines] summary key) *)
  mutable analytic_epilogue_s : float;
      (** analytic epilogue wall time, summed over launches (main
          domain only; nondeterministic — never part of compared
          artifacts) *)
  mutable analytic_derive_s : float;  (** …its counter-derivation stage *)
  mutable analytic_dram_s : float;  (** …its sequential L2 replay stage *)
  mutable analytic_grids_s : float;  (** …its grid reconstruction stage *)
  mutable fallback : fallback option;
      (** the regime fallback the hybrid executor took, if any; also
          counted as the Obs counter [sim.regime_fallback.<name>] *)
  recordings_dropped : int Atomic.t;
      (** recordings a per-lane event invalidated; also counted as the
          Obs counter [sim.recordings_invalidated.per_lane] *)
}

and launch = {
  lname : string;
  blocks : int;
  threads : int;
  shared_bytes : int;
  delta : Counters.t;
  time_s : float;
  bottleneck : string;
      (** the roofline resource that dominated this launch: "compute",
          "dram", "l2", "shared" or "lsu" *)
}

val create : Device.t -> t

val launch :
  ?pool:Hextile_par.Par.pool ->
  ?post:(unit -> unit) ->
  ?wave_of:(int -> int) ->
  t ->
  name:string ->
  blocks:int ->
  threads:int ->
  shared_bytes:int ->
  f:(int -> unit) ->
  unit
(** Run a kernel: [f block_id] once per block (scrambled order). [post],
    if given, runs on the calling domain after every block has retired
    and its counters and L2 trace have been absorbed, but before the
    launch's counter delta and roofline time are captured. It issues no
    warp events (they raise [Invalid_argument] outside a block); it
    writes [t.total] and the shared L2 directly, and those writes are
    attributed to this launch. The analytic tile-class mode uses it to
    add derived counters so they feed the same launch-time model as
    instanced ones. Raises [Invalid_argument] if [threads] or
    [shared_bytes] exceed the device limits. When {!Sanitize.enabled},
    the launch/block structure is reported to the sanitizer, which
    checks shared-memory races between barriers and barrier-count
    uniformity across blocks.

    [pool] runs the blocks in [Par.jobs pool] chunks across the pool's
    domains (blocks of one launch are independent by the CUDA model; [f]
    must not mutate shared simulator state beyond the warp-event calls
    and per-cell grid writes). With a 1-job pool, from inside another
    parallel region, or without [pool], one chunk runs inline on the
    calling domain. All counters and findings are bit-identical at every
    jobs value.

    [wave_of], multi-chunk runs only, assigns each block id to a wave
    (small dense non-negative ints); waves execute in ascending order
    with a full pool join between them, while counter absorption and L2
    trace replay still happen once, in canonical scrambled-position
    order, after the last wave — so waves change scheduling but never
    results. The hybrid executor runs every launch in two waves: each
    tile class's representative runs in wave 0 and publishes its class
    record (recorded stream, counter delta, compiled rows), and every
    other block runs in wave 1 by its class's strategy — replaying,
    skipping for the epilogue to derive, or executing live — without
    spinning or racing on the shared records. A one-chunk run ignores
    [wave_of]: it runs in canonical order, which already visits each
    class's representative first (see {!block_order}).

    When {!Hextile_obs.Timeline} recording is enabled, every launch
    emits a ["sim.launch"] slice with one ["sim.block"] slice per block
    and a ["sim.encode"] instant in each (arg = L2-trace events
    encoded). A multi-chunk run adds ["sim.absorb"] and ["sim.l2_replay"]
    slices around the sequential join phases — the wall-clock cost of
    the determinism contract. The encode path reuses one persistent
    trace buffer and L1 replica per domain (rewound per launch), so
    steady state adds no per-event or per-block allocation. *)

val block_order : blocks:int -> int array
(** The deterministic scrambled order in which {!launch} visits block
    ids — position [k] holds the id of the [k]-th block executed (on
    every jobs value; chunks split this same order contiguously).
    Exposed so schedulers can agree with the simulator on which block of
    a tile class runs first (the class representative). *)

(** {2 Warp-level events} — call from inside [f]; outside a block of a
    launch of this simulator they raise [Invalid_argument]. Address
    arrays have one entry per lane ([None] = inactive lane) and at most
    [warp_size] entries. Global addresses are bytes (from {!Addrmap.addr}); shared
    addresses are word indices into the block's shared memory. *)

val global_load_warp : t -> int option array -> unit
val global_store_warp : ?serial:bool -> t -> int option array -> unit
(** [serial] marks stores of a dedicated copy-out phase; their time is
    added on top of the roofline rather than overlapped. *)

val shared_load_warp : ?replay:int -> ?tids:int array -> t -> int option array -> unit
(** [replay] multiplies the bank-conflict transaction count (models
    layout-induced replays that the address trace alone cannot see).
    [tids] gives each lane's thread identity to the {!Sanitize} race
    checker (parallel to the address array); ignored unless the sanitizer
    is enabled. *)

val shared_store_warp : ?replay:int -> ?tids:int array -> t -> int option array -> unit
val flops_warp : t -> active:int -> per_lane:int -> unit
val sync : t -> unit

(** {2 Warp-batched events}

    Allocation-free forms of the warp events for the tape engine: a
    contiguous word run is described by its first byte address and lane
    count, a gapped warp by a nondecreasing array of per-lane byte (or
    shared-word) addresses. Counters and the cache access sequence are
    bit-identical to the per-lane forms on the materialized addresses
    (distinct lines are visited highest-first, matching the per-lane
    path's discovery order). These forms carry no thread identities and
    do not feed {!Sanitize}; callers must use the per-lane forms when
    the sanitizer is enabled. *)

val global_load_run : t -> addr:int -> n:int -> unit
val global_store_run : ?serial:bool -> t -> addr:int -> n:int -> unit
val global_load_lanes : t -> int array -> unit
val global_store_lanes : ?serial:bool -> t -> int array -> unit

val shared_load_run : ?replay:int -> t -> n:int -> unit
(** [n] consecutive shared words: the conflict count depends only on the
    lane count ([ceil n/banks]), never on the base word. *)

val shared_store_run : ?replay:int -> t -> n:int -> unit

val shared_load_lanes : ?replay:int -> t -> int array -> unit
(** Strictly ascending shared-word addresses (distinct words). *)

val shared_store_lanes : ?replay:int -> t -> int array -> unit

(** {2 Tile-class address-stream memoization}

    The hybrid executor records one representative block per tile class
    with {!record_begin}/{!record_end} and replays the stream for the
    other blocks of the class with {!replay_stream}, moving every global
    address by one word offset. The stream holds the batched global
    events above and the {!record_compute} rows; the batched shared
    events, {!flops_warp} and {!sync} are not recorded, because their
    counts do not change under translation. A per-lane warp event (the
    reference engine, the sanitizer, a copy-out warp that is not
    strictly ascending) invalidates the recording, and the class's other
    blocks then run live — same counters, nothing memoized. Each
    invalidated recording is counted once, in [recordings_dropped] and
    in the Obs counter [sim.recordings_invalidated.per_lane]. Recording
    state is domain-local, mirroring the block shadows. *)

val record_begin : t -> unit
(** Start recording the current domain's events. *)

val record_end : t -> Tileclass.stream option
(** Stop recording; [None] if the recording was invalidated. *)

val recording_active : t -> bool

val record_compute :
  t -> stmt:int -> tstep:int -> wflat:int -> srcs:int array -> n:int -> unit
(** Record the functional execution of one statement row (write and
    per-source flat word indices of its first lane); takes ownership of
    [srcs]. *)

val replay_stream : t -> Tileclass.stream -> delta:Counters.t -> off:int -> unit
(** Replay a recorded stream's global memory events with [4·off] bytes
    added to every address ([off] is the member's word offset; line
    ranges and cache behaviour are recomputed, so the replay is exact),
    then add the translation-invariant counters of the representative's
    [delta] once ({!Counters.add_invariant}). [Compute] events are
    skipped: the caller reproduces the block's grid writes itself (the
    hybrid executor runs the class's compiled rows at the same word
    offset). Bumps [blocks_memoized] and the [sim.blocks_memoized] /
    [sim.addr_streams_replayed] (global memory events) Obs counters. *)

val live_counters : t -> Counters.t
(** The counter accumulator of the calling domain's shadow inside a
    block of a {!launch}; raises [Invalid_argument] outside one. A block
    body can [Counters.copy] / [Counters.diff] this around its own work
    to capture its exact per-block delta (the shadow is only ever
    mutated by the owning domain). Such a delta is the same at every
    jobs value and carries no DRAM traffic: that is charged to
    [t.total] by the L2 trace replay. *)

(** {2 Results} *)

val occupancy : Device.t -> blocks:int -> float
(** Fraction of the device's SMs kept busy by a launch of [blocks]
    blocks, in (0, 1]. *)

val roofline_components : Device.t -> blocks:int -> Counters.t -> (string * float) list
(** Per-resource times of the launch-time roofline (resource name,
    seconds if that resource alone were the limit). *)

val bottleneck_of : Device.t -> blocks:int -> Counters.t -> string
(** Name of the slowest roofline resource for these counter deltas. *)

val encode_cost_per_event_s : unit -> float
(** Measured steady-state cost of one L2-trace [tbuf] push (amortised
    growth included). Encoding happens inline with block compute, so the timeline cannot slice it out per event; the
    bench parattr attribution multiplies the recorded event counts (the
    ["sim.encode"] instant args) by this calibration instead. *)

val kernel_time : t -> float
(** Sum of launch times. *)

val transfer_time : t -> bytes:int -> float
(** Host↔device copy estimate over PCIe for [bytes] in each direction. *)
