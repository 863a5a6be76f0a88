(** A small fixed-size domain pool with deterministic parallel iteration.

    The pool owns [jobs - 1] worker domains (the calling domain is the
    [jobs]-th participant, so [jobs = 1] spawns nothing); {!run}, {!map},
    {!iter} and {!map_reduce} distribute work across them and return only
    once every task has finished.

    {b Determinism contract.} All combinators deliver results {e by input
    index}: [map p f xs] returns exactly [Array.map f xs] no matter which
    domain evaluated which element, exceptions are re-raised for the
    lowest failing index, and {!map_reduce} folds the mapped values
    left-to-right in index order. Callers that keep their element
    functions independent (no shared mutable state, or state merged
    associatively per index) therefore observe bit-identical outputs for
    every [jobs] value. The scheduling of elements onto domains is {e not}
    part of the contract — only the results are.

    {b Nesting.} Tasks run with an "inside a parallel region" flag set on
    their domain; any combinator called from within a task degrades to
    the plain sequential loop. This keeps one pool-wide level of
    parallelism (no domain explosion, no cross-pool deadlock) and keeps
    nested library code deterministic for free.

    {b Observability.} Each parallel task runs under an {!Obs} fork
    (a domain-local counter table, so no worker writes the main one);
    forks are absorbed into the caller's table once the region
    completes. Counter totals are plain sums, so they match the
    sequential run exactly whichever domain ran which work.

    Independently, when {!Hextile_obs.Timeline} recording is enabled the
    pool emits wall-clock slices onto per-domain tracks: ["par.region"]
    around each region on the caller, ["par.task"] around every task
    (with a flow arrow from its enqueue), ["par.steal"] around each
    dequeue-and-run, ["par.idle"] for queue-empty waits (plus
    ["par.steal_miss"] instants), ["par.shard_steal"] instants when a
    {!map} task crosses into another task's shard, and ["par.absorb"]
    around the ordered fork merge. Worker tracks are labelled
    ["worker-N"]. The timeline
    never feeds back into [Obs], so recording cannot perturb the
    determinism contract. *)

type pool

val recommended_jobs : unit -> int
(** [Domain.recommended_domain_count ()] — the default for [--jobs]. *)

val create : jobs:int -> pool
(** Spawn a pool of [max 1 jobs] participants ([jobs - 1] worker
    domains). *)

val shutdown : pool -> unit
(** Stop and join the workers. Idempotent. *)

val with_pool : jobs:int -> (pool -> 'a) -> 'a
(** [create], run, [shutdown] (also on exceptions). *)

val jobs : pool -> int

val in_region : unit -> bool
(** True while the current domain is executing a pool task; combinators
    (and {!Hextile_gpusim.Sim.launch}-style clients) use this to fall
    back to their sequential path instead of nesting regions. *)

val run : pool -> (unit -> unit) array -> unit
(** Run every thunk to completion, thunk [0] on the calling domain.
    Exceptions are captured per thunk and the lowest-index one is
    re-raised after all thunks finished (remaining thunks are not
    cancelled). Sequential (in order, no forking) when [jobs p = 1],
    when called from inside a region, or for fewer than two thunks. *)

val map : pool -> ('a -> 'b) -> 'a array -> 'b array
(** Deterministic parallel [Array.map]: results are delivered by index;
    element order of evaluation is unspecified. Scheduling is a hybrid
    static/dynamic shard schedule — each task owns a contiguous static
    shard of the index space (good locality, no shared hot counter) and
    steals from other shards through their per-shard atomic cursors
    once its own is dry (work-conserving under imbalance). Every index
    runs exactly once regardless of stealing. Exactly [Array.map f xs] when [jobs p = 1] or inside a region. *)

val iter : pool -> ('a -> unit) -> 'a array -> unit

val map_reduce :
  pool -> map:('a -> 'b) -> merge:('c -> 'b -> 'c) -> 'c -> 'a array -> 'c
(** [map_reduce p ~map ~merge init xs] maps in parallel, then folds
    [merge] over the results sequentially in index order — an ordered
    merge, so non-commutative [merge]s are safe. *)
