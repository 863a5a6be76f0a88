(** Lock-free publish-once map for process-shared memo tables.

    A fixed-capacity open-addressed table of [Atomic] slots shared by
    every domain. [publish] installs a (key, value) pair with a single
    compare-and-set — the first publisher of a key wins, later
    publishers adopt the winner's value — and [find] never blocks.

    The map is a {e cache of a pure function}: when the table (or a
    probe window) is full, operations degrade to "compute uncached"
    rather than evicting, so correctness must never depend on a value
    being present. Keys are compared structurally and hashed with
    [Hashtbl.hash].

    This is the shared, read-once/replay-many backing store for memo
    tables that used to live in domain-local storage (dependence
    analysis, Fourier–Motzkin projections): one domain pays for the
    computation, every domain reuses the published result, and — the
    computations being pure — which domain wins the race is
    unobservable in any result. *)

type ('k, 'v) t

val create : ?bits:int -> ?probe:int -> ?name:string -> unit -> ('k, 'v) t
(** [create ~bits ~probe ()] makes a table of [2^bits] slots (default
    1024) probed linearly over a window of [probe] slots (default 32).
    With [?name] the table registers in a process-global list so its
    hit/miss stats appear in {!stats_all} and {!publish_obs} — use for
    long-lived (module-level or cache-context) tables only; registered
    tables are never unregistered. *)

val find : ('k, 'v) t -> 'k -> 'v option
(** The published value for this key, if any domain has published one
    within the probe window. *)

val publish : ('k, 'v) t -> 'k -> 'v -> 'v
(** Publish a value for a key and return the value every domain will
    see from now on: the argument if this call won the race (or if the
    window was full and nothing was published), the earlier winner's
    value otherwise. *)

val find_or_compute : ('k, 'v) t -> 'k -> (unit -> 'v) -> 'v
(** [find] then, on a miss, compute and [publish]. The computation may
    run concurrently on several domains during a race; it must be pure. *)

val clear : ('k, 'v) t -> unit
(** Drop every published entry (by installing a fresh slot array) and
    reset the hit/miss stats. Concurrent operations racing with a clear
    may publish into the old array; such entries are simply lost —
    acceptable for a cache. *)

(** {2 Stats}

    Every {!find} (and hence {!find_or_compute}) bumps a per-table hit
    or miss atomic, and every {!publish} that finds its probe window
    full bumps an uncached atomic (folded into Obs by {!publish_obs};
    not part of {!stats}). Counts depend on scheduling — two domains racing on
    a cold key both record a miss — so they are monitoring data and are
    never fed back into computed results. *)

val stats : ('k, 'v) t -> int * int
(** [(hits, misses)] since creation or the last {!clear}. *)

val stats_all : unit -> (string * int * int) list
(** [(name, hits, misses)] for every table created with [?name], in
    registration order. *)

val publish_obs : unit -> unit
(** Fold every named table's stats into the {!Hextile_obs.Obs} counter
    registry as [oncemap.<name>.hits] / [oncemap.<name>.misses] /
    [oncemap.<name>.uncached] (publishes handed back unpublished because
    the probe window was full). Only
    the delta since the previous publication is added, so report paths
    may call this repeatedly. No-op while Obs is disabled. Main-domain
    only (it writes the Obs registry). *)
