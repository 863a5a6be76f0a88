(** Deterministic counters.

    A process-global registry of monotonic {e counters} (LP solves,
    Fourier–Motzkin eliminations, enumerated points, memoized blocks,
    sanitizer findings, …). Obs only counts: it has no clock, and every
    duration is recorded by {!Timeline}. Counter totals are plain sums,
    so they are bit-identical at every [--jobs] value.

    The registry is disabled by default: every hook added to the
    libraries compiles down to one load + branch, so instrumented code
    pays essentially nothing unless a driver opted in with {!enable}.

    {b Domain safety.} Every domain counts into its own table: the main
    domain into the process table, pool workers into detached {e forks}
    installed by {!fork_begin} and added back with {!absorb} — this is
    how [Hextile_par.Par] keeps worker domains off the main table.
    {!enable}/{!disable}/{!reset} are main-domain operations and must not
    be called while a parallel region is running. *)

(** {2 Global switch} *)

val enabled : unit -> bool
val enable : unit -> unit
val disable : unit -> unit

val reset : unit -> unit
(** Drop all counters (keeps the enabled/disabled state). *)

(** {2 Counters} *)

val incr : ?by:int -> string -> unit
(** Bump a global monotonic counter (creating it at 0). Accumulation is
    plain addition, matching [Counters.add]/[diff] semantics. No-op when
    disabled. *)

val counter : string -> int
(** Current value ([0] if never bumped). Readable even while disabled. *)

val counters : unit -> (string * int) list
(** All counters, sorted by name. *)

(** {2 Domain-local forks}

    Used by the parallel runtime: a pool task calls {!fork_begin} before
    running user code on its domain and hands the detached table from
    {!fork_end} back to the region's caller, which {!absorb}s it. Counter
    deltas are added, so totals are bit-identical to the sequential run
    whatever the absorb order. *)

type fork
(** A detached per-task counter table. *)

val fork_begin : unit -> unit
(** Install a fresh fork as the current domain's table. Subsequent
    {!incr}s on this domain count into the fork. *)

val fork_end : unit -> fork
(** Detach and return the current domain's fork, restoring the domain to
    the process table. Raises [Invalid_argument] if no fork is active. *)

val absorb : fork -> unit
(** Add a fork's counters into the current table. *)

(** {2 Sinks} *)

val to_json : unit -> Json.t
(** [{"trace_version": 2, "counters": {...}}]. *)

val write_json : string -> unit
(** [write_json path] writes {!to_json} (pretty-printed, trailing
    newline) to [path]. *)
