(** End-to-end tracing and profiling.

    A process-global registry of hierarchical {e spans} (timed regions of
    the compiler/simulator pipeline), monotonic {e counters} (LP solves,
    Fourier–Motzkin eliminations, enumerated points, …), key/value
    {e annotations} on the current span and timestamped {e events}
    (nvprof-style per-kernel-launch timeline entries).

    The registry is disabled by default: every hook added to the
    libraries compiles down to one load + branch, so instrumented code
    pays essentially nothing unless a driver opted in with {!enable}.

    {b Domain safety.} Every domain records into its own registry: the
    main domain into the process registry, pool workers into detached
    {e forks} installed by {!fork_begin} and merged back (in a
    deterministic caller-chosen order) with {!absorb} — this is how
    [Hextile_par.Par] makes counter totals independent of the number of
    domains. {!enable}/{!disable}/{!reset} are main-domain operations and
    must not be called while a parallel region is running. *)

type value = Bool of bool | Int of int | Float of float | Str of string

(** {2 Global switch} *)

val enabled : unit -> bool
val enable : unit -> unit
val disable : unit -> unit

val reset : unit -> unit
(** Drop all recorded spans, events and counters (keeps the
    enabled/disabled state). *)

(** {2 Spans} *)

val start : string -> unit
(** Open a span as a child of the innermost open span. No-op when
    disabled. *)

val stop : string -> unit
(** Close the innermost open span. The name must match the innermost
    {!start} (spans close in LIFO order); raises [Invalid_argument] on a
    mismatch or when no span is open. No-op when disabled. *)

val span : string -> (unit -> 'a) -> 'a
(** [span name f] runs [f ()] inside a span; the span is closed even when
    [f] raises. Equivalent to [f ()] when disabled. *)

val annot : string -> value -> unit
(** Attach a key/value annotation to the innermost open span (to the
    trace root when none is open). Re-annotating a key overwrites. *)

val event : string -> (string * value) list -> unit
(** Record a timestamped event under the innermost open span (or the
    trace root). Events are kept in order. *)

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
    running user code on its domain and hands the detached buffer from
    {!fork_end} back to the region's caller, which {!absorb}s the forks
    in task order. Spans/events/annotations land under the caller's
    innermost open span; counter deltas are added — so totals are
    bit-identical to the sequential run. *)

type fork
(** A detached per-task registry (spans, events, counters). *)

val fork_begin : unit -> unit
(** Install a fresh fork as the current domain's registry. Subsequent
    {!start}/{!incr}/… on this domain record into the fork. *)

val fork_end : unit -> fork
(** Detach and return the current domain's fork, restoring the domain to
    the process registry. Raises [Invalid_argument] if no fork is
    active. *)

val fork_resume : fork -> unit
(** Reinstall a fork detached by {!fork_end} as the current domain's
    registry, so recording continues into it (a task can set its own
    fork aside while one unit of its work records into a fresh one). *)

val absorb : fork -> unit
(** Merge a fork into the current registry: its top-level spans and
    events become children/events of the innermost open span (appended
    after existing entries), its annotations are applied in order, and
    its counters are added. *)

(** {2 Inspection} *)

type span_tree = {
  sname : string;
  start_s : float;  (** seconds since the trace epoch *)
  dur_s : float;  (** -1.0 while still open *)
  attrs : (string * value) list;
  events : (string * float * (string * value) list) list;
      (** (name, time since epoch, attrs) *)
  children : span_tree list;
}

val roots : unit -> span_tree list
(** Completed and still-open top-level spans, in start order. *)

val open_spans : unit -> string list
(** Names of currently open spans, innermost first. *)

(** {2 Sinks} *)

val to_json : unit -> Json.t
(** The whole registry as one JSON document: [{"counters": {...},
    "spans": [...], "events": [...]}]. Span entries carry name, start,
    duration, attrs, events and children. *)

val pp_text : Format.formatter -> unit -> unit
(** Human-readable report: span tree with durations, then counters. *)

val write_json : string -> unit
(** [write_json path] writes {!to_json} (pretty-printed, trailing
    newline) to [path]. *)
