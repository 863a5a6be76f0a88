(** Shared-memory race and barrier-divergence sanitizer for the GPU
    simulator.

    When enabled, {!Sim} reports every shared-memory access (with an
    optional per-lane thread identity), every [__syncthreads] barrier and
    the block/launch structure here. The sanitizer checks, per block of a
    launch:

    - {b write/write races}: two different threads store to the same
      shared word within one barrier interval;
    - {b write/read races}: a thread stores to a shared word that a
      different thread loads within the same barrier interval (in either
      order — without a barrier between them the CUDA model gives the
      read no defined value);
    - {b barrier divergence}: two blocks of the same launch execute a
      different number of barriers, the trace-level shadow of
      [__syncthreads] under divergent control flow.

    Accesses by the {e same} thread are never racy (a thread may read its
    own cell and overwrite it). Lanes without a thread identity are given
    a fresh synthetic one, which errs towards reporting.

    The sanitizer is an explicitly enabled mode (mirroring
    {!Hextile_obs.Obs}): scheme executors stay oblivious, and the fuzz
    harness switches it on around the runs it wants audited. Findings are
    recorded here and additionally counted as the [Obs] counters
    [sanitize.races] / [sanitize.divergences] when tracing is on.

    All sanitizer state is domain-local: each domain of a
    [Hextile_par.Par] pool sees its own independent sanitizer, so
    parallel fuzz iterations may enable/disable it freely. {!Sim} runs
    every block under {!capture_block}, on whichever domain executes it,
    and merges the per-block reports in the scrambled block order with
    {!absorb_block_reports}, so findings do not depend on the jobs
    value. *)

type race = {
  r_launch : string;
  r_block : int;
  r_word : int;  (** shared-memory word index within the block *)
  r_kind : [ `Write_write | `Write_read ];
  r_tid1 : int;
  r_tid2 : int;
}

type divergence = {
  d_launch : string;
  d_block : int;
  d_syncs : int;  (** barriers this block executed *)
  d_expected : int;  (** barriers the launch's first block executed *)
}

type finding = Race of race | Divergence of divergence

val enable : unit -> unit
val disable : unit -> unit
val enabled : unit -> bool

val reset : unit -> unit
(** Clear recorded findings and all per-launch state. *)

val findings : unit -> finding list
(** Findings recorded since the last [reset], in detection order.
    Recording is capped (see [dropped]); detection itself is not. *)

val dropped : unit -> int
(** Findings beyond the recording cap (counted, not stored). *)

val pp_finding : finding Fmt.t

(** {2 Simulator hooks} — called by {!Sim}; no-ops when disabled. *)

val launch_begin : name:string -> unit
val launch_end : unit -> unit
val barrier : unit -> unit

val access :
  write:bool -> ?tids:int array -> int option array -> unit
(** One warp-level shared-memory access: [tids.(i)] is the thread
    identity of lane [i] (parallel to the word-index array; lanes with
    [None] addresses are ignored). Without [tids], every lane gets a
    fresh synthetic identity (negative, restarting per block). *)

(** {2 Block capture} — {!Sim}'s per-block path, at every jobs value. *)

type block_report
(** The sanitizer outcome of one block: its barrier count plus the race
    findings detected while it ran (in detection order). *)

val capture_block : name:string -> block:int -> (unit -> unit) -> block_report
(** Run one block's simulation on the {e current} domain with a fresh,
    enabled sanitizer and return its report. Divergence checking is
    deferred to {!absorb_block_reports} (it needs the cross-block
    expected barrier count); the domain's sanitizer is switched off
    again on exit. *)

val absorb_block_reports : block_report array -> unit
(** Merge per-block reports into the calling domain's (enabled)
    sanitizer in array order: race findings are re-counted against the
    recording cap and the divergence check runs per report, against
    the first report's barrier count. No-op when the sanitizer is
    disabled. *)
