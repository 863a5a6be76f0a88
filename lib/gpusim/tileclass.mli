(** Recorded warp-event streams for tile-class memoization.

    A {!stream} holds what a translation moves in one representative
    block of a hybrid launch: its global memory events, at byte
    addresses, and its compute rows, at flat word indices. A class
    member is the representative moved by one word offset
    ([Δs00·stride0], one s0 stride shared by every array), so
    [Sim.replay_stream] replays the memory events with [4·offset] added
    to every address and recomputes coalescing/cache behaviour from the
    translated addresses — nothing cache-related is memoized, so the
    replay is exact at any alignment. Shared-memory accesses, flops and
    barriers are not recorded: their counts are translation-invariant
    (shared addresses are tile-relative or shift uniformly, which
    rotates the bank assignment without changing the conflict count),
    and replay adds them from the representative's counter delta.

    Streams are recorded by [Sim.record_begin]/[record_end] and consumed
    by [Sim.replay_stream]; the hybrid executor owns the per-class memo
    table. *)

type ev =
  | Gload_run of { addr : int; n : int }
      (** coalesced load of [n] consecutive words at byte [addr] *)
  | Gstore_run of { addr : int; n : int; serial : bool }
  | Gload_lanes of { addrs : int array }
      (** ascending per-lane byte addresses (gapped copy-in rows) *)
  | Gstore_lanes of { addrs : int array; serial : bool }
  | Compute of { stmt : int; tstep : int; wflat : int; srcs : int array; n : int }
      (** one statement row: write and per-source flat word indices of
          the row's first lane, and its lane count. Every statement has a
          tape, so a recording holds every row its block computed. *)

type stream

val create : unit -> stream
val push : stream -> ev -> unit

val mem_events : stream -> int
(** Global memory events only (the [sim.addr_streams_replayed] unit). *)

val iter : stream -> f:(ev -> unit) -> unit

val rows : stream -> (int * int * int * int array * int) list
(** The [Compute] rows in stream order, as [Common.compile_rows] takes
    them: [(stmt, tstep, wflat, srcs, n)]. *)
