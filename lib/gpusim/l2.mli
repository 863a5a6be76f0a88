(** Set-associative L2 cache model with LRU replacement, line granularity
    and write-back/write-allocate semantics: stores dirty a line, and the
    DRAM write traffic is the stream of dirty lines evicted (plus whatever
    [flush] returns at the end of a measurement). *)

type t

val create : bytes:int -> assoc:int -> line_bytes:int -> t

val hit_bit : int
val writeback_bit : int

val access_code : t -> line:int -> write:bool -> int
(** Touch line [line] (line = byte address / line size); the outcome as
    [hit_bit lor writeback_bit] bits, where [writeback_bit] reports that
    the victim line was dirty (one DRAM write transaction). The code is
    an int so a cache probe allocates nothing. *)

val run_shift : int

val access_run : t -> line0:int -> n:int -> write:bool -> int
(** Touch [n] consecutive lines starting at line [line0] (line =
    byte address / line size) with per-line semantics identical to
    {!access_code}, returning the aggregate
    [(hits lsl run_shift) lor writebacks]. The batched DRAM replay's
    probe: one call per compressed-trace line run instead of a record
    per line. [n] must be in [0, 2^run_shift). *)

val flush : t -> int
(** Evict everything; returns the number of dirty lines written back. *)

val reset : t -> unit
val line_bytes : t -> int

val stats : t -> int * int
(** [(valid_lines, dirty_lines)] currently resident — a cheap occupancy
    probe; the timeline layer attaches it to replay instants so traces
    show how full/dirty the shared L2 was when a launch's traces were
    replayed. *)
