(** Seeded random stencil-program generator.

    Produces well-formed {!Hextile_ir.Stencil.t} values spanning the
    shapes the executors must handle — 1–3 spatial dimensions, one to
    three statements, folded (2- or 3-buffer) and in-place storage,
    symmetric and asymmetric read offsets, cross-statement reads,
    read-only coefficient arrays, and parameter valuations small enough
    to include degenerate (empty or single-cell) domains.

    Generated programs pass {!Hextile_ir.Stencil.validate}, whose input
    envelope is where the reference interpreter and every scheme executor
    agree: a statement's only read of its own write slot is the written
    cell (the in-place self-read), and reads of other slots, other
    arrays and other statements' arrays are unrestricted. Domains keep a
    symmetric per-dimension margin covering the largest absolute offset,
    so the in-bounds convention ([Analysis.bounds_check]) holds for every
    parameter valuation — and stays intact under {!flip_offset}. *)

open Hextile_ir

val generate : Rng.t -> Stencil.t * (string * int) list
(** A random program and a matching (N, T) valuation. The result
    validates, passes [Analysis.bounds_check] under the valuation, and
    round-trips through [Pretty.to_source] and the frontend. *)

val flip_offset : Stencil.t -> Stencil.t option
(** Negate the first nonzero spatial offset of the first read that has
    one — the classic schedule/codegen bug shape. [None] if every read
    offset is zero. The result still validates and stays in bounds (margins
    are symmetric), so executors run it without crashing and the
    corruption is purely semantic. *)

val translate_writes : Stencil.t -> Stencil.t
(** Every statement writes a translated cell, [A[x + v]] for points [x]:
    statement [i] shifts by +1, -1 or +2 in turn along one dimension,
    innermost first. Each domain shrinks by the shift on that side, so
    the written cells stay inside the array, and any read of the write
    slot moves with the write, so the result still validates and stays in
    bounds under the program's valuations. {!generate}'s programs all
    write at offset 0; the fuzz campaign runs this variant of each one
    too. *)
