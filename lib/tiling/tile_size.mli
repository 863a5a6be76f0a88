(** Tile size selection by load-to-compute ratio (Section 3.7).

    A staged search. The analytic fast layer ({!Tile_model}) computes
    the exact iteration count and shared-memory footprint and sound
    load-ratio bounds of every candidate in closed form, rejecting
    infeasible and ratio-dominated candidates without enumerating a
    single statement instance — whole [(h, w0)] slices at once when the
    per-dimension minimum inner widths already bust the budget. Only
    the survivors reach the exact layer, which counts loads and stores
    as row-level bit-run set algebra over the analytic footprint boxes:
    writes are deferred to the end of a hexagon row and the innermost
    box dimension has stride 1, so each (access, line) of a row is one
    run of contiguous bits, [loaded |= run land lnot written] per line,
    [written |= write runs] per row, and the counts are two popcounts.
    Over the default-spec searches of 150 generated programs and the 11
    builtins (3163 exact evaluations) this took the exact layer from
    0.36-0.56 s to 0.013-0.015 s of CPU (one core of a 2-core Xeon
    host), against the previous per-instance, per-access bitset walk.

    Determinism contract: the selected {!choice} is bit-identical to
    the frozen exhaustive search ({!select_exhaustive}) on every
    program and candidate grid, at every [--jobs] value — pruning only
    removes candidates whose exact ratio provably exceeds every later
    value of the fold's running minimum, and all screening runs on the
    main domain in candidate order. *)

open Hextile_ir

type stats = {
  iterations : int;  (** statement instances per full tile *)
  loads : int;
      (** distinct global cells read before any intra-tile write *)
  stores : int;  (** distinct cells written *)
  footprint_box : int;
      (** floats of shared memory for the per-array bounding boxes *)
  ratio : float;  (** loads /. iterations *)
}

type choice = { h : int; w : int array; stats : stats }

type skipped = {
  h_residue : int;  (** [h] candidates breaking [(h + 1) mod k = 0] *)
  w0_convexity : int;
      (** [(h, w0)] pairs, [h] otherwise valid, with [w0] below
          [Hexagon.min_w0] *)
}
(** Grid entries the search generates no candidate from. *)

type report = {
  candidates : int;  (** candidates generated (post grid filters) *)
  feasible : int;  (** candidates whose exact footprint fits the budget *)
  pruned_infeasible : int;  (** rejected analytically on footprint *)
  pruned_dominated : int;  (** rejected analytically on ratio bounds *)
  exact_evals : int;  (** candidates that reached the exact layer *)
  skipped : skipped;
      (** grid entries dropped before screening; also counted as the Obs
          counters [tiling.tilesize_skipped.h_residue] and
          [tiling.tilesize_skipped.w0_convexity] *)
}

val tile_stats : Hybrid.t -> stats
(** Statistics of one generic interior tile of the given tiling
    (the exact layer's bit-run accounting). *)

val tile_stats_ref : Hybrid.t -> stats
(** Reference implementation (hashtables keyed by cell identities);
    slower, kept as the differential-testing oracle for {!tile_stats}. *)

val iterations_formula_3d : h:int -> w0:int -> w1:int -> w2:int -> int
(** The paper's closed form [2(1+2h+h²+w0(h+1))·w1·w2], valid for
    3D stencils with [δ0 = δ1 = 1]. *)

val select :
  ?pool:Hextile_par.Par.pool ->
  Stencil.t ->
  h_candidates:int list ->
  w0_candidates:int list ->
  wi_candidates:int list list ->
  shared_mem_floats:int ->
  ?require_multiple:int ->
  unit ->
  choice option
(** Staged search over the candidate lists; [wi_candidates] has one
    list per inner spatial dimension. [require_multiple] constrains the
    innermost width (warp-size alignment, Section 4.2.3). [h] candidates
    violating the [h+1 ≡ 0 (mod k)] rule and [w0] below the convexity
    minimum generate no candidate; {!select_with_report} counts them in
    [report.skipped]. Returns the feasible choice with the
    smallest load-to-compute ratio (ties: more iterations first). *)

val select_with_report :
  ?pool:Hextile_par.Par.pool ->
  Stencil.t ->
  h_candidates:int list ->
  w0_candidates:int list ->
  wi_candidates:int list list ->
  shared_mem_floats:int ->
  ?require_multiple:int ->
  unit ->
  choice option * report
(** Like {!select}, additionally returning the search counters. *)

val select_exhaustive :
  ?pool:Hextile_par.Par.pool ->
  Stencil.t ->
  h_candidates:int list ->
  w0_candidates:int list ->
  wi_candidates:int list list ->
  shared_mem_floats:int ->
  ?require_multiple:int ->
  unit ->
  choice option
(** The frozen pre-staging search: every candidate evaluated exactly
    with {!tile_stats_ref}, no pruning. Oracle and benchmark baseline;
    {!select} must return the same choice. *)

val pp_stats : stats Fmt.t
val pp_choice : choice Fmt.t
val pp_report : report Fmt.t

(** {2 Candidate specification}

    The default candidate grid used by [hextile tilesize] and the serve
    daemon — one shared definition so a daemon response is bit-identical
    to the one-shot command. *)

type spec = {
  h_candidates : int list;
  w0_candidates : int list;
  wi_candidates : int list list;
  shared_mem_floats : int;
  require_multiple : int;
}

val default_spec : Stencil.t -> spec
(** [h ∈ {1,2,3,5}], [w0 ∈ {2,4,7,8}], dimension-based inner widths
    (innermost {32,64}, others {4,6,10}), a 48 KiB single-precision
    shared-memory budget, and warp-multiple innermost width for
    multi-dimensional stencils. *)

val select_spec :
  ?pool:Hextile_par.Par.pool -> Stencil.t -> spec -> choice option * report
(** {!select_with_report} over a {!spec}. *)
