(** Drivers that regenerate every table and figure of the paper's
    evaluation (Section 6), on the GPU simulator.

    Methodology: the paper's data sizes (3072² × 512 steps, 384³ × 128)
    are too large to simulate instruction-by-instruction in reasonable
    time, so each experiment runs a scaled-down instance and the device
    model is scaled with it — the L2 capacity and the kernel-launch
    overhead are reduced by the same factor as the working set and the
    per-launch work, preserving the paper's machine-balance ratios. Every
    run is verified bit-for-bit against the sequential reference
    interpreter. Absolute GStencils/s are model outputs; the comparisons
    (which scheme wins, by roughly what factor) are the reproduction
    target; EXPERIMENTS.md records paper-vs-measured per experiment. *)

open Hextile_gpusim
open Hextile_ir
open Hextile_schemes

type scheme = Ppcg | Par4all | Overtile | Patus | Hybrid

val scheme_name : scheme -> string

val engine_name : Common.engine -> string
(** ["ref"] or ["tape"], as accepted by [hextile run --engine]. *)

val sim_summary :
  wall_s:float -> jobs:int -> engine:Common.engine -> Common.result -> string
(** The [hextile run] stderr summary line. Contract: the fixed prefix
    ["sim:"] followed by space-separated [key=value] tokens — keys are
    lowercase [[a-z0-9_]+], values contain neither spaces nor ['='],
    and the keys [wall_ms], [blocks], [blocks_memoized], [engine],
    [jobs], [blocks_analytic] and [classes] are always present, in that
    order. Consumers must tolerate new keys being appended. *)

val sizes : Stencil.t -> (string * int) list
(** Scaled instantiation of a benchmark: N=4096/T=64 in 1D, N=128/T=24
    in 2D, N=64/T=12 in 3D. *)

val scaled_device : Device.t -> Stencil.t -> (string * int) list -> Device.t
(** Shrink L2 and launch overhead to preserve the paper's ratios. *)

val paper_sizes : Stencil.t -> (string * int) list
(** The paper's full-size Table 1/2 instantiation of a benchmark
    (Table 3 parameters: N=3072, T=512 in 2D; N=384, T=128 in 3D). At
    these parameters {!scaled_device} is the identity, so
    [run_scheme ~analytic:true ~verify:false] simulates the actual
    paper working set on the unscaled device model — tractable only
    through the analytic mode. *)

val run_scheme :
  ?pool:Hextile_par.Par.pool ->
  ?engine:Common.engine ->
  ?analytic:bool ->
  ?verify:bool ->
  scheme ->
  Stencil.t ->
  (string * int) list ->
  Device.t ->
  Common.result
(** Run one scheme on a scaled instance (device scaling applied inside).
    With [verify] (default true) the final grids are compared against the
    reference interpreter and the executed instance count is checked;
    failures raise. [?pool] parallelizes the simulated thread blocks;
    results are identical by the determinism contract. [?analytic]
    enables the hierarchical simulation mode (hybrid scheme only; other
    schemes ignore it — see {!Hybrid_exec.run}). *)

(** {2 Tables} *)

type perf_row = {
  kernel : string;
  cells : (scheme * float) list;  (** GStencils/second *)
}

val table12 : ?pool:Hextile_par.Par.pool -> Device.t -> perf_row list
(** Tables 1 and 2: all Table 3 benchmarks × schemes on one device. With
    a multi-domain [pool] the 7 × 4 (kernel, scheme) runs fan out across
    domains and are regrouped in order — same rows, same cells. *)

val paper_table12 : Device.t -> (string * (scheme * float option) list) list
(** The paper's reported numbers for side-by-side comparison. *)

val pp_table12 : Device.t -> perf_row list Fmt.t

val table3_text : unit -> string

type ladder_step = { step : char; label : string; result : Common.result }

val ladder : ?pool:Hextile_par.Par.pool -> Device.t -> ladder_step list
(** The Table 4/5 optimization ladder (a)–(f) on heat 3D; [pool] runs the
    six rungs concurrently. *)

val pp_table4 : (Device.t * ladder_step list) list Fmt.t
(** GFLOPS per configuration and device (Table 4 layout). *)

val pp_table5 : (Device.t * ladder_step list) Fmt.t
(** Performance counters (Table 5 layout). *)

(** {2 Figures} *)

val figure1_source : string
(** The Figure 1 Jacobi source accepted by the frontend. *)

val figure2_text : unit -> string
val figure3_text : unit -> string
val figure4_text : unit -> string
val figure5_text : unit -> string
val figure6_text : unit -> string

val tile_size_sweep_text : unit -> string
(** The Section 3.7 model on heat 3D: candidate sizes ranked by
    load-to-compute ratio. *)

val patus_note : ?pool:Hextile_par.Par.pool -> Device.t -> string
(** The paper reports Patus only in prose (laplacian/heat 3D); this
    regenerates those two data points. *)

val h_sweep :
  ?pool:Hextile_par.Par.pool -> Device.t -> Stencil.t -> (int * float) list
(** Ablation: GStencils/s of the hybrid scheme as the time-tile height
    [h] grows (h = 0 disables time tiling within tiles). *)

val diamond_vs_hex_text : unit -> string
(** The Section 5 qualitative comparison: diamond tiles with odd sizes
    have varying integer-point counts, hexagonal tiles never do. *)

val split1d_text : Device.t -> string
(** The 1D degenerate case: hexagonal (hybrid) vs split tiling vs space
    tiling on heat 1D, all verified. *)

(** {2 Machine-readable sinks}

    JSON forms of the evaluation data, mirroring the printed tables row
    by row (used by [bench --json] so the perf trajectory can be diffed
    across commits). *)

val result_json : Common.result -> Hextile_obs.Json.t
(** One simulated run: scheme, device, times, throughput and the full
    counter set. *)

val table12_json : Device.t -> perf_row list -> Hextile_obs.Json.t
val ladder_json : Device.t -> ladder_step list -> Hextile_obs.Json.t
val h_sweep_json : (int * float) list -> Hextile_obs.Json.t

(** {2 Whole-pipeline profile} *)

val hybrid_tiling :
  ?h:int -> ?w:int array -> Stencil.t -> int * int array * Hextile_tiling.Hybrid.t
(** The hybrid tiling of a program, with [h] and [w] defaulting to
    {!Hybrid_exec.default_config}'s; returns the [h] and [w] used. *)

val profile :
  jobs:int ->
  source:string ->
  load:(unit -> (Stencil.t, string) result) ->
  ?h:int ->
  ?w:int array ->
  scheme ->
  (string * int) list ->
  Device.t ->
  (Hextile_obs.Json.t, string) result
(** The [hextile profile] document: runs the program from [load]
    through the frontend, deps, tiling, codegen and sim stages, each
    under a {!Hextile_obs.Timeline} slice of that name, and reports what
    each stage produced ([frontend.source] echoes [source];
    [tiling.legality] is ["ok"] or the violation), the run's
    {!result_json}, one [timeline] entry per kernel launch (launch
    record, occupancy, efficiency ratios and its full counter delta, in
    launch order), [stages] (count and inclusive milliseconds of every
    slice name on the calling domain's track; empty unless the caller
    enabled Timeline) and [trace] ({!Hextile_obs.Obs.to_json}, counters
    only; empty unless the caller enabled Obs). [Error] carries a load
    failure or the sim stage's [Failure] message. *)
