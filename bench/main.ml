(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation on the GPU simulator, and runs Bechamel micro-benchmarks of
   each experiment driver.

   Usage:
     dune exec bench/main.exe                 -- everything, quick sizes
     dune exec bench/main.exe -- --only table1 --only fig4
     dune exec bench/main.exe -- --full       -- larger scaled instances
     dune exec bench/main.exe -- --no-micro   -- skip Bechamel timings
     dune exec bench/main.exe -- --json out.json
                                              -- also write results as JSON
     dune exec bench/main.exe -- --jobs 4     -- worker domains for the
                                                 parallel runtime
     dune exec bench/main.exe -- --only parcmp --jobs 4 --json BENCH_par.json
                                              -- jobs=1 vs jobs=N comparison
     dune exec bench/main.exe -- --only parattr --jobs 4 \
         --json BENCH_parattr.json --trace-out parattr_trace.json
                                              -- attribute jobs=N wall time to
                                                 {compute, idle, encode,
                                                 replay, absorb} phases

   With --json every selected experiment contributes a machine-readable
   entry keyed by its id: structured rows for the performance tables
   (table1/table2/table45/ablate/micro) and {"text": ...} wrappers for
   the figure reproductions, so the whole run can be diffed across
   commits. The top-level "meta" block records git rev, OCaml version,
   jobs and an injected timestamp (HEXTILE_BENCH_TIMESTAMP) so committed
   BENCH_*.json files carry their provenance. *)

module Experiments = Hextile_experiments.Experiments
module Json = Hextile_obs.Json
module Timeline = Hextile_obs.Timeline
module Par = Hextile_par.Par
open Hextile_gpusim
open Hextile_stencils

let section title = Fmt.pr "@.===== %s =====@." title
let text_json s = Json.Obj [ ("text", Json.Str s) ]

let fig1 () =
  section "Figure 1: Jacobi 2D stencil (frontend input)";
  print_string Experiments.figure1_source;
  (match
     Hextile_frontend.Front.parse_string ~name:"jacobi2d" Experiments.figure1_source
   with
  | Ok p ->
      Fmt.pr "parsed and lowered: %d statement(s), params %a@."
        (List.length p.stmts)
        Fmt.(list ~sep:(any ", ") string)
        p.params
  | Error m -> Fmt.pr "frontend error: %s@." m);
  text_json Experiments.figure1_source

let fig_text title text =
  section title;
  let s = text () in
  print_string s;
  text_json s

let fig2 () = fig_text "Figure 2: generated PTX-style core" Experiments.figure2_text
let fig3 () = fig_text "Figure 3: opposite dependence cone" Experiments.figure3_text
let fig4 () = fig_text "Figure 4: hexagonal tile shape" Experiments.figure4_text

let fig5 () =
  fig_text "Figure 5: hexagonal tiling pattern (phases 0/1)" Experiments.figure5_text

let fig6 () =
  fig_text "Figure 6: hybrid n-dimensional schedule" Experiments.figure6_text

let table3 () = fig_text "Table 3: stencil characteristics" Experiments.table3_text

let table1 ~pool ~quick () =
  section "Table 1: GStencils/second on (scaled) GTX 470";
  let rows = Experiments.table12 ~pool ~quick Device.gtx470 in
  Experiments.pp_table12 Device.gtx470 Fmt.stdout rows;
  print_string (Experiments.patus_note ~pool ~quick Device.gtx470);
  Experiments.table12_json Device.gtx470 rows

let table2 ~pool ~quick () =
  section "Table 2: GStencils/second on (scaled) NVS 5200M";
  let rows = Experiments.table12 ~pool ~quick Device.nvs5200m in
  Experiments.pp_table12 Device.nvs5200m Fmt.stdout rows;
  Experiments.table12_json Device.nvs5200m rows

let tables45 ~pool ~quick () =
  section "Table 4: shared-memory optimization ladder (heat 3D, GFLOPS)";
  let gtx = Experiments.ladder ~pool ~quick Device.gtx470 in
  let nvs = Experiments.ladder ~pool ~quick Device.nvs5200m in
  Experiments.pp_table4 Fmt.stdout [ (Device.nvs5200m, nvs); (Device.gtx470, gtx) ];
  section "Table 5: performance counters (heat 3D ladder)";
  Experiments.pp_table5 Fmt.stdout (Device.gtx470, gtx);
  Json.Obj
    [
      ("gtx470", Experiments.ladder_json Device.gtx470 gtx);
      ("nvs5200m", Experiments.ladder_json Device.nvs5200m nvs);
    ]

let tilesize () =
  fig_text "Section 3.7: tile-size selection model" Experiments.tile_size_sweep_text

let diamond () =
  fig_text "Section 5: diamond vs hexagonal tile regularity"
    Experiments.diamond_vs_hex_text

let split1d ~quick () =
  fig_text "1D degenerate case: hexagonal vs split tiling" (fun () ->
      Experiments.split1d_text ~quick Device.gtx470)

let ablate ~pool ~quick () =
  section "Ablation: time-tile height h (hybrid, heat 2D, GTX 470)";
  let sweep =
    Experiments.h_sweep ~pool ~quick Device.gtx470 Hextile_stencils.Suite.heat2d
  in
  List.iter
    (fun (h, g) -> Fmt.pr "h=%d (%d time steps/tile): %.2f GStencils/s@." h ((2 * h) + 2) g)
    sweep;
  Experiments.h_sweep_json sweep

(* ---- parallel-runtime benchmark: jobs=1 vs jobs=N -------------------- *)

(* Wall-clock comparison of the full table12 sim suite sequentially vs
   fanned out over the pool, plus a bit-exactness check of the rows —
   the bench-level witness of the determinism contract. The JSON lands
   in BENCH_par.json via `make bench`.

   The run *fails* below a speedup floor, so a scheduling or shared-cache
   regression that quietly re-serializes the suite turns the bench red
   instead of just re-shading a chart. The floor is core-aware — this
   bench also runs on laptops and single-core CI shards where a 2x
   demand would be physically impossible: >= 4 cores demand 2x (the
   roadmap target), 2-3 cores demand 1.2x, and on a single core demand
   only that the parallel run not fall off a cliff (0.6x — measured
   jobs=4 oversubscription on one core runs at ~0.7x of sequential
   from domain switching and GC contention). The HEXTILE_PARCMP_FLOOR
   env var overrides the computed floor — CI uses it to pin the gate
   independent of the runner's advertised cores. *)
let parcmp_floor ~jobs =
  match Sys.getenv_opt "HEXTILE_PARCMP_FLOOR" with
  | Some s -> float_of_string s
  | None ->
      let cores = Domain.recommended_domain_count () in
      if cores >= 4 && jobs >= 4 then 2.0
      else if cores >= 2 && jobs >= 2 then 1.2
      else 0.6

let parcmp ~jobs ~quick () =
  section (Fmt.str "Parallel runtime: table12 suite, jobs=1 vs jobs=%d" jobs);
  let timed j =
    Par.with_pool ~jobs:j @@ fun pool ->
    let t0 = Unix.gettimeofday () in
    let rows = Experiments.table12 ~pool ~quick Device.gtx470 in
    (rows, Unix.gettimeofday () -. t0)
  in
  let rows1, t1 = timed 1 in
  let rows_n, tn = timed jobs in
  let identical = rows1 = rows_n in
  let speedup = t1 /. tn in
  let cores = Domain.recommended_domain_count () in
  let floor = parcmp_floor ~jobs in
  Fmt.pr
    "jobs=1: %.3f s@.jobs=%d: %.3f s@.speedup: %.2fx (floor %.2fx on %d \
     cores)@.rows identical: %b@."
    t1 jobs tn speedup floor cores identical;
  if not identical then
    failwith "parcmp: parallel table12 rows differ from sequential";
  if speedup < floor then
    failwith
      (Fmt.str "parcmp: jobs=%d speedup %.2fx below the %.2fx floor (%d cores)"
         jobs speedup floor cores);
  Json.Obj
    [
      ("jobs", Json.Int jobs);
      ("cores", Json.Int cores);
      ("t1_s", Json.Float t1);
      ("tN_s", Json.Float tn);
      ("speedup", Json.Float speedup);
      ("floor", Json.Float floor);
      ("identical", Json.Bool identical);
      ("rows", Experiments.table12_json Device.gtx470 rows_n);
    ]

(* ---- parallel-time attribution: where do jobs=N worker-seconds go? --- *)

(* Runs the Table 3 suite on the hybrid scheme under a jobs=N pool with
   timeline recording on, then folds the per-domain tracks into a
   wall-clock attribution over {compute, encode, idle, replay, absorb,
   other} — the quantified target for the roadmap's "make parallelism
   pay" item (BENCH_par.json shows jobs=4 *losing* to sequential).
   Encode cost is attributed indirectly — the trace-event counts
   carried by the "sim.encode" instants times the calibrated per-event
   tbuf-push cost — because L2-trace encoding happens inline with block
   compute. "other" is the residual of jobs x wall not covered by a
   named phase (main-domain tiling/setup between regions, scheduler
   bookkeeping). Fails if the phases do not sum to jobs x wall within
   5%. The JSON lands in BENCH_parattr.json via `make bench`. *)
let parattr ~jobs ~quick ~trace_out () =
  section
    (Fmt.str "Parallel-time attribution (Table 3 hybrid suite, jobs=%d)" jobs);
  let dev = Device.gtx470 in
  let encode_cost = Sim.encode_cost_per_event_s () in
  Timeline.enable ();
  let t0 = Unix.gettimeofday () in
  Par.with_pool ~jobs (fun pool ->
      List.iter
        (fun (prog : Hextile_ir.Stencil.t) ->
          let env = Experiments.sizes ~quick prog in
          ignore
            (Experiments.run_scheme ~pool ~verify:false Experiments.Hybrid prog
               env dev))
        Suite.table3);
  let wall = Unix.gettimeofday () -. t0 in
  let su = Timeline.summary () in
  Option.iter Timeline.write_chrome trace_out;
  Timeline.disable ();
  let events =
    List.fold_left (fun a tk -> a + tk.Timeline.tk_events) 0 su.Timeline.su_tracks
  in
  let encode_events = Timeline.arg_sum su "sim.encode" in
  let encode = encode_events *. encode_cost in
  let compute = Float.max 0.0 (Timeline.excl_s su "sim.block" -. encode) in
  let idle = Timeline.incl_s su "par.idle" in
  let replay = Timeline.incl_s su "sim.l2_replay" in
  let absorb =
    Timeline.incl_s su "par.absorb" +. Timeline.incl_s su "sim.absorb"
  in
  let worker_seconds = float_of_int jobs *. wall in
  let named = compute +. encode +. idle +. replay +. absorb in
  let other = Float.max 0.0 (worker_seconds -. named) in
  let sum = compute +. encode +. idle +. replay +. absorb +. other in
  let phases =
    [
      ("compute", compute);
      ("encode", encode);
      ("idle", idle);
      ("replay", replay);
      ("absorb", absorb);
      ("other", other);
    ]
  in
  Fmt.pr "jobs=%d wall %.3f s -> %.3f worker-seconds@." jobs wall worker_seconds;
  List.iter
    (fun (k, v) ->
      Fmt.pr "  %-8s %8.3f s  (%5.1f%%)@." k v (100. *. v /. worker_seconds))
    phases;
  Fmt.pr "  coverage: named phases %.1f%%, %d timeline events, %d dropped@."
    (100. *. named /. worker_seconds)
    events su.Timeline.su_dropped;
  let err = Float.abs (sum -. worker_seconds) /. worker_seconds in
  if err > 0.05 then
    failwith
      (Fmt.str "parattr: phase attribution off by %.1f%% of jobs x wall"
         (100. *. err));
  Json.Obj
    [
      ("jobs", Json.Int jobs);
      ("wall_s", Json.Float wall);
      ("worker_seconds", Json.Float worker_seconds);
      ("encode_cost_per_event_ns", Json.Float (1e9 *. encode_cost));
      ("encode_events", Json.Float encode_events);
      ("phases_s", Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) phases));
      ( "fractions",
        Json.Obj
          (List.map (fun (k, v) -> (k, Json.Float (v /. worker_seconds))) phases)
      );
      ("named_coverage", Json.Float (named /. worker_seconds));
      ( "timeline",
        Json.Obj
          [
            ("tracks", Json.Int (List.length su.Timeline.su_tracks));
            ("events", Json.Int events);
            ("dropped", Json.Int su.Timeline.su_dropped);
          ] );
    ]

(* ---- executor benchmark: tape engine vs closure reference ------------ *)

module Common = Hextile_schemes.Common
module Counters = Hextile_gpusim.Counters

(* Wall-clock comparison of the warp-batched tape engine (with
   tile-class stream memoization in the hybrid scheme) against the
   closure-tree reference interpreter, over the Table 3 suite on the
   hybrid scheme, plus the bit-exactness and jobs-determinism checks.
   Fails if any counter/grid diverges or the total speedup drops below
   3x. The JSON lands in BENCH_sim.json via `make bench-sim`. *)
let simcmp ~jobs ~quick () =
  section
    (Fmt.str "Execution engine: tape+memo vs closure reference (Table 3, jobs=%d)"
       jobs);
  let dev = Device.gtx470 in
  let rows = ref [] in
  let tot_ref = ref 0.0 and tot_tape = ref 0.0 and tot_par = ref 0.0 in
  let identical (a : Common.result) (b : Common.result) =
    Counters.to_assoc a.counters = Counters.to_assoc b.counters
    && a.updates = b.updates && a.blocks = b.blocks
    && Hashtbl.fold
         (fun name g acc ->
           acc && Hextile_ir.Grid.equal g (Hextile_ir.Grid.find b.grids name))
         a.grids true
  in
  List.iter
    (fun (prog : Hextile_ir.Stencil.t) ->
      let env = Experiments.sizes ~quick prog in
      let timed f =
        let t0 = Unix.gettimeofday () in
        let r = f () in
        (r, Unix.gettimeofday () -. t0)
      in
      let run ?pool engine () =
        Experiments.run_scheme ?pool ~engine ~verify:false Experiments.Hybrid
          prog env dev
      in
      let r_ref, t_ref = timed (run Common.Ref) in
      let r_tape, t_tape = timed (run Common.Tape) in
      let r_par, t_par =
        timed (fun () -> Par.with_pool ~jobs @@ fun pool -> run ~pool Common.Tape ())
      in
      if not (identical r_ref r_tape) then
        failwith (Fmt.str "simcmp: %s tape result differs from reference" prog.name);
      if not (identical r_ref r_par) then
        failwith
          (Fmt.str "simcmp: %s tape result differs at jobs=%d" prog.name jobs);
      tot_ref := !tot_ref +. t_ref;
      tot_tape := !tot_tape +. t_tape;
      tot_par := !tot_par +. t_par;
      Fmt.pr
        "%-12s ref %7.1f ms  tape %7.1f ms (%4.1fx)  tape(jobs=%d) %7.1f ms  \
         blocks %d (%d memoized)@."
        prog.name (1000. *. t_ref) (1000. *. t_tape) (t_ref /. t_tape) jobs
        (1000. *. t_par) r_tape.blocks r_tape.blocks_memoized;
      rows :=
        ( prog.name,
          Json.Obj
            [
              ("t_ref_s", Json.Float t_ref);
              ("t_tape_s", Json.Float t_tape);
              ("t_tape_par_s", Json.Float t_par);
              ("speedup", Json.Float (t_ref /. t_tape));
              ("blocks", Json.Int r_tape.blocks);
              ("blocks_memoized", Json.Int r_tape.blocks_memoized);
              ("identical", Json.Bool true);
            ] )
        :: !rows)
    Suite.table3;
  let speedup = !tot_ref /. !tot_tape in
  Fmt.pr "total: ref %.2f s, tape %.2f s (%.2fx), tape jobs=%d %.2f s@." !tot_ref
    !tot_tape speedup jobs !tot_par;
  if speedup < 3.0 then
    failwith (Fmt.str "simcmp: tape engine speedup %.2fx below the 3x floor" speedup);
  Json.Obj
    [
      ("jobs", Json.Int jobs);
      ("t_ref_s", Json.Float !tot_ref);
      ("t_tape_s", Json.Float !tot_tape);
      ("t_tape_par_s", Json.Float !tot_par);
      ("speedup", Json.Float speedup);
      ("stencils", Json.Obj (List.rev !rows));
    ]

(* ---- analytic (hierarchical) simulation benchmark --------------------- *)

(* Per-instance wall-clock budget for the full-size runs. The default is
   the 2-minute acceptance bound (tightened from 5 minutes once the
   blit/batched-replay epilogue landed); HEXTILE_ANALYTIC_BUDGET_S can
   widen it for slow machines without editing the tree. *)
let analytic_budget_s =
  match Option.bind (Sys.getenv_opt "HEXTILE_ANALYTIC_BUDGET_S") float_of_string_opt with
  | Some f when f > 0.0 -> f
  | _ -> 120.0

(* Ceilings for the two analytic epilogue stages that dominate the
   full-size runs: the best this host does on the same work, so each
   stage can be reported as a fraction of it. Each timing is the median
   of [ceiling_reps] repetitions (alternating where two loops are
   compared). They run before the full-size instances: measured after
   them (about 1 GB of grids allocated and dropped), the hand-written
   loop below read 2-4x slower from one run to the next while the blit
   path did not move. *)
let ceiling_reps = 7

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  a.(Array.length a / 2)

let timed_s f =
  let t0 = Unix.gettimeofday () in
  f ();
  Unix.gettimeofday () -. t0

external ( .!() ) : float array -> int -> float = "%array_unsafe_get"
external ( .!()<- ) : float array -> int -> float -> unit = "%array_unsafe_set"

(* Grid blits: laplacian2d's statement over every interior row of one
   time step of the full-size 3072^2 grid, once through the blit path
   ([Common.compile_rows]/[exec_rows]: one fused [Tape.exec_plan] run per
   row) and once through a hand-written loop that computes the same
   expression in one fused pass, unrolled x4 like the plan kernels. The
   two must leave the grid bit-identical, which also proves the hand
   loop is the same stencil. Both sweep two 75 MB planes, so they pay
   the same cache misses the real blits do. *)
let blit_ceiling (dev : Device.t) =
  let prog = Suite.laplacian2d in
  let env = Experiments.paper_sizes prog in
  let ctx = Common.make_ctx prog (fun p -> List.assoc p env) dev in
  let reads = Common.stmt_reads ctx ~stmt_idx:0
  and write = Common.stmt_write ctx ~stmt_idx:0 in
  let g = write.Common.sgrid in
  let nd = Array.length g.Hextile_ir.Grid.dims in
  let width = g.Hextile_ir.Grid.dims.(nd - 1) in
  let lo = ctx.Common.lo.(0) and hi = ctx.Common.hi.(0) in
  let nx = hi.(1) - lo.(1) + 1 in
  let rows =
    List.init (hi.(0) - lo.(0) + 1) (fun i ->
        let pt = [| lo.(0) + i; lo.(1) |] in
        (0, 0, write.Common.sflat 0 pt, Array.map (fun r -> r.Common.sflat 0 pt) reads, nx))
  in
  let points = List.length rows * nx in
  (* hand loop: c - width, c + width, c - 1, c + 1 are the tape's four
     neighbour sources in order and c (source 4) the centre; the
     bit-identity check below fails otherwise *)
  if Array.length reads <> 5 then failwith "ceilings: laplacian2d is not a 5-read stencil";
  let hand_bases = List.map (fun (_, _, wo, srcs, _) -> (wo, srcs.(4))) rows |> Array.of_list in
  let data = g.Hextile_ir.Grid.data in
  let src = reads.(4).Common.sgrid.Hextile_ir.Grid.data in
  (* the hand loop's accesses are unchecked: bound its extremes first *)
  Array.iter
    (fun (wo, c) ->
      if c - width < 0 || c + nx + width > Array.length src || wo < 0
         || wo + nx > Array.length data
      then failwith "ceilings: hand-written loop row out of bounds")
    hand_bases;
  let hand () =
    Array.iter
      (fun (wo, c) ->
        for q = 0 to (nx lsr 2) - 1 do
          let c = c + (q lsl 2) and o = wo + (q lsl 2) in
          data.!(o) <-
            (0.125 *. (src.!(c - width) +. src.!(c + width) +. src.!(c - 1) +. src.!(c + 1)))
            +. (0.5 *. src.!(c));
          data.!(o + 1) <-
            (0.125
             *. (src.!(c + 1 - width) +. src.!(c + 1 + width) +. src.!(c) +. src.!(c + 2)))
            +. (0.5 *. src.!(c + 1));
          data.!(o + 2) <-
            (0.125
             *. (src.!(c + 2 - width) +. src.!(c + 2 + width) +. src.!(c + 1) +. src.!(c + 3)))
            +. (0.5 *. src.!(c + 2));
          data.!(o + 3) <-
            (0.125
             *. (src.!(c + 3 - width) +. src.!(c + 3 + width) +. src.!(c + 2) +. src.!(c + 4)))
            +. (0.5 *. src.!(c + 3))
        done;
        for x = nx land lnot 3 to nx - 1 do
          let c = c + x in
          data.!(wo + x) <-
            (0.125 *. (src.!(c - width) +. src.!(c + width) +. src.!(c - 1) +. src.!(c + 1)))
            +. (0.5 *. src.!(c))
        done)
      hand_bases
  in
  let crows = Common.compile_rows ctx rows in
  let blit () = Common.exec_rows ctx crows ~off:0 in
  blit ();
  let by_blit = Array.copy data in
  hand ();
  if
    not
      (Array.for_all2
         (fun a b -> Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b))
         by_blit data)
  then failwith "ceilings: hand-written laplacian2d loop differs from the blit path";
  let tb = ref [] and th = ref [] in
  for _ = 1 to ceiling_reps do
    tb := timed_s blit :: !tb;
    th := timed_s hand :: !th
  done;
  let ns t = 1e9 *. t /. float_of_int points in
  let blit_ns = ns (median !tb) and hand_ns = ns (median !th) in
  Fmt.pr
    "ceiling: grid blits %.2f ns/point vs hand-written loop %.2f ns/point \
     (%.0f%% of ceiling; laplacian2d, %d points/sweep)@."
    blit_ns hand_ns (100. *. hand_ns /. blit_ns) points;
  Json.Obj
    [
      ("stencil", Json.Str prog.name);
      ("points", Json.Int points);
      ("reps", Json.Int ceiling_reps);
      ("blit_ns_per_point", Json.Float blit_ns);
      ("hand_ns_per_point", Json.Float hand_ns);
      ("frac_of_ceiling", Json.Float (hand_ns /. blit_ns));
    ]

(* DRAM replay: a bare [L2.access_run] loop on the device's L2
   geometry, 8-line runs streamed through a region far larger than the
   cache, each run read and then written back (a miss, then a hit at
   the MRU way). Returns lines per second; the full-size runs'
   replay_lines / dram_replay_s is reported as a fraction of it. *)
let replay_ceiling (dev : Device.t) =
  let run_lines = 8 and nruns = 1 lsl 19 in
  let l2 =
    L2.create ~bytes:dev.Device.l2_bytes ~assoc:dev.Device.l2_assoc
      ~line_bytes:dev.Device.line_bytes
  in
  let stream () =
    for k = 0 to nruns - 1 do
      let line0 = k * run_lines in
      ignore (L2.access_run l2 ~line0 ~n:run_lines ~write:false);
      ignore (L2.access_run l2 ~line0 ~n:run_lines ~write:true)
    done
  in
  stream ();
  let lines = 2 * nruns * run_lines in
  let bare_lps = float_of_int lines /. median (List.init ceiling_reps (fun _ -> timed_s stream)) in
  Fmt.pr "ceiling: bare L2.access_run loop %.1f M lines/s (%d-line runs)@."
    (bare_lps /. 1e6) run_lines;
  (bare_lps, run_lines, lines)

(* Two-part witness for the analytic mode. Part 1, divergence check: on
   the scaled Table 3 suite the analytic run must reproduce the exact
   engine's grids and counters bit for bit (DRAM within
   Analytic.dram_error_bound; the measured worst-case error is
   recorded). Part 2, the payoff: the paper's actual full-size instances
   (3072²×512 and 384³×128) — far beyond exact simulation — must each
   complete inside the wall-clock budget. Between the two, the grid-blit
   and DRAM-replay ceilings are measured, and the full-size runs report
   their replay rate against the latter. Fails on any divergence, bound
   violation, budget overrun or ceiling loop that disagrees with the
   blit path. The JSON lands in BENCH_analytic.json via
   `make bench-analytic`. *)
let analytic ~jobs ~quick () =
  section
    (Fmt.str "Analytic simulation: scaled divergence check + full-size runs \
              (jobs=%d)" jobs);
  let dev = Device.gtx470 in
  let timed f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  (* part 1: scaled instances, exact vs analytic *)
  let rows = ref [] in
  let max_err = ref 0.0 and tot_exact = ref 0.0 and tot_an = ref 0.0 in
  let rel a e = float_of_int (abs (a - e)) /. float_of_int (max 1 e) in
  List.iter
    (fun (prog : Hextile_ir.Stencil.t) ->
      let env = Experiments.sizes ~quick prog in
      let run analytic () =
        Par.with_pool ~jobs @@ fun pool ->
        Experiments.run_scheme ~pool ~analytic ~verify:false Experiments.Hybrid
          prog env dev
      in
      let r_ex, t_ex = timed (run false) in
      let r_an, t_an = timed (run true) in
      let grids_equal =
        Hashtbl.fold
          (fun name g acc ->
            acc && Hextile_ir.Grid.equal g (Hextile_ir.Grid.find r_an.Common.grids name))
          r_ex.Common.grids true
      in
      if not grids_equal || r_ex.updates <> r_an.updates then
        failwith (Fmt.str "analytic: %s grids/updates diverge" prog.name);
      let dram k = List.assoc k (Counters.to_assoc r_ex.counters),
                   List.assoc k (Counters.to_assoc r_an.counters) in
      List.iter2
        (fun (k, ve) (k', va) ->
          assert (k = k');
          let is_dram =
            k = "dram_read_transactions" || k = "dram_write_transactions"
          in
          if (not is_dram) && ve <> va then
            failwith
              (Fmt.str "analytic: %s counter %s diverges (%d vs %d)" prog.name
                 k ve va))
        (Counters.to_assoc r_ex.counters)
        (Counters.to_assoc r_an.counters);
      let er, ar = dram "dram_read_transactions"
      and ew, aw = dram "dram_write_transactions" in
      let err = Float.max (rel ar er) (rel aw ew) in
      if err > Analytic.dram_error_bound then
        failwith
          (Fmt.str "analytic: %s DRAM error %.4f exceeds bound %.4f" prog.name
             err Analytic.dram_error_bound);
      max_err := Float.max !max_err err;
      tot_exact := !tot_exact +. t_ex;
      tot_an := !tot_an +. t_an;
      Fmt.pr
        "%-12s exact %7.1f ms  analytic %7.1f ms (%4.1fx)  %d/%d blocks scaled \
         (%d classes)  dram err %.4f@."
        prog.name (1000. *. t_ex) (1000. *. t_an) (t_ex /. t_an)
        r_an.blocks_analytic r_an.blocks r_an.classes err;
      rows :=
        ( prog.name,
          Json.Obj
            [
              ("t_exact_s", Json.Float t_ex);
              ("t_analytic_s", Json.Float t_an);
              ("speedup", Json.Float (t_ex /. t_an));
              ("blocks", Json.Int r_an.blocks);
              ("blocks_analytic", Json.Int r_an.blocks_analytic);
              ("classes", Json.Int r_an.classes);
              ("dram_err", Json.Float err);
              ("identical", Json.Bool true);
            ] )
        :: !rows)
    Suite.table3;
  Fmt.pr "scaled total: exact %.2f s, analytic %.2f s (%.2fx), worst dram err %.4f@."
    !tot_exact !tot_an (!tot_exact /. !tot_an) !max_err;
  (* the epilogue ceilings, on a fresh heap (see [ceiling_reps]) *)
  let blit_json = blit_ceiling dev in
  let bare_lps, run_lines, bare_lines = replay_ceiling dev in
  (* part 2: the paper's full-size instances. These runs are pure
     compute against a wall-clock budget, so never oversubscribe the
     machine: a pool wider than the physical core count only adds
     scheduler churn (measured ~30% on a 1-core container at jobs=2)
     without changing the result — the output is bit-identical at every
     jobs value by the determinism contract. *)
  let fs_jobs = min jobs (Domain.recommended_domain_count ()) in
  if fs_jobs < jobs then
    Fmt.pr "full-size runs at jobs=%d (machine has %d cores)@." fs_jobs
      (Domain.recommended_domain_count ());
  let full = ref [] and replay_rates = ref [] in
  let replay_lps (r : Common.result) =
    float_of_int r.Common.replay_lines /. (r.Common.dram_ms /. 1000.)
  in
  List.iter
    (fun (prog : Hextile_ir.Stencil.t) ->
      let env = Experiments.paper_sizes prog in
      let n = List.assoc "N" env and t = List.assoc "T" env in
      let r, wall =
        timed (fun () ->
            if fs_jobs <= 1 then
              Experiments.run_scheme ~analytic:true ~verify:false
                Experiments.Hybrid prog env dev
            else
              Par.with_pool ~jobs:fs_jobs @@ fun pool ->
              Experiments.run_scheme ~pool ~analytic:true ~verify:false
                Experiments.Hybrid prog env dev)
      in
      Fmt.pr
        "%-12s N=%d T=%d: %.1f s wall (budget %.0f s)  %d/%d blocks scaled  \
         %.2f GStencils/s@."
        prog.name n t wall analytic_budget_s r.Common.blocks_analytic
        r.Common.blocks
        (Common.gstencils_per_s r);
      Fmt.pr
        "             epilogue %.1f s (derive %.1f, dram replay %.1f, grid \
         blits %.1f)  blit_rows=%d replay_lines=%d@."
        (r.Common.epilogue_ms /. 1000.) (r.Common.derive_ms /. 1000.)
        (r.Common.dram_ms /. 1000.) (r.Common.grids_ms /. 1000.)
        r.Common.blit_rows r.Common.replay_lines;
      if wall > analytic_budget_s then
        failwith
          (Fmt.str "analytic: full-size %s took %.1f s, over the %.0f s budget"
             prog.name wall analytic_budget_s);
      if r.Common.blocks_analytic = 0 then
        failwith (Fmt.str "analytic: full-size %s scaled no blocks" prog.name);
      full :=
        ( prog.name,
          Json.Obj
            [
              ("n", Json.Int n);
              ("t", Json.Int t);
              ("jobs", Json.Int fs_jobs);
              ("wall_s", Json.Float wall);
              ("budget_s", Json.Float analytic_budget_s);
              ("blocks", Json.Int r.Common.blocks);
              ("blocks_analytic", Json.Int r.Common.blocks_analytic);
              ("classes", Json.Int r.Common.classes);
              ("updates", Json.Int r.Common.updates);
              ("gstencils_per_s", Json.Float (Common.gstencils_per_s r));
              ("epilogue_s", Json.Float (r.Common.epilogue_ms /. 1000.));
              ("derive_s", Json.Float (r.Common.derive_ms /. 1000.));
              ("dram_replay_s", Json.Float (r.Common.dram_ms /. 1000.));
              ("grid_blits_s", Json.Float (r.Common.grids_ms /. 1000.));
              ("blit_rows", Json.Int r.Common.blit_rows);
              ("replay_lines", Json.Int r.Common.replay_lines);
              ("replay_lines_per_s", Json.Float (replay_lps r));
              ("result", Experiments.result_json r);
            ] )
        :: !full;
      replay_rates := (prog.name, replay_lps r) :: !replay_rates)
    [ Suite.laplacian2d; Suite.laplacian3d ];
  let replay_fracs =
    List.map
      (fun (name, lps) ->
        Fmt.pr "ceiling: %-12s DRAM replay %.1f M lines/s = %.0f%% of the bare loop@."
          name (lps /. 1e6) (100. *. lps /. bare_lps);
        (name, Json.Float (lps /. bare_lps)))
      (List.rev !replay_rates)
  in
  Json.Obj
    [
      ("jobs", Json.Int jobs);
      ("dram_error_bound", Json.Float Analytic.dram_error_bound);
      ("max_dram_err", Json.Float !max_err);
      ("t_exact_s", Json.Float !tot_exact);
      ("t_analytic_s", Json.Float !tot_an);
      ("speedup", Json.Float (!tot_exact /. !tot_an));
      ("stencils", Json.Obj (List.rev !rows));
      ("full_size", Json.Obj (List.rev !full));
      ( "ceilings",
        Json.Obj
          [
            ("grid_blits", blit_json);
            ( "dram_replay",
              Json.Obj
                [
                  ("run_lines", Json.Int run_lines);
                  ("lines", Json.Int bare_lines);
                  ("reps", Json.Int ceiling_reps);
                  ("bare_lines_per_s", Json.Float bare_lps);
                  ("frac_of_ceiling", Json.Obj replay_fracs);
                ] );
          ] );
    ]

(* ---- staged tile-size search benchmark: staged vs exhaustive --------- *)

module Tile_size = Hextile_tiling.Tile_size

(* Larger grids than the CLI default so the analytic layer has something
   to prune; h descends so good (large-h) candidates are screened first
   and their ratio bounds dominate the rest of the walk. Candidate order
   is identical for both searches, so the choice contract still holds. *)
let tilesearch_grids (prog : Hextile_ir.Stencil.t) =
  if Hextile_ir.Stencil.spatial_dims prog = 3 then
    ([ 5; 3; 2; 1 ], [ 2; 4; 6; 8 ], [ [ 1; 2; 4; 8 ]; [ 32; 64; 128 ] ])
  else ([ 7; 5; 3; 2; 1 ], [ 2; 4; 6; 8; 12; 16 ], [ [ 32; 64; 128; 256 ] ])

let tilesearch_budget = 12288 (* 48 KiB of floats *)

let same_choice a b =
  match (a, b) with
  | None, None -> true
  | Some (x : Tile_size.choice), Some (y : Tile_size.choice) ->
      x.h = y.h && x.w = y.w && x.stats = y.stats
  | _ -> false

(* Wall-clock and counter comparison of the staged search against the
   frozen exhaustive oracle over the Table 3 suite, plus the jobs
   determinism check; fails on any choice divergence or if the analytic
   layer stops paying for itself (< 5x fewer exact evaluations than
   candidates). The JSON lands in BENCH_tilesize.json via
   `make bench-tilesize`. *)
let tilesearch ~jobs ~quick () =
  ignore quick;
  section (Fmt.str "Tile-size search: staged vs exhaustive (Table 3, jobs=%d)" jobs);
  let rows = ref [] in
  let tot_cand = ref 0 and tot_evals = ref 0 in
  let tot_ex = ref 0.0 and tot_st = ref 0.0 and tot_par = ref 0.0 in
  List.iter
    (fun (prog : Hextile_ir.Stencil.t) ->
      let hc, w0c, wi = tilesearch_grids prog in
      let timed f =
        let t0 = Unix.gettimeofday () in
        let r = f () in
        (r, Unix.gettimeofday () -. t0)
      in
      let oracle, t_ex =
        timed (fun () ->
            Tile_size.select_exhaustive prog ~h_candidates:hc ~w0_candidates:w0c
              ~wi_candidates:wi ~shared_mem_floats:tilesearch_budget
              ~require_multiple:32 ())
      in
      let (staged, report), t_st =
        timed (fun () ->
            Tile_size.select_with_report prog ~h_candidates:hc ~w0_candidates:w0c
              ~wi_candidates:wi ~shared_mem_floats:tilesearch_budget
              ~require_multiple:32 ())
      in
      let (staged_par, report_par), t_par =
        timed (fun () ->
            Par.with_pool ~jobs @@ fun pool ->
            Tile_size.select_with_report ~pool prog ~h_candidates:hc
              ~w0_candidates:w0c ~wi_candidates:wi
              ~shared_mem_floats:tilesearch_budget ~require_multiple:32 ())
      in
      if not (same_choice staged oracle) then
        failwith (Fmt.str "tilesearch: %s staged choice differs from exhaustive" prog.name);
      if not (same_choice staged_par oracle) then
        failwith
          (Fmt.str "tilesearch: %s staged choice differs at jobs=%d" prog.name jobs);
      if report <> report_par then
        failwith (Fmt.str "tilesearch: %s search counters differ at jobs=%d" prog.name jobs);
      tot_cand := !tot_cand + report.candidates;
      tot_evals := !tot_evals + report.exact_evals;
      tot_ex := !tot_ex +. t_ex;
      tot_st := !tot_st +. t_st;
      tot_par := !tot_par +. t_par;
      Fmt.pr
        "%-12s %4d candidates -> %3d exact evals (%3d infeasible, %3d dominated)  \
         exhaustive %6.1f ms  staged %6.1f ms  staged(jobs=%d) %6.1f ms@."
        prog.name report.candidates report.exact_evals report.pruned_infeasible
        report.pruned_dominated (1000. *. t_ex) (1000. *. t_st) jobs (1000. *. t_par);
      let choice_json =
        match staged with
        | None -> Json.Str "none"
        | Some c ->
            Json.Obj
              [
                ("h", Json.Int c.h);
                ( "w",
                  Json.List (Array.to_list (Array.map (fun x -> Json.Int x) c.w)) );
                ("ratio", Json.Float c.stats.ratio);
              ]
      in
      rows :=
        ( prog.name,
          Json.Obj
            [
              ("candidates", Json.Int report.candidates);
              ("feasible", Json.Int report.feasible);
              ("pruned_infeasible", Json.Int report.pruned_infeasible);
              ("pruned_dominated", Json.Int report.pruned_dominated);
              ("exact_evals", Json.Int report.exact_evals);
              ("t_exhaustive_s", Json.Float t_ex);
              ("t_staged_s", Json.Float t_st);
              ("t_staged_par_s", Json.Float t_par);
              ("choice", choice_json);
              ("identical", Json.Bool true);
            ] )
        :: !rows)
    Suite.table3;
  Fmt.pr
    "total: %d candidates, %d exact evals (%.1fx fewer), exhaustive %.2f s, \
     staged %.2f s (%.2fx), staged jobs=%d %.2f s@."
    !tot_cand !tot_evals
    (float_of_int !tot_cand /. float_of_int (max 1 !tot_evals))
    !tot_ex !tot_st (!tot_ex /. !tot_st) jobs !tot_par;
  if !tot_evals * 5 > !tot_cand then
    failwith
      (Fmt.str "tilesearch: analytic layer pruned too little (%d exact evals of %d candidates)"
         !tot_evals !tot_cand);
  Json.Obj
    [
      ("jobs", Json.Int jobs);
      ("total_candidates", Json.Int !tot_cand);
      ("total_exact_evals", Json.Int !tot_evals);
      ("t_exhaustive_s", Json.Float !tot_ex);
      ("t_staged_s", Json.Float !tot_st);
      ("t_staged_par_s", Json.Float !tot_par);
      ("stencils", Json.Obj (List.rev !rows));
    ]

(* ---- serve daemon benchmark ------------------------------------------- *)

module Serve = Hextile_serve

(* Sustained request throughput and latency through the serve daemon,
   cold cache vs warm, over Table 3 traffic plus seeded fuzz programs
   with duplicates. Three gates, all failwith on violation (so `make
   bench-serve` is a real check): (1) every response stream is bit-wise
   identical at jobs 1, 2 and 4, cold and warm; (2) every run response
   carries exactly the grids hash and result record of the one-shot
   pipeline (what `hextile run` prints); (3) the warm cache delivers at
   least 3x the cold throughput. The JSON lands in BENCH_serve.json via
   `make bench-serve`. *)
let serve_bench ~jobs ~quick () =
  section
    (Fmt.str
       "Serve daemon: cold vs warm throughput, Table 3 + fuzz traffic \
        (jobs=%d%s)"
       jobs
       (if quick then ", quick" else ""));
  let module Gen = Hextile_check.Gen in
  let module Rng = Hextile_check.Rng in
  let module Pretty = Hextile_check.Pretty in
  (* traffic: builtins at small instances + fuzzed sources, each program
     contributing tilesize + run + compile + a duplicate run *)
  let builtins =
    List.filter_map
      (fun (p : Hextile_ir.Stencil.t) ->
        let dims = Hextile_ir.Stencil.spatial_dims p in
        if (not quick) || dims <= 2 then
          Some (p.name, `Builtin p.name, if dims >= 3 then (16, 4) else (64, 8))
        else None)
      Suite.table3
  in
  let base = Rng.create 0xbe7c5 in
  let fuzzed =
    List.map
      (fun seed ->
        let prog, env = Gen.generate (Rng.derive base seed) in
        ( Fmt.str "fuzz%d" seed,
          `Source (Pretty.to_source prog),
          (List.assoc "N" env, List.assoc "T" env) ))
      [ 1; 2; 3; 4; 5; 6 ]
  in
  let mk_line id op (_, src, (n, t)) =
    let prog_field =
      match src with
      | `Builtin b -> Fmt.str "\"builtin\":%s" (Json.to_string (Json.Str b))
      | `Source s -> Fmt.str "\"source\":%s" (Json.to_string ~minify:true (Json.Str s))
    in
    Fmt.str "{\"id\":%d,\"op\":%S,%s,\"N\":%d,\"T\":%d}" id op prog_field n t
  in
  let traffic =
    List.concat
      (List.mapi
         (fun i p ->
           [
             mk_line (i * 10) "tilesize" p;
             mk_line ((i * 10) + 1) "run" p;
             mk_line ((i * 10) + 2) "run" p;
             mk_line ((i * 10) + 3) "compile" p;
           ])
         (builtins @ fuzzed))
  in
  let nreq = List.length traffic in
  (* one request per wave, timed individually, through one pool and one
     cache — the daemon-lifetime configuration *)
  let exec_one ~cache ~pool line =
    let out = ref None in
    let fed = ref false in
    let t0 = Unix.gettimeofday () in
    Serve.Daemon.run_lines ~cache ~pool
      ~read_line:(fun () ->
        if !fed then None
        else begin
          fed := true;
          Some line
        end)
      ~write_line:(fun l -> out := Some l)
      ();
    let dt = Unix.gettimeofday () -. t0 in
    match !out with
    | Some l -> (dt, l)
    | None -> failwith "serve: request produced no response"
  in
  let pass ~cache ~pool =
    List.split (List.map (exec_one ~cache ~pool) traffic)
  in
  let stream_at jobs =
    Par.with_pool ~jobs (fun pool ->
        let cache = Serve.Cache.create () in
        let _, cold = pass ~cache ~pool in
        let _, warm = pass ~cache ~pool in
        (cold, warm))
  in
  (* nearest rank: the smallest sample with at least p% of them at or
     below it *)
  let percentile sorted p =
    let n = List.length sorted in
    List.nth sorted (max 0 (((p * n) + 99) / 100 - 1))
  in
  (* The tail the sample count supports: the highest percentile with at
     least ten samples beyond it (p75 for 40 samples; a "p99" of 40
     samples would be their maximum). Below 40 samples that percentile
     is no tail, and only the median is reported. *)
  let tail_pct n = if n >= 40 then Some (100 * (n - 10) / n) else None in
  let stats_of lat =
    let sorted = List.sort compare lat in
    let n = List.length lat in
    let total = List.fold_left ( +. ) 0.0 lat in
    ( total,
      float_of_int n /. total,
      1000.0 *. percentile sorted 50,
      (n, Option.map (fun p -> (p, 1000.0 *. percentile sorted p)) (tail_pct n)) )
  in
  let pp_tail ppf = function
    | n, Some (p, ms) -> Fmt.pf ppf "p%d %.1f ms (n=%d)" p ms n
    | n, None -> Fmt.pf ppf "no supported tail (n=%d)" n
  in
  (* the measured run: one pool at the requested jobs *)
  Par.with_pool ~jobs
  @@ fun pool ->
  let cache = Serve.Cache.create () in
  let cold_lat, cold_resp = pass ~cache ~pool in
  let warm_lat, warm_resp = pass ~cache ~pool in
  let cold_s, cold_rps, cold_p50, cold_tail = stats_of cold_lat in
  let warm_s, warm_rps, warm_p50, warm_tail = stats_of warm_lat in
  let speedup = warm_rps /. cold_rps in
  let s = Serve.Cache.stats cache in
  let hit_rate h m = float_of_int h /. float_of_int (max 1 (h + m)) in
  Fmt.pr "%d requests (%d programs)@." nreq (List.length (builtins @ fuzzed));
  Fmt.pr "cold: %.2f s  %.1f req/s  p50 %.1f ms  %a@." cold_s cold_rps cold_p50 pp_tail
    cold_tail;
  Fmt.pr "warm: %.2f s  %.1f req/s  p50 %.1f ms  %a  (%.1fx)@." warm_s warm_rps warm_p50
    pp_tail warm_tail speedup;
  Fmt.pr
    "hit rates: entry %.2f  tilesize %.2f  run %.2f  compile %.2f  \
     (collisions %d)@."
    (hit_rate s.entry_hits s.entry_misses)
    (hit_rate s.tilesize_hits s.tilesize_misses)
    (hit_rate s.run_hits s.run_misses)
    (hit_rate s.compile_hits s.compile_misses)
    s.collisions;
  (* gate 1: bit-identical response streams cold/warm and across jobs *)
  if cold_resp <> warm_resp then
    failwith "serve: warm responses diverge bit-wise from cold responses";
  List.iter
    (fun j ->
      let cold_j, warm_j = stream_at j in
      if cold_j <> cold_resp || warm_j <> warm_resp then
        failwith (Fmt.str "serve: responses diverge bit-wise at jobs=%d" j))
    (List.filter (fun j -> j <> jobs) [ 1; 2; 4 ]);
  (* gate 2: run responses carry exactly the one-shot pipeline's result.
     Responses are matched by request id (the first "run" line of program
     i carries id 10i+1) — source-form programs all share the name
     "<request>", so the name can't disambiguate them. *)
  List.iteri
    (fun i (name, src, (n, t)) ->
      let prog =
        match src with
        | `Builtin b -> Suite.find b
        | `Source s -> (
            (* same name the daemon gives source-form programs *)
            match Hextile_frontend.Front.parse_string ~name:"<request>" s with
            | Ok p -> p
            | Error m -> failwith ("serve: " ^ name ^ ": " ^ m))
      in
      let env = [ ("N", n); ("T", t) ] in
      let oneshot = Experiments.run_scheme Experiments.Hybrid prog env Device.gtx470 in
      let response =
        List.find
          (fun line ->
            match Json.parse line with
            | Ok doc -> Json.member "id" doc = Some (Json.Int ((i * 10) + 1))
            | Error _ -> false)
          cold_resp
      in
      let doc = Result.get_ok (Json.parse response) in
      let expect_hash =
        Serve.Engine.grids_hash prog oneshot.Hextile_schemes.Common.grids
      in
      if Json.member "grids_hash" doc <> Some (Json.Str expect_hash) then
        failwith (Fmt.str "serve: %s grids hash diverges from one-shot" name);
      if
        Option.map Json.to_string (Json.member "result" doc)
        <> Some (Json.to_string (Experiments.result_json oneshot))
      then
        failwith (Fmt.str "serve: %s result diverges from one-shot" name))
    (builtins @ fuzzed);
  Fmt.pr "bit-identity: ok at jobs 1/2/4, cold and warm, vs one-shot@.";
  (* gate 3: the cache must actually pay *)
  if speedup < 3.0 then
    failwith
      (Fmt.str "serve: warm throughput %.2fx cold, below the 3x floor" speedup);
  let leg name (total, rps, p50, (n, tail)) =
    ( name,
      Json.Obj
        ([
           ("total_s", Json.Float total);
           ("req_per_s", Json.Float rps);
           ("n", Json.Int n);
           ("p50_ms", Json.Float p50);
         ]
        @
        match tail with
        | Some (p, ms) -> [ ("tail_pct", Json.Int p); ("tail_ms", Json.Float ms) ]
        | None -> []) )
  in
  Json.Obj
    [
      ("jobs", Json.Int jobs);
      ("requests", Json.Int nreq);
      ("programs", Json.Int (List.length (builtins @ fuzzed)));
      leg "cold" (cold_s, cold_rps, cold_p50, cold_tail);
      leg "warm" (warm_s, warm_rps, warm_p50, warm_tail);
      ("warm_speedup", Json.Float speedup);
      ( "hit_rates",
        Json.Obj
          [
            ("entry", Json.Float (hit_rate s.entry_hits s.entry_misses));
            ("tilesize", Json.Float (hit_rate s.tilesize_hits s.tilesize_misses));
            ("run", Json.Float (hit_rate s.run_hits s.run_misses));
            ("compile", Json.Float (hit_rate s.compile_hits s.compile_misses));
            ("collisions", Json.Int s.collisions);
          ] );
      ("cache", Serve.Cache.stats_json cache);
      ("identical", Json.Bool true);
    ]

(* ---- Bechamel micro-benchmarks: one per table/figure driver ---------- *)

let micro () =
  section "Bechamel micro-benchmarks (tiny instances)";
  let open Bechamel in
  let tiny2 = [ ("N", 64); ("T", 8) ] and tiny3 = [ ("N", 16); ("T", 4) ] in
  let run s p env () =
    ignore (Experiments.run_scheme ~verify:false s p env Device.gtx470)
  in
  let tests =
    [
      Test.make ~name:"fig2:ptx-core"
        (Staged.stage (fun () -> ignore (Experiments.figure2_text ())));
      Test.make ~name:"fig3:dependence-cone"
        (Staged.stage (fun () -> ignore (Experiments.figure3_text ())));
      Test.make ~name:"fig4:hexagon-shape"
        (Staged.stage (fun () -> ignore (Experiments.figure4_text ())));
      Test.make ~name:"fig5:tiling-pattern"
        (Staged.stage (fun () -> ignore (Experiments.figure5_text ())));
      Test.make ~name:"fig6:hybrid-schedule"
        (Staged.stage (fun () -> ignore (Experiments.figure6_text ())));
      Test.make ~name:"table1:hybrid-heat2d"
        (Staged.stage (run Experiments.Hybrid Suite.heat2d tiny2));
      Test.make ~name:"table1:ppcg-heat2d"
        (Staged.stage (run Experiments.Ppcg Suite.heat2d tiny2));
      Test.make ~name:"table2:overtile-heat2d"
        (Staged.stage (run Experiments.Overtile Suite.heat2d tiny2));
      Test.make ~name:"table3:characterize"
        (Staged.stage (fun () -> ignore (Experiments.table3_text ())));
      Test.make ~name:"table4:hybrid-heat3d"
        (Staged.stage (run Experiments.Hybrid Suite.heat3d tiny3));
      Test.make ~name:"table5:hybrid-heat3d-noshared"
        (Staged.stage (fun () ->
             let config =
               {
                 (Hextile_schemes.Hybrid_exec.default_config Suite.heat3d) with
                 strategy = Hextile_schemes.Hybrid_exec.strategy_of_step 'a';
               }
             in
             ignore
               (Hextile_schemes.Hybrid_exec.run ~config Suite.heat3d
                  (fun x -> List.assoc x tiny3)
                  Device.gtx470)));
      Test.make ~name:"tilesize:tile-stats"
        (Staged.stage (fun () ->
             let t =
               Hextile_tiling.Hybrid.make Suite.heat3d ~h:2 ~w:[| 7; 10; 32 |]
             in
             ignore (Hextile_tiling.Tile_size.tile_stats t)));
    ]
  in
  let cfg = Benchmark.cfg ~limit:50 ~quota:(Time.second 0.5) ~kde:None () in
  let instance = Toolkit.Instance.monotonic_clock in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let rows = ref [] in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg [ instance ] test in
      let est = Analyze.all ols instance results in
      Hashtbl.iter
        (fun name res ->
          match Analyze.OLS.estimates res with
          | Some (t :: _) ->
              Fmt.pr "%-34s %10.3f ms/run@." name (t /. 1e6);
              rows := (name, Json.Float (t /. 1e6)) :: !rows
          | _ -> Fmt.pr "%-34s (no estimate)@." name)
        est)
    tests;
  Json.Obj [ ("unit", Json.Str "ms/run"); ("runs", Json.Obj (List.rev !rows)) ]

(* ---- provenance for committed BENCH_*.json ---------------------------- *)

(* Reads HEAD from .git directly (no subprocess) so `bench --json` works
   in any environment that can build the tree. *)
let git_rev () =
  let read f =
    try Some (String.trim (In_channel.with_open_text f In_channel.input_all))
    with _ -> None
  in
  match read ".git/HEAD" with
  | Some head when String.length head > 5 && String.sub head 0 5 = "ref: " ->
      let r = String.sub head 5 (String.length head - 5) in
      (match read (".git/" ^ r) with
      | Some rev -> Some rev
      | None -> (
          (* the ref may only exist packed *)
          match read ".git/packed-refs" with
          | Some txt ->
              List.find_map
                (fun line ->
                  match String.index_opt line ' ' with
                  | Some i
                    when String.sub line (i + 1) (String.length line - i - 1) = r
                    ->
                      Some (String.sub line 0 i)
                  | _ -> None)
                (String.split_on_char '\n' txt)
          | None -> None))
  | Some rev when String.length rev = 40 -> Some rev
  | _ -> None

(* The timestamp is injected (HEXTILE_BENCH_TIMESTAMP, e.g. set by CI to
   the commit date) rather than read from the clock, so regenerating a
   committed BENCH_*.json from the same tree yields a byte-identical
   meta block. *)
let meta ~jobs =
  Json.Obj
    [
      ( "git_rev",
        match git_rev () with Some r -> Json.Str r | None -> Json.Null );
      ("ocaml_version", Json.Str Sys.ocaml_version);
      ("cores", Json.Int (Domain.recommended_domain_count ()));
      ("jobs", Json.Int jobs);
      ( "timestamp",
        match Sys.getenv_opt "HEXTILE_BENCH_TIMESTAMP" with
        | Some t -> Json.Str t
        | None -> Json.Null );
    ]

(* A command line the bench cannot honour is an error: report it and
   exit 2 before running anything. *)
let usage fmt = Fmt.kstr (fun m -> Fmt.epr "bench: %s@." m; exit 2) fmt

let () =
  let only = ref []
  and quick = ref true
  and do_micro = ref true
  and jobs = ref (Par.recommended_jobs ())
  and trace_out = ref None
  and json_out = ref None in
  let rec parse = function
    | [] -> ()
    | "--only" :: x :: rest ->
        only := x :: !only;
        parse rest
    | "--full" :: rest ->
        quick := false;
        parse rest
    | "--no-micro" :: rest ->
        do_micro := false;
        parse rest
    | "--jobs" :: n :: rest ->
        (match int_of_string_opt n with
        | Some j when j >= 1 -> jobs := j
        | _ -> usage "--jobs expects a positive integer, got %s" n);
        parse rest
    | "--trace-out" :: f :: rest ->
        trace_out := Some f;
        parse rest
    | "--json" :: f :: rest ->
        json_out := Some f;
        parse rest
    | x :: _ ->
        usage
          "unknown argument %s (expected --only <id> | --full | --no-micro | \
           --jobs <n> | --trace-out <file> | --json <file>)"
          x
  in
  parse (List.tl (Array.to_list Sys.argv));
  let quick = !quick and jobs = !jobs and trace_out = !trace_out in
  Par.with_pool ~jobs @@ fun pool ->
  let all =
    [
      ("fig1", fig1);
      ("fig2", fig2);
      ("fig3", fig3);
      ("fig4", fig4);
      ("fig5", fig5);
      ("fig6", fig6);
      ("table3", table3);
      ("tilesize", tilesize);
      ("ablate", ablate ~pool ~quick);
      ("diamond", diamond);
      ("split1d", split1d ~quick);
      ("table1", table1 ~pool ~quick);
      ("table2", table2 ~pool ~quick);
      ("table45", tables45 ~pool ~quick);
      ("parcmp", parcmp ~jobs ~quick);
      ("parattr", parattr ~jobs ~quick ~trace_out);
      ("simcmp", simcmp ~jobs ~quick);
      ("analytic", analytic ~jobs ~quick);
      ("tilesearch", tilesearch ~jobs ~quick);
      ("serve", serve_bench ~jobs ~quick);
      ("micro", micro);
    ]
  in
  let selected =
    match !only with
    | [] ->
        (* micro has its own timing loop; parcmp, parattr, tilesearch,
           simcmp, analytic and serve spawn their own pools and time
           things — all run only on request *)
        List.filter
          (fun id ->
            id <> "micro" && id <> "parcmp" && id <> "parattr"
            && id <> "tilesearch" && id <> "simcmp" && id <> "analytic"
            && id <> "serve")
          (List.map fst all)
    | l ->
        List.concat_map
          (fun x -> if x = "table4" || x = "table5" then [ "table45" ] else [ x ])
          (List.rev l)
  in
  List.iter
    (fun id ->
      if not (List.mem_assoc id all) then
        usage "unknown experiment id %s (known: %s)" id (String.concat ", " (List.map fst all)))
    selected;
  let results = List.map (fun id -> (id, (List.assoc id all) ())) selected in
  let results =
    if !do_micro && !only = [] then results @ [ ("micro", micro ()) ] else results
  in
  match !json_out with
  | None -> ()
  | Some path ->
      let doc =
        Json.Obj
          [
            ("bench_version", Json.Int 2);
            ("meta", meta ~jobs);
            ("quick", Json.Bool quick);
            ("experiments", Json.Obj results);
          ]
      in
      let oc = open_out path in
      output_string oc (Json.to_string doc);
      output_char oc '\n';
      close_out oc;
      Fmt.epr "wrote %s@." path
