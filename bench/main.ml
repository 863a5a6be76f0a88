(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation on the GPU simulator, and runs the gated performance modes
   whose JSON makes up the committed BENCH_*.json ledger.

   Usage:
     dune exec bench/main.exe                  -- every table and figure
     dune exec bench/main.exe -- --only table1 --only fig4
     dune exec bench/main.exe -- --only table1 --json out.json
     dune exec bench/main.exe -- --only parcmp --jobs 4 --json BENCH_par.json
     dune exec bench/main.exe -- --only parattr --jobs 4 \
         --json BENCH_parattr.json --trace-out parattr_trace.json
     make bench JOBS=4                         -- every perf mode, each into
                                                  its BENCH_*.json

   Every mode is one entry of [modes] below. The performance modes run
   only when named with --only; each raises when one of its gates
   fails, so the bench exits nonzero and writes no JSON. They print
   every row and total as a [name key=value ...] line through [emit],
   which returns the same fields for the JSON.

   With --json every selected mode contributes an entry keyed by its
   id. The top-level "meta" block records git rev, OCaml version, cores,
   jobs and an injected timestamp (HEXTILE_BENCH_TIMESTAMP) so committed
   BENCH_*.json files carry their provenance. *)

module Experiments = Hextile_experiments.Experiments
module Json = Hextile_obs.Json
module Timeline = Hextile_obs.Timeline
module Par = Hextile_par.Par
module Common = Hextile_schemes.Common
module Grid = Hextile_ir.Grid
module Stencil = Hextile_ir.Stencil
open Hextile_gpusim
open Hextile_stencils

(* ---- shared helpers ---------------------------------------------------- *)

let timed f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  a.(Array.length a / 2)

(* Prints one row as [name key=value ...] and returns its fields, so a
   printed line and its JSON cannot disagree. *)
let emit name fields =
  let pp_value ppf = function
    | Json.Float f -> Fmt.pf ppf "%.4g" f
    | Json.Str s -> Fmt.string ppf s
    | v -> Fmt.string ppf (Json.to_string ~minify:true v)
  in
  let pp_field ppf (k, v) = Fmt.pf ppf " %s=%a" k pp_value v in
  Fmt.pr "%-12s%a@." name Fmt.(list ~sep:nop pp_field) fields;
  fields

(* A named row of a mode's JSON. *)
let row name fields = (name, Json.Obj (emit name fields))

(* What differs between two runs of one program, if anything: a counter
   (except those in [except]), the update or block count, or a grid. *)
let difference ?(except = []) (a : Common.result) (b : Common.result) =
  let counters (r : Common.result) =
    List.filter (fun (k, _) -> not (List.mem k except)) (Counters.to_assoc r.counters)
  in
  match
    List.find_opt (fun ((_, x), (_, y)) -> x <> y) (List.combine (counters a) (counters b))
  with
  | Some ((k, x), (_, y)) -> Some (Fmt.str "counter %s (%d vs %d)" k x y)
  | None when a.updates <> b.updates -> Some "updates"
  | None when a.blocks <> b.blocks -> Some "blocks"
  | None ->
      Hashtbl.fold
        (fun name g acc ->
          if acc = None && not (Grid.equal g (Grid.find b.grids name)) then
            Some ("grid " ^ name)
          else acc)
        a.grids None

let check_same what (prog : Stencil.t) ?except a b =
  Option.iter
    (fun d -> failwith (Fmt.str "%s: %s %s differs" what prog.name d))
    (difference ?except a b)

type ctx = { pool : Par.pool; jobs : int; trace_out : string option }

(* ---- the paper's tables and figures ------------------------------------ *)

let text_json s = Json.Obj [ ("text", Json.Str s) ]

let fig1 _ =
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

let fig_text text _ =
  let s = text () in
  print_string s;
  text_json s

let table12 dev { pool; _ } =
  let rows = Experiments.table12 ~pool dev in
  Experiments.pp_table12 dev Fmt.stdout rows;
  Experiments.table12_json dev rows

let table1 ctx =
  let json = table12 Device.gtx470 ctx in
  print_string (Experiments.patus_note ~pool:ctx.pool Device.gtx470);
  json

let tables45 { pool; _ } =
  let gtx = Experiments.ladder ~pool Device.gtx470 in
  let nvs = Experiments.ladder ~pool Device.nvs5200m in
  Experiments.pp_table4 Fmt.stdout [ (Device.nvs5200m, nvs); (Device.gtx470, gtx) ];
  Experiments.pp_table5 Fmt.stdout (Device.gtx470, gtx);
  Json.Obj
    [
      ("gtx470", Experiments.ladder_json Device.gtx470 gtx);
      ("nvs5200m", Experiments.ladder_json Device.nvs5200m nvs);
    ]

let ablate { pool; _ } =
  let sweep = Experiments.h_sweep ~pool Device.gtx470 Suite.heat2d in
  List.iter
    (fun (h, g) -> Fmt.pr "h=%d (%d time steps/tile): %.2f GStencils/s@." h ((2 * h) + 2) g)
    sweep;
  Experiments.h_sweep_json sweep

(* ---- parallel-runtime benchmark: jobs=1 vs jobs=N -------------------- *)

(* Wall-clock comparison of the full table12 sim suite sequentially vs
   fanned out over the pool, plus a bit-exactness check of the rows —
   the bench-level witness of the determinism contract.

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

let parcmp { jobs; _ } =
  let suite j =
    Par.with_pool ~jobs:j @@ fun pool ->
    timed (fun () -> Experiments.table12 ~pool Device.gtx470)
  in
  let rows1, t1 = suite 1 in
  let rows_n, tn = suite jobs in
  let rows =
    List.map
      (fun (r : Experiments.perf_row) ->
        row r.kernel
          (List.map (fun (s, g) -> (Experiments.scheme_name s, Json.Float g)) r.cells))
      rows_n
  in
  let identical = rows1 = rows_n and speedup = t1 /. tn in
  let cores = Domain.recommended_domain_count () and floor = parcmp_floor ~jobs in
  let total =
    emit "total"
      [
        ("jobs", Json.Int jobs);
        ("cores", Json.Int cores);
        ("t1_s", Json.Float t1);
        ("tN_s", Json.Float tn);
        ("speedup", Json.Float speedup);
        ("floor", Json.Float floor);
        ("identical", Json.Bool identical);
      ]
  in
  if not identical then failwith "parcmp: parallel table12 rows differ from sequential";
  if speedup < floor then
    failwith
      (Fmt.str "parcmp: jobs=%d speedup %.2fx below the %.2fx floor (%d cores)" jobs
         speedup floor cores);
  Json.Obj (total @ [ ("rows", Json.Obj rows) ])

(* ---- parallel-time attribution: where do jobs=N worker-seconds go? --- *)

(* Runs the Table 3 suite on the hybrid scheme under a jobs=N pool with
   timeline recording on, then folds the per-domain tracks into a
   wall-clock attribution over {compute, encode, idle, replay, absorb,
   other}. Encode cost is attributed indirectly — the trace-event counts
   carried by the "sim.encode" instants times the calibrated per-event
   tbuf-push cost — because L2-trace encoding happens inline with block
   compute. "other" is the residual of jobs x wall not covered by a
   named phase (main-domain tiling/setup between regions, scheduler
   bookkeeping). Fails if the phases do not sum to jobs x wall within
   5%. *)
let parattr { jobs; trace_out; _ } =
  let encode_cost = Sim.encode_cost_per_event_s () in
  Timeline.enable ();
  let (), wall =
    timed @@ fun () ->
    Par.with_pool ~jobs @@ fun pool ->
    List.iter
      (fun prog ->
        ignore
          (Experiments.run_scheme ~pool ~verify:false Experiments.Hybrid prog
             (Experiments.sizes prog) Device.gtx470))
      Suite.table3
  in
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
  let absorb = Timeline.incl_s su "par.absorb" +. Timeline.incl_s su "sim.absorb" in
  let worker_seconds = float_of_int jobs *. wall in
  let named = compute +. encode +. idle +. replay +. absorb in
  let other = Float.max 0.0 (worker_seconds -. named) in
  let phases =
    List.map
      (fun (k, v) ->
        row k [ ("s", Json.Float v); ("fraction", Json.Float (v /. worker_seconds)) ])
      [
        ("compute", compute);
        ("encode", encode);
        ("idle", idle);
        ("replay", replay);
        ("absorb", absorb);
        ("other", other);
      ]
  in
  let total =
    emit "total"
      [
        ("jobs", Json.Int jobs);
        ("wall_s", Json.Float wall);
        ("worker_seconds", Json.Float worker_seconds);
        ("named_coverage", Json.Float (named /. worker_seconds));
        ("encode_cost_per_event_ns", Json.Float (1e9 *. encode_cost));
        ("encode_events", Json.Float encode_events);
        ("tracks", Json.Int (List.length su.Timeline.su_tracks));
        ("events", Json.Int events);
        ("dropped", Json.Int su.Timeline.su_dropped);
      ]
  in
  let err = Float.abs (named +. other -. worker_seconds) /. worker_seconds in
  if err > 0.05 then
    failwith (Fmt.str "parattr: phase attribution off by %.1f%% of jobs x wall" (100. *. err));
  Json.Obj (total @ [ ("phases", Json.Obj phases) ])

(* ---- executor benchmark: tape engine vs closure reference ------------ *)

(* Wall-clock comparison of the warp-batched tape engine (with
   tile-class stream memoization in the hybrid scheme) against the
   closure-tree reference interpreter, over the Table 3 suite on the
   hybrid scheme, plus the bit-exactness and jobs-determinism checks.
   Fails if any counter/grid diverges or the total speedup drops below
   3x. *)
let simcmp { jobs; _ } =
  let per_stencil =
    List.map
      (fun (prog : Stencil.t) ->
        let run ?pool engine () =
          Experiments.run_scheme ?pool ~engine ~verify:false Experiments.Hybrid prog
            (Experiments.sizes prog) Device.gtx470
        in
        let r_ref, t_ref = timed (run Common.Ref) in
        let r_tape, t_tape = timed (run Common.Tape) in
        let r_par, t_par =
          timed (fun () -> Par.with_pool ~jobs @@ fun pool -> run ~pool Common.Tape ())
        in
        check_same "simcmp: tape vs reference" prog r_ref r_tape;
        check_same (Fmt.str "simcmp: tape at jobs=%d" jobs) prog r_ref r_par;
        ( row prog.name
            [
              ("t_ref_s", Json.Float t_ref);
              ("t_tape_s", Json.Float t_tape);
              ("t_tape_par_s", Json.Float t_par);
              ("speedup", Json.Float (t_ref /. t_tape));
              ("blocks", Json.Int r_tape.blocks);
              ("blocks_memoized", Json.Int r_tape.blocks_memoized);
            ],
          (t_ref, t_tape, t_par) ))
      Suite.table3
  in
  let sum f = List.fold_left (fun a (_, t) -> a +. f t) 0.0 per_stencil in
  let t_ref = sum (fun (t, _, _) -> t) and t_tape = sum (fun (_, t, _) -> t) in
  let speedup = t_ref /. t_tape in
  let total =
    emit "total"
      [
        ("jobs", Json.Int jobs);
        ("t_ref_s", Json.Float t_ref);
        ("t_tape_s", Json.Float t_tape);
        ("t_tape_par_s", Json.Float (sum (fun (_, _, t) -> t)));
        ("speedup", Json.Float speedup);
        ("identical", Json.Bool true);
      ]
  in
  if speedup < 3.0 then
    failwith (Fmt.str "simcmp: tape engine speedup %.2fx below the 3x floor" speedup);
  Json.Obj (total @ [ ("stencils", Json.Obj (List.map fst per_stencil)) ])

(* ---- analytic (hierarchical) simulation benchmark --------------------- *)

(* Per-instance wall-clock budget for the full-size runs: the 2-minute
   acceptance bound. *)
let analytic_budget_s = 120.0

(* Budget for the exact legality check of each full-size instance: the
   check costs one schedule period per dependence, so it stays far below
   a second however large N and T grow. *)
let legality_budget_s = 1.0

(* Ceilings for the two analytic epilogue stages that dominate the
   full-size runs: the best this host does on the same work, so each
   stage can be reported as a fraction of it. Each timing is the median
   of [ceiling_reps] repetitions (alternating where two loops are
   compared). They run before the full-size instances: measured after
   them (about 1 GB of grids allocated and dropped), the hand-written
   loop below read 2-4x slower from one run to the next while the blit
   path did not move. *)
let ceiling_reps = 7

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
  let nd = Array.length g.Grid.dims in
  let width = g.Grid.dims.(nd - 1) in
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
  let data = g.Grid.data in
  let src = reads.(4).Common.sgrid.Grid.data in
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
    tb := snd (timed blit) :: !tb;
    th := snd (timed hand) :: !th
  done;
  let ns t = 1e9 *. t /. float_of_int points in
  let blit_ns = ns (median !tb) and hand_ns = ns (median !th) in
  row "grid_blits"
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
   the MRU way). Returns its row and its lines per second; each
   full-size run's replay_lines / dram_replay_s is reported as a
   fraction of the latter. *)
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
  let bare_lps =
    float_of_int lines /. median (List.init ceiling_reps (fun _ -> snd (timed stream)))
  in
  ( row "dram_replay"
      [
        ("run_lines", Json.Int run_lines);
        ("lines", Json.Int lines);
        ("reps", Json.Int ceiling_reps);
        ("bare_lines_per_s", Json.Float bare_lps);
      ],
    bare_lps )

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
   blit path. *)
let analytic { jobs; _ } =
  let dev = Device.gtx470 in
  let dram = [ "dram_read_transactions"; "dram_write_transactions" ] in
  (* part 1: scaled instances, exact vs analytic *)
  let scaled =
    List.map
      (fun (prog : Stencil.t) ->
        let run analytic () =
          Par.with_pool ~jobs @@ fun pool ->
          Experiments.run_scheme ~pool ~analytic ~verify:false Experiments.Hybrid prog
            (Experiments.sizes prog) dev
        in
        let r_ex, t_ex = timed (run false) in
        let r_an, t_an = timed (run true) in
        check_same "analytic: analytic vs exact" prog ~except:dram r_ex r_an;
        let rel k =
          let get (r : Common.result) = List.assoc k (Counters.to_assoc r.counters) in
          float_of_int (abs (get r_an - get r_ex)) /. float_of_int (max 1 (get r_ex))
        in
        let err = List.fold_left (fun m k -> Float.max m (rel k)) 0.0 dram in
        if err > Analytic.dram_error_bound then
          failwith
            (Fmt.str "analytic: %s DRAM error %.4f exceeds bound %.4f" prog.name err
               Analytic.dram_error_bound);
        ( row prog.name
            [
              ("t_exact_s", Json.Float t_ex);
              ("t_analytic_s", Json.Float t_an);
              ("speedup", Json.Float (t_ex /. t_an));
              ("blocks", Json.Int r_an.blocks);
              ("blocks_analytic", Json.Int r_an.blocks_analytic);
              ("classes", Json.Int r_an.classes);
              ("dram_err", Json.Float err);
            ],
          (t_ex, t_an, err) ))
      Suite.table3
  in
  (* the epilogue ceilings, on a fresh heap (see [ceiling_reps]) *)
  let blit_row = blit_ceiling dev in
  let replay_row, bare_lps = replay_ceiling dev in
  (* part 2: the paper's full-size instances. These runs are pure
     compute against a wall-clock budget, so never oversubscribe the
     machine: a pool wider than the physical core count only adds
     scheduler churn (measured ~30% on a 1-core container at jobs=2)
     without changing the result — the output is bit-identical at every
     jobs value by the determinism contract. *)
  let fs_jobs = min jobs (Domain.recommended_domain_count ()) in
  let full =
    List.map
      (fun (prog : Stencil.t) ->
        let env = Experiments.paper_sizes prog in
        let _, _, tiling = Experiments.hybrid_tiling prog in
        let legality, legality_s =
          timed (fun () -> Hextile_tiling.Hybrid.check_legality tiling (fun p -> List.assoc p env))
        in
        (match legality with
        | Ok () -> ()
        | Error m -> failwith (Fmt.str "analytic: full-size %s illegal: %s" prog.name m));
        if legality_s > legality_budget_s then
          failwith
            (Fmt.str "analytic: full-size %s legality check took %.2f s, over the %.0f s budget"
               prog.name legality_s legality_budget_s);
        let r, wall =
          timed (fun () ->
              Par.with_pool ~jobs:fs_jobs @@ fun pool ->
              Experiments.run_scheme ~pool ~analytic:true ~verify:false Experiments.Hybrid
                prog env dev)
        in
        let replay_lps = float_of_int r.replay_lines /. (r.dram_ms /. 1000.) in
        let full_row =
          row prog.name
            [
              ("n", Json.Int (List.assoc "N" env));
              ("t", Json.Int (List.assoc "T" env));
              ("jobs", Json.Int fs_jobs);
              ("wall_s", Json.Float wall);
              ("budget_s", Json.Float analytic_budget_s);
              ("legality_s", Json.Float legality_s);
              ("legality_budget_s", Json.Float legality_budget_s);
              ("blocks", Json.Int r.blocks);
              ("blocks_analytic", Json.Int r.blocks_analytic);
              ("classes", Json.Int r.classes);
              ("updates", Json.Int r.updates);
              ("gstencils_per_s", Json.Float (Common.gstencils_per_s r));
              ("epilogue_s", Json.Float (r.epilogue_ms /. 1000.));
              ("derive_s", Json.Float (r.derive_ms /. 1000.));
              ("dram_replay_s", Json.Float (r.dram_ms /. 1000.));
              ("grid_blits_s", Json.Float (r.grids_ms /. 1000.));
              ("blit_rows", Json.Int r.blit_rows);
              ("replay_lines", Json.Int r.replay_lines);
              ("replay_lines_per_s", Json.Float replay_lps);
              ("replay_frac_of_ceiling", Json.Float (replay_lps /. bare_lps));
              ("result", Experiments.result_json r);
            ]
        in
        if wall > analytic_budget_s then
          failwith
            (Fmt.str "analytic: full-size %s took %.1f s, over the %.0f s budget" prog.name
               wall analytic_budget_s);
        if r.blocks_analytic = 0 then
          failwith (Fmt.str "analytic: full-size %s scaled no blocks" prog.name);
        full_row)
      [ Suite.laplacian2d; Suite.laplacian3d ]
  in
  let sum f = List.fold_left (fun a (_, t) -> a +. f t) 0.0 scaled in
  let t_exact = sum (fun (t, _, _) -> t) and t_an = sum (fun (_, t, _) -> t) in
  let total =
    emit "total"
      [
        ("jobs", Json.Int jobs);
        ("dram_error_bound", Json.Float Analytic.dram_error_bound);
        ( "max_dram_err",
          Json.Float (List.fold_left (fun m (_, (_, _, e)) -> Float.max m e) 0.0 scaled) );
        ("t_exact_s", Json.Float t_exact);
        ("t_analytic_s", Json.Float t_an);
        ("speedup", Json.Float (t_exact /. t_an));
      ]
  in
  Json.Obj
    (total
    @ [
        ("stencils", Json.Obj (List.map fst scaled));
        ("full_size", Json.Obj full);
        ("ceilings", Json.Obj [ blit_row; replay_row ]);
      ])

(* ---- staged tile-size search benchmark: staged vs exhaustive --------- *)

module Tile_size = Hextile_tiling.Tile_size

(* Larger grids than the CLI default so the analytic layer has something
   to prune; h descends so good (large-h) candidates are screened first
   and their ratio bounds dominate the rest of the walk. Candidate order
   is identical for both searches, so the choice contract still holds. *)
let tilesearch_grids (prog : Stencil.t) =
  if Stencil.spatial_dims prog = 3 then
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
   candidates). *)
let tilesearch { jobs; _ } =
  let per_stencil =
    List.map
      (fun (prog : Stencil.t) ->
        let h_candidates, w0_candidates, wi_candidates = tilesearch_grids prog in
        let oracle, t_ex =
          timed (fun () ->
              Par.with_pool ~jobs @@ fun pool ->
              Tile_size.select_exhaustive ~pool prog ~h_candidates ~w0_candidates
                ~wi_candidates ~shared_mem_floats:tilesearch_budget ~require_multiple:32 ())
        in
        let search ?pool () =
          Tile_size.select_with_report ?pool prog ~h_candidates ~w0_candidates
            ~wi_candidates ~shared_mem_floats:tilesearch_budget ~require_multiple:32 ()
        in
        let (staged, report), t_st = timed (fun () -> search ()) in
        let (staged_par, report_par), t_par =
          timed (fun () -> Par.with_pool ~jobs @@ fun pool -> search ~pool ())
        in
        let fail what = failwith (Fmt.str "tilesearch: %s %s" prog.name what) in
        if not (same_choice staged oracle) then fail "staged choice differs from exhaustive";
        if not (same_choice staged_par oracle) then
          fail (Fmt.str "staged choice differs at jobs=%d" jobs);
        if report <> report_par then fail (Fmt.str "search counters differ at jobs=%d" jobs);
        let choice =
          match staged with
          | None -> Json.Str "none"
          | Some c ->
              Json.Obj
                [
                  ("h", Json.Int c.h);
                  ("w", Json.List (Array.to_list (Array.map (fun x -> Json.Int x) c.w)));
                  ("ratio", Json.Float c.stats.ratio);
                ]
        in
        ( row prog.name
            [
              ("candidates", Json.Int report.candidates);
              ("feasible", Json.Int report.feasible);
              ("pruned_infeasible", Json.Int report.pruned_infeasible);
              ("pruned_dominated", Json.Int report.pruned_dominated);
              ("exact_evals", Json.Int report.exact_evals);
              ("t_exhaustive_par_s", Json.Float t_ex);
              ("t_staged_s", Json.Float t_st);
              ("t_staged_par_s", Json.Float t_par);
              ("choice", choice);
            ],
          (report, (t_ex, t_st, t_par)) ))
      Suite.table3
  in
  let count f = List.fold_left (fun a (_, (r, _)) -> a + f r) 0 per_stencil in
  let sum f = List.fold_left (fun a (_, (_, t)) -> a +. f t) 0.0 per_stencil in
  let cands = count (fun r -> r.Tile_size.candidates)
  and evals = count (fun r -> r.Tile_size.exact_evals) in
  let total =
    emit "total"
      [
        ("jobs", Json.Int jobs);
        ("total_candidates", Json.Int cands);
        ("total_exact_evals", Json.Int evals);
        ("t_exhaustive_par_s", Json.Float (sum (fun (t, _, _) -> t)));
        ("t_staged_s", Json.Float (sum (fun (_, t, _) -> t)));
        ("t_staged_par_s", Json.Float (sum (fun (_, _, t) -> t)));
        ("identical", Json.Bool true);
      ]
  in
  if evals * 5 > cands then
    failwith
      (Fmt.str "tilesearch: analytic layer pruned too little (%d exact evals of %d candidates)"
         evals cands);
  Json.Obj (total @ [ ("stencils", Json.Obj (List.map fst per_stencil)) ])

(* ---- serve daemon benchmark ------------------------------------------- *)

module Serve = Hextile_serve

(* Sustained request throughput and latency through the serve daemon,
   cold cache vs warm, over Table 3 traffic (the 1D and 2D builtins)
   plus seeded fuzz programs with duplicates. Three gates: (1) every
   response stream is bit-wise identical at jobs 1, 2 and 4, cold and
   warm; (2) every run response carries exactly the grids hash and
   result record of the one-shot pipeline (what `hextile run` prints);
   (3) the warm cache delivers at least 3x the cold throughput. *)
let serve_bench { jobs; _ } =
  let module Gen = Hextile_check.Gen in
  let module Rng = Hextile_check.Rng in
  let module Pretty = Hextile_check.Pretty in
  (* traffic: builtins at small instances + fuzzed sources, each program
     contributing tilesize + run + compile + a duplicate run *)
  let builtins =
    List.filter_map
      (fun (p : Stencil.t) ->
        if Stencil.spatial_dims p <= 2 then Some (p.name, `Builtin p.name, (64, 8))
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
  let programs = builtins @ fuzzed in
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
         programs)
  in
  let nreq = List.length traffic in
  (* one request per wave, timed individually, through one pool and one
     cache — the daemon-lifetime configuration *)
  let exec_one ~cache ~pool line =
    let out = ref None in
    let fed = ref false in
    let (), dt =
      timed (fun () ->
          Serve.Daemon.run_lines ~cache ~pool
            ~read_line:(fun () ->
              if !fed then None
              else begin
                fed := true;
                Some line
              end)
            ~write_line:(fun l -> out := Some l)
            ())
    in
    match !out with
    | Some l -> (dt, l)
    | None -> failwith "serve: request produced no response"
  in
  let pass ~cache ~pool = List.split (List.map (exec_one ~cache ~pool) traffic) in
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
    List.nth sorted (max 0 ((((p * n) + 99) / 100) - 1))
  in
  (* One pass's row. The tail is the one the sample count supports: the
     highest percentile with at least ten samples beyond it (p75 for 40
     samples; a "p99" of 40 samples would be their maximum). Below 40
     samples that percentile is no tail, and only the median is
     reported. *)
  let leg name lat =
    let sorted = List.sort compare lat in
    let n = List.length lat in
    let total = List.fold_left ( +. ) 0.0 lat in
    let tail =
      if n < 40 then []
      else
        let p = 100 * (n - 10) / n in
        [ ("tail_pct", Json.Int p); ("tail_ms", Json.Float (1000.0 *. percentile sorted p)) ]
    in
    ( row name
        ([
           ("total_s", Json.Float total);
           ("req_per_s", Json.Float (float_of_int n /. total));
           ("n", Json.Int n);
           ("p50_ms", Json.Float (1000.0 *. percentile sorted 50));
         ]
        @ tail),
      float_of_int n /. total )
  in
  (* the measured run: one pool at the requested jobs *)
  Par.with_pool ~jobs @@ fun pool ->
  let cache = Serve.Cache.create () in
  let cold_lat, cold_resp = pass ~cache ~pool in
  let warm_lat, warm_resp = pass ~cache ~pool in
  let cold, cold_rps = leg "cold" cold_lat in
  let warm, warm_rps = leg "warm" warm_lat in
  let speedup = warm_rps /. cold_rps in
  let s = Serve.Cache.stats cache in
  let hit_rate h m = Json.Float (float_of_int h /. float_of_int (max 1 (h + m))) in
  let hit_rates =
    row "hit_rates"
      [
        ("entry", hit_rate s.entry_hits s.entry_misses);
        ("tilesize", hit_rate s.tilesize_hits s.tilesize_misses);
        ("run", hit_rate s.run_hits s.run_misses);
        ("compile", hit_rate s.compile_hits s.compile_misses);
        ("collisions", Json.Int s.collisions);
      ]
  in
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
      let oneshot =
        Experiments.run_scheme Experiments.Hybrid prog [ ("N", n); ("T", t) ] Device.gtx470
      in
      let doc =
        List.find_map
          (fun line ->
            match Json.parse line with
            | Ok doc when Json.member "id" doc = Some (Json.Int ((i * 10) + 1)) -> Some doc
            | _ -> None)
          cold_resp
        |> Option.get
      in
      if
        Json.member "grids_hash" doc
        <> Some (Json.Str (Serve.Engine.grids_hash prog oneshot.grids))
      then failwith (Fmt.str "serve: %s grids hash diverges from one-shot" name);
      if
        Option.map Json.to_string (Json.member "result" doc)
        <> Some (Json.to_string (Experiments.result_json oneshot))
      then failwith (Fmt.str "serve: %s result diverges from one-shot" name))
    programs;
  let total =
    emit "total"
      [
        ("jobs", Json.Int jobs);
        ("requests", Json.Int nreq);
        ("programs", Json.Int (List.length programs));
        ("warm_speedup", Json.Float speedup);
        ("identical", Json.Bool true);
      ]
  in
  (* gate 3: the cache must actually pay *)
  if speedup < 3.0 then
    failwith (Fmt.str "serve: warm throughput %.2fx cold, below the 3x floor" speedup);
  Json.Obj (total @ [ cold; warm; hit_rates; ("cache", Serve.Cache.stats_json cache) ])

(* ---- provenance for committed BENCH_*.json ---------------------------- *)

(* Reads HEAD from .git directly (no subprocess) so `bench --json` works
   in any environment that can build the tree. *)
let git_rev () =
  let read f =
    try Some (String.trim (In_channel.with_open_text f In_channel.input_all))
    with _ -> None
  in
  match read ".git/HEAD" with
  | Some head when String.length head > 5 && String.sub head 0 5 = "ref: " -> (
      let r = String.sub head 5 (String.length head - 5) in
      match read (".git/" ^ r) with
      | Some rev -> Some rev
      | None -> (
          (* the ref may only exist packed *)
          match read ".git/packed-refs" with
          | Some txt ->
              List.find_map
                (fun line ->
                  match String.index_opt line ' ' with
                  | Some i when String.sub line (i + 1) (String.length line - i - 1) = r ->
                      Some (String.sub line 0 i)
                  | _ -> None)
                (String.split_on_char '\n' txt)
          | None -> None))
  | Some rev when String.length rev = 40 -> Some rev
  | _ -> None

(* The timestamp is injected (HEXTILE_BENCH_TIMESTAMP: CI sets it to the
   commit date, `make bench` defaults it to its start time) rather than
   read from the clock, so regenerating a committed BENCH_*.json with the
   same value yields a byte-identical meta block. *)
let meta ~jobs =
  let opt = function Some s -> Json.Str s | None -> Json.Null in
  Json.Obj
    [
      ("git_rev", opt (git_rev ()));
      ("ocaml_version", Json.Str Sys.ocaml_version);
      ("cores", Json.Int (Domain.recommended_domain_count ()));
      ("jobs", Json.Int jobs);
      ("timestamp", opt (Sys.getenv_opt "HEXTILE_BENCH_TIMESTAMP"));
    ]

(* ---- the mode table ---------------------------------------------------- *)

type mode = {
  id : string;
  title : string;
  default : bool;  (** run when no --only is given *)
  run : ctx -> Json.t;  (** raises [Failure] when a gate fails *)
}

let paper id title run = { id; title; default = true; run }
let perf id title run = { id; title; default = false; run }

let modes =
  [
    paper "fig1" "Figure 1: Jacobi 2D stencil (frontend input)" fig1;
    paper "fig2" "Figure 2: generated PTX-style core" (fig_text Experiments.figure2_text);
    paper "fig3" "Figure 3: opposite dependence cone" (fig_text Experiments.figure3_text);
    paper "fig4" "Figure 4: hexagonal tile shape" (fig_text Experiments.figure4_text);
    paper "fig5" "Figure 5: hexagonal tiling pattern (phases 0/1)"
      (fig_text Experiments.figure5_text);
    paper "fig6" "Figure 6: hybrid n-dimensional schedule" (fig_text Experiments.figure6_text);
    paper "table3" "Table 3: stencil characteristics" (fig_text Experiments.table3_text);
    paper "tilesize" "Section 3.7: tile-size selection model"
      (fig_text Experiments.tile_size_sweep_text);
    paper "ablate" "Ablation: time-tile height h (hybrid, heat 2D, GTX 470)" ablate;
    paper "diamond" "Section 5: diamond vs hexagonal tile regularity"
      (fig_text Experiments.diamond_vs_hex_text);
    paper "split1d" "1D degenerate case: hexagonal vs split tiling"
      (fig_text (fun () -> Experiments.split1d_text Device.gtx470));
    paper "table1" "Table 1: GStencils/second on (scaled) GTX 470" table1;
    paper "table2" "Table 2: GStencils/second on (scaled) NVS 5200M" (table12 Device.nvs5200m);
    paper "table45" "Tables 4 and 5: shared-memory optimization ladder (heat 3D)" tables45;
    perf "parcmp" "Parallel runtime: table12 suite, jobs=1 vs jobs=N" parcmp;
    perf "parattr" "Parallel-time attribution (Table 3 hybrid suite, jobs=N)" parattr;
    perf "simcmp" "Execution engine: tape+memo vs closure reference (Table 3)" simcmp;
    perf "analytic" "Analytic simulation: scaled divergence check + full-size runs" analytic;
    perf "tilesearch" "Tile-size search: staged vs exhaustive (Table 3)" tilesearch;
    perf "serve" "Serve daemon: cold vs warm throughput, Table 3 + fuzz traffic" serve_bench;
  ]

(* A command line the bench cannot honour is an error: report it and
   exit 2 before running anything. *)
let usage fmt =
  Fmt.kstr
    (fun m ->
      Fmt.epr "bench: %s@." m;
      exit 2)
    fmt

let () =
  let only = ref [] and jobs = ref (Par.recommended_jobs ()) in
  let trace_out = ref None and json_out = ref None in
  let rec parse = function
    | [] -> ()
    | "--only" :: x :: rest ->
        only := (if x = "table4" || x = "table5" then "table45" else x) :: !only;
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
          "unknown argument %s (expected --only <id> | --jobs <n> | --trace-out <file> | \
           --json <file>)"
          x
  in
  parse (List.tl (Array.to_list Sys.argv));
  let selected =
    match List.rev !only with
    | [] -> List.filter (fun m -> m.default) modes
    | ids ->
        List.map
          (fun id ->
            match List.find_opt (fun m -> m.id = id) modes with
            | Some m -> m
            | None ->
                usage "unknown experiment id %s (known: %s)" id
                  (String.concat ", " (List.map (fun m -> m.id) modes)))
          ids
  in
  let jobs = !jobs in
  let results =
    Par.with_pool ~jobs @@ fun pool ->
    let ctx = { pool; jobs; trace_out = !trace_out } in
    List.map
      (fun m ->
        Fmt.pr "@.===== %s =====@." m.title;
        (m.id, m.run ctx))
      selected
  in
  Option.iter
    (fun path ->
      let doc =
        Json.Obj
          [
            ("bench_version", Json.Int 3);
            ("meta", meta ~jobs);
            ("experiments", Json.Obj results);
          ]
      in
      Out_channel.with_open_text path (fun oc ->
          output_string oc (Json.to_string doc);
          output_char oc '\n');
      Fmt.epr "wrote %s@." path)
    !json_out
