(* End-to-end benchmark for hextile: four seeded workloads, each measured
   from outside through the libraries' public functions.

   One invocation measures one workload, from the repository root:

     python3 e2ebench/run.py --workload table1-small --seed 1 --seconds 25 --trace 0

   (run.py builds this executable, then runs it with the same arguments.)
   The parent process generates the workload's inputs from --seed and
   writes them to e2ebench/out/<workload>.in. It then runs passes over
   that file for --seconds seconds, each pass in a fresh child process so
   that every pass starts with cold Oncemap and serve caches and has its
   own peak RSS. Children run one at a time, each on a single domain.
   Before the passes the parent spawns a few set-up-only children;
   set-up time is spawn to ready, whichever child it was. Every time
   metric is scaled by the host-speed probe (below), so that it reads in
   seconds of a host of fixed speed.

   With --trace 1 every other pass is traced: Timeline records the
   benchmark's spans around each call into a layer (the span arg is the
   operation index), the pass writes a Perfetto trace to
   e2ebench/out/trace-<workload>.json, and the per-layer metrics are the
   medians over the traced passes.

   The last line on stdout is one JSON object with the keys correct,
   attempted, failed and metrics: the end_to_end metrics of
   BENCHMARK.json with --trace 0, its per_layer metrics with --trace 1.
   A readable summary goes to stderr. Any failed operation makes the run
   exit 1.

   Other modes:
     --out FILE              also append this run's metrics to FILE (JSON lines)
     --compare A B           compare two such files, workload by workload
     --write-expect          record e2ebench/expect.json (analytic-large) *)

module Experiments = Hextile_experiments.Experiments
module Common = Hextile_schemes.Common
module Hybrid_exec = Hextile_schemes.Hybrid_exec
module Counters = Hextile_gpusim.Counters
module Device = Hextile_gpusim.Device
module Analytic = Hextile_gpusim.Analytic
module Suite = Hextile_stencils.Suite
module Stencil = Hextile_ir.Stencil
module Grid = Hextile_ir.Grid
module Interp = Hextile_ir.Interp
module Front = Hextile_frontend.Front
module Dep = Hextile_deps.Dep
module Hybrid = Hextile_tiling.Hybrid
module Tile_size = Hextile_tiling.Tile_size
module Cuda_emit = Hextile_codegen.Cuda_emit
module Par = Hextile_par.Par
module Oncemap = Hextile_par.Oncemap
module Timeline = Hextile_obs.Timeline
module Json = Hextile_obs.Json
module Proto = Hextile_serve.Proto
module Engine = Hextile_serve.Engine
module Cache = Hextile_serve.Cache
module Daemon = Hextile_serve.Daemon
module Gen = Hextile_check.Gen
module Rng = Hextile_check.Rng
module Pretty = Hextile_check.Pretty

let dev = Device.gtx470
let out_dir = Filename.concat "e2ebench" "out"
let expect_file = Filename.concat "e2ebench" "expect.json"
let spec_file = "BENCHMARK.json"

(* Monotonic nanoseconds, comparable across processes (CLOCK_MONOTONIC),
   so a child's ready stamp can be subtracted from its parent's spawn
   stamp. *)
let now_ns () = Int64.to_int (Monotonic_clock.now ())
let now () = float_of_int (now_ns ()) *. 1e-9

let die fmt =
  Fmt.kstr
    (fun s ->
      prerr_endline ("e2e: " ^ s);
      exit 2)
    fmt

let env_fn env x = List.assoc x env

(* ---- statistics --------------------------------------------------------- *)

let sorted a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  a

(* Python's statistics.quantiles(data, n=4), the default "exclusive"
   method, so the quartiles printed here are the ones the acceptance
   check computes. *)
let quartiles a =
  let d = sorted a in
  let ld = Array.length d in
  if ld = 0 then (Float.nan, Float.nan, Float.nan)
  else if ld = 1 then (d.(0), d.(0), d.(0))
  else
    let q i =
      let m = ld + 1 in
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((d.(j - 1) *. float_of_int (4 - delta)) +. (d.(j) *. float_of_int delta))
      /. 4.0
    in
    (q 1, q 2, q 3)

let median a =
  let _, m, _ = quartiles a in
  m

(* Nearest-rank percentile of an unsorted sample. *)
let percentile a p =
  let d = sorted a in
  let n = Array.length d in
  if n = 0 then Float.nan
  else
    let r = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
    d.(max 0 (min (n - 1) (r - 1)))

(* The highest of a few standard percentiles with at least ten samples
   beyond it (the tail the sample count supports). *)
let supported_tail n =
  List.fold_left
    (fun acc p ->
      if (1.0 -. (p /. 100.0)) *. float_of_int n >= 10.0 then Some p else acc)
    None [ 50.0; 90.0; 99.0; 99.9 ]

let geomean = function
  | [] -> 0.0
  | l ->
      exp
        (List.fold_left (fun acc x -> acc +. log x) 0.0 l
        /. float_of_int (List.length l))

let ratio a b = if b > 0.0 then a /. b else 0.0

(* ---- BENCHMARK.json: the single source of metric names, units, bounds -- *)

type metric = { m_name : string; unit : string; lower_better : bool; bound : float option }

let load_spec () =
  let text =
    try In_channel.with_open_text spec_file In_channel.input_all
    with Sys_error m -> die "cannot read %s: %s" spec_file m
  in
  let doc =
    match Json.parse text with
    | Ok d -> d
    | Error m -> die "%s: %s" spec_file m
  in
  let metrics key =
    match Option.bind (Json.member key doc) Json.to_list with
    | None -> die "%s: missing %s" spec_file key
    | Some l ->
        List.map
          (fun m ->
            let str k =
              match Option.bind (Json.member k m) Json.to_str with
              | Some s -> s
              | None -> die "%s: a %s entry lacks %s" spec_file key k
            in
            {
              m_name = str "name";
              unit = str "unit";
              lower_better = str "better" = "lower";
              bound = Option.bind (Json.member "bound" m) Json.to_float;
            })
          l
  in
  (metrics "end_to_end", metrics "per_layer")

(* ---- workloads and their seeded inputs ---------------------------------- *)

type workload = Table1_small | Analytic_large | Serve_warm | Serve_unique

let workloads =
  [
    ("table1-small", Table1_small);
    ("analytic-large", Analytic_large);
    ("serve-warm", Serve_warm);
    ("serve-unique", Serve_unique);
  ]

let workload_name w = fst (List.find (fun (_, w') -> w' = w) workloads)

let workload_of_name s =
  match List.assoc_opt s workloads with
  | Some w -> w
  | None ->
      die "unknown workload %S (one of %s)" s
        (String.concat ", " (List.map fst workloads))

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Rng.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* table1-small: the 7 Table 3 kernels x the 4 Table 1 schemes, shrunk so
   one pass takes 2-3 s on one core (the --quick sizes take minutes).
   The suite is fixed, so the seed changes nothing here. *)
let table1_schemes = Experiments.[ Ppcg; Par4all; Overtile; Hybrid ]
let scheme_key s = String.lowercase_ascii (Experiments.scheme_name s)

let table1_env (p : Stencil.t) =
  if Stencil.spatial_dims p = 3 then [ ("N", 16); ("T", 4) ]
  else [ ("N", 48); ("T", 12) ]

(* analytic-large: hybrid analytic runs, about half of whose time is the
   analytic epilogue, at sizes one core runs in about 2 s a pass (the
   paper's 3072^2x512 takes 20 s alone). Three kernels of distinct cost,
   so the latency median and p90 each sit inside one kernel's samples. *)
let analytic_runs =
  [ (Suite.laplacian2d, 640, 96); (Suite.heat2d, 512, 64); (Suite.laplacian3d, 96, 24) ]

(* The scaled exact-vs-analytic check: a seeded size per kernel. *)
let check_size rng (p : Stencil.t) =
  if Stencil.spatial_dims p = 3 then (Rng.pick rng [ 40; 48 ], Rng.pick rng [ 8; 12 ])
  else (Rng.pick rng [ 112; 128 ], Rng.pick rng [ 16; 24 ])

(* serve-*: the daemon's stdin, as a client would send it: one JSON
   request per line, and a blank line after each wave.

   serve-warm is the request stream of `make bench-serve`
   (bench/main.ml): the 7 Table 3 builtins and 6 Check.Gen programs, each
   asked for tilesize, run, run and compile. Here each program's four
   requests go as one wave, so the daemon dedupes the repeated run, and
   the stream is sent [warm_rounds] times through one cache: the first
   round misses, every later one hits. The program set and the op mix
   are bench-serve's; its builtin instances (64^2x8, 16^3x4) are shrunk
   to 16^2x4 and 8^3x4. The compile requests' legality check grows with
   the instance: at bench-serve's sizes the 13 cold waves took 95% of a
   5 s pass. A hit takes about 0.1 ms, but its latency differs by up to
   50% from one process to the next, so the hit latencies are only
   steady when pooled over many short passes (38-57 in 25 s).
   How often a client repeats its stream is measured nowhere, so
   [warm_rounds] is an assumption, and it alone sets the hit share.

   serve-unique asks each of [unique_requests] distinct Check.Gen
   programs one question, tilesize, run or compile in turn.

   Both draw their programs from fixed generators, and the seed only
   orders the stream. Cost is heavy-tailed across generated programs
   (one tile-size search takes up to 47 ms, the median request 0.7 ms):
   with a seeded program set, serve-unique's pass time at seeds 4, 5 and
   8 was 15-25% above that at seeds 1-3 in each of two sets of runs, a
   spread that would hide any smaller change. *)
let warm_generator = Rng.create 0xbe7c5 (* bench-serve's *)
let warm_generated = 6
let warm_rounds = 100
let unique_programs = Rng.create 0x5e77e
let unique_requests = 450

let request_line ~id ~op (prog_field, n, t) =
  Fmt.str "{\"id\":%d,\"op\":\"%s\",%s,\"N\":%d,\"T\":%d}" id op prog_field n t

let builtin_program (p : Stencil.t) =
  let n, t = if Stencil.spatial_dims p = 3 then (8, 4) else (16, 4) in
  (Fmt.str "\"builtin\":%s" (Json.to_string (Json.Str p.name)), n, t)

let generated_program rng i =
  let prog, env = Gen.generate (Rng.derive rng i) in
  ( Fmt.str "\"source\":%s"
      (Json.to_string ~minify:true (Json.Str (Pretty.to_source prog))),
    List.assoc "N" env,
    List.assoc "T" env )

let generate w seed =
  let rng = Rng.create seed in
  match w with
  | Table1_small ->
      List.concat_map
        (fun (p : Stencil.t) ->
          let env = table1_env p in
          List.map
            (fun s ->
              Fmt.str "%s %s %d %d" p.name (scheme_key s) (env_fn env "N") (env_fn env "T"))
            table1_schemes)
        Suite.table3
  | Analytic_large ->
      List.map (fun ((p : Stencil.t), n, t) -> Fmt.str "run %s %d %d" p.name n t) analytic_runs
      @ List.map
          (fun ((p : Stencil.t), _, _) ->
            let n, t = check_size rng p in
            Fmt.str "check %s %d %d" p.name n t)
          analytic_runs
  | Serve_warm ->
      let progs =
        Array.of_list
          (List.map builtin_program Suite.table3
          @ List.init warm_generated (fun i -> generated_program warm_generator (i + 1)))
      in
      let id = ref 0 in
      List.concat
        (List.init warm_rounds (fun _ ->
             shuffle rng progs;
             List.concat_map
               (fun p ->
                 List.map
                   (fun op ->
                     incr id;
                     request_line ~id:!id ~op p)
                   [ "tilesize"; "run"; "run"; "compile" ]
                 @ [ "" ])
               (Array.to_list progs)))
  | Serve_unique ->
      (* one request per wave: each program is distinct, so a wave has
         nothing to dedupe *)
      let asks =
        Array.init unique_requests (fun i ->
            ( List.nth [ "tilesize"; "run"; "compile" ] (i mod 3),
              generated_program unique_programs (i + 1) ))
      in
      shuffle rng asks;
      List.concat (List.mapi (fun id (op, p) -> [ request_line ~id ~op p; "" ]) (Array.to_list asks))

(* ---- per-layer values of one traced pass ------------------------------ *)

let layer_names =
  [ "frontend"; "deps"; "poly"; "tiling"; "codegen"; "schemes"; "ir"; "sim"; "serve" ]

let count su name =
  List.fold_left
    (fun acc tk ->
      List.fold_left
        (fun acc sl ->
          if String.equal sl.Timeline.sl_name name then acc + sl.Timeline.sl_count
          else acc)
        acc tk.Timeline.tk_slices)
    0 su.Timeline.su_tracks

(* Mean milliseconds per span of this name. *)
let mean_ms su name = 1000.0 *. ratio (Timeline.incl_s su name) (float_of_int (count su name))

let oncemap_hit_rate name =
  match List.find_opt (fun (n, _, _) -> n = name) (Oncemap.stats_all ()) with
  | Some (_, h, m) -> ratio (float_of_int h) (float_of_int (h + m))
  | None -> 0.0

let in_layer name =
  match String.index_opt name '.' with
  | Some i -> List.mem (String.sub name 0 i) layer_names
  | None -> false

(* The instant a traced pass records at the start and at the end of its
   measured window. *)
let window_mark = "e2e.window"

(* trace.coverage, from the Chrome trace a traced pass wrote: the share
   of the measured window during which the client (main) track's
   innermost span belongs to a named layer. Those
   spans are the benchmark's around single calls into a layer and the
   ones the libraries record inside them. The benchmark opens no span
   around a whole pass or a whole request, so time its own loop spends
   between calls, or a call left unwrapped, lowers coverage. *)
let trace_coverage path =
  let doc =
    match Json.parse (In_channel.with_open_text path In_channel.input_all) with
    | Ok d -> d
    | Error m -> failwith (path ^ ": " ^ m)
  in
  let main_tid = (Domain.self () :> int) in
  let stack = ref [] and inside = ref false and last = ref 0.0 in
  let covered = ref 0.0 and total = ref 0.0 in
  List.iter
    (fun e ->
      let str k = Option.bind (Json.member k e) Json.to_str in
      match
        ( Option.bind (Json.member "tid" e) Json.to_int,
          str "ph",
          Option.bind (Json.member "ts" e) Json.to_float,
          str "name" )
      with
      | Some tid, Some ph, Some ts, Some name when tid = main_tid ->
          if !inside then begin
            total := !total +. (ts -. !last);
            match !stack with
            | n :: _ when in_layer n -> covered := !covered +. (ts -. !last)
            | _ -> ()
          end;
          last := ts;
          (match ph with
          | "B" -> stack := name :: !stack
          | "E" -> stack := (match !stack with _ :: rest -> rest | [] -> [])
          | "i" when name = window_mark -> inside := not !inside
          | _ -> ())
      | _ -> ())
    (Option.value ~default:[] (Option.bind (Json.member "traceEvents" doc) Json.to_list));
  ratio !covered !total

let cache_layers set =
  set "deps.cache_hit_rate" (oncemap_hit_rate "dep.analyze");
  set "poly.fm_cache_hit_rate" (oncemap_hit_rate "poly.fm_projection")

(* Simulator breakdown from the results themselves; [runs] pairs each
   result with the seconds its run_scheme call took. *)
let gpusim_layers set (runs : (Common.result * float) list) =
  let sum f = List.fold_left (fun acc (r, s) -> acc +. f r s) 0.0 runs in
  let total = sum (fun _ s -> s) in
  let sec ms = ms /. 1000.0 in
  let derive = sum (fun r _ -> sec r.Common.derive_ms)
  and dram = sum (fun r _ -> sec r.Common.dram_ms)
  and grids = sum (fun r _ -> sec r.Common.grids_ms)
  and epilogue = sum (fun r _ -> sec r.Common.epilogue_ms)
  and blit_rows = sum (fun r _ -> float_of_int r.Common.blit_rows)
  and replay_lines = sum (fun r _ -> float_of_int r.Common.replay_lines) in
  set "gpusim.exec_s" (total -. epilogue);
  set "gpusim.derive_s" derive;
  set "gpusim.dram_replay_s" dram;
  set "gpusim.grid_blits_s" grids;
  set "gpusim.blit_rows" blit_rows;
  set "gpusim.replay_lines" replay_lines;
  set "gpusim.blit_rows_per_s" (ratio blit_rows grids);
  set "gpusim.replay_lines_per_s" (ratio replay_lines dram);
  set "gpusim.analytic_block_frac"
    (ratio
       (sum (fun r _ -> float_of_int r.Common.blocks_analytic))
       (sum (fun r _ -> float_of_int r.Common.blocks)));
  set "gpusim.classes" (sum (fun r _ -> float_of_int r.Common.classes));
  set "gpusim.mupdates_per_s"
    (ratio (sum (fun r _ -> float_of_int r.Common.updates)) total /. 1e6)

(* Geometric mean of the factor by which each simulated speedup over
   PPCG misses the paper's (1 = the paper's table exactly). *)
let paper_speedup_err cells =
  let gst kernel s =
    List.find_map
      (fun ((p : Stencil.t), s', (r : Common.result)) ->
        if p.name = kernel && s' = s then Some (Common.gstencils_per_s r) else None)
      cells
  in
  let errs =
    List.concat_map
      (fun (kernel, paper) ->
        match List.assoc_opt Experiments.Ppcg paper with
        | Some (Some base) ->
            List.filter_map
              (fun (s, v) ->
                match (v, gst kernel s, gst kernel Experiments.Ppcg) with
                | Some v, Some sim, Some sim_base when s <> Experiments.Ppcg ->
                    Some (exp (Float.abs (log (sim /. sim_base /. (v /. base)))))
                | _ -> None)
              paper
        | _ -> [])
      (Experiments.paper_table12 dev)
  in
  geomean errs

(* ---- host-speed probe --------------------------------------------------- *)

(* The host's speed drifts. On the shared 2-vCPU VM the benchmark was
   built on, the median pass of ten consecutive table1-small runs ranged
   from 2.1 s to 3.4 s, with CPU time within 7% of wall time: the CPU
   itself ran slower. The runs' quartiles spread by 25% of their median,
   as wide as any bound the benchmark may set.

   So each untraced pass also times a fixed reference computation, in
   short slices between its operations, and its time metrics are scaled
   by how fast the reference ran: a pass that ran while the host was 20%
   slow has its times scaled down by 20%. The reference is two kernels
   that neither allocate nor call hextile: a heap sort of 1024 ints
   through the polymorphic compare (a C call per comparison) and 20
   sweeps of a 5-point stencil over a 64x64 float grid. Its slice time is
   the geometric mean of the two kernels' mean times. One slice is due
   for every [probe_every] seconds of the pass; due slices run at the
   next operation boundary, so the probe samples about 1/16 of every
   pass whether its operations take 1 ms or 0.5 s. The slices' time is
   left out of the pass. Over ten runs per workload this cut the spread
   of the median pass from 0.08-0.22 of the median to 0.04-0.07. *)

let probe_every = 0.025

(* The reference slice time: the scale factor is probe_ref_s / the slice
   time measured in the pass, so 1 on a host that runs a slice in this
   long (about the benchmark's VM when the probe was chosen). *)
let probe_ref_s = 4.5e-4

let probe_keys = Array.init 1024 (fun i -> (i * 2654435761) land 0xffffff)
let probe_ints = Array.make 1024 0
let grid_n = 64
let probe_grid = Array.make (grid_n * grid_n) 1.0
let probe_grid' = Array.make (grid_n * grid_n) 1.0

(* In place, through the polymorphic compare. *)
let heap_sort (a : 'a array) =
  let rec sift i n =
    let l = (2 * i) + 1 in
    if l < n then begin
      let c = if l + 1 < n && compare a.(l + 1) a.(l) > 0 then l + 1 else l in
      if compare a.(c) a.(i) > 0 then begin
        let t = a.(i) in
        a.(i) <- a.(c);
        a.(c) <- t;
        sift c n
      end
    end
  in
  let n = Array.length a in
  for i = (n / 2) - 1 downto 0 do
    sift i n
  done;
  for k = n - 1 downto 1 do
    let t = a.(0) in
    a.(0) <- a.(k);
    a.(k) <- t;
    sift 0 k
  done

(* Every value stays 1.0, so the work never changes (no denormals). *)
let sweep () =
  let n = grid_n and a = probe_grid and b = probe_grid' in
  Array.fill a 0 (n * n) 1.0;
  for _ = 1 to 20 do
    for y = 1 to n - 2 do
      for x = 1 to n - 2 do
        let i = (y * n) + x in
        b.(i) <- 0.2 *. (a.(i) +. a.(i - 1) +. a.(i + 1) +. a.(i - n) +. a.(i + n))
      done
    done;
    Array.blit b 0 a 0 (n * n)
  done

let probing = ref false
let probe_sort_s = ref 0.0
let probe_sweep_s = ref 0.0
let probe_slices = ref 0
let probe_spent_s = ref 0.0 (* all slice time, left out of the pass *)
let probe_last = ref 0.0 (* when the last slice ended *)

let probe_slice () =
  let t0 = now () in
  Array.blit probe_keys 0 probe_ints 0 (Array.length probe_keys);
  heap_sort probe_ints;
  let t1 = now () in
  sweep ();
  let t2 = now () in
  probe_sort_s := !probe_sort_s +. (t1 -. t0);
  probe_sweep_s := !probe_sweep_s +. (t2 -. t1);
  incr probe_slices;
  probe_spent_s := !probe_spent_s +. (t2 -. t0);
  probe_last := t2

(* Runs the slices due since the last one, at least [least] of them. *)
let probe ?(least = 0) () =
  if !probing then
    for _ = 1 to max least (min 40 (int_of_float ((now () -. !probe_last) /. probe_every))) do
      probe_slice ()
    done

(* A warm-up slice that does not count, then probing is on. *)
let probe_start () =
  probe_slice ();
  probe_sort_s := 0.0;
  probe_sweep_s := 0.0;
  probe_slices := 0;
  probe_spent_s := 0.0;
  probing := true

let probe_factor () =
  let n = float_of_int !probe_slices in
  probe_ref_s /. sqrt (!probe_sort_s /. n *. (!probe_sweep_s /. n))

(* ---- one pass (child process) ------------------------------------------- *)

type pass = {
  wall : float;
  lat_ms : float array;
  errors : string list;  (** one per failed operation *)
  layers : (string * float) list;  (** traced passes only *)
}

type prepared =
  | Cells of (Stencil.t * Experiments.scheme * (string * int) list) array
  | Instances of (Stencil.t * (string * int) list) array * Json.t
  | Requests of string array array * Cache.t  (** waves of request lines *)

let words l =
  List.filter (fun s -> s <> "")
    (String.split_on_char ' ' (String.map (function '\t' -> ' ' | c -> c) l))
let env_of n t = [ ("N", int_of_string n); ("T", int_of_string t) ]

let prepare w lines =
  match w with
  | Table1_small ->
      Cells
        (Array.of_list
           (List.map
              (fun l ->
                match words l with
                | [ k; s; n; t ] ->
                    ( Suite.find k,
                      List.find (fun x -> scheme_key x = s) table1_schemes,
                      env_of n t )
                | _ -> die "bad table1 input line %S" l)
              lines))
  | Analytic_large ->
      let expect =
        match Json.parse (In_channel.with_open_text expect_file In_channel.input_all) with
        | Ok d -> d
        | Error m -> die "%s: %s" expect_file m
      in
      Instances
        ( Array.of_list
            (List.filter_map
               (fun l ->
                 match words l with
                 | [ "run"; k; n; t ] -> Some (Suite.find k, env_of n t)
                 | [ "check"; _; _; _ ] -> None
                 | _ -> die "bad analytic input line %S" l)
               lines),
          expect )
  | Serve_warm | Serve_unique ->
      (* waves end at blank lines *)
      let waves, last =
        List.fold_left
          (fun (waves, cur) l ->
            if String.trim l = "" then
              if cur = [] then (waves, []) else (Array.of_list (List.rev cur) :: waves, [])
            else (waves, l :: cur))
          ([], []) lines
      in
      let waves = if last = [] then waves else Array.of_list (List.rev last) :: waves in
      Requests (Array.of_list (List.rev waves), Cache.create ())

let collect ~wall ~lat_ms outcomes layers =
  let errors = List.filter_map (function Error m -> Some m | Ok _ -> None) outcomes in
  { wall; lat_ms; errors; layers }

(* The reference-interpreter check run_scheme ~verify:true makes, spelt
   out so a traced pass can time the oracle apart from the scheme. *)
let verify (r : Common.result) reference (prog : Stencil.t) env =
  let bad =
    Hashtbl.fold
      (fun name g acc ->
        if acc = None && not (Grid.equal g (Grid.find reference name)) then Some name
        else acc)
      r.Common.grids None
  in
  let expected = Interp.stencil_updates prog (env_fn env) in
  match bad with
  | Some name ->
      Error (Fmt.str "%s on %s: array %s differs from the reference" r.scheme prog.name name)
  | None when r.updates <> expected ->
      Error
        (Fmt.str "%s on %s: %d statement instances, reference has %d" r.scheme
           prog.name r.updates expected)
  | None -> Ok r

let table1_pass ~pool ~traced cells =
  let run (i, (prog, scheme, env)) =
    let arg = float_of_int i in
    probe ();
    let t0 = now () in
    (* Ok carries the result and the seconds of its run_scheme call *)
    let outcome =
      try
        if not traced then
          let r = Experiments.run_scheme ~verify:true scheme prog env dev in
          Ok (r, now () -. t0)
        else
          let r =
            Timeline.slice ~arg ("schemes." ^ scheme_key scheme) (fun () ->
                Experiments.run_scheme ~verify:false scheme prog env dev)
          in
          let scheme_s = now () -. t0 in
          let reference =
            Timeline.slice ~arg "ir.interp" (fun () -> Interp.run prog (env_fn env))
          in
          Timeline.slice ~arg "ir.check" (fun () -> verify r reference prog env)
          |> Result.map (fun r -> (r, scheme_s))
      with e ->
        Error (Fmt.str "%s on %s: %s" (scheme_key scheme) prog.Stencil.name (Printexc.to_string e))
    in
    (1000.0 *. (now () -. t0), outcome)
  in
  Timeline.instant window_mark;
  let t0 = now () in
  let results = Par.map pool run (Array.mapi (fun i c -> (i, c)) cells) in
  let wall = now () -. t0 in
  Timeline.instant window_mark;
  let outcomes = Array.to_list (Array.map snd results) in
  let layers =
    if not traced then []
    else begin
      let su = Timeline.summary () in
      let l = ref [] in
      let set k v = l := (k, v) :: !l in
      cache_layers set;
      let runs = List.filter_map Result.to_option outcomes in
      let ok =
        List.concat
          (List.mapi
             (fun i o ->
               let prog, scheme, _ = cells.(i) in
               match o with Ok (r, _) -> [ (prog, scheme, r) ] | Error _ -> [])
             outcomes)
      in
      List.iter
        (fun s ->
          set ("schemes." ^ scheme_key s ^ "_s") (Timeline.incl_s su ("schemes." ^ scheme_key s)))
        table1_schemes;
      let hybrid = List.filter (fun (_, s, _) -> s = Experiments.Hybrid) ok in
      set "schemes.hybrid_memo_frac"
        (ratio
           (float_of_int
              (List.fold_left (fun a (_, _, r) -> a + r.Common.blocks_memoized) 0 hybrid))
           (float_of_int (List.fold_left (fun a (_, _, r) -> a + r.Common.blocks) 0 hybrid)));
      set "ir.interp_s" (Timeline.incl_s su "ir.interp");
      set "ir.interp_calls" (float_of_int (count su "ir.interp"));
      gpusim_layers set runs;
      set "model.gstencils_per_s"
        (geomean (List.map (fun (_, _, r) -> Common.gstencils_per_s r) hybrid));
      set "model.paper_speedup_err" (paper_speedup_err ok);
      !l
    end
  in
  collect ~wall ~lat_ms:(Array.map fst results) outcomes layers

let expect_key (p : Stencil.t) env = Fmt.str "%s/%dx%d" p.name (env_fn env "N") (env_fn env "T")

(* What a full-size analytic run must reproduce exactly: the grids (by
   FNV hash), the statement-instance count and every simulated counter. *)
let expectation (prog : Stencil.t) (r : Common.result) =
  Json.Obj
    [
      ("grids_hash", Json.Str (Engine.grids_hash prog r.Common.grids));
      ("updates", Json.Int r.Common.updates);
      ( "counters",
        Json.Obj
          (List.map (fun (k, v) -> (k, Json.Int v)) (Counters.to_assoc r.Common.counters)) );
    ]

let run_analytic ~pool prog env =
  Experiments.run_scheme ~pool ~analytic:true ~verify:false Experiments.Hybrid prog env dev

let analytic_pass ~pool ~traced instances expect =
  Timeline.instant window_mark;
  let t0 = now () in
  (* each op gives its outcome (Ok carries the result) and its seconds *)
  let results =
    Array.mapi
      (fun i (prog, env) ->
        probe ();
        let s = now () in
        let outcome =
          try
            Ok
              (Timeline.slice ~arg:(float_of_int i) "schemes.hybrid" (fun () ->
                   run_analytic ~pool prog env))
          with e -> Error (Fmt.str "%s: %s" (expect_key prog env) (Printexc.to_string e))
        in
        (outcome, now () -. s))
      instances
  in
  let wall = now () -. t0 in
  Timeline.instant window_mark;
  (* the output checks, outside the measured window *)
  let results =
    Array.mapi
      (fun i (outcome, s) ->
        let prog, env = instances.(i) in
        let key = expect_key prog env in
        ( Result.bind outcome (fun r ->
              match Json.member key expect with
              | None -> Error (Fmt.str "%s: no expectation in %s" key expect_file)
              | Some e when Json.to_string e = Json.to_string (expectation prog r) -> Ok r
              | Some _ -> Error (Fmt.str "%s: grids or counters differ from %s" key expect_file)),
          s ))
      results
  in
  let runs =
    List.filter_map
      (fun (o, s) -> Result.to_option o |> Option.map (fun r -> (r, s)))
      (Array.to_list results)
  in
  let layers =
    if not traced then []
    else begin
      let su = Timeline.summary () in
      let l = ref [] in
      let set k v = l := (k, v) :: !l in
      cache_layers set;
      set "schemes.hybrid_s" (Timeline.incl_s su "schemes.hybrid");
      gpusim_layers set runs;
      set "model.gstencils_per_s" (geomean (List.map (fun (r, _) -> Common.gstencils_per_s r) runs));
      !l
    end
  in
  collect ~wall
    ~lat_ms:(Array.map (fun (_, s) -> 1000.0 *. s) results)
    (Array.to_list (Array.map fst results))
    layers

let check_response response =
  match Json.parse response with
  | Error m -> Error ("unparsable response: " ^ m)
  | Ok doc -> (
      match (Json.member "ok" doc, Json.member "op" doc) with
      | Some (Json.Bool true), Some (Json.Str "run") ->
          if Json.member "verified" doc = Some (Json.Bool true) then Ok ()
          else Error "run response without \"verified\":true"
      | Some (Json.Bool true), _ -> Ok ()
      | _ ->
          Error
            (match Option.bind (Json.member "error" doc) Json.to_str with
            | Some m -> m
            | None -> "error response"))

let requests_in waves = Array.fold_left (fun acc w -> acc + Array.length w) 0 waves

(* The untraced serve pass: each wave goes through the daemon loop, all
   sharing one cache and one pool, as a closed-loop client with one wave
   in flight sees it. A request's latency runs from its wave's start to
   its response; a missing response stays "" and fails its check. *)
let serve_pass ~pool ~cache waves =
  let n = requests_in waves in
  let responses = Array.make n "" and lat_ms = Array.make n 0.0 in
  let base = ref 0 in
  let t0 = now () in
  Array.iter
    (fun wave ->
      let len = Array.length wave in
      let fed = ref 0 and got = ref 0 in
      probe ();
      let s = now () in
      Daemon.run_lines ~cache ~pool
        ~read_line:(fun () ->
          if !fed = len then None
          else begin
            incr fed;
            Some wave.(!fed - 1)
          end)
        ~write_line:(fun l ->
          if !got < len then begin
            lat_ms.(!base + !got) <- 1000.0 *. (now () -. s);
            responses.(!base + !got) <- l;
            incr got
          end)
        ();
      base := !base + len)
    waves;
  let wall = now () -. t0 in
  collect ~wall ~lat_ms (Array.to_list (Array.map check_response responses)) []

(* At most this many miss requests are replayed layer by layer. *)
let max_replays = 150

(* The traced serve pass drives the same waves through the functions
   Daemon.run_lines composes (parse each line, dedupe on the work key,
   execute the distinct requests over the pool, reply in order), each
   call in its own span. A wave misses when any cache miss or collision
   counter moved during it, and its requests count as misses. After the
   loop, outside the measured window, distinct missed requests are
   replayed through the layers' public functions to split their cost,
   and every program is looked up in a scratch cache to time
   Cache.lookup on this workload's hit pattern. *)
let serve_pass_traced ~pool ~cache waves =
  let n = requests_in waves in
  let responses = Array.make n "" and lat_ms = Array.make n 0.0 in
  let requests = Array.make n None and missed = Array.make n false in
  let base = ref 0 in
  Timeline.instant window_mark;
  let t0 = now () in
  Array.iter
    (fun wave ->
      let first = !base and len = Array.length wave in
      base := first + len;
      let before = Cache.stats cache in
      let s = now () in
      let parsed =
        Array.mapi
          (fun k line ->
            Timeline.slice ~arg:(float_of_int (first + k)) "serve.parse" (fun () ->
                Proto.parse_request line))
          wave
      in
      (* each distinct work key, with the index of a request asking it *)
      let distinct =
        List.sort_uniq
          (fun (a, _) (b, _) -> compare a b)
          (List.concat
             (List.mapi
                (fun k -> function Ok r -> [ (Proto.work_key r, first + k) ] | Error _ -> [])
                (Array.to_list parsed)))
      in
      let results =
        Par.map pool
          (fun (r, i) ->
            Timeline.slice ~arg:(float_of_int i) "serve.execute" (fun () ->
                try Engine.execute ~cache r with e -> Error (Printexc.to_string e)))
          (Array.of_list distinct)
      in
      let table = List.combine (List.map fst distinct) (Array.to_list results) in
      Array.iteri
        (fun k p ->
          let i = first + k in
          responses.(i) <-
            Timeline.slice ~arg:(float_of_int i) "serve.reply" (fun () ->
                match p with
                | Error (id, m) -> Proto.error_line ~id m
                | Ok (r : Proto.request) -> (
                    requests.(i) <- Some r;
                    match List.assoc (Proto.work_key r) table with
                    | Ok payload -> Proto.ok_line ~id:r.id payload
                    | Error m -> Proto.error_line ~id:r.id m));
          lat_ms.(i) <- 1000.0 *. (now () -. s))
        parsed;
      let after = Cache.stats cache in
      Array.fill missed first len
        (after.entry_misses > before.entry_misses
        || after.tilesize_misses > before.tilesize_misses
        || after.run_misses > before.run_misses
        || after.compile_misses > before.compile_misses
        || after.collisions > before.collisions))
    waves;
  let wall = now () -. t0 in
  Timeline.instant window_mark;
  let l = ref [] in
  let set k v = l := (k, v) :: !l in
  cache_layers set;
  let mean_where p =
    let sel = List.filteri (fun i _ -> p missed.(i)) (Array.to_list lat_ms) in
    ratio (List.fold_left ( +. ) 0.0 sel) (float_of_int (List.length sel))
  in
  set "serve.hit_ms" (mean_where not);
  set "serve.miss_ms" (mean_where Fun.id);
  let st = Cache.stats cache in
  let rate h m = ratio (float_of_int h) (float_of_int (h + m)) in
  set "serve.entry_hit_rate" (rate st.entry_hits st.entry_misses);
  set "serve.tilesize_hit_rate" (rate st.tilesize_hits st.tilesize_misses);
  set "serve.run_hit_rate" (rate st.run_hits st.run_misses);
  set "serve.compile_hit_rate" (rate st.compile_hits st.compile_misses);
  set "serve.collisions" (float_of_int st.collisions);
  (* replays, outside the measured window *)
  let parsed = Hashtbl.create 64 in
  let program (r : Proto.request) =
    match (r.source, r.builtin) with
    | Some src, _ -> (
        match Hashtbl.find_opt parsed src with
        | Some p -> p
        | None ->
            let p =
              match Front.parse_string ~name:"<request>" src with
              | Ok p -> p
              | Error m -> failwith m
            in
            Hashtbl.replace parsed src p;
            p)
    | None, Some b -> Suite.find b
    | None, None -> failwith "request without a program"
  in
  let scratch = Cache.create () in
  Array.iteri
    (fun i r ->
      Option.iter
        (fun r ->
          (* a program that does not parse already failed its response *)
          match program r with
          | exception _ -> ()
          | p ->
              ignore
                (Timeline.slice ~arg:(float_of_int i) "serve.lookup" (fun () ->
                     Cache.lookup scratch p)))
        r)
    requests;
  let candidates = ref 0 and exact_evals = ref 0 and searches = ref 0 in
  let cuda_bytes = ref 0 and emits = ref 0 and runs = ref [] in
  let replayed = Hashtbl.create 64 and replay_errors = ref [] in
  let replay i (r : Proto.request) =
    let arg = float_of_int i in
    let prog =
      match r.source with
      | Some src -> (
          match
            Timeline.slice ~arg "frontend.parse" (fun () ->
                Front.parse_string ~name:"<request>" src)
          with
          | Ok p -> p
          | Error m -> failwith m)
      | None -> program r
    in
    ignore (Timeline.slice ~arg "deps.analyze" (fun () -> Dep.analyze_uncached prog));
    let env = [ ("N", r.n); ("T", r.t) ] in
    match r.op with
    | Proto.Tilesize ->
        let _, rep =
          Timeline.slice ~arg "tiling.tilesize" (fun () ->
              Tile_size.select_spec prog (Tile_size.default_spec prog))
        in
        incr searches;
        candidates := !candidates + rep.candidates;
        exact_evals := !exact_evals + rep.exact_evals
    | Proto.Compile ->
        let c = Hybrid_exec.default_config prog in
        let tiling =
          Timeline.slice ~arg "tiling.schedule" (fun () ->
              Hybrid.make prog ~h:c.Hybrid_exec.h ~w:c.Hybrid_exec.w)
        in
        let cuda =
          Timeline.slice ~arg "codegen.emit" (fun () -> Cuda_emit.host_and_kernels tiling prog)
        in
        ignore
          (Timeline.slice ~arg "tiling.legality" (fun () ->
               Hybrid.check_legality tiling (env_fn env)));
        incr emits;
        cuda_bytes := !cuda_bytes + String.length cuda
    | Proto.Run ->
        let s = now () in
        let res =
          Timeline.slice ~arg "schemes.hybrid" (fun () ->
              Experiments.run_scheme ~verify:false Experiments.Hybrid prog env dev)
        in
        runs := (res, now () -. s) :: !runs;
        ignore (Timeline.slice ~arg "ir.interp" (fun () -> Interp.run prog (env_fn env)))
    | Proto.Stats | Proto.Ping | Proto.Shutdown -> ()
  in
  Array.iteri
    (fun i r ->
      match r with
      | Some (r : Proto.request)
        when missed.(i)
             && Hashtbl.length replayed < max_replays
             && not (Hashtbl.mem replayed (Proto.work_key r)) -> (
          Hashtbl.replace replayed (Proto.work_key r) ();
          try replay i r
          with e ->
            replay_errors :=
              Error (Fmt.str "replay of request %d: %s" i (Printexc.to_string e)) :: !replay_errors)
      | _ -> ())
    requests;
  let su = Timeline.summary () in
  set "serve.lookup_ms" (mean_ms su "serve.lookup");
  set "frontend.parse_ms" (mean_ms su "frontend.parse");
  set "deps.analyze_ms" (mean_ms su "deps.analyze");
  set "tiling.tilesize_ms" (mean_ms su "tiling.tilesize");
  set "tiling.schedule_ms" (mean_ms su "tiling.schedule");
  set "tiling.legality_ms" (mean_ms su "tiling.legality");
  set "codegen.emit_ms" (mean_ms su "codegen.emit");
  set "tiling.tilesize_candidates" (ratio (float_of_int !candidates) (float_of_int !searches));
  set "tiling.tilesize_exact_evals" (ratio (float_of_int !exact_evals) (float_of_int !searches));
  set "codegen.cuda_bytes" (ratio (float_of_int !cuda_bytes) (float_of_int !emits));
  set "schemes.hybrid_s" (Timeline.incl_s su "schemes.hybrid");
  set "ir.interp_s" (Timeline.incl_s su "ir.interp");
  set "ir.interp_calls" (float_of_int (count su "ir.interp"));
  gpusim_layers set !runs;
  collect ~wall ~lat_ms
    (Array.to_list (Array.map check_response responses) @ List.rev !replay_errors)
    !l

let peak_rss_mb () =
  try
    In_channel.with_open_text "/proc/self/status" (fun ic ->
        let rec go () =
          match In_channel.input_line ic with
          | None -> Float.nan
          | Some l when String.starts_with ~prefix:"VmHWM:" l -> (
              match words (String.sub l 6 (String.length l - 6)) with
              | kb :: _ -> float_of_string kb /. 1024.0
              | [] -> Float.nan)
          | Some _ -> go ()
        in
        go ())
  with Sys_error _ -> Float.nan

(* Passes run on a single domain. The probe runs between operations on
   the domain that runs them, so it times the CPU they ran on; and a pass
   never waits for a second vCPU that the host has given to someone else.
   The Par layer's parallel paths are therefore not measured. *)
let jobs = 1

let child ~workload ~input ~trace_out ~setup_only =
  let lines = In_channel.with_open_text input In_channel.input_lines in
  let pool = Par.create ~jobs in
  let prepared = prepare workload lines in
  let ready_ns = now_ns () in
  let fields =
    if setup_only then []
    else begin
      let traced = trace_out <> None in
      if traced then Timeline.enable ~capacity:(1 lsl 19) ()
      else probe_start ();
      let p =
        match prepared with
        | Cells cells -> table1_pass ~pool ~traced cells
        | Instances (instances, expect) -> analytic_pass ~pool ~traced instances expect
        | Requests (waves, cache) when traced -> serve_pass_traced ~pool ~cache waves
        | Requests (waves, cache) -> serve_pass ~pool ~cache waves
      in
      (* the slices inside the pass were timed with it *)
      let wall = p.wall -. !probe_spent_s in
      let layers =
        match trace_out with
        | None -> p.layers
        | Some path ->
            Timeline.write_chrome path;
            Timeline.disable ();
            ("trace.coverage", trace_coverage path) :: p.layers
      in
      let speed =
        if traced then []
        else begin
          probe ~least:1 ();
          [ ("speed", Json.Float (probe_factor ())) ]
        end
      in
      [
        ("wall_s", Json.Float wall);
        ("lat_ms", Json.List (Array.to_list (Array.map (fun x -> Json.Float x) p.lat_ms)));
        ("errors", Json.List (List.map (fun m -> Json.Str m) p.errors));
        ("rss_mb", Json.Float (peak_rss_mb ()));
        ("layers", Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) layers));
      ]
      @ speed
    end
  in
  Par.shutdown pool;
  print_endline (Json.to_string ~minify:true (Json.Obj (("ready_ns", Json.Int ready_ns) :: fields)))

(* ---- the scaled exact-vs-analytic check (parent) ------------------------ *)

(* At the seeded scaled sizes, analytic mode must reproduce the exact,
   oracle-verified run: grids bit-equal, every non-DRAM counter equal,
   and DRAM transactions within Analytic.dram_error_bound. Returns one
   outcome per kernel, Ok carrying the DRAM error. *)
let analytic_check lines =
  let checks =
    List.filter_map
      (fun l ->
        match words l with
        | [ "check"; k; n; t ] -> Some (Suite.find k, env_of n t)
        | _ -> None)
      lines
  in
  Par.with_pool ~jobs:(Par.recommended_jobs ()) @@ fun pool ->
  List.map
    (fun ((prog : Stencil.t), env) ->
      match
        ( Experiments.run_scheme ~pool ~verify:true Experiments.Hybrid prog env dev,
          run_analytic ~pool prog env )
      with
      | exception Failure m -> Error m
      | ex, an ->
          let grids_equal =
            Hashtbl.fold
              (fun name g acc -> acc && Grid.equal g (Grid.find an.Common.grids name))
              ex.Common.grids true
          in
          let ce = Counters.to_assoc ex.Common.counters
          and ca = Counters.to_assoc an.Common.counters in
          let is_dram k = k = "dram_read_transactions" || k = "dram_write_transactions" in
          let rel k =
            let e = List.assoc k ce and a = List.assoc k ca in
            float_of_int (abs (a - e)) /. float_of_int (max 1 e)
          in
          let err = Float.max (rel "dram_read_transactions") (rel "dram_write_transactions") in
          let key = expect_key prog env in
          if not grids_equal then Error (key ^ ": analytic grids differ from exact")
          else if an.Common.updates <> ex.Common.updates then
            Error (key ^ ": analytic statement-instance count differs from exact")
          else if List.exists2 (fun (k, e) (_, a) -> (not (is_dram k)) && e <> a) ce ca then
            Error (key ^ ": a non-DRAM counter differs from exact")
          else if err > Analytic.dram_error_bound then
            Error (Fmt.str "%s: DRAM error %.4f above the bound %.4f" key err Analytic.dram_error_bound)
          else begin
            Fmt.epr "  check %s: grids and counters exact, DRAM error %.4f@." key err;
            Ok err
          end)
    checks

let write_expect () =
  Par.with_pool ~jobs:(Par.recommended_jobs ()) @@ fun pool ->
  let entries =
    List.map
      (fun ((prog : Stencil.t), n, t) ->
        let env = [ ("N", n); ("T", t) ] in
        (expect_key prog env, expectation prog (run_analytic ~pool prog env)))
      analytic_runs
  in
  Out_channel.with_open_text expect_file (fun oc ->
      output_string oc (Json.to_string (Json.Obj entries));
      output_char oc '\n');
  Fmt.epr "wrote %s@." expect_file

(* ---- the parent: passes, aggregation, report ---------------------------- *)

type child_out = { setup_s : float; doc : Json.t; took : float }

let spawn args =
  let r, w = Unix.pipe ~cloexec:true () in
  let t0 = now_ns () in
  let pid =
    Unix.create_process Sys.executable_name
      (Array.of_list (Sys.executable_name :: args))
      Unix.stdin w Unix.stderr
  in
  Unix.close w;
  let ic = Unix.in_channel_of_descr r in
  let out = In_channel.input_all ic in
  close_in ic;
  let _, status = Unix.waitpid [] pid in
  let took = float_of_int (now_ns () - t0) *. 1e-9 in
  let last =
    match List.rev (String.split_on_char '\n' (String.trim out)) with
    | l :: _ -> l
    | [] -> ""
  in
  match (status, Json.parse last) with
  | Unix.WEXITED 0, Ok doc ->
      let ready = Option.value ~default:0 (Option.bind (Json.member "ready_ns" doc) Json.to_int) in
      Ok { setup_s = float_of_int (ready - t0) *. 1e-9; doc; took }
  | _ -> Error (Fmt.str "child %s failed" (String.concat " " args))

let floats key doc =
  match Option.bind (Json.member key doc) Json.to_list with
  | Some l -> Array.of_list (List.filter_map Json.to_float l)
  | None -> [||]

let num key doc = Option.value ~default:Float.nan (Option.bind (Json.member key doc) Json.to_float)

(* Set-up-only children: [setup_reps] before the passes and
   [setups_per_pass] before each pass, so the samples span the run. *)
let setup_reps = 20
let setups_per_pass = 2

let report ~spec ~workload ~seed ~trace ~out ~attempted ~failed values =
  let metrics = if trace then snd spec else fst spec in
  let entries =
    List.map
      (fun m ->
        match List.assoc_opt m.m_name values with
        | Some (v, _) ->
            (m.m_name, Json.Obj [ ("value", Json.Float v); ("unit", Json.Str m.unit) ])
        | None -> die "workload %s does not produce metric %s" (workload_name workload) m.m_name)
      metrics
  in
  List.iter
    (fun m ->
      let v, note = List.assoc m.m_name values in
      Fmt.epr "  %-30s %14.6g %-8s %s@." m.m_name v m.unit note)
    metrics;
  let correct = failed = 0 in
  let doc =
    Json.Obj
      [
        ("correct", Json.Bool correct);
        ("attempted", Json.Int attempted);
        ("failed", Json.Int failed);
        ("metrics", Json.Obj entries);
      ]
  in
  Option.iter
    (fun path ->
      Out_channel.with_open_gen [ Open_append; Open_creat; Open_text ] 0o644 path (fun oc ->
          output_string oc
            (Json.to_string ~minify:true
               (Json.Obj
                  [
                    ("workload", Json.Str (workload_name workload));
                    ("seed", Json.Int seed);
                    ("trace", Json.Bool trace);
                    ("metrics", Json.Obj entries);
                  ]));
          output_char oc '\n'))
    out;
  print_endline (Json.to_string ~minify:true doc);
  if not correct then exit 1

let spread_note a =
  let q1, _, q3 = quartiles a in
  Fmt.str "[q1 %.6g, q3 %.6g; n=%d]" q1 q3 (Array.length a)

let run_benchmark ~workload ~seed ~seconds ~trace ~out =
  let spec = load_spec () in
  let name = workload_name workload in
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
  let input = Filename.concat out_dir (name ^ ".in") in
  let lines = generate workload seed in
  Out_channel.with_open_text input (fun oc ->
      List.iter (fun l -> output_string oc l; output_char oc '\n') lines);
  let errors = ref [] and attempted = ref 0 in
  let fail_with m = errors := m :: !errors in
  let t_check = now () in
  let checks = if workload = Analytic_large then analytic_check lines else [] in
  if checks <> [] then
    Fmt.epr "e2e %s: %d scaled exact-vs-analytic checks in %.1f s@." name
      (List.length checks) (now () -. t_check);
  attempted := List.length checks;
  List.iter (function Error m -> fail_with m | Ok _ -> ()) checks;
  let child_args = [ "--child"; name; "--input"; input ] in
  let child args =
    match spawn (child_args @ args) with
    | Ok c -> c
    | Error m ->
        prerr_endline ("e2e: " ^ m);
        exit 1
  in
  let setup_only n = List.init n (fun _ -> (child [ "--setup-only" ]).setup_s) in
  let setups = ref (setup_only setup_reps) in
  let plain = ref [] and traced = ref [] in
  let trace_path = Filename.concat out_dir (Fmt.str "trace-%s.json" name) in
  let t_start = now () and last = ref 0.0 and k = ref 0 in
  let min_passes = if trace then 2 else 1 in
  while !k < min_passes || now () -. t_start +. !last <= seconds do
    let is_traced = trace && !k mod 2 = 1 in
    setups := setup_only setups_per_pass @ !setups;
    let c = child (if is_traced then [ "--trace-out"; trace_path ] else []) in
    last := c.took;
    setups := c.setup_s :: !setups;
    let ops = Array.length (floats "lat_ms" c.doc) in
    attempted := !attempted + ops;
    (match Option.bind (Json.member "errors" c.doc) Json.to_list with
    | Some l -> List.iter (fun e -> Option.iter fail_with (Json.to_str e)) l
    | None -> ());
    if is_traced then traced := c.doc :: !traced else plain := c.doc :: !plain;
    incr k
  done;
  let plain = Array.of_list (List.rev !plain) and traced = Array.of_list (List.rev !traced) in
  let walls docs = Array.map (num "wall_s") docs in
  (* each untraced pass's times, scaled by its host-speed factor *)
  let speed = Array.map (num "speed") plain in
  let scaled_walls = Array.mapi (fun i w -> w *. speed.(i)) (walls plain) in
  let lat =
    Array.concat
      (Array.to_list (Array.mapi (fun i d -> Array.map (( *. ) speed.(i)) (floats "lat_ms" d)) plain))
  in
  let setups = Array.of_list !setups in
  let fmt_all f a = String.concat " " (Array.to_list (Array.map (Fmt.str f) a)) in
  Fmt.epr "e2e %s seed %d: %d passes (%d traced), %d ops attempted, %d failed, %.1f s@."
    name seed !k (Array.length traced) !attempted (List.length !errors) (now () -. t_start);
  List.iter (fun m -> Fmt.epr "  FAILED: %s@." m) (List.rev !errors);
  Fmt.epr "  pass walls (s), unscaled: %s@." (fmt_all "%.3f" (walls plain));
  Fmt.epr "  host-speed factors: %s@." (fmt_all "%.3f" speed);
  let values =
    if not trace then begin
      let ops = Array.length lat in
      let lat_note =
        Fmt.str "[n=%d samples%s]" ops
          (match supported_tail ops with
          | Some p -> Fmt.str "; p%g = %.4g ms is the highest percentile with 10 beyond" p (percentile lat p)
          | None -> "")
      in
      [
        (* set-up children run no probe: the run's median factor scales them *)
        ( "setup_s",
          ( median setups *. median speed,
            Fmt.str "[unscaled median %.6g; n=%d]" (median setups) (Array.length setups) ) );
        ("wall_s", (median scaled_walls, spread_note scaled_walls));
        ("latency_p50_ms", (percentile lat 50.0, lat_note));
        ("latency_p90_ms", (percentile lat 90.0, lat_note));
        ( "peak_rss_mb",
          let r = Array.map (num "rss_mb") plain in
          (median r, spread_note r) );
      ]
    end
    else begin
      let layer key =
        let vs = Array.map (fun d -> Option.bind (Json.member "layers" d) (Json.member key)) traced in
        let vs = Array.of_list (List.filter_map (fun v -> Option.bind v Json.to_float) (Array.to_list vs)) in
        if Array.length vs = 0 then (0.0, "[not measured on this workload]")
        else (median vs, spread_note vs)
      in
      (* traced passes run no probe: the run's median factor scales them *)
      let overhead = (median (walls traced) *. median speed /. median scaled_walls) -. 1.0 in
      let dram_err =
        match List.filter_map Result.to_option checks with
        | [] -> (0.0, "[not measured on this workload]")
        | l -> (List.fold_left Float.max 0.0 l, "[worst of the scaled checks]")
      in
      List.map
        (fun m ->
          match m.m_name with
          | "trace.overhead_frac" ->
              (m.m_name, (overhead, Fmt.str "[traced wall vs untraced median, %d+%d passes]"
                                      (Array.length traced) (Array.length plain)))
          | "gpusim.dram_err" -> (m.m_name, dram_err)
          | key -> (m.m_name, layer key))
        (snd spec)
    end
  in
  report ~spec ~workload ~seed ~trace ~out ~attempted:!attempted ~failed:(List.length !errors)
    values

(* ---- --compare ---------------------------------------------------------- *)

(* For every (workload, metric) both files have: each side's median and
   quartiles over its runs, the pairs B won, and for end-to-end metrics a
   verdict. Runs pair up by seed: the k-th run of a seed in A with the
   k-th run of that seed in B. With at least [min_pairs] pairs, the move
   is the median of the per-pair ratios B/A less 1, and the noise is the
   quartile spread of those ratios over their median: a slow period of
   the host that spans a pair slows both of its runs, so interleaved
   runs (run.py --ab) cancel it. With fewer pairs, the move is between
   the two medians and the noise is the wider of the two sides' quartile
   spreads over their medians. The verdict:
   - worse: the move is the wrong way by more than the bound;
   - unresolved: else the noise is wider than the bound, unless every B
     run is better than every A run;
   - better: else B won at least nine tenths of the pairs and the medians
     differ by more than A's quartile spread (or every B run is better);
   - same: none of these.
   Per-layer metrics have no bound, so they get the move only. Exits 1 on
   any worse. *)
let min_pairs = 5

let compare_files a b =
  let e2e, per_layer = load_spec () in
  (* (workload, metric) -> (seed, value) list, in file order *)
  let load path =
    let rows =
      try In_channel.with_open_text path In_channel.input_lines
      with Sys_error m -> die "%s" m
    in
    List.concat_map
      (fun l ->
        match Json.parse l with
        | Error m -> die "%s: %s" path m
        | Ok doc -> (
            let w = Option.bind (Json.member "workload" doc) Json.to_str
            and seed = Option.bind (Json.member "seed" doc) Json.to_int in
            match (w, seed, Json.member "metrics" doc) with
            | Some w, Some seed, Some (Json.Obj ms) ->
                List.filter_map
                  (fun (k, v) ->
                    Option.map
                      (fun x -> ((w, k), (seed, x)))
                      (Option.bind (Json.member "value" v) Json.to_float))
                  ms
            | _ -> die "%s: a line without workload, seed or metrics" path))
      (List.filter (fun l -> String.trim l <> "") rows)
  in
  let ra = load a and rb = load b in
  let runs rows key = List.filter_map (fun (k, sv) -> if k = key then Some sv else None) rows in
  (* tag each run with its occurrence index among runs of its seed *)
  let numbered l =
    let seen = Hashtbl.create 16 in
    List.map
      (fun (seed, v) ->
        let k = Option.value ~default:0 (Hashtbl.find_opt seen seed) in
        Hashtbl.replace seen seed (k + 1);
        ((seed, k), v))
      l
  in
  let worse = ref 0 in
  Fmt.pr "%-15s %-28s %12s %27s %12s %27s %7s  %s@." "workload" "metric" "A median" "A q1..q3"
    "B median" "B q1..q3" "B won" "verdict";
  List.iter
    (fun (w, _) ->
      List.iter
        (fun m ->
          let la = runs ra (w, m.m_name) and lb = runs rb (w, m.m_name) in
          if la <> [] && lb <> [] then begin
            let va = Array.of_list (List.map snd la) and vb = Array.of_list (List.map snd lb) in
            let qa1, ma, qa3 = quartiles va and qb1, mb, qb3 = quartiles vb in
            let nb = numbered lb in
            let pairs =
              List.filter_map
                (fun (key, x) -> Option.map (fun y -> (x, y)) (List.assoc_opt key nb))
                (numbered la)
            in
            let better x y = if m.lower_better then y < x else y > x in
            let won = List.length (List.filter (fun (x, y) -> better x y) pairs) in
            let npairs = List.length pairs in
            let share x med =
              if med = 0.0 then if x = 0.0 then 0.0 else Float.infinity else x /. Float.abs med
            in
            let rel, noise =
              if npairs >= min_pairs then
                let r1, rm, r3 =
                  quartiles
                    (Array.of_list
                       (List.map (fun (x, y) -> if x = 0.0 && y = 0.0 then 1.0 else y /. x) pairs))
                in
                (rm -. 1.0, share (r3 -. r1) rm)
              else (share (mb -. ma) ma, Float.max (share (qa3 -. qa1) ma) (share (qb3 -. qb1) mb))
            in
            let loss = if m.lower_better then rel else -.rel in
            let all_better =
              Array.for_all (fun y -> Array.for_all (fun x -> better x y) va) vb
            in
            let verdict =
              match m.bound with
              | None -> "-"
              | Some bound when loss > bound ->
                  incr worse;
                  "worse"
              | Some bound when noise > bound && not all_better -> "unresolved"
              | Some _
                when all_better
                     || (npairs > 0 && 10 * won >= 9 * npairs && Float.abs (mb -. ma) > qa3 -. qa1)
                ->
                  "better"
              | Some _ -> "same"
            in
            Fmt.pr "%-15s %-28s %12.6g %13.6g..%-12.6g %12.6g %13.6g..%-12.6g %7s  %s (%+.1f%%)@." w
              m.m_name ma qa1 qa3 mb qb1 qb3
              (Fmt.str "%d/%d" won npairs)
              verdict (100.0 *. rel)
          end)
        (e2e @ per_layer))
    workloads;
  if !worse > 0 then begin
    Fmt.pr "%d end-to-end metric(s) worse@." !worse;
    exit 1
  end

(* ---- command line -------------------------------------------------------- *)

let usage =
  "usage: e2e --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--out FILE]\n\
  \       e2e --compare A.jsonl B.jsonl\n\
  \       e2e --write-expect"

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let int_arg flag v =
    match int_of_string_opt v with
    | Some n when n >= 0 -> n
    | _ -> die "%s expects a non-negative integer, got %S\n%s" flag v usage
  in
  let rec parse acc = function
    | [] -> acc
    | (("--setup-only" | "--write-expect") as f) :: rest -> parse ((f, "") :: acc) rest
    | "--compare" :: a :: b :: rest -> parse (("--compare", a) :: ("--compare-b", b) :: acc) rest
    | (( "--workload" | "--seed" | "--seconds" | "--trace" | "--out" | "--child" | "--input"
       | "--trace-out" ) as f)
      :: v :: rest ->
        parse ((f, v) :: acc) rest
    | x :: _ -> die "unknown or incomplete argument %S\n%s" x usage
  in
  let opts = parse [] args in
  let get f = List.assoc_opt f opts in
  match (get "--child", get "--compare", get "--write-expect", get "--workload") with
  | Some w, _, _, _ ->
      child ~workload:(workload_of_name w)
        ~input:(Option.value ~default:"" (get "--input"))
        ~trace_out:(get "--trace-out") ~setup_only:(get "--setup-only" <> None)
  | None, Some a, _, _ -> compare_files a (Option.get (get "--compare-b"))
  | None, None, Some _, _ -> write_expect ()
  | None, None, None, Some w ->
      let workload = workload_of_name w in
      let seed = Option.fold ~none:1 ~some:(int_arg "--seed") (get "--seed") in
      let seconds = Option.fold ~none:25 ~some:(int_arg "--seconds") (get "--seconds") in
      let trace =
        match get "--trace" with
        | None | Some "0" -> false
        | Some "1" -> true
        | Some v -> die "--trace expects 0 or 1, got %S" v
      in
      run_benchmark ~workload ~seed ~seconds:(float_of_int seconds) ~trace ~out:(get "--out")
  | None, None, None, None -> die "%s" usage
