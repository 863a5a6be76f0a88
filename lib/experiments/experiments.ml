open Hextile_gpusim
open Hextile_ir
open Hextile_schemes
open Hextile_stencils
open Hextile_tiling
open Hextile_deps
open Hextile_util
module Obs = Hextile_obs.Obs
module Timeline = Hextile_obs.Timeline
module Json = Hextile_obs.Json
module Par = Hextile_par.Par

type scheme = Ppcg | Par4all | Overtile | Patus | Hybrid

let scheme_name = function
  | Ppcg -> "PPCG"
  | Par4all -> "Par4All"
  | Overtile -> "Overtile"
  | Patus -> "Patus"
  | Hybrid -> "hybrid"

let engine_name = function Common.Ref -> "ref" | Common.Tape -> "tape"

(* The [hextile run] stderr summary. Machine-parseable contract,
   asserted by the test suite and documented in the README: the fixed
   prefix "sim:" followed by space-separated key=value tokens; keys
   are lowercase [a-z0-9_]+, values contain neither spaces nor '=';
   the keys wall_ms, blocks, blocks_memoized, engine, jobs,
   blocks_analytic, classes, epilogue_ms, blit_rows, replay_lines,
   fallback and recordings_dropped are always present, in that order
   (consumers must tolerate new keys being appended). blit_rows and
   replay_lines are deterministic at every jobs value; blit_rows counts
   bulk-blit row reconstruction wherever it runs (memoized-block replay
   and the analytic epilogue) while replay_lines is analytic-only;
   epilogue_ms is wall time (main domain only) and is never part of
   compared artifacts. fallback (none, unequal_stride or
   unaligned_stride) and recordings_dropped name every degradation from
   the requested regime, so none is silent; both are deterministic. *)
let sim_summary ~wall_s ~jobs ~engine (r : Common.result) =
  Fmt.str
    "sim: wall_ms=%.3f blocks=%d blocks_memoized=%d engine=%s jobs=%d \
     blocks_analytic=%d classes=%d epilogue_ms=%.3f blit_rows=%d \
     replay_lines=%d fallback=%s recordings_dropped=%d"
    (1000.0 *. wall_s) r.Common.blocks r.Common.blocks_memoized
    (engine_name engine) jobs r.Common.blocks_analytic r.Common.classes
    r.Common.epilogue_ms r.Common.blit_rows r.Common.replay_lines
    (match r.Common.fallback with None -> "none" | Some f -> Sim.fallback_name f)
    r.Common.recordings_dropped

let sizes (p : Stencil.t) =
  match Stencil.spatial_dims p with
  | 1 -> [ ("N", 4096); ("T", 64) ]
  | 2 -> [ ("N", 128); ("T", 24) ]
  | _ -> [ ("N", 64); ("T", 12) ]

(* The paper's full-size Table 1/2 instances: the working sets the
   machine-balance scaling divides by. At these parameters
   [scaled_device] is the identity (every ratio is 1), so
   [run_scheme ~analytic:true ~verify:false] simulates the paper's
   actual working sets on the unscaled device — tractable only through
   the analytic mode's class decomposition. *)
let paper_sizes (p : Stencil.t) = Suite.table3_params p

let env_fn l x = List.assoc x l

let scaled_device (dev : Device.t) (p : Stencil.t) env =
  let ws e = Analysis.footprint_floats p (env_fn e) * 4 in
  let ratio = float_of_int (ws env) /. float_of_int (ws (paper_sizes p)) in
  let step_points e =
    Interp.stencil_updates p (env_fn e) / max 1 (Affp.eval p.steps (env_fn e))
  in
  let launch_ratio =
    float_of_int (step_points env) /. float_of_int (step_points (paper_sizes p))
  in
  let steps e = max 1 (Affp.eval p.steps (env_fn e)) in
  let steps_ratio =
    float_of_int (steps (paper_sizes p)) /. float_of_int (steps env)
  in
  (* L2: shrink with the working set, but keep it large enough for
     tile-level reuse (>= ws/6 ≈ a few shared-memory boxes) and small
     enough that a full grid plane still misses — the property that makes
     time tiling matter on the real device. *)
  let l2 =
    min dev.l2_bytes
      (max (ws env / 6) (int_of_float (float_of_int dev.l2_bytes *. ratio)))
  in
  (* Scale the machine's parallelism with the linear grid extent: the
     hybrid scheme's grid is one block per S0 tile, so blocks shrink
     linearly with N while a full-size device would starve. Shrinking SMs
     and bandwidths together preserves blocks-per-SM and every roofline
     crossover; absolute GStencils/s shrink by the same factor. *)
  let n_ratio =
    float_of_int (env_fn env "N") /. float_of_int (env_fn (paper_sizes p) "N")
  in
  let sms = max 1 (int_of_float (Float.round (float_of_int dev.sms *. n_ratio))) in
  let f = float_of_int sms /. float_of_int dev.sms in
  {
    dev with
    sms;
    dram_bw_gbs = dev.dram_bw_gbs *. f;
    l2_bw_gbs = dev.l2_bw_gbs *. f;
    l2_bytes = max 4096 l2;
    launch_overhead_s = dev.launch_overhead_s *. launch_ratio /. f;
    (* host↔device transfers amortize over the paper's step count *)
    pcie_bw_gbs = dev.pcie_bw_gbs *. steps_ratio *. f;
  }

let verify_result (r : Common.result) prog env =
  let reference = Interp.run prog (env_fn env) in
  Hashtbl.iter
    (fun name g ->
      if not (Grid.equal g (Grid.find reference name)) then
        failwith
          (Fmt.str "%s on %s: array %s differs from the reference execution"
             r.scheme prog.Stencil.name name))
    r.grids;
  let expected = Interp.stencil_updates prog (env_fn env) in
  if r.updates <> expected then
    failwith
      (Fmt.str "%s on %s: executed %d statement instances, reference has %d"
         r.scheme prog.Stencil.name r.updates expected)

let run_scheme ?pool ?engine ?analytic ?(verify = true) scheme (prog : Stencil.t)
    env dev =
  (* The analytic mode memoizes and scales tape-executed streams; under
     the per-lane reference interpreter there is nothing to scale, and
     silently degrading to an exact run would misreport what was
     simulated. Reject the combination loudly instead. *)
  (match (analytic, engine) with
  | Some true, Some Common.Ref ->
      invalid_arg
        "Experiments.run_scheme: analytic mode requires the tape engine (the \
         ref interpreter records no streams to scale)"
  | _ -> ());
  Timeline.slice "schemes.run_scheme" @@ fun () ->
  let dev = scaled_device dev prog env in
  let e = env_fn env in
  let r =
    match scheme with
    | Ppcg -> Ppcg.run ?pool ?engine prog e dev
    | Par4all -> Par4all.run ?pool ?engine prog e dev
    | Overtile -> Overtile.run ?pool ?engine prog e dev
    | Patus ->
        (* Patus modelled as autotuned space tiling: pick the better of two
           block shapes by simulated time. *)
        let dims = Stencil.spatial_dims prog in
        let cands =
          if dims >= 3 then [ [| 4; 8; 32 |]; [| 2; 16; 32 |] ]
          else if dims = 2 then [ [| 16; 32 |]; [| 8; 64 |] ]
          else [ [| 256 |] ]
        in
        List.fold_left
          (fun best tile ->
            let r =
              Ppcg.run ?pool ?engine ~config:{ tile = Some tile } ~name:"patus"
                prog e dev
            in
            match best with
            | Some b when Common.total_time b <= Common.total_time r -> Some b
            | _ -> Some r)
          None cands
        |> Option.get
    | Hybrid -> Hybrid_exec.run ?pool ?engine ?analytic prog e dev
  in
  if verify then Timeline.slice "ir.verify" (fun () -> verify_result r prog env);
  r

(* ---- Tables 1 and 2 --------------------------------------------------- *)

type perf_row = { kernel : string; cells : (scheme * float) list }

let table12_schemes = [ Ppcg; Par4all; Overtile; Hybrid ]

let table12 ?pool dev =
  Timeline.slice "schemes.table12" @@ fun () ->
  match pool with
  | Some p when Par.jobs p > 1 && not (Par.in_region ()) ->
      (* Shard at the experiment level: fan out over the (kernel,
         scheme) pairs — 7 × 4 independent simulated runs — then
         regroup by kernel. [Par.map]'s static shards give each domain
         a contiguous run of pairs (stealing evens out the imbalance
         between cheap and expensive kernels). Inner launches stay
         sequential (nested regions degrade), so results are the
         sequential ones, cell for cell. *)
      let pairs =
        Array.of_list
          (List.concat_map
             (fun prog -> List.map (fun s -> (prog, s)) table12_schemes)
             Suite.table3)
      in
      let cells =
        Par.map p
          (fun ((prog : Stencil.t), s) ->
            let env = sizes prog in
            (s, Common.gstencils_per_s (run_scheme s prog env dev)))
          pairs
      in
      let nschemes = List.length table12_schemes in
      List.mapi
        (fun i (prog : Stencil.t) ->
          {
            kernel = prog.Stencil.name;
            cells =
              List.init nschemes (fun j -> cells.((i * nschemes) + j));
          })
        Suite.table3
  | _ ->
      List.map
        (fun prog ->
          let env = sizes prog in
          let cells =
            List.map
              (fun s ->
                (s, Common.gstencils_per_s (run_scheme ?pool s prog env dev)))
              table12_schemes
          in
          { kernel = prog.Stencil.name; cells })
        Suite.table3

let paper_table12 (dev : Device.t) =
  let mk ppcg par4all overtile hybrid name =
    ( name,
      [
        (Ppcg, Some ppcg);
        (Par4all, par4all);
        (Overtile, Some overtile);
        (Hybrid, Some hybrid);
      ] )
  in
  if String.equal dev.name "gtx470" then
    [
      mk 5.4 (Some 7.0) 10.6 15.0 "laplacian2d";
      mk 5.1 (Some 5.4) 6.9 15.0 "heat2d";
      mk 3.9 (Some 5.5) 6.7 7.3 "gradient2d";
      mk 0.76 None 5.3 7.3 "fdtd2d";
      mk 2.0 (Some 2.0) 3.1 4.3 "laplacian3d";
      mk 1.8 (Some 1.9) 2.6 3.9 "heat3d";
      mk 2.1 (Some 3.1) 3.6 3.6 "gradient3d";
    ]
  else
    [
      mk 1.0 (Some 1.1) 2.1 3.2 "laplacian2d";
      mk 0.97 (Some 0.79) 1.5 2.9 "heat2d";
      mk 0.61 (Some 0.9) 1.1 1.4 "gradient2d";
      mk 0.098 None 0.9 1.0 "fdtd2d";
      mk 0.32 (Some 0.34) 0.66 0.91 "laplacian3d";
      mk 0.29 (Some 0.35) 0.37 0.73 "heat3d";
      mk 0.32 (Some 0.69) 0.61 0.73 "gradient3d";
    ]

let speedup base v = 100.0 *. ((v /. base) -. 1.0)

let pp_table12 dev ppf rows =
  let paper = paper_table12 dev in
  Fmt.pf ppf "%-12s | %9s | %22s | %22s | %22s@." "kernel" "PPCG"
    "Par4All" "Overtile" "hybrid";
  List.iter
    (fun row ->
      let base = List.assoc Ppcg row.cells in
      let prow = try List.assoc row.kernel paper with Not_found -> [] in
      let cell s =
        let v = List.assoc s row.cells in
        let pv = Option.join (List.assoc_opt s prow) in
        let pbase = Option.join (List.assoc_opt Ppcg prow) in
        let paper_spd =
          match (pv, pbase) with
          | Some v, Some b when s <> Ppcg -> Fmt.str " (paper %+.0f%%)" (speedup b v)
          | _ -> ""
        in
        if s = Ppcg then Fmt.str "%9.2f" v
        else Fmt.str "%6.2f %+5.0f%%%s" v (speedup base v) paper_spd
      in
      Fmt.pf ppf "%-12s | %s | %s | %s | %s@." row.kernel (cell Ppcg) (cell Par4all)
        (cell Overtile) (cell Hybrid))
    rows

(* ---- Table 3 ----------------------------------------------------------- *)

let table3_text () =
  let b = Buffer.create 512 in
  Buffer.add_string b
    (Fmt.str "%-14s %6s %14s %10s %6s\n" "kernel" "Loads" "FLOPs/Stencil"
       "Data-size" "Steps");
  List.iter
    (fun prog ->
      let c = Analysis.characterize prog in
      let env = env_fn (Suite.table3_params prog) in
      let n = env "N" and t = env "T" in
      List.iteri
        (fun i (sc : Analysis.stmt_chars) ->
          Buffer.add_string b
            (Fmt.str "%-14s %6d %14d %10s %6s\n"
               (if i = 0 then prog.Stencil.name else "")
               sc.loads sc.flops
               (if i = 0 then Fmt.str "%d^%d" n c.spatial_dims else "")
               (if i = 0 then string_of_int t else "")))
        c.per_stmt)
    Suite.table3;
  Buffer.contents b

(* ---- Tables 4 and 5 ---------------------------------------------------- *)

type ladder_step = { step : char; label : string; result : Common.result }

let ladder_labels =
  [
    ('a', "no shared memory");
    ('b', "shared memory");
    ('c', "(b) + interleave copy-out");
    ('d', "(c) + align loads");
    ('e', "(d) + value reuse (static)");
    ('f', "(d) + value reuse (dynamic)");
  ]

let ladder ?pool dev =
  Timeline.slice "schemes.ladder" @@ fun () ->
  let prog = Suite.heat3d in
  let env = sizes prog in
  let step_of (step, label) =
    let config =
      {
        (Hybrid_exec.default_config prog) with
        strategy = Hybrid_exec.strategy_of_step step;
      }
    in
    let dev = scaled_device dev prog env in
    let r = Hybrid_exec.run ?pool ~config prog (env_fn env) dev in
    verify_result r prog env;
    { step; label; result = r }
  in
  match pool with
  | Some p when Par.jobs p > 1 && not (Par.in_region ()) ->
      (* one task per ladder rung; [Sim.launch] inside the region runs
         sequentially, so each rung's result matches the jobs=1 run *)
      Array.to_list (Par.map p step_of (Array.of_list ladder_labels))
  | _ -> List.map step_of ladder_labels

let heat3d_flops = 27.0

let paper_table4 (dev : Device.t) =
  if String.equal dev.name "gtx470" then [ 39.; 44.; 65.; 70.; 73.; 105. ]
  else [ 8.; 8.; 11.; 12.; 11.; 19. ]

let pp_table4 ppf per_device =
  Fmt.pf ppf "%-30s" "configuration";
  List.iter
    (fun ((dev : Device.t), _) -> Fmt.pf ppf " | %18s" dev.name)
    per_device;
  Fmt.pf ppf "@.";
  List.iteri
    (fun i (step, label) ->
      Fmt.pf ppf "(%c) %-26s" step label;
      List.iter
        (fun ((dev : Device.t), steps) ->
          let r = (List.nth steps i).result in
          let g = Common.gflops r ~flops_per_update:heat3d_flops in
          let base =
            Common.gflops (List.hd steps).result ~flops_per_update:heat3d_flops
          in
          let paper = List.nth (paper_table4 dev) i in
          Fmt.pf ppf " | %5.1f %+4.0f%% (p%3.0f)" g
            (if i = 0 then 0.0 else speedup base g)
            paper)
        per_device;
      Fmt.pf ppf "@.")
    ladder_labels

let pp_table5 ppf ((dev : Device.t), steps) =
  Fmt.pf ppf "heat 3D counters on %s (units of 10^6 events; paper: 10^9 at full size)@."
    dev.name;
  Fmt.pf ppf "%-5s %10s %10s %10s %12s %8s@." "cfg" "gld_inst" "dram_rd" "l2_rd"
    "sh_ld/req" "gld_eff";
  List.iter
    (fun s ->
      let c = s.result.Common.counters in
      Fmt.pf ppf "(%c)   %10.2f %10.3f %10.3f %12.2f %7.0f%%@." s.step
        (float_of_int c.gld_inst /. 1e6)
        (float_of_int c.dram_read_transactions /. 1e6)
        (float_of_int c.l2_read_transactions /. 1e6)
        (Counters.shared_loads_per_request c)
        (100.0 *. Counters.gld_efficiency c))
    steps

(* ---- Figures ----------------------------------------------------------- *)

let figure1_source =
  {|float A[2][N][N];
for (t = 0; t < T; t++)
  for (i = 1; i < N - 1; i++)
    for (j = 1; j < N - 1; j++)
      A[(t+1)%2][i][j] = 0.2f * (A[t%2][i][j] +
          A[t%2][i+1][j] + A[t%2][i-1][j] +
          A[t%2][i][j+1] + A[t%2][i][j-1]);
|}

let figure2_text () =
  let prog =
    match Hextile_frontend.Front.parse_string ~name:"jacobi2d" figure1_source with
    | Ok p -> p
    | Error m -> failwith m
  in
  let l = Hextile_codegen.Ptx_emit.core_listing prog (List.hd prog.stmts) in
  Fmt.str
    "Core of the generated code for Figure 1 (cf. paper Figure 2):@.%s\
     %d shared loads + %d arithmetic ops + %d store per point@."
    l.text l.loads l.arith l.stores

let figure3_text () =
  let deps = Dep.analyze Suite.contrived in
  let cone = Cone.of_deps deps ~dim:0 in
  let (r0t, r0s), (r1t, r1s) = Cone.rays cone in
  let pp_dist ppf d = Fmt.pf ppf "(%a)" Fmt.(array ~sep:(any ", ") int) d in
  Fmt.str
    "Dependence distances of A[t][i] = f(A[t-2][i-2], A[t-1][i+2]): %a@.\
     Opposite dependence cone: %a@.\
     Generators: (%a, %a) and (%a, %a)@."
    Fmt.(list ~sep:(any ", ") pp_dist)
    (Dep.distance_vectors deps) Cone.pp cone Rat.pp r0t Rat.pp r0s Rat.pp r1t
    Rat.pp r1s

let figure4_text () =
  let cone = { Cone.delta0 = Rat.one; delta1 = Rat.one } in
  let hex = Hexagon.make ~h:2 ~w0:3 cone in
  Fmt.str "Hexagonal tile, h=2, w0=3, δ0=δ1=1 (%d points, expected %d):@.%s"
    (Hexagon.count hex) (Hexagon.expected_count hex) (Render.tile hex)

let figure5_text () =
  let cone = { Cone.delta0 = Rat.one; delta1 = Rat.one } in
  let hex = Hexagon.make ~h:1 ~w0:2 cone in
  let hs = Hex_schedule.make hex in
  Render.pattern hs ~u_range:(0, 11) ~s0_range:(0, 47)

let figure6_text () =
  let t = Hybrid.make Suite.heat3d ~h:2 ~w:[| 7; 10; 32 |] in
  let b = Buffer.create 512 in
  Buffer.add_string b "Hybrid schedule maps (heat 3D, h=2, w=(7,10,32)):\n";
  List.iter
    (fun phase ->
      Buffer.add_string b
        (Fmt.str "phase %d hexagonal part: %a\n" phase Hextile_poly.Qmap.pp
           (Hex_schedule.qmap t.hs ~phase)))
    [ 0; 1 ];
  Buffer.add_string b
    (Fmt.str
       "classical dims: S_k = floor((s_k + floor(δ1_k · t')) / w_k), s'_k = \
        (s_k + floor(δ1_k · t')) mod w_k, w = (%a)\n"
       Fmt.(array ~sep:(any ", ") int)
       t.w);
  Buffer.contents b

let tile_size_sweep_text () =
  let prog = Suite.heat3d in
  let b = Buffer.create 512 in
  Buffer.add_string b
    "Tile-size model (Sec 3.7) on heat 3D: loads/iteration per candidate\n";
  List.iter
    (fun (h, w0, w1, w2) ->
      match Hybrid.make prog ~h ~w:[| w0; w1; w2 |] with
      | t ->
          let s = Tile_size.tile_stats t in
          Buffer.add_string b
            (Fmt.str "  h=%d w=(%2d,%2d,%2d): %a\n" h w0 w1 w2 Tile_size.pp_stats s)
      | exception Invalid_argument m ->
          Buffer.add_string b (Fmt.str "  h=%d w=(%2d,%2d,%2d): invalid (%s)\n" h w0 w1 w2 m))
    [
      (1, 4, 6, 32); (1, 7, 10, 32); (2, 7, 10, 32); (2, 4, 6, 32);
      (3, 7, 10, 32); (1, 4, 6, 64); (2, 2, 4, 32);
    ];
  (match
     Tile_size.select prog ~h_candidates:[ 1; 2; 3 ] ~w0_candidates:[ 2; 4; 7 ]
       ~wi_candidates:[ [ 4; 6; 10 ]; [ 32; 64 ] ]
       ~shared_mem_floats:(48 * 1024 / 4) ~require_multiple:32 ()
   with
  | Some c -> Buffer.add_string b (Fmt.str "selected: %a\n" Tile_size.pp_choice c)
  | None -> Buffer.add_string b "selected: none feasible\n");
  Buffer.contents b

let patus_note ?pool dev =
  let cell prog =
    let env = sizes prog in
    Common.gstencils_per_s (run_scheme ?pool Patus prog env dev)
  in
  Fmt.str
    "Patus (autotuned space tiling, CUDA support experimental in the paper):@.\
    \ \ laplacian3d %.2f GStencils/s, heat3d %.2f GStencils/s@."
    (cell Suite.laplacian3d) (cell Suite.heat3d)

let h_sweep ?pool dev (prog : Stencil.t) =
  Timeline.slice "schemes.h_sweep" @@ fun () ->
  let env = sizes prog in
  let k = List.length prog.stmts in
  let base = Hybrid_exec.default_config prog in
  let eval h =
    if (h + 1) mod k <> 0 then None
    else
      let config = { base with h } in
      let d = scaled_device dev prog env in
      match Hybrid_exec.run ?pool ~config prog (env_fn env) d with
      | r ->
          verify_result r prog env;
          Some (h, Common.gstencils_per_s r)
      | exception Invalid_argument _ -> None
  in
  let hs = [ 0; 1; 2; 3; 5; 7 ] in
  match pool with
  | Some p when Par.jobs p > 1 && not (Par.in_region ()) ->
      List.filter_map Fun.id (Array.to_list (Par.map p eval (Array.of_list hs)))
  | _ -> List.filter_map eval hs

let diamond_vs_hex_text () =
  let b = Buffer.create 512 in
  Buffer.add_string b
    "Diamond vs hexagonal tiles (Section 5): integer points per tile\n";
  List.iter
    (fun tau ->
      let d = Hextile_tiling.Diamond.make ~tau in
      Buffer.add_string b
        (Fmt.str "  diamond tau=%d: per-tile counts %a\n" tau
           Fmt.(list ~sep:(any ", ") int)
           (Hextile_tiling.Diamond.count_spectrum d)))
    [ 2; 3; 4; 5 ];
  List.iter
    (fun (h, w0) ->
      let hex =
        Hexagon.make ~h ~w0 { Cone.delta0 = Rat.one; delta1 = Rat.one }
      in
      Buffer.add_string b
        (Fmt.str "  hexagon h=%d w0=%d: every full tile has exactly %d points\n" h
           w0 (Hexagon.count hex)))
    [ (1, 2); (2, 3); (3, 4) ];
  Buffer.add_string b
    "  (varying diamond counts are the thread-divergence hazard the hybrid\n\
    \   scheme avoids; hexagonal counts are identical by construction)\n";
  Buffer.contents b

let split1d_text dev =
  let prog = Suite.heat1d in
  let env = sizes prog in
  let d = scaled_device dev prog env in
  let b = Buffer.create 256 in
  Buffer.add_string b
    "1D: the hybrid method degenerates to hexagonal tiling; split tiling\n\
     is the alternative the paper cites (heat 1D):\n";
  let run name r =
    verify_result r prog env;
    Buffer.add_string b
      (Fmt.str "  %-22s %.3f GStencils/s (dram rd %d)\n" name
         (Common.gstencils_per_s r)
         r.Common.counters.dram_read_transactions)
  in
  run "hybrid (hexagonal)" (Hybrid_exec.run prog (env_fn env) d);
  run "split tiling"
    (Split_tiling.run ~config:{ hh = 4; width = 64 } prog (env_fn env) d);
  run "ppcg (space tiling)" (Ppcg.run prog (env_fn env) d);
  Buffer.contents b

(* ---- machine-readable sinks (bench --json) ----------------------------- *)

let result_json (r : Common.result) =
  Json.Obj
    [
      ("scheme", Json.Str r.scheme);
      ("device", Json.Str r.device.Device.name);
      ("updates", Json.Int r.updates);
      ("kernel_time_s", Json.Float r.kernel_time);
      ("transfer_time_s", Json.Float r.transfer_time);
      ("gstencils_per_s", Json.Float (Common.gstencils_per_s r));
      ( "counters",
        Json.Obj
          (List.map (fun (k, v) -> (k, Json.Int v)) (Counters.to_assoc r.counters))
      );
      ("gld_efficiency", Json.Float (Counters.gld_efficiency r.counters));
      ( "shared_loads_per_request",
        Json.Float (Counters.shared_loads_per_request r.counters) );
    ]

let table12_json (dev : Device.t) rows =
  Json.Obj
    [
      ("device", Json.Str dev.name);
      ("unit", Json.Str "GStencils/s");
      ( "rows",
        Json.List
          (List.map
             (fun row ->
               Json.Obj
                 (("kernel", Json.Str row.kernel)
                 :: List.map
                      (fun (s, v) -> (scheme_name s, Json.Float v))
                      row.cells))
             rows) );
    ]

let ladder_json (dev : Device.t) steps =
  Json.Obj
    [
      ("device", Json.Str dev.name);
      ("kernel", Json.Str "heat3d");
      ( "steps",
        Json.List
          (List.map
             (fun s ->
               Json.Obj
                 [
                   ("step", Json.Str (String.make 1 s.step));
                   ("label", Json.Str s.label);
                   ( "gflops",
                     Json.Float
                       (Common.gflops s.result ~flops_per_update:heat3d_flops) );
                   ( "gstencils_per_s",
                     Json.Float (Common.gstencils_per_s s.result) );
                   ("result", result_json s.result);
                 ])
             steps) );
    ]

let h_sweep_json rows =
  Json.List
    (List.map
       (fun (h, g) ->
         Json.Obj [ ("h", Json.Int h); ("gstencils_per_s", Json.Float g) ])
       rows)

(* ---- hextile profile --------------------------------------------------- *)

let hybrid_tiling ?h ?w prog =
  let config = Hybrid_exec.default_config prog in
  let h = Option.value ~default:config.h h and w = Option.value ~default:config.w w in
  (h, w, Hybrid.make prog ~h ~w)

let check_legality ?tiling scheme prog env =
  match scheme with
  | Hybrid -> (
      let tiling =
        match tiling with
        | Some t -> t
        | None ->
            let _, _, t = hybrid_tiling prog in
            t
      in
      (* a broken phase partition is as illegal as a violated dependence *)
      match Hybrid.check_legality tiling (env_fn env) with
      | r -> r
      | exception Invalid_argument m -> Error m)
  | Ppcg | Par4all | Overtile | Patus -> Ok ()

let launch_json (dev : Device.t) (l : Sim.launch) =
  Json.Obj
    ([
       ("kernel", Json.Str l.lname);
       ("blocks", Json.Int l.blocks);
       ("threads", Json.Int l.threads);
       ("shared_bytes", Json.Int l.shared_bytes);
       ("time_s", Json.Float l.time_s);
       ("occupancy", Json.Float (Sim.occupancy dev ~blocks:l.blocks));
       ("bottleneck", Json.Str l.bottleneck);
       ("gld_efficiency", Json.Float (Counters.gld_efficiency l.delta));
       ( "shared_loads_per_request",
         Json.Float (Counters.shared_loads_per_request l.delta) );
     ]
    @ List.map (fun (k, v) -> (k, Json.Int v)) (Counters.to_assoc l.delta))

(* Count and inclusive time of every slice name on the calling domain's
   track, by name. *)
let stages_json () =
  let me = (Domain.self () :> int) in
  let slices =
    match
      List.find_opt
        (fun (tk : Timeline.track_tot) -> tk.tk_tid = me)
        (Timeline.summary ()).su_tracks
    with
    | Some tk -> tk.tk_slices
    | None -> []
  in
  Json.Obj
    (List.sort compare
       (List.map
          (fun (sl : Timeline.slice_tot) ->
            ( sl.sl_name,
              Json.Obj
                [
                  ("count", Json.Int sl.sl_count);
                  ("incl_ms", Json.Float (1000.0 *. sl.sl_incl_s));
                ] ))
          slices))

let profile ~jobs ~source ~load ?h ?w scheme env dev =
  match Timeline.slice "frontend" load with
  | Error m -> Error m
  | Ok (prog : Stencil.t) -> (
      let deps =
        Timeline.slice "deps" (fun () ->
            let deps = Dep.analyze prog in
            for d = 0 to Stencil.spatial_dims prog - 1 do
              ignore (Cone.of_deps deps ~dim:d)
            done;
            deps)
      in
      let h, w, points, stats, legality, tiling =
        Timeline.slice "tiling" (fun () ->
            let h, w, tiling = hybrid_tiling ?h ?w prog in
            let points = Hexagon.count tiling.hex in
            let stats = Tile_size.tile_stats tiling in
            (h, w, points, stats, Hybrid.check_legality tiling (env_fn env), tiling))
      in
      let cuda, core =
        Timeline.slice "codegen" (fun () ->
            ( Hextile_codegen.Cuda_emit.host_and_kernels tiling prog,
              List.map
                (fun (s : Stencil.stmt) ->
                  let l = Hextile_codegen.Ptx_emit.core_listing prog s in
                  ( s.sname,
                    Json.Obj [ ("loads", Json.Int l.loads); ("ops", Json.Int l.arith) ] ))
                prog.stmts ))
      in
      match
        Timeline.slice "sim" (fun () ->
            Par.with_pool ~jobs (fun pool -> run_scheme ~pool scheme prog env dev))
      with
      | exception Failure m -> Error m
      | result ->
          let stages = stages_json () and trace = Obs.to_json () in
          Ok
            (Json.Obj
               [
                 ("profile_version", Json.Int 2);
                 ("program", Json.Str prog.name);
                 ("scheme", Json.Str (scheme_name scheme));
                 ("device", Json.Str dev.Device.name);
                 ("env", Json.Obj (List.map (fun (p, v) -> (p, Json.Int v)) env));
                 ("h", Json.Int h);
                 ("w", Json.List (Array.to_list (Array.map (fun x -> Json.Int x) w)));
                 ("frontend", Json.Obj [ ("source", Json.Str source) ]);
                 ("deps", Json.Obj [ ("dependences", Json.Int (List.length deps)) ]);
                 ( "tiling",
                   Json.Obj
                     [
                       ("tile_points", Json.Int points);
                       ("loads_per_iteration", Json.Float stats.ratio);
                       ("shared_footprint_floats", Json.Int stats.footprint_box);
                       ( "legality",
                         Json.Str
                           (match legality with Ok () -> "ok" | Error m -> "FAILED: " ^ m) );
                     ] );
                 ( "codegen",
                   Json.Obj
                     [ ("cuda_bytes", Json.Int (String.length cuda)); ("core", Json.Obj core) ] );
                 ("stages", stages);
                 ("result", result_json result);
                 ("timeline", Json.List (List.map (launch_json result.device) result.launches));
                 ("trace", trace);
               ]))
