open Hextile_gpusim
open Hextile_schemes
open Hextile_stencils
open Hextile_ir

let test_env prog = fun p -> List.assoc p (Suite.test_params prog)

let check_against_reference name (r : Common.result) prog env =
  let reference = Interp.run prog env in
  Hashtbl.iter
    (fun aname g ->
      if not (Grid.equal g (Grid.find reference aname)) then
        Alcotest.failf "%s/%s: array %s differs from reference" name
          prog.Stencil.name aname)
    r.grids;
  Alcotest.(check int)
    (Fmt.str "%s/%s executes every instance exactly once" name prog.Stencil.name)
    (Interp.stencil_updates prog env)
    r.updates

let test_par4all_all () =
  List.iter
    (fun prog ->
      let env = test_env prog in
      check_against_reference "par4all" (Par4all.run prog env Device.gtx470) prog env)
    Suite.all

let test_ppcg_all () =
  List.iter
    (fun prog ->
      let env = test_env prog in
      check_against_reference "ppcg" (Ppcg.run prog env Device.gtx470) prog env)
    Suite.all

let test_overtile_all () =
  List.iter
    (fun prog ->
      let env = test_env prog in
      check_against_reference "overtile" (Overtile.run prog env Device.gtx470) prog env)
    Suite.all

let test_overtile_time_tiled () =
  (* explicit hh=3 exercises the redundant trapezoid on a multi-statement
     kernel *)
  let prog = Suite.fdtd2d in
  let env = test_env prog in
  let r = Overtile.run ~config:{ hh = 3; tile = Some [| 8; 32 |] } prog env Device.gtx470 in
  check_against_reference "overtile-hh3" r prog env

let test_hybrid_all_strategies () =
  List.iter
    (fun prog ->
      let env = test_env prog in
      List.iter
        (fun step ->
          let config =
            {
              (Hybrid_exec.default_config prog) with
              strategy = Hybrid_exec.strategy_of_step step;
            }
          in
          let r = Hybrid_exec.run ~config prog env Device.gtx470 in
          check_against_reference (Fmt.str "hybrid(%c)" step) r prog env)
        [ 'a'; 'b'; 'c'; 'd'; 'e'; 'f' ])
    [ Suite.jacobi2d; Suite.fdtd2d; Suite.heat3d; Suite.heat1d; Suite.contrived ]

let test_hybrid_remaining_benchmarks () =
  List.iter
    (fun prog ->
      let env = test_env prog in
      let r = Hybrid_exec.run prog env Device.gtx470 in
      check_against_reference "hybrid(f)" r prog env)
    [ Suite.laplacian2d; Suite.heat2d; Suite.gradient2d; Suite.laplacian3d;
      Suite.gradient3d ]

let test_hybrid_odd_sizes () =
  (* non-multiple-of-32 extents and tile sizes that do not divide the
     domain: boundary tiles everywhere *)
  let prog = Suite.heat2d in
  let env p = List.assoc p [ ("N", 23); ("T", 7) ] in
  let config =
    { Hybrid_exec.h = 3; w = [| 3; 5 |]; threads = 64;
      strategy = Hybrid_exec.best_strategy; register_tile = false }
  in
  let r = Hybrid_exec.run ~config prog env Device.gtx470 in
  let reference = Interp.run prog env in
  Alcotest.(check bool) "odd sizes correct" true
    (Grid.equal (Grid.find r.grids "A") (Grid.find reference "A"));
  Alcotest.(check int) "updates" (Interp.stencil_updates prog env) r.updates

let test_strategy_of_step () =
  Alcotest.(check bool) "a = no shared" false
    (Hybrid_exec.strategy_of_step 'a').use_shared;
  Alcotest.(check bool) "f = dynamic reuse" true
    ((Hybrid_exec.strategy_of_step 'f').reuse = Hybrid_exec.Dynamic);
  Alcotest.check_raises "bad step"
    (Invalid_argument "Hybrid_exec.strategy_of_step: z not in a..f") (fun () ->
      ignore (Hybrid_exec.strategy_of_step 'z'))

let test_shared_memory_reduces_gld () =
  let prog = Suite.heat2d in
  let env = test_env prog in
  let run step =
    let config =
      { (Hybrid_exec.default_config prog) with strategy = Hybrid_exec.strategy_of_step step }
    in
    (Hybrid_exec.run ~config prog env Device.gtx470).counters
  in
  let a = run 'a' and b = run 'b' in
  Alcotest.(check bool) "gld_inst drops sharply with shared memory" true
    (b.gld_inst * 4 < a.gld_inst);
  let e = run 'e' and f = run 'f' in
  Alcotest.(check bool) "static reuse has bank-conflict replays" true
    (Counters.shared_loads_per_request e > 1.5);
  Alcotest.(check bool) "dynamic reuse is conflict-free" true
    (Counters.shared_loads_per_request f < 1.1);
  Alcotest.(check bool) "reuse does not increase loads" true
    (f.gld_inst <= b.gld_inst)

let test_overtile_redundancy () =
  (* overlapped tiling burns extra flops for fewer launches *)
  let prog = Suite.heat2d in
  let env = test_env prog in
  let plain = Overtile.run ~config:{ hh = 1; tile = None } prog env Device.gtx470 in
  let tiled = Overtile.run ~config:{ hh = 3; tile = None } prog env Device.gtx470 in
  Alcotest.(check bool) "redundant flops" true
    (tiled.counters.flops > plain.counters.flops);
  Alcotest.(check bool) "fewer kernels" true
    (tiled.counters.kernels < plain.counters.kernels)

let test_radii () =
  Alcotest.(check (array int)) "heat2d radius 1,1" [| 1; 1 |] (Overtile.radii Suite.heat2d);
  Alcotest.(check (array int)) "contrived radius 2" [| 2 |] (Overtile.radii Suite.contrived)

let test_par4all_counters () =
  let prog = Suite.heat1d in
  let env = test_env prog in
  let r = Par4all.run prog env Device.gtx470 in
  (* 3 reads per update, all global *)
  Alcotest.(check int) "gld_inst = 3 per update" (3 * r.updates) r.counters.gld_inst;
  Alcotest.(check int) "gst_inst = 1 per update" r.updates r.counters.gst_inst;
  Alcotest.(check int) "one kernel per (t,stmt)" 10 r.counters.kernels

let test_result_metrics () =
  let prog = Suite.heat1d in
  let env = test_env prog in
  let r = Ppcg.run prog env Device.gtx470 in
  Alcotest.(check bool) "total time positive" true (Common.total_time r > 0.0);
  Alcotest.(check bool) "gstencils positive" true (Common.gstencils_per_s r > 0.0);
  let g = Common.gflops r ~flops_per_update:3.0 in
  Alcotest.(check (float 1e-9)) "gflops = 3x gstencils"
    (3.0 *. Common.gstencils_per_s r) g

let test_register_tiling () =
  let prog = Suite.heat2d in
  let env = test_env prog in
  let base = Hybrid_exec.default_config prog in
  let plain = Hybrid_exec.run ~config:base prog env Device.gtx470 in
  let rt =
    Hybrid_exec.run ~config:{ base with register_tile = true } prog env Device.gtx470
  in
  check_against_reference "hybrid+regtile" rt prog env;
  (* heat2d 9-point: 6 of 9 reads stay in registers along the sweep *)
  Alcotest.(check bool) "register tiling cuts shared loads" true
    (rt.counters.shared_load_requests * 2 < plain.counters.shared_load_requests)

let test_split_tiling () =
  List.iter
    (fun prog ->
      let env p = List.assoc p [ ("N", 100); ("T", 13) ] in
      let r =
        Split_tiling.run ~config:{ hh = 3; width = 24 } prog env Device.gtx470
      in
      check_against_reference "split" r prog env)
    [ Suite.heat1d; Suite.contrived ];
  (* regression: a clipped last tile narrower than the reach used to
     vanish mid-block, merging phase-B gaps and reading cells a later
     block of the same launch had not written yet *)
  List.iter
    (fun (hh, width, n, t) ->
      let env p = List.assoc p [ ("N", n); ("T", t) ] in
      let r =
        Split_tiling.run ~config:{ hh; width } Suite.heat1d env Device.gtx470
      in
      check_against_reference
        (Fmt.str "split narrow remainder (%d,%d,%d,%d)" hh width n t)
        r Suite.heat1d env)
    [ (3, 7, 12, 3); (3, 34, 40, 5); (4, 19, 26, 6); (1, 20, 41, 12) ]

let test_split_rejects () =
  let env = test_env Suite.heat2d in
  Alcotest.(check bool) "2D rejected" true
    (match Split_tiling.run Suite.heat2d env Device.gtx470 with
    | exception Invalid_argument _ -> true
    | _ -> false);
  let env1 = test_env Suite.heat1d in
  Alcotest.(check bool) "too-narrow width rejected" true
    (match
       Split_tiling.run ~config:{ hh = 4; width = 8 } Suite.heat1d env1 Device.gtx470
     with
    | exception Invalid_argument _ -> true
    | _ -> false)

let prop_split_random_sizes =
  QCheck.Test.make ~name:"split tiling correct for random (hh, width, N, T)"
    ~count:12
    QCheck.(quad (int_range 1 4) (int_range 7 40) (int_range 10 90) (int_range 3 12))
    (fun (hh, width, n, t) ->
      QCheck.assume (width > 2 * hh);
      let prog = Suite.heat1d in
      let env p = List.assoc p [ ("N", n); ("T", t) ] in
      let r = Split_tiling.run ~config:{ hh; width } prog env Device.gtx470 in
      let reference = Hextile_ir.Interp.run prog env in
      r.updates = Hextile_ir.Interp.stencil_updates prog env
      && Hashtbl.fold
           (fun name g acc -> acc && Grid.equal g (Grid.find reference name))
           r.grids true)

let test_end_to_end_from_source () =
  let src =
    {|float A[2][N][N];
for (t = 0; t < T; t++)
  for (i = 1; i < N - 1; i++)
    for (j = 1; j < N - 1; j++)
      A[(t+1)%2][i][j] = 0.25f * (A[t%2][i+1][j] + A[t%2][i-1][j]
        + A[t%2][i][j+1] + A[t%2][i][j-1]);
|}
  in
  let prog =
    match Hextile_frontend.Front.parse_string ~name:"e2e" src with
    | Ok p -> p
    | Error m -> Alcotest.failf "parse: %s" m
  in
  let env p = List.assoc p [ ("N", 20); ("T", 9) ] in
  let r = Hybrid_exec.run prog env Device.gtx470 in
  check_against_reference "e2e" r prog env

(* Class plans against their definition: equal keys share a class,
   ids count classes in order of first appearance in the simulator's
   block order, the representative is the class's first block in that
   order, and the members are the class's other blocks, ascending. Keys
   mimic a launch: interior blocks share one key, the two boundary
   blocks get their own. *)
let test_classplan () =
  List.iter
    (fun blocks ->
      let key b =
        if b = 0 then [| 0; 1 |]
        else if b = blocks - 1 then [| 0; -1 |]
        else [| b mod 3; 0 |]
      in
      let p = Classplan.classify ~blocks ~key in
      let order = Array.to_list (Sim.block_order ~blocks) in
      let keys =
        List.fold_left
          (fun ks b -> if List.mem (key b) ks then ks else ks @ [ key b ])
          [] order
      in
      let label = Fmt.str "blocks=%d" blocks in
      Alcotest.(check int) (label ^ ": classes") (List.length keys) (Classplan.classes p);
      List.iteri
        (fun cid k ->
          let label = Fmt.str "%s, class %d" label cid in
          let rep = List.find (fun b -> key b = k) order in
          let in_class = List.filter (fun b -> key b = k) (List.init blocks Fun.id) in
          Alcotest.(check (array int)) (label ^ ": key") k p.key.(cid);
          Alcotest.(check int) (label ^ ": rep") rep p.rep.(cid);
          Alcotest.(check (list int))
            (label ^ ": members")
            (List.filter (( <> ) rep) in_class)
            p.members.(cid);
          List.iter
            (fun b ->
              Alcotest.(check int) (Fmt.str "%s: role of %d" label b) cid p.role.(b);
              Alcotest.(check bool)
                (Fmt.str "%s: is_rep %d" label b)
                (b = rep) (Classplan.is_rep p b))
            in_class)
        keys)
    [ 1; 2; 3; 7; 30; 64 ]

let suite =
  [
    Alcotest.test_case "par4all correct on all benchmarks" `Slow test_par4all_all;
    Alcotest.test_case "ppcg correct on all benchmarks" `Slow test_ppcg_all;
    Alcotest.test_case "overtile correct on all benchmarks" `Slow test_overtile_all;
    Alcotest.test_case "overtile hh=3 multi-statement" `Quick test_overtile_time_tiled;
    Alcotest.test_case "hybrid correct, all strategies" `Slow test_hybrid_all_strategies;
    Alcotest.test_case "hybrid correct, remaining kernels" `Slow test_hybrid_remaining_benchmarks;
    Alcotest.test_case "hybrid odd sizes (boundary tiles)" `Quick test_hybrid_odd_sizes;
    Alcotest.test_case "strategy ladder decoding" `Quick test_strategy_of_step;
    Alcotest.test_case "shared memory reduces gld (Table 5 shape)" `Quick
      test_shared_memory_reduces_gld;
    Alcotest.test_case "overtile redundancy tradeoff" `Quick test_overtile_redundancy;
    Alcotest.test_case "halo radii" `Quick test_radii;
    Alcotest.test_case "par4all counter identities" `Quick test_par4all_counters;
    Alcotest.test_case "result metrics" `Quick test_result_metrics;
    Alcotest.test_case "register tiling (future-work extension)" `Quick
      test_register_tiling;
    Alcotest.test_case "split tiling (1D degenerate case)" `Quick test_split_tiling;
    Alcotest.test_case "split tiling validation" `Quick test_split_rejects;
    QCheck_alcotest.to_alcotest prop_split_random_sizes;
    Alcotest.test_case "end-to-end: C source -> hybrid -> verified" `Quick
      test_end_to_end_from_source;
    Alcotest.test_case "class plan: canonical-order classes" `Quick test_classplan;
  ]
