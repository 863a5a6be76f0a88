(* Tests for the lib/par domain pool and the determinism contract it
   must uphold across the whole stack: identical combinator results,
   Obs merge totals, gpusim counters (including the order-sensitive
   L2/dram path), sanitizer findings, scheme executor outputs, tile-size
   selection and fuzz campaigns — all bit-identical at jobs 1/2/4. *)

open Hextile_gpusim
module Grid = Hextile_ir.Grid
module Par = Hextile_par.Par
module Obs = Hextile_obs.Obs
module Json = Hextile_obs.Json
module Check = Hextile_check
module Suite = Hextile_stencils.Suite
module Tile_size = Hextile_tiling.Tile_size
module Results = Hextile_oracle.Results

let dev = Device.gtx470
let jobs_values = [ 2; 4 ]

let contains ~sub s =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

(* ---- pool combinators ------------------------------------------------- *)

let test_map_matches_sequential () =
  List.iter
    (fun jobs ->
      Par.with_pool ~jobs (fun p ->
          Alcotest.(check int) "jobs" (max 1 jobs) (Par.jobs p);
          let xs = Array.init 503 (fun i -> i - 7) in
          let f x = (x * x) - (3 * x) in
          Alcotest.(check (array int))
            (Fmt.str "map at jobs=%d" jobs)
            (Array.map f xs) (Par.map p f xs);
          Alcotest.(check (array int))
            "empty" [||]
            (Par.map p f [||]);
          Alcotest.(check (array int)) "singleton" [| f 9 |] (Par.map p f [| 9 |])))
    [ 1; 2; 4 ]

let test_run_exceptions () =
  Par.with_pool ~jobs:4 (fun p ->
      let ran = Array.make 9 false in
      let thunks =
        Array.init 9 (fun i () ->
            ran.(i) <- true;
            if i mod 3 = 1 then failwith (string_of_int i))
      in
      (match Par.run p thunks with
      | () -> Alcotest.fail "expected an exception"
      | exception Failure m ->
          Alcotest.(check string) "lowest failing index re-raised" "1" m);
      Alcotest.(check bool)
        "no cancellation: every thunk ran" true
        (Array.for_all Fun.id ran))

let test_map_reduce_ordered () =
  Par.with_pool ~jobs:4 (fun p ->
      let expect =
        String.concat "" (List.init 50 (fun i -> string_of_int i ^ ";"))
      in
      let got =
        Par.map_reduce p
          ~map:(fun i -> string_of_int i ^ ";")
          ~merge:( ^ ) ""
          (Array.init 50 Fun.id)
      in
      (* a non-commutative merge only works if the fold is in index order *)
      Alcotest.(check string) "ordered merge" expect got)

let test_nested_region_degrades () =
  Par.with_pool ~jobs:4 (fun p ->
      Alcotest.(check bool) "outside region" false (Par.in_region ());
      let inner = Array.init 10 Fun.id in
      let got =
        Par.map p
          (fun i ->
            if not (Par.in_region ()) then failwith "task not in region";
            Array.fold_left ( + ) 0 (Par.map p (fun j -> i * j) inner))
          (Array.init 8 Fun.id)
      in
      let expect = Array.init 8 (fun i -> i * 45) in
      Alcotest.(check (array int)) "nested map degrades to sequential" expect got);
  Alcotest.(check bool) "region flag restored" false (Par.in_region ())

(* ---- Obs under parallel regions --------------------------------------- *)

let with_obs f () =
  Obs.reset ();
  Obs.enable ();
  Fun.protect
    ~finally:(fun () ->
      Obs.disable ();
      Obs.reset ())
    f

(* Deliberately uneven elements: the first quarter of the index space
   (the first shard at jobs 4) costs far more than the rest, so the
   other tasks run dry and steal from it. Counter totals must still be
   the sequential ones, whichever domain ran which element. *)
let test_obs_hammer =
  with_obs (fun () ->
      let n = 64 in
      let spin k =
        let acc = ref 0 in
        for j = 1 to k do
          acc := (!acc * 31) + j
        done;
        Sys.opaque_identity !acc
      in
      let counters jobs =
        Obs.reset ();
        Par.with_pool ~jobs (fun p ->
            Par.iter p
              (fun i ->
                ignore (spin (if i < n / 4 then 200_000 else 100));
                for _ = 1 to i do
                  Obs.incr "hammer.count"
                done;
                Obs.incr ~by:i "hammer.by";
                Obs.incr (Fmt.str "hammer.bucket%d" (i mod 7)))
              (Array.init n Fun.id));
        Obs.counters ()
      in
      let base = counters 1 in
      let expect = n * (n - 1) / 2 in
      Alcotest.(check (option int)) "incr total = sequential sum" (Some expect)
        (List.assoc_opt "hammer.count" base);
      Alcotest.(check (option int)) "incr ~by total" (Some expect)
        (List.assoc_opt "hammer.by" base);
      List.iter
        (fun jobs ->
          Alcotest.(check (list (pair string int)))
            (Fmt.str "counters at jobs=%d = jobs=1" jobs)
            base (counters jobs))
        [ 2; 4 ];
      match Json.parse (Json.to_string (Obs.to_json ())) with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "merged trace JSON does not parse: %s" e)

(* ---- gpusim: counters and sanitizer across domains -------------------- *)

let some_addrs l = Array.of_list (List.map (fun x -> Some x) l)

let lane_pair w1 w2 =
  Array.init 32 (fun i ->
      if i = 0 then Some w1 else if i = 1 then Some w2 else None)

(* Block-dependent global traffic through a small L2 (so eviction order
   matters), L1 reuse, shared accesses and barriers: every counter class
   the parallel path must reproduce exactly. *)
let sim_counters pool =
  let s = Sim.create { Device.gtx470 with l2_bytes = 8192 } in
  Sim.launch ?pool s ~name:"k" ~blocks:16 ~threads:32 ~shared_bytes:256
    ~f:(fun b ->
      let addrs k =
        some_addrs (List.init 32 (fun i -> 4 * ((b * 64) + (k * 32) + i)))
      in
      Sim.global_load_warp s (addrs 0);
      Sim.global_store_warp s (addrs 1);
      Sim.global_load_warp s (addrs 0);
      let tids = Array.init 32 Fun.id in
      Sim.shared_store_warp s ~tids (some_addrs (List.init 32 Fun.id));
      Sim.sync s;
      Sim.shared_load_warp s ~tids (some_addrs (List.init 32 Fun.id));
      (* touch the next block's lines too: cross-block L2 interaction *)
      Sim.global_load_warp s
        (some_addrs
           (List.init 32 (fun i -> 4 * ((((b + 1) mod 16) * 64) + i)))));
  Counters.to_assoc s.total

let test_sim_parallel_counters () =
  let seq = sim_counters None in
  List.iter
    (fun jobs ->
      Par.with_pool ~jobs (fun p ->
          Alcotest.(check (list (pair string int)))
            (Fmt.str "counters at jobs=%d" jobs)
            seq
            (sim_counters (Some p))))
    jobs_values

let with_sanitizer f =
  Sanitize.reset ();
  Sanitize.enable ();
  Fun.protect ~finally:(fun () -> Sanitize.disable ()) f

let sanitizer_findings pool =
  with_sanitizer (fun () ->
      let s = Sim.create dev in
      Sim.launch ?pool s ~name:"k" ~blocks:6 ~threads:32 ~shared_bytes:256
        ~f:(fun b ->
          (* synthetic-tid write/write race on word b in every block *)
          Sim.shared_store_warp s (lane_pair b b);
          Sim.sync s;
          (* block 0 issues an extra barrier: divergence findings *)
          if b = 0 then Sim.sync s);
      (Sanitize.findings (), Sanitize.dropped ()))

let test_sanitizer_parallel_parity () =
  let seq_findings, seq_dropped = sanitizer_findings None in
  Alcotest.(check bool)
    "sequential run finds races" true
    (List.length seq_findings >= 6);
  List.iter
    (fun jobs ->
      Par.with_pool ~jobs (fun p ->
          let par_findings, par_dropped = sanitizer_findings (Some p) in
          Alcotest.(check int)
            (Fmt.str "dropped at jobs=%d" jobs)
            seq_dropped par_dropped;
          if par_findings <> seq_findings then
            Alcotest.failf
              "sanitizer findings differ at jobs=%d (%d vs %d findings)" jobs
              (List.length par_findings)
              (List.length seq_findings)))
    jobs_values

(* ---- determinism: scheme executors over generated programs ------------ *)

(* The one result comparator, plus what it leaves out that a jobs value
   must not change either: the modelled times and the analytic tallies. *)
let check_same_result label (a : Hextile_schemes.Common.result)
    (b : Hextile_schemes.Common.result) =
  Results.check_same label a b;
  if
    (a.kernel_time, a.transfer_time, a.blocks_analytic, a.classes)
    <> (b.kernel_time, b.transfer_time, b.blocks_analytic, b.classes)
  then Alcotest.failf "%s: times or analytic tallies differ" label

let test_scheme_determinism () =
  let rng = Check.Rng.create 2024 in
  for i = 0 to 2 do
    let prog, env = Check.Gen.generate (Check.Rng.derive rng i) in
    List.iter
      (fun scheme ->
        let run jobs =
          Par.with_pool ~jobs (fun pool ->
              match Check.Oracle.run_scheme ~pool scheme prog env dev with
              | Ok r -> r
              | Error m ->
                  Alcotest.failf "program %d, %s at jobs=%d: %s" i scheme jobs m)
        in
        let base = run 1 in
        List.iter
          (fun jobs ->
            check_same_result (Fmt.str "program %d: %s at jobs=%d" i scheme jobs) base
              (run jobs))
          jobs_values)
      (Check.Oracle.scheme_names prog)
  done

(* ---- determinism: analytic mode --------------------------------------- *)

(* The analytic (hierarchical) hybrid mode precomputes its class
   decomposition before each launch and derives scaled blocks in the
   launch epilogue on the main domain, so its whole result — including
   the modelled DRAM counters and the blocks_analytic/classes tallies —
   must be bit-identical at every jobs value, like the exact engine. *)
let test_analytic_determinism () =
  List.iter
    (fun ((prog : Hextile_ir.Stencil.t), env) ->
      let e x = List.assoc x env in
      let run jobs =
        Par.with_pool ~jobs (fun pool ->
            Hextile_schemes.Hybrid_exec.run ~pool ~analytic:true prog e dev)
      in
      let base = run 1 in
      Alcotest.(check bool)
        (prog.name ^ ": scaling exercised")
        true
        (base.blocks_analytic > 0 && base.classes > 0);
      List.iter
        (fun jobs ->
          check_same_result (Fmt.str "analytic %s at jobs=%d" prog.name jobs) base (run jobs))
        jobs_values)
    [
      (Suite.laplacian2d, [ ("N", 128); ("T", 24) ]);
      (Suite.heat3d, [ ("N", 64); ("T", 12) ]);
    ]

(* ---- determinism: tile-size selection --------------------------------- *)

let test_tilesize_determinism () =
  let prog = Suite.heat3d in
  let sel pool =
    Tile_size.select ?pool prog ~h_candidates:[ 1; 2 ] ~w0_candidates:[ 2; 4 ]
      ~wi_candidates:[ [ 4; 6 ]; [ 32 ] ]
      ~shared_mem_floats:(48 * 1024 / 4)
      ~require_multiple:32 ()
  in
  let base = sel None in
  Alcotest.(check bool) "a choice exists" true (base <> None);
  List.iter
    (fun jobs ->
      Par.with_pool ~jobs (fun pool ->
          if sel (Some pool) <> base then
            Alcotest.failf "tile-size choice differs at jobs=%d" jobs))
    (1 :: jobs_values)

(* ---- determinism: fuzz campaigns + the --out regression ---------------- *)

let read_file path =
  In_channel.with_open_bin path In_channel.input_all

let campaign_files dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.map (fun f -> (f, read_file (Filename.concat dir f)))

let test_fuzz_determinism () =
  let tmp = Filename.temp_dir "hextile_par_fuzz" "" in
  (* a nested, not-yet-existing path: the mkdir_p regression rides along *)
  let dir jobs = Filename.concat tmp (Fmt.str "j%d/nested" jobs) in
  let campaign jobs =
    let cfg =
      {
        Check.Fuzz.default_config with
        count = 4;
        seed = 7;
        mutate = Some "hybrid";
        out_dir = Some (dir jobs);
      }
    in
    let logs = ref [] in
    let s =
      Par.with_pool ~jobs (fun pool ->
          Check.Fuzz.run ~pool ~log:(fun l -> logs := l :: !logs) cfg dev)
    in
    (* paths differ between the two campaign dirs by construction; the
       remaining lines must match exactly *)
    let logs =
      List.filter
        (fun l -> not (contains ~sub:"counterexample written" l))
        (List.rev !logs)
    in
    (logs, Fmt.str "%a" (Check.Fuzz.pp_summary cfg) s, s, campaign_files (dir jobs))
  in
  let logs1, render1, s1, files1 = campaign 1 in
  Alcotest.(check bool) "campaign produced failures" true (s1.Check.Fuzz.failed > 0);
  Alcotest.(check bool) "counterexamples written" true (files1 <> []);
  List.iter
    (fun jobs ->
      let logs_n, render_n, s_n, files_n = campaign jobs in
      Alcotest.(check (list string))
        (Fmt.str "log lines at jobs=%d" jobs)
        logs1 logs_n;
      Alcotest.(check string)
        (Fmt.str "summary at jobs=%d" jobs)
        render1 render_n;
      Alcotest.(check int)
        (Fmt.str "failed count at jobs=%d" jobs)
        s1.Check.Fuzz.failed s_n.Check.Fuzz.failed;
      Alcotest.(check (list (pair string string)))
        (Fmt.str "counterexample files at jobs=%d" jobs)
        files1 files_n)
    jobs_values

let test_fuzz_exit_criterion () =
  let base =
    {
      Check.Fuzz.total = 5;
      passed = 4;
      failed = 1;
      skipped = 0;
      caught = 0;
      missed = 0;
      cases = [];
    }
  in
  let cfg = Check.Fuzz.default_config in
  Alcotest.(check bool)
    "failures force a nonzero exit" false
    (Check.Fuzz.ok cfg base);
  Alcotest.(check bool)
    "clean campaign passes" true
    (Check.Fuzz.ok cfg { base with failed = 0 });
  let mcfg = { cfg with Check.Fuzz.mutate = Some "hybrid" } in
  Alcotest.(check bool)
    "mutate: caught and none missed passes" true
    (Check.Fuzz.ok mcfg { base with caught = 3; missed = 0 });
  Alcotest.(check bool)
    "mutate: a missed mutant fails" false
    (Check.Fuzz.ok mcfg { base with caught = 3; missed = 1 });
  Alcotest.(check bool)
    "mutate: nothing caught fails" false
    (Check.Fuzz.ok mcfg { base with caught = 0; missed = 0 })

let suite =
  [
    Alcotest.test_case "map matches Array.map" `Quick test_map_matches_sequential;
    Alcotest.test_case "run: lowest-index exception, no cancellation" `Quick
      test_run_exceptions;
    Alcotest.test_case "map_reduce folds in index order" `Quick
      test_map_reduce_ordered;
    Alcotest.test_case "nested regions degrade to sequential" `Quick
      test_nested_region_degrades;
    Alcotest.test_case "obs: N-domain hammer merges exactly" `Quick
      test_obs_hammer;
    Alcotest.test_case "sim: parallel counters bit-identical" `Quick
      test_sim_parallel_counters;
    Alcotest.test_case "sanitizer: parallel findings identical" `Quick
      test_sanitizer_parallel_parity;
    Alcotest.test_case "schemes: deterministic at jobs 1/2/4" `Slow
      test_scheme_determinism;
    Alcotest.test_case "analytic mode: deterministic at jobs 1/2/4" `Slow
      test_analytic_determinism;
    Alcotest.test_case "tile-size: deterministic at jobs 1/2/4" `Quick
      test_tilesize_determinism;
    Alcotest.test_case "fuzz: deterministic at jobs 1/2/4" `Slow
      test_fuzz_determinism;
    Alcotest.test_case "fuzz: exit criterion" `Quick test_fuzz_exit_criterion;
  ]
