(* Differential validation of the analytic (hierarchical) simulation
   mode against the exact engine: on the scaled Table 3 suite and on
   fuzzed programs, [Hybrid_exec.run ~analytic:true] must reproduce the
   exact run's grids and every counter bit for bit — except the two
   DRAM fields, which come from the compressed-trace L2 model and must
   stay within [Analytic.dram_error_bound] (the bound itself is
   asserted, not just logged). When the mode's preconditions fail (no
   single line-aligned s0 stride, e.g. N=48 in 2D or any 1D program),
   it must degrade to the exact path: everything bit-equal, zero
   analytic blocks. *)

open Hextile_gpusim
module Grid = Hextile_ir.Grid
module Common = Hextile_schemes.Common
module Hybrid_exec = Hextile_schemes.Hybrid_exec
module Suite = Hextile_stencils.Suite
module E = Hextile_experiments.Experiments
module Check = Hextile_check

module Par = Hextile_par.Par

let dev = Device.gtx470

let dram_keys = [ "dram_read_transactions"; "dram_write_transactions" ]
let is_dram k = List.mem k dram_keys

let grids_sig (r : Common.result) =
  Hashtbl.fold
    (fun name (g : Grid.t) acc ->
      (name, Array.map Int64.bits_of_float g.Grid.data) :: acc)
    r.grids []
  |> List.sort compare

(* Exact-vs-analytic comparison of one hybrid run. [expect_scaled]
   asserts that the analytic mode actually scaled blocks (rather than
   silently degrading); [Some false] asserts the degradation — in which
   case the whole result, DRAM included, must be bit-equal. *)
let check_pair ~label ?(expect_scaled = None) prog env devi =
  let e x = List.assoc x env in
  let exact = Hybrid_exec.run prog e devi in
  let analytic = Hybrid_exec.run ~analytic:true prog e devi in
  if grids_sig exact <> grids_sig analytic then
    Alcotest.failf "%s: grids differ between exact and analytic" label;
  Alcotest.(check int) (label ^ ": updates") exact.updates analytic.updates;
  Alcotest.(check int) (label ^ ": blocks") exact.blocks analytic.blocks;
  let ce = Counters.to_assoc exact.counters
  and ca = Counters.to_assoc analytic.counters in
  List.iter2
    (fun (k, ve) (k', va) ->
      assert (k = k');
      if not (is_dram k) then
        Alcotest.(check int) (Fmt.str "%s: %s" label k) ve va
      else begin
        let err =
          float_of_int (abs (va - ve)) /. float_of_int (max 1 ve)
        in
        if err > Analytic.dram_error_bound then
          Alcotest.failf "%s: %s relative error %.4f exceeds bound %.4f"
            label k err Analytic.dram_error_bound;
        (* a degraded run took the exact code path: no error at all *)
        if analytic.classes = 0 then
          Alcotest.(check int) (Fmt.str "%s: %s (degraded)" label k) ve va
      end)
    ce ca;
  (match expect_scaled with
  | Some true ->
      Alcotest.(check bool)
        (label ^ ": blocks were scaled analytically")
        true
        (analytic.blocks_analytic > 0 && analytic.classes > 0)
  | Some false ->
      Alcotest.(check int) (label ^ ": no analytic blocks") 0
        analytic.blocks_analytic;
      Alcotest.(check int) (label ^ ": no classes") 0 analytic.classes
  | None -> ());
  analytic

(* The bound is part of the module's documented contract: a silent
   loosening would weaken every assertion above, so pin its value. *)
let test_bound_value () =
  Alcotest.(check (float 1e-12)) "dram_error_bound" 0.5 Analytic.dram_error_bound

let test_table3_scaled () =
  List.iter
    (fun (prog : Hextile_ir.Stencil.t) ->
      let env = E.sizes prog in
      ignore
        (check_pair ~label:prog.name ~expect_scaled:(Some true) prog env dev))
    Suite.table3

(* N=48 in 2D: 4·stride0 = 192 is not a whole number of 128-byte lines,
   so class translation is not a cache bijection and the mode must
   degrade to the exact path. Same for 1D (stride0 = 1). *)
let test_fallback_exact () =
  ignore
    (check_pair ~label:"heat2d/N48" ~expect_scaled:(Some false) Suite.heat2d
       [ ("N", 48); ("T", 8) ]
       dev);
  ignore
    (check_pair ~label:"heat1d" ~expect_scaled:(Some false) Suite.heat1d
       [ ("N", 512); ("T", 16) ]
       dev)

(* Analytic runs skip the reference interpreter at full size; at test
   size, close the loop: the analytic grids must equal the reference. *)
let test_analytic_vs_reference () =
  let prog = Suite.laplacian2d in
  let env = E.sizes prog in
  let e x = List.assoc x env in
  let r = Hybrid_exec.run ~analytic:true prog e dev in
  Alcotest.(check bool) "scaled" true (r.blocks_analytic > 0);
  let reference = Hextile_ir.Interp.run prog e in
  Hashtbl.iter
    (fun name g ->
      Alcotest.(check bool)
        (Fmt.str "array %s equals reference" name)
        true
        (Grid.equal g (Grid.find reference name)))
    r.grids

let test_fuzzed_programs () =
  let rng = Check.Rng.create 318 in
  let scaled = ref 0 in
  for i = 0 to 7 do
    let prog, env = Check.Gen.generate (Check.Rng.derive rng i) in
    (* the generator's own sizes (small, line-unaligned: these exercise
       the degradation and boundary paths) ... *)
    let r =
      check_pair ~label:(Fmt.str "fuzz#%d(%s)" i prog.name) prog env dev
    in
    if r.blocks_analytic > 0 then incr scaled;
    (* ... and a line-aligned N (4·stride0 a whole number of 128-byte
       lines), which is what lets fuzzed program *shapes* reach the
       scaling path at all *)
    let n_aligned =
      match Hextile_ir.Stencil.spatial_dims prog with
      | 1 -> 32 (* stride0 = 1: still degrades, by design *)
      | 2 -> 32
      | _ -> 8 (* stride0 = 64 *)
    in
    let env' = ("N", n_aligned) :: List.remove_assoc "N" env in
    let r' =
      check_pair ~label:(Fmt.str "fuzz#%d(%s)/aligned" i prog.name) prog env'
        dev
    in
    if r'.blocks_analytic > 0 then incr scaled
  done;
  (* the campaign must actually exercise the scaling path, not just
     degraded runs *)
  Alcotest.(check bool) "some fuzzed runs scaled" true (!scaled > 0)

(* Analytic mode under a pool: representative instancing, block scaling
   and the compressed-trace L2 replay are jobs-invariant. Grids and
   every counter — the DRAM fields included, since the compressed
   replay runs sequentially on the launch domain — plus the class and
   analytic-block counts must be bit-identical at jobs 1, 2 and 4. *)
let test_analytic_jobs_deterministic () =
  List.iter
    (fun (prog : Hextile_ir.Stencil.t) ->
      let env = E.sizes prog in
      let e x = List.assoc x env in
      let seq = Hybrid_exec.run ~analytic:true prog e dev in
      List.iter
        (fun jobs ->
          Par.with_pool ~jobs (fun pool ->
              let r = Hybrid_exec.run ~pool ~analytic:true prog e dev in
              if grids_sig seq <> grids_sig r then
                Alcotest.failf "%s/jobs%d: grids differ from jobs1" prog.name
                  jobs;
              Alcotest.(check (list (pair string int)))
                (Fmt.str "%s/jobs%d: counters" prog.name jobs)
                (Counters.to_assoc seq.counters)
                (Counters.to_assoc r.counters);
              Alcotest.(check int)
                (Fmt.str "%s/jobs%d: updates" prog.name jobs)
                seq.updates r.updates;
              Alcotest.(check int)
                (Fmt.str "%s/jobs%d: classes" prog.name jobs)
                seq.classes r.classes;
              Alcotest.(check int)
                (Fmt.str "%s/jobs%d: blocks_analytic" prog.name jobs)
                seq.blocks_analytic r.blocks_analytic))
        [ 2; 4 ])
    Suite.table3

(* A class whose recording is dropped (a per-lane copy-out warp under
   strategy b) derives nothing: its members run live in the launch, in
   canonical block order like every other live block. With no block derived, the analytic run must equal
   the exact run bit for bit — grids and every counter, DRAM included —
   at every jobs value. *)
let test_dropped_recordings_exact () =
  let strategy_b =
    {
      (Hybrid_exec.default_config Suite.heat2d) with
      strategy = Hybrid_exec.strategy_of_step 'b';
    }
  in
  List.iter
    (fun (label, prog, config, env) ->
      let e x = List.assoc x env in
      let exact = Hybrid_exec.run ?config prog e dev in
      List.iter
        (fun jobs ->
          Par.with_pool ~jobs (fun pool ->
              let r = Hybrid_exec.run ~pool ~analytic:true ?config prog e dev in
              let label = Fmt.str "%s/jobs%d" label jobs in
              if grids_sig exact <> grids_sig r then
                Alcotest.failf "%s: grids differ from the exact run" label;
              Alcotest.(check (list (pair string int)))
                (label ^ ": counters")
                (Counters.to_assoc exact.counters)
                (Counters.to_assoc r.counters);
              Alcotest.(check int) (label ^ ": updates") exact.updates r.updates;
              Alcotest.(check int)
                (label ^ ": no analytic blocks")
                0 r.blocks_analytic))
        [ 1; 2; 4 ])
    [
      ( "heat2d strategy b",
        Suite.heat2d,
        Some strategy_b,
        [ ("N", 384); ("T", 16) ] );
    ]

(* The two-step line-run pipeline [Analytic.line_runs] replaced, kept
   as its reference: first-touch distinct codes through a Hashtbl, then
   sorted (reads before writes, each by line) and coalesced into runs.
   The runs depend only on the set of codes, so the one-step function
   must match it on any stream. *)
let ref_line_runs (s : Tileclass.stream) ~line_bytes =
  let seen : (int, unit) Hashtbl.t = Hashtbl.create 512 in
  let out = ref [] in
  let touch ~write line =
    let enc = (line lsl 1) lor if write then 1 else 0 in
    if not (Hashtbl.mem seen enc) then begin
      Hashtbl.add seen enc ();
      out := enc :: !out
    end
  in
  let run ~write addr bytes =
    for l = addr / line_bytes to (addr + bytes - 1) / line_bytes do
      touch ~write l
    done
  in
  Tileclass.iter s ~f:(function
    | Tileclass.Gload_run { addr; n } -> run ~write:false addr (4 * n)
    | Gstore_run { addr; n; _ } -> run ~write:true addr (4 * n)
    | Gload_lanes { addrs } -> Array.iter (fun a -> touch ~write:false (a / line_bytes)) addrs
    | Gstore_lanes { addrs; _ } -> Array.iter (fun a -> touch ~write:true (a / line_bytes)) addrs
    | Compute _ -> ());
  let a = Array.of_list (List.rev !out) in
  Array.sort
    (fun e1 e2 ->
      let c = compare (e1 land 1) (e2 land 1) in
      if c <> 0 then c else compare (e1 asr 1) (e2 asr 1))
    a;
  let runs = ref [] and i = ref 0 in
  let n = Array.length a in
  while !i < n do
    let e0 = a.(!i) and c = ref 1 in
    while
      !i + !c < n
      && a.(!i + !c) land 1 = e0 land 1
      && a.(!i + !c) asr 1 = (e0 asr 1) + !c
    do
      incr c
    done;
    runs := !c :: e0 :: !runs;
    i := !i + !c
  done;
  Array.of_list (List.rev !runs)

(* Random streams: coalesced runs and per-lane rows, loads and stores,
   whole-event repeats and interleaved compute rows, over a few dozen
   lines so runs overlap, abut and repeat. The lines sit in three
   windows 256 KiB or more apart, so at 32- and 128-byte lines their
   codes share slots of [line_runs]'s recent-code filter and repeats get
   past it to the sort. *)
let arb_stream =
  let open QCheck.Gen in
  let word = map2 (fun base w -> base + (4 * w)) (oneofl [ 0; 1 lsl 18; 1 lsl 20 ]) (int_bound 2048) in
  let ev =
    frequency
      [
        (3, map2 (fun addr n -> Tileclass.Gload_run { addr; n }) word (int_bound 80));
        ( 3,
          map3
            (fun addr n serial -> Tileclass.Gstore_run { addr; n; serial })
            word (int_bound 80) bool );
        ( 2,
          map
            (fun l -> Tileclass.Gload_lanes { addrs = Array.of_list (List.sort compare l) })
            (list_size (int_range 1 32) word) );
        ( 2,
          map2
            (fun l serial ->
              Tileclass.Gstore_lanes { addrs = Array.of_list (List.sort compare l); serial })
            (list_size (int_range 1 32) word)
            bool );
        ( 1,
          return
            (Tileclass.Compute { stmt = 0; tstep = 0; wflat = 0; srcs = [||]; n = 1 }) );
      ]
  in
  let gen =
    let* evs = list_size (int_range 0 40) ev in
    let* repeats = list_size (int_bound 10) (int_bound 1000) in
    let evs = Array.of_list evs in
    let extra =
      if Array.length evs = 0 then []
      else List.map (fun k -> evs.(k mod Array.length evs)) repeats
    in
    return (Array.to_list evs @ extra)
  in
  QCheck.make ~print:(fun evs -> Printf.sprintf "%d events" (List.length evs)) gen

let prop_line_runs_equal_reference =
  QCheck.Test.make ~name:"line_runs = first-touch + compress reference" ~count:300
    arb_stream (fun evs ->
      let s = Tileclass.create () in
      List.iter (Tileclass.push s) evs;
      List.for_all
        (fun line_bytes ->
          Analytic.line_runs s ~line_bytes = ref_line_runs s ~line_bytes)
        [ 32; 128 ])

let suite =
  [
    Alcotest.test_case "dram error bound value" `Quick test_bound_value;
    Alcotest.test_case "table3: analytic = exact (scaled sizes)" `Slow
      test_table3_scaled;
    Alcotest.test_case "preconditions fail => exact path" `Quick
      test_fallback_exact;
    Alcotest.test_case "analytic grids = reference interpreter" `Quick
      test_analytic_vs_reference;
    Alcotest.test_case "dropped recordings: analytic = exact" `Quick
      test_dropped_recordings_exact;
    Alcotest.test_case "fuzzed programs: analytic = exact" `Slow
      test_fuzzed_programs;
    Alcotest.test_case "analytic: bit-identical at jobs 1/2/4" `Slow
      test_analytic_jobs_deterministic;
    QCheck_alcotest.to_alcotest prop_line_runs_equal_reference;
  ]
