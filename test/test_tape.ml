(* Differential tests for the warp-batched tape engine: the closure
   interpreter ([Common.Ref]) is the reference; the tape engine (with
   tile-class address-stream memoization in the hybrid scheme) must
   produce bit-identical grids and counters at every jobs value. *)

open Hextile_gpusim
open Hextile_schemes
open Hextile_stencils
open Hextile_ir
module Check = Hextile_check
module Par = Hextile_par.Par
module Obs = Hextile_obs.Obs
module Results = Hextile_oracle.Results
module Tape_ref = Hextile_oracle.Tape_ref

let test_env prog = fun p -> List.assoc p (Suite.test_params prog)

let hybrid ?pool ~engine prog env = Hybrid_exec.run ?pool ~engine prog env Device.gtx470

(* Stronger than [Results.check_same]: the two runs must agree on
   [blocks_memoized] too. Used across jobs values, where the shared
   read-once/replay-many class table must change only who records a
   class, never how many blocks replay one. *)
let compare_identical name (a : Common.result) (b : Common.result) =
  Results.check_same name a b;
  Alcotest.(check int) (name ^ ": blocks_memoized") a.blocks_memoized b.blocks_memoized

(* Table 3 (plus the extra suite programs) on the hybrid scheme, at jobs
   1, 2 and 4: the memoized tape engine against the closure reference.
   The test sizes all give an s0 stride that is not a whole number of
   128 B lines (4, 80 and 400 B); heat2d at N=64 (256 B) adds a
   line-aligned one, so replay is compared on both sides of the split. *)
let test_hybrid_table3 () =
  List.iter
    (fun (name, prog, env) ->
      let ref_r = hybrid ~engine:Common.Ref prog env in
      let seq = hybrid ~engine:Common.Tape prog env in
      Results.check_same (name ^ "/jobs1") ref_r seq;
      List.iter
        (fun jobs ->
          Par.with_pool ~jobs (fun pool ->
              let r = hybrid ~pool ~engine:Common.Tape prog env in
              Results.check_same (Fmt.str "%s/jobs%d" name jobs) ref_r r))
        [ 2; 4 ])
    (("heat2d N=64", Suite.heat2d, fun p -> List.assoc p [ ("N", 64); ("T", 16) ])
    :: List.map (fun (prog : Stencil.t) -> (prog.name, prog, test_env prog)) Suite.all)

(* The classical-tiling executors share the batched exec_stmt_row /
   copy-in / copy-out paths; one representative per executor. *)
let test_other_schemes () =
  let check name run prog =
    let env = test_env prog in
    Results.check_same name (run Common.Ref prog env) (run Common.Tape prog env)
  in
  check "ppcg" (fun engine p e -> Ppcg.run ~engine p e Device.gtx470) Suite.jacobi2d;
  check "par4all" (fun engine p e -> Par4all.run ~engine p e Device.gtx470) Suite.jacobi2d;
  check "overtile"
    (fun engine p e -> Overtile.run ~engine p e Device.gtx470)
    Suite.jacobi2d;
  check "split"
    (fun engine p e -> Split_tiling.run ~engine p e Device.gtx470)
    Suite.heat1d

(* The shared class table is the tape engine's one cross-domain data
   structure; this is the determinism contract head-on. Every suite
   program at jobs 1, 2 and 4: grids, every counter, the update count
   and [blocks_memoized] all bit-identical to the sequential run. *)
let test_shared_cache_determinism () =
  List.iter
    (fun prog ->
      let env = test_env prog in
      let seq = hybrid ~engine:Common.Tape prog env in
      List.iter
        (fun jobs ->
          Par.with_pool ~jobs (fun pool ->
              compare_identical
                (Fmt.str "%s/jobs%d vs jobs1" prog.Stencil.name jobs)
                seq
                (hybrid ~pool ~engine:Common.Tape prog env)))
        [ 2; 4 ])
    Suite.all

(* 25 fuzzed programs: random shapes (folded/in-place storage, multiple
   statements, asymmetric offsets, degenerate domains) through the
   hybrid scheme, engines compared at jobs 1 and 2 — plus a jobs=4 leg
   holding the parallel run to full [compare_identical] strictness
   against the sequential tape run. *)
let test_fuzzed () =
  let rng = Check.Rng.create 2024 in
  for i = 1 to 25 do
    let prog, env = Check.Gen.generate (Check.Rng.derive rng i) in
    let e p = List.assoc p env in
    let ref_r = hybrid ~engine:Common.Ref prog e in
    let t1 = hybrid ~engine:Common.Tape prog e in
    Results.check_same (Fmt.str "fuzz%d/jobs1" i) ref_r t1;
    Par.with_pool ~jobs:2 (fun pool ->
        Results.check_same
          (Fmt.str "fuzz%d/jobs2" i)
          ref_r
          (hybrid ~pool ~engine:Common.Tape prog e));
    Par.with_pool ~jobs:4 (fun pool ->
        compare_identical
          (Fmt.str "fuzz%d/jobs4 vs jobs1" i)
          t1
          (hybrid ~pool ~engine:Common.Tape prog e))
  done

(* The memoization must actually fire on an interior-heavy instance —
   otherwise the replay path is dead code and the suite proves nothing. *)
let test_memoization_fires () =
  let prog = Suite.jacobi2d in
  let env p = List.assoc p [ ("N", 64); ("T", 8) ] in
  let r = hybrid ~engine:Common.Tape prog env in
  if r.blocks_memoized = 0 then
    Alcotest.failf "no blocks memoized out of %d" r.blocks;
  Results.check_same "jacobi2d-64" (hybrid ~engine:Common.Ref prog env) r

(* With the sanitizer enabled the per-lane reference path must run (it
   needs per-lane thread identities): no memoized blocks, same grids. *)
let test_sanitizer_disables_memoization () =
  let prog = Suite.jacobi2d in
  let env p = List.assoc p [ ("N", 64); ("T", 8) ] in
  let plain = hybrid ~engine:Common.Tape prog env in
  Alcotest.(check bool) "memoizes without sanitizer" true (plain.blocks_memoized > 0);
  Sanitize.enable ();
  let r =
    Fun.protect ~finally:Sanitize.disable (fun () -> hybrid ~engine:Common.Tape prog env)
  in
  Alcotest.(check int) "no memoized blocks under sanitizer" 0 r.blocks_memoized;
  Hashtbl.iter
    (fun aname g ->
      if not (Grid.equal g (Grid.find plain.grids aname)) then
        Alcotest.failf "sanitized run: array %s differs" aname)
    r.grids

(* Arrays with different s0 strides (N and N+4 floats per row). *)
let unequal_extents =
  match
    Hextile_frontend.Front.parse_string ~name:"unequal_extents"
      {|float A[2][N][N];
float B[N][N+4];
for (t = 0; t < T; t++)
  for (i = 1; i < N - 1; i++)
    for (j = 1; j < N - 1; j++)
      A[(t+1)%2][i][j] = 0.25f * (A[t%2][i][j] + A[t%2][i-1][j]
          + A[t%2][i+1][j] + B[i][j+4]);
|}
  with
  | Ok p -> p
  | Error m -> Alcotest.failf "parse unequal_extents: %s" m

(* the nonzero fallback counters (reason, count) and the memoized block
   count of one run; the result's own fallback fields must say the same *)
let fallbacks run =
  Obs.reset ();
  Obs.enable ();
  let (r : Common.result) = Fun.protect ~finally:Obs.disable run in
  let reasons = [ "per_lane"; "unaligned_stride"; "unequal_stride" ] in
  let counts =
    List.filter_map
      (fun why ->
        match
          Obs.counter ("sim.recordings_invalidated." ^ why)
          + Obs.counter ("sim.regime_fallback." ^ why)
        with
        | 0 -> None
        | n -> Some (why, n))
      reasons
  in
  Obs.reset ();
  let on_result =
    List.filter_map
      (fun why ->
        let fell = Option.map Sim.fallback_name r.fallback = Some why in
        match if why = "per_lane" then r.recordings_dropped else Bool.to_int fell with
        | 0 -> None
        | n -> Some (why, n))
      reasons
  in
  Alcotest.(check (list (pair string int))) "result fields = Obs counters" counts on_result;
  (counts, r.blocks_memoized)

(* Which path each program takes: a tile-class recording that meets a
   per-lane warp event is dropped (its class's members then run live)
   and counted once. Pinned per program: the Table 3 shapes record
   cleanly, a write-back copy-out with a descending warp drops its
   recording, and the reference engine and the overlapped schemes never
   record. A run whose regime falls back is counted once under its
   reason too: an analytic run whose shared s0 stride is not a whole
   number of cache lines memoizes instead, and a run whose arrays do not
   share one s0 stride runs exact. *)
let test_fallback_paths () =
  let env p = List.assoc p [ ("N", 64); ("T", 16) ] in
  let strategy_b prog =
    let config =
      {
        (Hybrid_exec.default_config prog) with
        strategy = Hybrid_exec.strategy_of_step 'b';
      }
    in
    Hybrid_exec.run ~engine:Common.Tape ~config prog env Device.gtx470
  in
  List.iter
    (fun (label, run, want, memoizes) ->
      let counts, memoized = fallbacks run in
      Alcotest.(check (list string))
        (label ^ ": fallback reasons") want (List.map fst counts);
      Alcotest.(check bool) (label ^ ": memoizes") memoizes (memoized > 0))
    [
      ("hybrid heat2d, tape", (fun () -> hybrid ~engine:Common.Tape Suite.heat2d env), [], true);
      ("hybrid fdtd2d, tape", (fun () -> hybrid ~engine:Common.Tape Suite.fdtd2d env), [], true);
      ( "hybrid heat2d, strategy b (copy-out), tape",
        (fun () -> strategy_b Suite.heat2d),
        [ "per_lane" ],
        false );
      ("hybrid heat2d, ref", (fun () -> hybrid ~engine:Common.Ref Suite.heat2d env), [], false);
      ( "hybrid heat2d N=48, analytic",
        (fun () ->
          Hybrid_exec.run ~analytic:true Suite.heat2d
            (fun p -> List.assoc p [ ("N", 48); ("T", 8) ])
            Device.gtx470),
        [ "unaligned_stride" ],
        true );
      ( "hybrid unequal extents, tape",
        (fun () -> hybrid ~engine:Common.Tape unequal_extents env),
        [ "unequal_stride" ],
        false );
      ( "overtile heat2d, tape",
        (fun () -> Overtile.run ~engine:Common.Tape Suite.heat2d env Device.gtx470),
        [],
        false );
    ]

(* The unequal-stride fallback runs exact: right grids, nothing
   memoized. *)
let test_unequal_stride_exact () =
  let env p = List.assoc p [ ("N", 64); ("T", 16) ] in
  let r = hybrid ~engine:Common.Tape unequal_extents env in
  Alcotest.(check int) "no memoized blocks" 0 r.blocks_memoized;
  let reference = Interp.run unequal_extents env in
  Hashtbl.iter
    (fun aname g ->
      if not (Grid.equal g (Grid.find reference aname)) then
        Alcotest.failf "array %s differs from Interp.run" aname)
    r.grids

(* A warm tape-path row allocates a fixed handful of words (the option
   boxes of optional arguments; 4 words when written) whatever the
   statement's read count and expression size: statement facts, address
   bases and shared-memory entries are resolved before the row loop, and
   per-source bases live in per-domain scratch. *)
let test_row_allocation_budget () =
  let budget = 16.0 in
  List.iter
    (fun (prog : Stencil.t) ->
      let ctx = Common.make_ctx ~engine:Common.Tape prog (test_env prog) Device.gtx470 in
      let lo = ctx.lo.(0) and hi = ctx.hi.(0) in
      let xdim = ctx.dims - 1 in
      let n = Int.min 64 (hi.(xdim) - lo.(xdim) + 1) in
      let xs = Array.init n (fun i -> lo.(xdim) + i) in
      let point = Array.copy lo in
      List.iter
        (fun global_reads ->
          let row () =
            Common.exec_stmt_row ctx ~stmt_idx:0 ~tstep:0 ~point ~xs ~global_reads
              ~shared_replay:2 ~interleave_store:true ~use_shared:(not global_reads) ()
          in
          row ();
          let calls = 200 in
          let before = Gc.minor_words () in
          for _ = 1 to calls do
            row ()
          done;
          let per_call = (Gc.minor_words () -. before) /. float_of_int calls in
          if per_call > budget then
            Alcotest.failf
              "%s (%s reads, %d sources): %.1f minor words per row (budget %.0f)"
              prog.name
              (if global_reads then "global" else "shared")
              (Array.length (Common.stmt_reads ctx ~stmt_idx:0))
              per_call budget)
        [ true; false ])
    Suite.all

(* ---- fused run plans: [Tape.exec_plan] against [Tape_ref.exec] -------

   Random SSA tapes built from instruction patterns the planner fuses
   (left-assoc sums of up to 11 terms, constant factors on either side,
   [ka*x + kb*y], [x - k*y]) next to plain Neg/Sub/Mul/Div. Operands are
   drawn from the sources and earlier pattern results, so values are
   sometimes read twice and must be materialized. The plan runs over
   [n] lanes at a nonzero [dx]; the reference is [Tape_ref.exec] over
   the same lanes in 32-lane chunks. Lane counts cross the kernels'
   unroll tail (0..9) and the 256-lane strip boundary (255..259, 515). *)

let plan_consts = [| 0.125; 0.5; -1.5; 3.0; 0.111 |]

let gen_tape rand =
  let nsrcs = 1 + QCheck.Gen.int_bound 4 rand in
  let instrs = ref [] and next = ref nsrcs in
  (* registers later operands may read: sources and pattern results, not
     a pattern's internal values, so a fusable pattern always fuses *)
  let avail = ref (List.init nsrcs Fun.id) in
  let push ?(pick = true) f =
    let d = !next in
    incr next;
    instrs := f d :: !instrs;
    if pick then avail := d :: !avail;
    d
  in
  let any () = List.nth !avail (QCheck.Gen.int_bound (List.length !avail - 1) rand) in
  let konst ?pick () =
    let v = plan_consts.(QCheck.Gen.int_bound (Array.length plan_consts - 1) rand) in
    push ?pick (fun dst -> Tape.Const { dst; v })
  in
  let kmul ?pick ~kleft x =
    let k = konst ~pick:false () in
    push ?pick (fun dst ->
        if kleft then Tape.Mul { dst; a = k; b = x } else Tape.Mul { dst; a = x; b = k })
  in
  let pattern () =
    match QCheck.Gen.int_bound 8 rand with
    | 0 ->
        let a = any () in
        ignore (push (fun dst -> Tape.Neg { dst; a }))
    | 1 ->
        (* left-assoc sum chain of 2..11 terms: sum3/sum4 windows, and
           from 8 terms on an accumulator register updated in place *)
        let acc = ref (any ()) in
        let adds = 1 + QCheck.Gen.int_bound 9 rand in
        for i = 1 to adds do
          let a = !acc and b = any () in
          acc := push ~pick:(i = adds) (fun dst -> Tape.Add { dst; a; b })
        done
    | 2 -> ignore (kmul ~kleft:(QCheck.Gen.bool rand) (any ()))
    | 3 ->
        let x = kmul ~pick:false ~kleft:true (any ()) in
        let y = kmul ~pick:false ~kleft:true (any ()) in
        ignore (push (fun dst -> Tape.Add { dst; a = x; b = y }))
    | 4 ->
        let a = any () in
        let y = kmul ~pick:false ~kleft:true (any ()) in
        ignore (push (fun dst -> Tape.Sub { dst; a; b = y }))
    | 5 -> ignore (konst ())
    | _ ->
        let a = any () and b = any () in
        ignore
          (push (fun dst ->
               match QCheck.Gen.int_bound 3 rand with
               | 0 -> Tape.Add { dst; a; b }
               | 1 -> Tape.Sub { dst; a; b }
               | 2 -> Tape.Mul { dst; a; b }
               | _ -> Tape.Div { dst; a; b }))
  in
  for _ = 1 to 1 + QCheck.Gen.int_bound 5 rand do
    pattern ()
  done;
  (* usually the last value (whose pass the planner retargets to the
     output), sometimes any readable register: a source or a constant
     (copy / const to the output) or a value other passes read *)
  let result = if QCheck.Gen.int_bound 4 rand = 0 then any () else !next - 1 in
  Tape.make ~nsrcs ~nregs:!next ~result ~instrs:(Array.of_list (List.rev !instrs))

let plan_lane_counts = [| 0; 1; 2; 3; 4; 5; 6; 7; 8; 9; 255; 256; 257; 259; 515 |]

type plan_case = { tape : Tape.t; n : int; dx : int; seed : int }

let arb_plan_case =
  QCheck.make
    ~print:(fun c ->
      Fmt.str "n=%d dx=%d seed=%d nsrcs=%d result=r%d@.plan: %a" c.n c.dx c.seed
        c.tape.Tape.nsrcs c.tape.Tape.result Tape.pp_plan (Tape.plan c.tape))
    (fun rand ->
      let tape = gen_tape rand in
      let n = plan_lane_counts.(QCheck.Gen.int_bound (Array.length plan_lane_counts - 1) rand) in
      { tape; n; dx = 1 + QCheck.Gen.int_bound 6 rand; seed = QCheck.Gen.int_bound 1_000_000 rand })

(* plan-shape witnesses across the whole property run *)
let plan_kinds_seen = Hashtbl.create 16
let saw_out_rewrite = ref false
let saw_inplace_acc = ref false

let note_plan_shape plan =
  let passes = String.split_on_char ';' (Fmt.str "%a" Tape.pp_plan plan) in
  List.iteri
    (fun i pass ->
      match String.split_on_char ' ' (String.trim pass) with
      | dst :: "<-" :: call :: _ ->
          let kind = List.hd (String.split_on_char '(' call) in
          Hashtbl.replace plan_kinds_seen kind ();
          (* a materialized value's defining pass, retargeted to the
             output grid (pending sums and constant factors are emitted
             to the output directly instead) *)
          if i = List.length passes - 1 && dst = "out"
             && List.mem kind [ "neg"; "sub"; "mul"; "div"; "axpby"; "submulc" ]
          then saw_out_rewrite := true;
          (* an accumulator pass reads and writes the same register *)
          if String.equal call (kind ^ "(" ^ dst ^ ",") then saw_inplace_acc := true
      | _ -> ())
    passes

let bits_equal (a : float array) (b : float array) =
  Array.length a = Array.length b
  && Array.for_all2 (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)) a b

let prop_exec_plan_equals_exec =
  QCheck.Test.make ~name:"exec_plan = exec in 32-lane chunks, bit for bit" ~count:400
    arb_plan_case (fun { tape; n; dx; seed } ->
      let rng = Random.State.make [| seed |] in
      let margin = 9 in
      let datas =
        Array.init tape.Tape.nsrcs (fun _ ->
            Array.init (n + dx + (2 * margin)) (fun _ ->
                Random.State.float rng 8.0 -. 4.0))
      in
      let bases = Array.init tape.Tape.nsrcs (fun _ -> Random.State.int rng margin) in
      let out_base = Random.State.int rng margin in
      let out_len = n + out_base + margin in
      let plan = Tape.plan tape in
      note_plan_shape plan;
      let got = Array.make out_len Float.nan in
      Tape.exec_plan plan
        (Array.make (Tape.plan_scratch_words plan) 0.0)
        ~datas ~bases ~dx ~n ~out:got ~out_base;
      let want = Array.make out_len Float.nan in
      Tape_ref.exec_chunked tape ~datas ~bases ~dx ~n ~out:want ~out_base;
      bits_equal got want)

(* The in-place self-read ([A[x] = f(A[x], ..)], fdtd2d's live rows):
   [out] is physically one of the source arrays, at that source's own
   base. Each lane's result lands only after every pass has read that
   lane, so the plan must still equal [Tape_ref.exec], which reads a whole chunk
   into scratch before writing any of it. The other sources stay
   separate arrays. *)
let prop_exec_plan_in_place =
  QCheck.Test.make ~name:"exec_plan with out = a source at its base = exec" ~count:400
    arb_plan_case (fun { tape; n; dx; seed } ->
      let rng = Random.State.make [| seed |] in
      let margin = 9 in
      let fresh_datas () =
        let rng = Random.State.copy rng in
        Array.init tape.Tape.nsrcs (fun _ ->
            Array.init (n + dx + (2 * margin)) (fun _ ->
                Random.State.float rng 8.0 -. 4.0))
      in
      let bases = Array.init tape.Tape.nsrcs (fun _ -> Random.State.int rng margin) in
      let s = Random.State.int rng tape.Tape.nsrcs in
      let run f =
        let datas = fresh_datas () in
        f ~datas ~out:datas.(s);
        datas
      in
      let got =
        run (fun ~datas ~out ->
            let plan = Tape.plan tape in
            Tape.exec_plan plan
              (Array.make (Tape.plan_scratch_words plan) 0.0)
              ~datas ~bases ~dx ~n ~out ~out_base:(bases.(s) + dx))
      in
      let want =
        run (fun ~datas ~out ->
            Tape_ref.exec_chunked tape ~datas ~bases ~dx ~n ~out ~out_base:(bases.(s) + dx))
      in
      Array.for_all2 bits_equal got want)

let test_plan_shapes_covered () =
  List.iter
    (fun kind ->
      Alcotest.(check bool) (kind ^ " pass generated") true (Hashtbl.mem plan_kinds_seen kind))
    [ "const"; "copy"; "neg"; "add"; "sub"; "mul"; "div"; "sum3"; "sum4"; "kmul"; "mulk";
      "axpby"; "submulc" ];
  Alcotest.(check bool) "final pass retargeted to out" true !saw_out_rewrite;
  Alcotest.(check bool) "in-place sum accumulator" true !saw_inplace_acc

let suite =
  [
    Alcotest.test_case "hybrid tape vs ref, suite, jobs 1/2/4" `Quick
      test_hybrid_table3;
    Alcotest.test_case "classical schemes tape vs ref" `Quick test_other_schemes;
    Alcotest.test_case "shared class table: bit-identical at jobs 1/2/4" `Quick
      test_shared_cache_determinism;
    Alcotest.test_case "hybrid tape vs ref, 25 fuzzed programs" `Quick test_fuzzed;
    Alcotest.test_case "tile-class memoization fires" `Quick test_memoization_fires;
    Alcotest.test_case "sanitizer forces uncached execution" `Quick
      test_sanitizer_disables_memoization;
    Alcotest.test_case "recording fallbacks counted by reason" `Quick test_fallback_paths;
    Alcotest.test_case "unequal strides run exact" `Quick test_unequal_stride_exact;
    Alcotest.test_case "warm tape row allocation budget" `Quick test_row_allocation_budget;
    QCheck_alcotest.to_alcotest prop_exec_plan_equals_exec;
    QCheck_alcotest.to_alcotest prop_exec_plan_in_place;
    Alcotest.test_case "exec_plan property covers every pass kind" `Quick
      test_plan_shapes_covered;
  ]
