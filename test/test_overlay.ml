(* Overlay execution of the overlapped schemes (Overtile, Split_tiling).

   Each block of these schemes computes into dense per-(array, slot)
   overlays instead of the global grids. The change of store must be
   invisible: grids, every simulator counter, the modelled total time,
   the update count and the block count are pinned below to fingerprints
   of the earlier hashtable-backed executors, and every pin is checked
   under both engines at jobs 1 and 2. *)

open Hextile_ir
open Hextile_gpusim
open Hextile_schemes
open Hextile_stencils
module Par = Hextile_par.Par
module Experiments = Hextile_experiments.Experiments

(* 64-bit FNV-1a over strings and ints. *)
let fnv_prime = 0x100000001b3L

let fnv_int h x =
  let h = ref h in
  for i = 0 to 7 do
    let b = Int64.logand (Int64.shift_right_logical x (8 * i)) 0xffL in
    h := Int64.mul (Int64.logxor !h b) fnv_prime
  done;
  !h

let fnv_string h s =
  let h = ref h in
  String.iter
    (fun c -> h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) fnv_prime)
    s;
  !h

let fnv_basis = 0xcbf29ce484222325L

let grids_hash grids =
  let names = List.sort compare (Hashtbl.fold (fun n _ acc -> n :: acc) grids []) in
  List.fold_left
    (fun h name ->
      let g = Grid.find grids name in
      let h = fnv_string h name in
      Array.fold_left (fun h v -> fnv_int h (Int64.bits_of_float v)) h g.Grid.data)
    fnv_basis names

let counters_hash c =
  List.fold_left
    (fun h (k, v) -> fnv_int (fnv_string h k) (Int64.of_int v))
    fnv_basis (Counters.to_assoc c)

let fingerprint (r : Common.result) =
  Fmt.str "%016Lx/%016Lx/%016Lx/%d/%d" (grids_hash r.grids)
    (counters_hash r.counters)
    (Int64.bits_of_float (Common.total_time r))
    r.updates r.blocks

let env_of l p = List.assoc p l

type case = {
  label : string;
  run : ?pool:Par.pool -> engine:Common.engine -> unit -> Common.result;
  engines : Common.engine list;
}

let both = [ Common.Tape; Common.Ref ]

let overtile_scaled (p : Stencil.t) n t =
  {
    label = Fmt.str "overtile %s %dx%d" p.name n t;
    run =
      (fun ?pool ~engine () ->
        Experiments.run_scheme ?pool ~engine ~verify:false Experiments.Overtile p
          [ ("N", n); ("T", t) ] Device.gtx470);
    engines = both;
  }

(* The exact classical schemes and Hybrid. Hybrid runs memoized under
   the tape engine and exact under the reference engine; its analytic
   mode needs the tape engine, and falls back to the memoized path when
   the arrays' s0 stride is not a whole number of cache lines (48^2). *)
let scheme_scaled ?(analytic = false) scheme (p : Stencil.t) n t =
  {
    label =
      Fmt.str "%s%s %s %dx%d" (Experiments.scheme_name scheme)
        (if analytic then " analytic" else "")
        p.name n t;
    run =
      (fun ?pool ~engine () ->
        Experiments.run_scheme ?pool ~engine ~analytic ~verify:false scheme p
          [ ("N", n); ("T", t) ] Device.gtx470);
    engines = (if analytic then [ Common.Tape ] else both);
  }

let overtile_direct ?config (p : Stencil.t) n t =
  {
    label = Fmt.str "overtile %s %dx%d%s" p.name n t
        (match config with Some _ -> " (config)" | None -> "");
    run =
      (fun ?pool ~engine () ->
        Overtile.run ?pool ~engine ?config p (env_of [ ("N", n); ("T", t) ]) Device.gtx470);
    engines = both;
  }

let split ?config (p : Stencil.t) n t =
  {
    label = Fmt.str "split %s %dx%d" p.name n t;
    run =
      (fun ?pool ~engine () ->
        Split_tiling.run ?pool ~engine ?config p (env_of [ ("N", n); ("T", t) ])
          Device.gtx470);
    engines = both;
  }

let size (p : Stencil.t) ~odd =
  match (Stencil.spatial_dims p, odd) with
  | 3, false -> (16, 4)
  | 3, true -> (13, 3)
  | _, false -> (48, 12)
  | _, true -> (37, 7)

let cases =
  let table3 odd =
    List.map
      (fun p ->
        let n, t = size p ~odd in
        overtile_scaled p n t)
      Suite.table3
  in
  table3 false @ table3 true
  @ [
      overtile_direct Suite.jacobi2d 20 9;
      overtile_direct Suite.heat1d 30 10;
      overtile_direct Suite.contrived 30 10;
      overtile_direct Suite.wave2d 20 9;
      overtile_direct
        ~config:{ Overtile.hh = 3; tile = Some [| 8; 32 |] }
        Suite.fdtd2d 20 9;
      overtile_direct
        ~config:{ Overtile.hh = 2; tile = Some [| 4; 4; 16 |] }
        Suite.heat3d 13 3;
      split Suite.heat1d 200 12;
      split ~config:{ Split_tiling.hh = 3; width = 24 } Suite.heat1d 137 9;
      split ~config:{ Split_tiling.hh = 3; width = 24 } Suite.contrived 101 13;
    ]
  @ List.concat_map
      (fun scheme ->
        List.concat_map
          (fun p ->
            List.map
              (fun odd ->
                let n, t = size p ~odd in
                scheme_scaled scheme p n t)
              [ false; true ])
          Suite.table3)
      Experiments.[ Ppcg; Par4all; Hybrid ]
  @ List.concat_map
      (fun p ->
        let n, t = size p ~odd:false in
        let analytic = scheme_scaled ~analytic:true Experiments.Hybrid in
        if Stencil.spatial_dims p = 2 then [ analytic p n t; analytic p 64 12 ]
        else [ analytic p n t ])
      Suite.table3
  @ [
      scheme_scaled Experiments.Hybrid Suite.wave2d 20 9;
      scheme_scaled Experiments.Hybrid Suite.contrived 30 10;
    ]

(* Recorded from the hashtable-backed executors (overlay schemes) and
   from the executors before statement facts, address bases and
   shared-memory entries were resolved once per run (the rest), one per
   case. *)
let pins =
  [
    "cf2522737e7bb6bd/fba11febd99ec3bd/3f0289931f8750a2/25392/18"; (* overtile laplacian2d 48x12 *)
    "fbbdc694a75763ec/d3d8199dcc8dea6f/3f0289931f8750a2/25392/18"; (* overtile heat2d 48x12 *)
    "dea27a6cfdc697c1/3eb60af02720aea7/3f0289931f8750a2/25392/18"; (* overtile gradient2d 48x12 *)
    "867431d74bc8a584/03a93eb5a6d5b024/3f15fcdb6cbefe14/76176/18"; (* overtile fdtd2d 48x12 *)
    "056546d565f3c241/27dc30da2b7c4d67/3f01a6e1568327b1/10976/16"; (* overtile laplacian3d 16x4 *)
    "7e0827178ca8cbdf/87294bdbf3c06585/3f01a6e1568327b1/10976/16"; (* overtile heat3d 16x4 *)
    "e2e8462ac4847dba/6345230437564ff7/3f01a6e1568327b1/10976/16"; (* overtile gradient3d 16x4 *)
    "703f9c80e8660968/ca15558d913f3b04/3eeb117a23f75e43/8575/12"; (* overtile laplacian2d 37x7 *)
    "cbb189fcc7df1e43/d89c10ab4622f831/3eeb117a23f75e43/8575/12"; (* overtile heat2d 37x7 *)
    "d7daf68e5f0c1405/00d54cbbf1943221/3eebf612bcc52433/8575/12"; (* overtile gradient2d 37x7 *)
    "c1210de1c811abd6/f70de417952a0466/3f01c9152bc202c8/25725/12"; (* overtile fdtd2d 37x7 *)
    "e80e992e91e61a76/efe773715e2a4a21/3ef01962c87e9bb5/3993/12"; (* overtile laplacian3d 13x3 *)
    "5aab40ba92dcacf1/07bc0115cd2131ff/3ef01962c87e9bb5/3993/12"; (* overtile heat3d 13x3 *)
    "3bc55c8177e40931/ef4b296734c71805/3ef01962c87e9bb5/3993/12"; (* overtile gradient3d 13x3 *)
    "11ddbe6dcdf54055/9837af19ec7e095d/3ef50146cc9974d6/2916/6"; (* overtile jacobi2d 20x9 *)
    "584ca05e3b4c4da2/5f961d1dadeb0d95/3ef359e27ddc7638/280/3"; (* overtile heat1d 30x10 *)
    "7eb81c87856ae079/2438551197ca6123/3ef3662363f80ee0/260/3"; (* overtile contrived 30x10 *)
    "7de46c06916ffaf7/695a03adcc33fe7b/3ef5d5284321e106/2916/6"; (* overtile wave2d 20x9 *)
    "45052ab04f76387f/63802b7e08b9723c/3ef666a6427fabd1/8748/9"; (* overtile fdtd2d 20x9 (config) *)
    "5aab40ba92dcacf1/106903efe3b14e15/3ef4e922ab582aa9/3993/18"; (* overtile heat3d 13x3 (config) *)
    "71a96a8d3e1cbfc4/951102653ad0d7a7/3f039e707ea9e748/2376/21"; (* split heat1d 200x12 *)
    "989dd159cb248442/3e51350f067f268f/3f0367a5f66eb070/1215/39"; (* split heat1d 137x9 *)
    "446c407cf50f22e9/d1ebc092a4990d58/3f1014cea2fff03c/1261/45"; (* split contrived 101x13 *)
    "cf2522737e7bb6bd/a0c5173dfe56f6e0/3f110ad06f2497ed/25392/72"; (* PPCG laplacian2d 48x12 *)
    "703f9c80e8660968/47466b62d56b881f/3efa963f728e748c/8575/42"; (* PPCG laplacian2d 37x7 *)
    "fbbdc694a75763ec/a8e048f26a44c1cc/3f110ad06f2497ed/25392/72"; (* PPCG heat2d 48x12 *)
    "cbb189fcc7df1e43/2b3654e7d556ce14/3efa963f728e748c/8575/42"; (* PPCG heat2d 37x7 *)
    "dea27a6cfdc697c1/3b69fc6ef58c73d3/3f110ad06f2497ed/25392/72"; (* PPCG gradient2d 48x12 *)
    "d7daf68e5f0c1405/797521f6a2743783/3efa963f728e748c/8575/42"; (* PPCG gradient2d 37x7 *)
    "867431d74bc8a584/0457375412310168/3f329352bef139f5/76176/216"; (* PPCG fdtd2d 48x12 *)
    "c1210de1c811abd6/99b5ddc670c618ee/3f1c088bbaebff69/25725/126"; (* PPCG fdtd2d 37x7 *)
    "056546d565f3c241/e8a6b6f16f6ede94/3f0099822ad82609/10976/32"; (* PPCG laplacian3d 16x4 *)
    "e80e992e91e61a76/3b645438496c6439/3eed33f0a3107b5b/3993/18"; (* PPCG laplacian3d 13x3 *)
    "7e0827178ca8cbdf/4f77a8335cf0e3f3/3f0099822ad82609/10976/32"; (* PPCG heat3d 16x4 *)
    "5aab40ba92dcacf1/4a6de7b8a9d09c74/3eed33f0a3107b5b/3993/18"; (* PPCG heat3d 13x3 *)
    "e2e8462ac4847dba/4859a84ea9230148/3f0099822ad82609/10976/32"; (* PPCG gradient3d 16x4 *)
    "3bc55c8177e40931/9a650e2c352d4add/3eed33f0a3107b5b/3993/18"; (* PPCG gradient3d 13x3 *)
    "cf2522737e7bb6bd/adbeca8f692cdf0c/3f08b24656ac4853/25392/108"; (* Par4All laplacian2d 48x12 *)
    "703f9c80e8660968/0b82a2aff3d50f69/3eee9a41c26f7d88/8575/35"; (* Par4All laplacian2d 37x7 *)
    "fbbdc694a75763ec/186883738f1410cf/3f08b24656ac4853/25392/108"; (* Par4All heat2d 48x12 *)
    "cbb189fcc7df1e43/a6aa13224f6b5dea/3ef13eea062e9e48/8575/35"; (* Par4All heat2d 37x7 *)
    "dea27a6cfdc697c1/3c4dabdfb0547d7f/3f08b24656ac4853/25392/108"; (* Par4All gradient2d 48x12 *)
    "d7daf68e5f0c1405/9cdc25bffbf003dd/3eee9a41c26f7d88/8575/35"; (* Par4All gradient2d 37x7 *)
    "867431d74bc8a584/ad8ced6e29fa65c0/3f2a97eeba80f056/76176/324"; (* Par4All fdtd2d 48x12 *)
    "c1210de1c811abd6/14adf2839a039795/3f1160b90f51e83b/25725/105"; (* Par4All fdtd2d 37x7 *)
    "056546d565f3c241/1a1e81b0326efdec/3f04bc9aecc212a5/10976/44"; (* Par4All laplacian3d 16x4 *)
    "e80e992e91e61a76/982126843c3a8f3a/3eeadd210272d7ca/3993/18"; (* Par4All laplacian3d 13x3 *)
    "7e0827178ca8cbdf/a0da19e82a3c231e/3f14c639c4d5f515/10976/44"; (* Par4All heat3d 16x4 *)
    "5aab40ba92dcacf1/481bba76b1ef3355/3f02ef2213f0bc0d/3993/18"; (* Par4All heat3d 13x3 *)
    "e2e8462ac4847dba/fdc218640148def0/3f04bc9aecc212a5/10976/44"; (* Par4All gradient3d 16x4 *)
    "3bc55c8177e40931/ff8a7aa1d1506692/3eeadd210272d7ca/3993/18"; (* Par4All gradient3d 13x3 *)
    "cf2522737e7bb6bd/408faee8fed46b63/3ef953d892125fd7/25392/14"; (* hybrid laplacian2d 48x12 *)
    "703f9c80e8660968/64dbee5e8631e48d/3ee4d3bc23991ccf/8575/9"; (* hybrid laplacian2d 37x7 *)
    "fbbdc694a75763ec/27a8ecbf83bccdcb/3ef953d892125fd7/25392/14"; (* hybrid heat2d 48x12 *)
    "cbb189fcc7df1e43/ed5fdef8d1180466/3ee4d3bc23991ccf/8575/9"; (* hybrid heat2d 37x7 *)
    "dea27a6cfdc697c1/31269eae0edf6530/3efbc85c37015f94/25392/14"; (* hybrid gradient2d 48x12 *)
    "d7daf68e5f0c1405/773edff8c0c9b4b1/3ee608f824aec1c9/8575/9"; (* hybrid gradient2d 37x7 *)
    "867431d74bc8a584/593c00f9d0f5eadd/3f1ebd4f1d6f4d13/76176/25"; (* hybrid fdtd2d 48x12 *)
    "c1210de1c811abd6/15ee211d1fdcbe08/3f037ed169554aab/25725/15"; (* hybrid fdtd2d 37x7 *)
    "056546d565f3c241/091790ca3bb8566c/3ef8ed22b8e3693f/10976/6"; (* hybrid laplacian3d 16x4 *)
    "e80e992e91e61a76/6ce34a67bec5d0d5/3ee780df9174e597/3993/5"; (* hybrid laplacian3d 13x3 *)
    "7e0827178ca8cbdf/33f0cc9ec57d30a3/3efbc25392dab450/10976/6"; (* hybrid heat3d 16x4 *)
    "5aab40ba92dcacf1/fd0741608a327634/3eea2f2135fe676f/3993/5"; (* hybrid heat3d 13x3 *)
    "e2e8462ac4847dba/3f54f8046c04813c/3ef8ed22b8e3693f/10976/6"; (* hybrid gradient3d 16x4 *)
    "3bc55c8177e40931/281870c93e657999/3ee780df9174e597/3993/5"; (* hybrid gradient3d 13x3 *)
    "cf2522737e7bb6bd/408faee8fed46b63/3ef953d892125fd7/25392/14"; (* hybrid analytic laplacian2d 48x12 *)
    "3008ae81e81e4af2/1107203024a55268/3f0664c7e4b87ef2/46128/18"; (* hybrid analytic laplacian2d 64x12 *)
    "fbbdc694a75763ec/27a8ecbf83bccdcb/3ef953d892125fd7/25392/14"; (* hybrid analytic heat2d 48x12 *)
    "d3f046f5eefdec0e/6a7480e664b5e2a2/3f0664c7e4b87ef2/46128/18"; (* hybrid analytic heat2d 64x12 *)
    "dea27a6cfdc697c1/31269eae0edf6530/3efbc85c37015f94/25392/14"; (* hybrid analytic gradient2d 48x12 *)
    "cdc44e8401c31ce1/608950260750942f/3f0924998aa641fe/46128/18"; (* hybrid analytic gradient2d 64x12 *)
    "867431d74bc8a584/593c00f9d0f5eadd/3f1ebd4f1d6f4d13/76176/25"; (* hybrid analytic fdtd2d 48x12 *)
    "d975d1fd89437f14/a3cd56c35e2cd848/3f1c0ae34bb2810a/138384/32"; (* hybrid analytic fdtd2d 64x12 *)
    "056546d565f3c241/091790ca3bb8566c/3ef8ed22b8e3693f/10976/6"; (* hybrid analytic laplacian3d 16x4 *)
    "7e0827178ca8cbdf/33f0cc9ec57d30a3/3efbc25392dab450/10976/6"; (* hybrid analytic heat3d 16x4 *)
    "e2e8462ac4847dba/3f54f8046c04813c/3ef8ed22b8e3693f/10976/6"; (* hybrid analytic gradient3d 16x4 *)
    "7de46c06916ffaf7/c9504c24b988f586/3ecffe231e97e863/2916/8"; (* hybrid wave2d 20x9 *)
    "7eb81c87856ae079/aeb87cef2ffd6aa0/3ed047d462b0be86/260/6"; (* hybrid contrived 30x10 *)
  ]

let test_pinned () =
  Alcotest.(check int) "one pin per case" (List.length cases) (List.length pins);
  Par.with_pool ~jobs:2 @@ fun pool2 ->
  List.iter2
    (fun c pin ->
      List.iter
        (fun (engine, pool, what) ->
          if List.mem engine c.engines then begin
            let got = fingerprint (c.run ?pool ~engine ()) in
            if got <> pin then
              Alcotest.failf "%s (%s): fingerprint %s, pinned %s" c.label what got pin
          end)
        [
          (Common.Tape, None, "tape, jobs 1");
          (Common.Tape, Some pool2, "tape, jobs 2");
          (Common.Ref, None, "ref, jobs 1");
          (Common.Ref, Some pool2, "ref, jobs 2");
        ])
    cases pins

(* An access outside the block's overlay is a bug in the executor's box
   arithmetic: it must raise, never clamp or fall through to the grids. *)
let test_outside_overlay_raises () =
  let prog = Suite.heat2d in
  let env = env_of (Suite.test_params prog) in
  List.iter
    (fun engine ->
      let ctx = Common.make_ctx ~engine prog env Device.gtx470 in
      let g = Grid.find ctx.grids "A" in
      let before = Array.copy g.data in
      let overlay ~slots =
        let ov = Common.Overlay.create () in
        List.iter
          (fun slot ->
            Common.Overlay.add ov ~grid:g ~slot
              ~box:{ Common.blo = [| 4; 4 |]; bhi = [| 8; 8 |] }
              ~src:g.data)
          slots;
        ov
      in
      (* heat2d at tstep 0 reads slot 0 at x-1..x+1 and writes slot 1;
         warp events only happen inside a block, so each row runs as a
         one-block launch *)
      let row ov xs () =
        Sim.launch ctx.sim ~name:"row" ~blocks:1 ~threads:32 ~shared_bytes:0 ~f:(fun _ ->
            Common.exec_stmt_row ctx ~stmt_idx:0 ~tstep:0 ~point:[| 6; 0 |] ~xs
              ~overlay:ov ~global_reads:false ~shared_replay:1 ~interleave_store:false
              ~use_shared:true ())
      in
      let raises what f =
        match f () with
        | () -> Alcotest.failf "%s: no exception" what
        | exception Invalid_argument _ -> ()
      in
      let ov = overlay ~slots:[ 0; 1 ] in
      row ov [| 5; 6; 7 |] ();
      raises "read left of the box" (row ov [| 4; 5; 6 |]);
      raises "read right of the box" (row ov [| 6; 7; 8 |]);
      raises "missing written slot" (row (overlay ~slots:[ 0 ]) [| 5; 6; 7 |]);
      raises "missing read slot" (row (overlay ~slots:[ 1 ]) [| 5; 6; 7 |]);
      Alcotest.(check bool) "grid untouched" true (before = g.data))
    [ Common.Tape; Common.Ref ]

(* Programs whose statements write a translated cell, A[i+w] for
   points i: the overlays hold cells, so write-back and copy-out must
   shift the points' box by the write offset. Checked bit for bit
   against the reference interpreter, which applies the offset itself. *)
let parse name src =
  match Hextile_frontend.Front.parse_string ~name src with
  | Ok p -> p
  | Error m -> Alcotest.failf "parse %s: %s" name m

let shifted_right =
  parse "shifted_right"
    {|float A[2][N];
for (t = 0; t < T; t++)
  for (i = 0; i < N - 2; i++)
    A[(t+1)%2][i+1] = 0.5f * (A[t%2][i] + A[t%2][i+2]);
|}

let shifted_left =
  parse "shifted_left"
    {|float A[2][N];
for (t = 0; t < T; t++)
  for (i = 2; i < N; i++)
    A[(t+1)%2][i-1] = 0.5f * (A[t%2][i-2] + A[t%2][i]);
|}

(* a write offset larger than every read offset *)
let shifted_far =
  parse "shifted_far"
    {|float A[2][N];
for (t = 0; t < T; t++)
  for (i = 0; i < N - 4; i++)
    A[(t+1)%2][i+3] = 0.5f * (A[t%2][i+2] + A[t%2][i+4]);
|}

(* two statements with opposite write offsets *)
let shifted_pair =
  parse "shifted_pair"
    {|float A[N];
float B[N];
for (t = 0; t < T; t++) {
  for (i = 1; i < N - 2; i++)
    B[i+1] = 0.5f * (A[i] + A[i+2]);
  for (i = 2; i < N - 2; i++)
    A[i-1] = 0.5f * (B[i] + B[i+1]);
}
|}

let shifted_2d =
  parse "shifted_2d"
    {|float A[2][N][N];
for (t = 0; t < T; t++)
  for (i = 0; i < N - 2; i++)
    for (j = 2; j < N; j++)
      A[(t+1)%2][i+1][j-2] = 0.2f * (A[t%2][i+1][j-2] +
          A[t%2][i][j-2] + A[t%2][i+2][j-2] +
          A[t%2][i+1][j-1] + A[t%2][i+1][j-1]);
|}

(* (program, N, T, case) *)
let shifted_cases =
  let at p n t mk = (p, n, t, mk p n t) in
  List.concat_map
    (fun p ->
      [
        at p 101 13 (fun p -> split p);
        at p 77 9 (split ~config:{ Split_tiling.hh = 3; width = 24 });
        at p 70 9 (fun p -> overtile_direct p);
      ])
    [ shifted_right; shifted_left; shifted_far ]
  @ [
      at shifted_pair 70 9 (fun p -> overtile_direct p);
      at shifted_2d 29 7 (fun p -> overtile_direct p);
      at shifted_2d 29 7 (overtile_direct ~config:{ Overtile.hh = 3; tile = Some [| 8; 16 |] });
    ]

let test_shifted_writes () =
  Par.with_pool ~jobs:2 @@ fun pool2 ->
  List.iter
    (fun ((p : Stencil.t), n, t, c) ->
      let reference = Interp.run p (env_of [ ("N", n); ("T", t) ]) in
      List.iter
        (fun (engine, pool, what) ->
          let got = (c.run ?pool ~engine ()).grids in
          List.iter
            (fun (a : Stencil.array_decl) ->
              let bits g = Array.map Int64.bits_of_float (Grid.find g a.aname).Grid.data in
              if bits reference <> bits got then
                Alcotest.failf "%s (%s): array %s differs from Interp.run" c.label what
                  a.aname)
            p.arrays)
        [
          (Common.Tape, None, "tape, jobs 1");
          (Common.Tape, Some pool2, "tape, jobs 2");
          (Common.Ref, None, "ref, jobs 1");
        ])
    shifted_cases

(* A domain with no cells launches nothing and terminates (its block
   height would be 0 and never advance the time loop). *)
let test_split_empty_domain () =
  List.iter
    (fun n ->
      let env = env_of [ ("N", n); ("T", 5) ] in
      let r = Split_tiling.run Suite.heat1d env Device.gtx470 in
      Alcotest.(check int) (Fmt.str "N=%d: no updates" n) 0 r.updates;
      Alcotest.(check int) (Fmt.str "N=%d: no blocks" n) 0 r.blocks;
      let reference = Interp.run Suite.heat1d env in
      Alcotest.(check bool)
        (Fmt.str "N=%d: grids untouched" n)
        true
        (Grid.equal (Grid.find reference "A") (Grid.find r.grids "A")))
    [ 1; 2 ]

let suite =
  [
    Alcotest.test_case "pinned grids/counters/time" `Quick test_pinned;
    Alcotest.test_case "access outside the overlay raises" `Quick
      test_outside_overlay_raises;
    Alcotest.test_case "translated writes match the interpreter" `Quick
      test_shifted_writes;
    Alcotest.test_case "split: empty domain terminates" `Quick test_split_empty_domain;
  ]
