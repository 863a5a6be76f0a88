module E = Hextile_experiments.Experiments
open Hextile_gpusim
open Hextile_stencils

let tiny2 = [ ("N", 48); ("T", 8) ]

let test_sizes () =
  let s2 = E.sizes Suite.heat2d in
  Alcotest.(check bool) "2D scaled N" true (List.assoc "N" s2 >= 64);
  let s3 = E.sizes Suite.heat3d in
  Alcotest.(check bool) "3D smaller than 2D" true
    (List.assoc "N" s3 < List.assoc "N" s2);
  let p3 = E.paper_sizes Suite.heat3d in
  Alcotest.(check bool) "paper > scaled" true (List.assoc "N" p3 > List.assoc "N" s3)

let test_scaled_device () =
  let env = E.sizes Suite.heat2d in
  let d = E.scaled_device Device.gtx470 Suite.heat2d env in
  Alcotest.(check bool) "L2 shrinks" true (d.l2_bytes < Device.gtx470.l2_bytes);
  Alcotest.(check bool) "L2 floor" true (d.l2_bytes >= 4096);
  Alcotest.(check bool) "SMs shrink" true (d.sms < Device.gtx470.sms && d.sms >= 1);
  Alcotest.(check bool) "bandwidth scales with SMs" true
    (d.dram_bw_gbs < Device.gtx470.dram_bw_gbs);
  (* machine balance preserved: bytes per flop unchanged *)
  let balance (x : Device.t) = x.dram_bw_gbs /. Device.peak_gflops x in
  Alcotest.(check (float 1e-9)) "balance" (balance Device.gtx470) (balance d)

let test_run_scheme_verifies () =
  List.iter
    (fun s ->
      let r = E.run_scheme s Suite.heat2d tiny2 Device.gtx470 in
      Alcotest.(check bool)
        (E.scheme_name s ^ " positive rate")
        true
        (Hextile_schemes.Common.gstencils_per_s r > 0.0))
    [ E.Ppcg; E.Par4all; E.Overtile; E.Patus; E.Hybrid ]

let test_paper_tables_complete () =
  List.iter
    (fun dev ->
      let rows = E.paper_table12 dev in
      Alcotest.(check int) "7 kernels" 7 (List.length rows);
      List.iter
        (fun (_, cells) -> Alcotest.(check int) "4 schemes" 4 (List.length cells))
        rows)
    [ Device.gtx470; Device.nvs5200m ]

let test_figures_nonempty () =
  List.iter
    (fun (name, f) ->
      Alcotest.(check bool) (name ^ " nonempty") true (String.length (f ()) > 40))
    [
      ("fig2", E.figure2_text);
      ("fig3", E.figure3_text);
      ("fig4", E.figure4_text);
      ("fig5", E.figure5_text);
      ("fig6", E.figure6_text);
      ("table3", E.table3_text);
      ("tilesize", E.tile_size_sweep_text);
    ]

(* The stderr summary contract gained blocks_analytic and classes: both
   always present (in order, after the original five keys), echoing the
   result's fields — 0 outside analytic mode, the class tallies in it. *)
let test_sim_summary_analytic_keys () =
  let parse line =
    match String.split_on_char ' ' line with
    | "sim:" :: tokens ->
        List.map
          (fun tok ->
            match String.index_opt tok '=' with
            | Some i ->
                ( String.sub tok 0 i,
                  String.sub tok (i + 1) (String.length tok - i - 1) )
            | None -> Alcotest.failf "token %S is not key=value" tok)
          tokens
    | _ -> Alcotest.failf "summary %S does not start with \"sim:\"" line
  in
  let summary r =
    parse
      (E.sim_summary ~wall_s:0.5 ~jobs:1 ~engine:Hextile_schemes.Common.Tape r)
  in
  let env = [ ("N", 128); ("T", 24) ] in
  let exact = E.run_scheme E.Hybrid Suite.laplacian2d env Device.gtx470 in
  let kvs = summary exact in
  Alcotest.(check (list string))
    "keys in contract order"
    [
      "wall_ms"; "blocks"; "blocks_memoized"; "engine"; "jobs";
      "blocks_analytic"; "classes"; "epilogue_ms"; "blit_rows";
      "replay_lines";
    ]
    (List.map fst kvs);
  Alcotest.(check (option string)) "exact run: blocks_analytic=0" (Some "0")
    (List.assoc_opt "blocks_analytic" kvs);
  Alcotest.(check (option string)) "exact run: classes=0" (Some "0")
    (List.assoc_opt "classes" kvs);
  (* blit_rows also counts memoized-block bulk replay, so it can be
     positive outside analytic mode; line replay is analytic-only *)
  Alcotest.(check (option string))
    "exact run: blit_rows echoed"
    (Some (string_of_int exact.Hextile_schemes.Common.blit_rows))
    (List.assoc_opt "blit_rows" kvs);
  Alcotest.(check (option string)) "exact run: replay_lines=0" (Some "0")
    (List.assoc_opt "replay_lines" kvs);
  let analytic =
    E.run_scheme ~analytic:true ~verify:false E.Hybrid Suite.laplacian2d env
      Device.gtx470
  in
  let kvs = summary analytic in
  Alcotest.(check (option string))
    "analytic run: blocks_analytic echoed"
    (Some (string_of_int analytic.Hextile_schemes.Common.blocks_analytic))
    (List.assoc_opt "blocks_analytic" kvs);
  Alcotest.(check (option string))
    "analytic run: classes echoed"
    (Some (string_of_int analytic.Hextile_schemes.Common.classes))
    (List.assoc_opt "classes" kvs);
  Alcotest.(check bool)
    "analytic run scaled blocks" true
    (analytic.Hextile_schemes.Common.blocks_analytic > 0);
  Alcotest.(check (option string))
    "analytic run: blit_rows echoed"
    (Some (string_of_int analytic.Hextile_schemes.Common.blit_rows))
    (List.assoc_opt "blit_rows" kvs);
  Alcotest.(check (option string))
    "analytic run: replay_lines echoed"
    (Some (string_of_int analytic.Hextile_schemes.Common.replay_lines))
    (List.assoc_opt "replay_lines" kvs);
  Alcotest.(check bool)
    "analytic run replayed lines" true
    (analytic.Hextile_schemes.Common.replay_lines > 0)

(* Analytic mode only makes sense over the tape engine: the ref
   interpreter records no streams, so there is nothing to scale. The
   combination is rejected eagerly rather than silently running exact. *)
let test_analytic_requires_tape_engine () =
  Alcotest.check_raises "analytic + ref engine rejected"
    (Invalid_argument
       "Experiments.run_scheme: analytic mode requires the tape engine (the \
        ref interpreter records no streams to scale)") (fun () ->
      ignore
        (E.run_scheme ~engine:Hextile_schemes.Common.Ref ~analytic:true
           ~verify:false E.Hybrid Suite.laplacian2d tiny2 Device.gtx470))

let test_verification_catches_corruption () =
  let prog = Suite.heat2d in
  let r = E.run_scheme E.Ppcg prog tiny2 Device.gtx470 in
  (* flip one value and re-verify: must be detected *)
  let g = Hextile_ir.Grid.find r.grids "A" in
  g.data.(Array.length g.data / 2) <- g.data.(Array.length g.data / 2) +. 1.0;
  let reference = Hextile_ir.Interp.run prog (fun p -> List.assoc p tiny2) in
  Alcotest.(check bool) "corruption detected" false
    (Hextile_ir.Grid.equal g (Hextile_ir.Grid.find reference "A"))

(* The profile document: one timeline entry per kernel launch whose
   counter deltas add up to the run's counters, a stage slice for each
   pipeline stage, and (stage times aside) the same document at every
   jobs value. *)
let test_profile_document () =
  let module Json = Hextile_obs.Json in
  let module Obs = Hextile_obs.Obs in
  let module Timeline = Hextile_obs.Timeline in
  let profile jobs =
    Obs.reset ();
    Obs.enable ();
    Timeline.enable ();
    Fun.protect
      ~finally:(fun () ->
        Obs.disable ();
        Obs.reset ();
        Timeline.disable ();
        Timeline.reset ())
      (fun () ->
        match
          E.profile ~jobs ~source:"builtin:jacobi2d"
            ~load:(fun () -> Ok Suite.jacobi2d)
            E.Hybrid [ ("N", 32); ("T", 8) ] Device.gtx470
        with
        | Ok (Json.Obj kvs) -> kvs
        | Ok _ -> Alcotest.fail "profile is not an object"
        | Error m -> Alcotest.failf "profile failed: %s" m)
  in
  let doc = profile 2 in
  let get k = match List.assoc_opt k doc with Some v -> v | None -> Alcotest.failf "no %s" k in
  let obj = function Json.Obj kvs -> kvs | _ -> Alcotest.fail "expected an object" in
  let counters = obj (Option.get (Json.member "counters" (get "result"))) in
  let launches = Option.get (Json.to_list (get "timeline")) in
  Alcotest.(check (option int)) "one entry per kernel"
    (Some (List.length launches))
    (Json.to_int (List.assoc "kernels" counters));
  List.iter
    (fun (k, v) ->
      let sum =
        List.fold_left
          (fun acc l -> acc + Option.value ~default:0 (Option.bind (Json.member k l) Json.to_int))
          0 launches
      in
      Alcotest.(check (option int)) (k ^ ": launch deltas sum to the total") (Json.to_int v) (Some sum))
    counters;
  let stages = obj (get "stages") in
  List.iter
    (fun s -> Alcotest.(check bool) ("stage " ^ s) true (List.mem_assoc s stages))
    [ "frontend"; "deps"; "tiling"; "codegen"; "sim" ];
  Alcotest.(check (option string)) "legality" (Some "ok")
    (Option.bind (Json.member "legality" (get "tiling")) Json.to_str);
  (* stage times are wall-clock, and the process-wide caches' oncemap.*
     counters depend on what ran before in this process *)
  let comparable kvs =
    List.filter_map
      (function
        | "stages", _ -> None
        | "trace", t ->
            let cs = obj (Option.get (Json.member "counters" t)) in
            Some
              ( "trace",
                Json.Obj
                  (List.filter
                     (fun (k, _) -> not (String.starts_with ~prefix:"oncemap." k))
                     cs) )
        | kv -> Some kv)
      kvs
  in
  Alcotest.(check string) "same document at jobs 1 and 2"
    (Json.to_string (Json.Obj (comparable (profile 1))))
    (Json.to_string (Json.Obj (comparable doc)))

let suite =
  [
    Alcotest.test_case "experiment sizes" `Quick test_sizes;
    Alcotest.test_case "scaled device preserves balance" `Quick test_scaled_device;
    Alcotest.test_case "run_scheme verifies all schemes" `Slow test_run_scheme_verifies;
    Alcotest.test_case "paper reference tables complete" `Quick test_paper_tables_complete;
    Alcotest.test_case "figure texts render" `Quick test_figures_nonempty;
    Alcotest.test_case "sim summary: analytic contract keys" `Quick
      test_sim_summary_analytic_keys;
    Alcotest.test_case "analytic requires tape engine" `Quick
      test_analytic_requires_tape_engine;
    Alcotest.test_case "verification catches corruption" `Quick
      test_verification_catches_corruption;
    Alcotest.test_case "profile: launches sum to counters, stages named" `Quick
      test_profile_document;
  ]
