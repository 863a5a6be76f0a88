(* Tests for the wall-clock timeline recorder: histogram arithmetic,
   disabled no-op behaviour, slice aggregation, overflow accounting,
   Chrome trace export, worker-track labelling — and the contract that
   matters most: recording never perturbs a deterministic output
   (counters, grids, Obs traces) at any --jobs value. *)

open Hextile_gpusim
module Grid = Hextile_ir.Grid
module Par = Hextile_par.Par
module Obs = Hextile_obs.Obs
module Hist = Hextile_obs.Hist
module Json = Hextile_obs.Json
module Timeline = Hextile_obs.Timeline
module Experiments = Hextile_experiments.Experiments
module Results = Hextile_oracle.Results

(* Every test starts from a clean recorder and leaves it off so
   timeline state never leaks into other suites. *)
let with_tl ?capacity f () =
  Timeline.disable ();
  Timeline.enable ?capacity ();
  Fun.protect ~finally:Timeline.disable f

(* ---- histograms ------------------------------------------------------- *)

let test_hist_basics () =
  let h = Hist.create () in
  Alcotest.(check int) "empty count" 0 (Hist.count h);
  Alcotest.(check (float 0.0)) "empty min" 0.0 (Hist.min_s h);
  Alcotest.(check (float 0.0)) "empty max" 0.0 (Hist.max_s h);
  let durs = [ 1e-6; 2e-6; 4e-6; 1e-3; 0.5 ] in
  List.iter (Hist.add h) durs;
  Alcotest.(check int) "count" (List.length durs) (Hist.count h);
  Alcotest.(check (float 1e-12))
    "sum" (List.fold_left ( +. ) 0.0 durs) (Hist.sum_s h);
  Alcotest.(check (float 1e-12)) "min" 1e-6 (Hist.min_s h);
  Alcotest.(check (float 1e-12)) "max" 0.5 (Hist.max_s h);
  (* quantiles are monotone in q and clamped to the observed range *)
  let qs = List.map (Hist.quantile h) [ 0.0; 0.25; 0.5; 0.9; 1.0 ] in
  List.iter
    (fun q ->
      Alcotest.(check bool) "quantile within range" true
        (q >= Hist.min_s h && q <= Hist.max_s h))
    qs;
  ignore
    (List.fold_left
       (fun prev q ->
         Alcotest.(check bool) "quantiles monotone" true (q >= prev);
         q)
       0.0 qs)

let test_hist_merge () =
  let a = Hist.create () and b = Hist.create () in
  List.iter (Hist.add a) [ 1e-6; 1e-3 ];
  List.iter (Hist.add b) [ 2e-6; 0.25 ];
  Hist.merge a b;
  Alcotest.(check int) "merged count" 4 (Hist.count a);
  Alcotest.(check (float 1e-12)) "merged min" 1e-6 (Hist.min_s a);
  Alcotest.(check (float 1e-12)) "merged max" 0.25 (Hist.max_s a);
  Alcotest.(check int) "src unchanged" 2 (Hist.count b);
  match Json.parse (Json.to_string (Hist.to_json a)) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "hist JSON does not parse: %s" e

(* ---- recorder basics -------------------------------------------------- *)

let test_disabled_noop () =
  Timeline.disable ();
  Alcotest.(check bool) "disabled" false (Timeline.enabled ());
  (* [disable] keeps the tracks an earlier recording left: compare
     against them rather than expect none *)
  let events () =
    List.map (fun tk -> tk.Timeline.tk_events) (Timeline.summary ()).Timeline.su_tracks
  in
  let events0 = events () and dropped0 = Timeline.dropped () in
  (* none of these may raise or record *)
  Timeline.begin_ "ghost";
  Timeline.instant ~arg:1.0 "ghost_i";
  Timeline.end_ ();
  Timeline.end_ ();
  Timeline.flow_s 1;
  Timeline.flow_f 1;
  Alcotest.(check int) "nothing dropped" dropped0 (Timeline.dropped ());
  Alcotest.(check (list int)) "nothing recorded" events0 (events ())

(* A slice whose body raises is closed anyway: the next slice starts at
   top level, not inside it. *)
let test_slice_closes_on_exception =
  with_tl (fun () ->
      (try Timeline.slice "boom" (fun () -> failwith "x") with Failure _ -> ());
      Timeline.slice "after" (fun () -> Unix.sleepf 0.005);
      let su = Timeline.summary () in
      Alcotest.(check bool) "boom does not contain after" true
        (Timeline.incl_s su "boom" < Timeline.incl_s su "after");
      Alcotest.(check (float 1e-12)) "boom has no children"
        (Timeline.incl_s su "boom") (Timeline.excl_s su "boom"))

let test_slice_aggregation =
  with_tl (fun () ->
      Timeline.slice ~arg:2.0 "outer" (fun () ->
          Timeline.slice "inner" ignore;
          Timeline.slice "inner" ignore);
      Timeline.slice ~arg:3.0 "outer" ignore;
      Timeline.instant ~arg:10.0 "mark";
      let su = Timeline.summary () in
      (match su.Timeline.su_tracks with
      | [ tk ] ->
          Alcotest.(check string) "main track" "main" tk.Timeline.tk_name;
          let tot name =
            List.find (fun s -> s.Timeline.sl_name = name) tk.Timeline.tk_slices
          in
          Alcotest.(check int) "outer count" 2 (tot "outer").Timeline.sl_count;
          Alcotest.(check int) "inner count" 2 (tot "inner").Timeline.sl_count
      | tks -> Alcotest.failf "expected one track, got %d" (List.length tks));
      (* args are deterministic even though times are not *)
      Alcotest.(check (float 1e-9)) "arg sum" 5.0 (Timeline.arg_sum su "outer");
      Alcotest.(check (float 1e-9)) "instant arg" 10.0 (Timeline.arg_sum su "mark");
      (* exclusive time excludes children, inclusive contains them *)
      Alcotest.(check bool) "incl >= excl >= 0" true
        (Timeline.incl_s su "outer" >= Timeline.excl_s su "outer"
        && Timeline.excl_s su "outer" >= 0.0);
      Alcotest.(check bool) "incl(outer) >= incl(inner)" true
        (Timeline.incl_s su "outer" >= Timeline.incl_s su "inner");
      (* every closed slice fed the latency histogram *)
      let hist name = List.assoc name su.Timeline.su_hist in
      Alcotest.(check int) "outer hist" 2 (Hist.count (hist "outer"));
      Alcotest.(check int) "inner hist" 2 (Hist.count (hist "inner")))

let test_open_slice_closed_at_last_ts =
  with_tl (fun () ->
      Timeline.begin_ "never_closed";
      Timeline.instant "later";
      let su = Timeline.summary () in
      Alcotest.(check bool) "open slice still aggregated" true
        (Timeline.incl_s su "never_closed" >= 0.0);
      Timeline.end_ ())

let test_overflow_drops_and_counts =
  with_tl ~capacity:8 (fun () ->
      for i = 1 to 100 do
        Timeline.instant ~arg:(float_of_int i) "burst"
      done;
      Alcotest.(check bool) "drops counted" true (Timeline.dropped () > 0);
      let su = Timeline.summary () in
      Alcotest.(check int) "summary reports drops" (Timeline.dropped ())
        su.Timeline.su_dropped;
      (* drop-newest: the recorded prefix is instants 1..8 *)
      Alcotest.(check (float 1e-9)) "prefix kept, newest dropped" 36.0
        (Timeline.arg_sum su "burst"))

let test_reenable_resets =
  with_tl ~capacity:8 (fun () ->
      for _ = 1 to 100 do
        Timeline.instant "burst"
      done;
      Alcotest.(check bool) "saturated" true (Timeline.dropped () > 0);
      Timeline.enable ();
      Alcotest.(check int) "re-enable clears drops" 0 (Timeline.dropped ());
      Timeline.instant ~arg:7.0 "fresh";
      let su = Timeline.summary () in
      Alcotest.(check (float 1e-9)) "old events gone" 0.0
        (Timeline.arg_sum su "burst");
      Alcotest.(check (float 1e-9)) "new events recorded" 7.0
        (Timeline.arg_sum su "fresh"))

(* ---- chrome export ---------------------------------------------------- *)

let trace_events path =
  match Json.parse (In_channel.with_open_text path In_channel.input_all) with
  | Error e -> Alcotest.failf "trace is not valid JSON: %s" e
  | Ok doc ->
      Option.get (Json.to_list (Option.get (Json.member "traceEvents" doc)))

let event_str name e = Option.bind (Json.member name e) Json.to_str

let test_chrome_export =
  with_tl (fun () ->
      Timeline.slice ~arg:1.5 "work" (fun () -> Timeline.slice "sub" ignore);
      Timeline.instant "tick";
      let fid = Timeline.flow_id () in
      Timeline.flow_s fid;
      Timeline.flow_f fid;
      let path = Filename.temp_file "hextile_trace" ".json" in
      Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
      Timeline.write_chrome path;
      let ev = trace_events path in
      let phase p = List.filter (fun e -> event_str "ph" e = Some p) ev in
      Alcotest.(check int) "begins match ends" (List.length (phase "B"))
        (List.length (phase "E"));
      Alcotest.(check int) "two slices" 2 (List.length (phase "B"));
      Alcotest.(check int) "one instant" 1 (List.length (phase "i"));
      Alcotest.(check int) "flow start" 1 (List.length (phase "s"));
      Alcotest.(check int) "flow finish" 1 (List.length (phase "f"));
      let thread_names =
        List.filter_map
          (fun e ->
            if event_str "name" e = Some "thread_name" then
              Option.bind (Json.member "args" e) (Json.member "name")
              |> Fun.flip Option.bind Json.to_str
            else None)
          ev
      in
      Alcotest.(check (list string)) "one named track" [ "main" ] thread_names)

let test_worker_tracks_labelled =
  with_tl (fun () ->
      Par.with_pool ~jobs:3 (fun p ->
          Par.iter p
            (fun _ -> Timeline.instant "task_mark")
            (Array.init 64 Fun.id));
      let su = Timeline.summary () in
      let names =
        List.map (fun tk -> tk.Timeline.tk_name) su.Timeline.su_tracks
      in
      Alcotest.(check bool) "main track present" true (List.mem "main" names);
      List.iter
        (fun n ->
          Alcotest.(check bool)
            (Fmt.str "track %s is main or worker-N" n)
            true
            (n = "main" || String.length n > 7 && String.sub n 0 7 = "worker-"))
        names;
      Alcotest.(check bool) "some worker recorded" true
        (List.exists (fun n -> n <> "main") names))

(* ---- recording never perturbs deterministic outputs ------------------- *)

let some_addrs l = Array.of_list (List.map (fun x -> Some x) l)

(* Same shape as the test_par counter workload: block-dependent global
   traffic through a small L2, shared accesses and barriers. *)
let sim_counters pool =
  let s = Sim.create { Device.gtx470 with l2_bytes = 8192 } in
  Sim.launch ?pool s ~name:"k" ~blocks:16 ~threads:32 ~shared_bytes:256
    ~f:(fun b ->
      let addrs k =
        some_addrs (List.init 32 (fun i -> 4 * ((b * 64) + (k * 32) + i)))
      in
      Sim.global_load_warp s (addrs 0);
      Sim.global_store_warp s (addrs 1);
      let tids = Array.init 32 Fun.id in
      Sim.shared_store_warp s ~tids (some_addrs (List.init 32 Fun.id));
      Sim.sync s;
      Sim.shared_load_warp s ~tids (some_addrs (List.init 32 Fun.id)));
  Counters.to_assoc s.total

let hybrid_run pool =
  let prog = Hextile_stencils.Suite.jacobi2d in
  let env p = List.assoc p [ ("N", 64); ("T", 8) ] in
  Hextile_schemes.Hybrid_exec.run ?pool prog env Device.gtx470

let test_recording_perturbs_nothing () =
  Timeline.disable ();
  let base_counters = sim_counters None and base_hybrid = hybrid_run None in
  List.iter
    (fun jobs ->
      Par.with_pool ~jobs (fun p ->
          let off_c = sim_counters (Some p) and off_h = hybrid_run (Some p) in
          Timeline.enable ();
          let on_c = sim_counters (Some p) and on_h = hybrid_run (Some p) in
          let su = Timeline.summary () in
          Timeline.disable ();
          Alcotest.(check bool)
            (Fmt.str "recorder saw the jobs=%d run" jobs)
            true
            (Timeline.incl_s su "sim.launch" > 0.0);
          Alcotest.(check (list (pair string int)))
            (Fmt.str "counters, recording off, jobs=%d" jobs)
            base_counters off_c;
          Alcotest.(check (list (pair string int)))
            (Fmt.str "counters, recording on, jobs=%d" jobs)
            base_counters on_c;
          Results.check_same
            (Fmt.str "hybrid run at jobs=%d (recording off)" jobs)
            base_hybrid off_h;
          Results.check_same
            (Fmt.str "hybrid run at jobs=%d (recording on)" jobs)
            base_hybrid on_h))
    [ 2; 4 ]

let test_obs_shape_stable_under_recording () =
  (* Obs counters (including bumps from nested regions that degrade to
     sequential) must be independent of both the jobs value and the
     recorder. *)
  Obs.reset ();
  Obs.enable ();
  Fun.protect ~finally:(fun () ->
      Obs.disable ();
      Obs.reset ();
      Timeline.disable ())
  @@ fun () ->
  let workload jobs =
    Obs.reset ();
    Par.with_pool ~jobs (fun p ->
        Par.iter p
          (fun i ->
            Timeline.slice (Fmt.str "outer%d" i) (fun () ->
                (* nested region: degrades to sequential on this domain *)
                ignore (Par.map p (fun j -> Obs.incr "nested.count"; j) (Array.init 4 Fun.id));
                Obs.incr ~by:i (Fmt.str "outer.%d" (i mod 3))))
          (Array.init 16 Fun.id));
    Obs.counters ()
  in
  let base = workload 1 in
  Alcotest.(check (option int)) "nested bumps all counted" (Some 64)
    (List.assoc_opt "nested.count" base);
  List.iter
    (fun jobs ->
      Alcotest.(check (list (pair string int)))
        (Fmt.str "Obs counters at jobs=%d (recording off)" jobs)
        base (workload jobs);
      Timeline.enable ();
      let on = workload jobs in
      Timeline.disable ();
      Alcotest.(check (list (pair string int)))
        (Fmt.str "Obs counters at jobs=%d (recording on)" jobs)
        base on)
    [ 2; 4 ]

(* ---- the run-summary stderr contract ---------------------------------- *)

let test_sim_summary_format () =
  let prog = Hextile_stencils.Suite.jacobi2d in
  let env p = List.assoc p [ ("N", 64); ("T", 8) ] in
  let r = Hextile_schemes.Hybrid_exec.run prog env Device.gtx470 in
  let line =
    Experiments.sim_summary ~wall_s:1.25 ~jobs:3
      ~engine:Hextile_schemes.Common.Tape r
  in
  (match String.split_on_char ' ' line with
  | "sim:" :: tokens ->
      let kvs =
        List.map
          (fun tok ->
            match String.index_opt tok '=' with
            | None -> Alcotest.failf "token %S is not key=value" tok
            | Some i ->
                let k = String.sub tok 0 i
                and v = String.sub tok (i + 1) (String.length tok - i - 1) in
                String.iter
                  (fun c ->
                    if not ((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c = '_')
                    then Alcotest.failf "key %S has illegal character %c" k c)
                  k;
                if String.contains v '=' || v = "" then
                  Alcotest.failf "value %S malformed" v;
                (k, v))
          tokens
      in
      (* the seven contract keys, present in order (new keys may follow) *)
      (match List.map fst kvs with
      | "wall_ms" :: "blocks" :: "blocks_memoized" :: "engine" :: "jobs"
        :: "blocks_analytic" :: "classes" :: _ ->
          ()
      | keys ->
          Alcotest.failf "key order broken: %s" (String.concat "," keys));
      Alcotest.(check (option string)) "jobs echoed" (Some "3")
        (List.assoc_opt "jobs" kvs);
      Alcotest.(check (option string)) "engine name" (Some "tape")
        (List.assoc_opt "engine" kvs);
      Alcotest.(check (option string)) "no regime fallback" (Some "none")
        (List.assoc_opt "fallback" kvs);
      Alcotest.(check (option string)) "no dropped recording" (Some "0")
        (List.assoc_opt "recordings_dropped" kvs);
      Alcotest.(check (option string))
        "blocks from the result"
        (Some (string_of_int r.Hextile_schemes.Common.blocks))
        (List.assoc_opt "blocks" kvs);
      Alcotest.(check (option (float 1e-6))) "wall in ms" (Some 1250.0)
        (Option.bind (List.assoc_opt "wall_ms" kvs) float_of_string_opt)
  | _ -> Alcotest.failf "summary %S does not start with \"sim:\"" line)

let suite =
  [
    Alcotest.test_case "hist: buckets, quantiles" `Quick test_hist_basics;
    Alcotest.test_case "hist: merge" `Quick test_hist_merge;
    Alcotest.test_case "disabled recorder is a no-op" `Quick test_disabled_noop;
    Alcotest.test_case "slice closes on exception" `Quick
      test_slice_closes_on_exception;
    Alcotest.test_case "slice aggregation (incl/excl/arg/hist)" `Quick
      test_slice_aggregation;
    Alcotest.test_case "open slices closed at last timestamp" `Quick
      test_open_slice_closed_at_last_ts;
    Alcotest.test_case "overflow drops newest and counts" `Quick
      test_overflow_drops_and_counts;
    Alcotest.test_case "re-enable resets tracks" `Quick test_reenable_resets;
    Alcotest.test_case "chrome export: balanced, labelled, parseable" `Quick
      test_chrome_export;
    Alcotest.test_case "worker tracks labelled worker-N" `Quick
      test_worker_tracks_labelled;
    Alcotest.test_case "recording perturbs no counters or grids" `Slow
      test_recording_perturbs_nothing;
    Alcotest.test_case "obs shape stable under recording at jobs 1/2/4" `Quick
      test_obs_shape_stable_under_recording;
    Alcotest.test_case "run summary key=value contract" `Quick
      test_sim_summary_format;
  ]
