(* hextile — hybrid hexagonal/classical tiling for GPUs, command line.

   Subcommands: parse, deps, tile, codegen, run, profile, tilesize, fuzz,
   serve, list. *)

open Cmdliner
module Experiments = Hextile_experiments.Experiments
module Obs = Hextile_obs.Obs
module Timeline = Hextile_obs.Timeline
module Json = Hextile_obs.Json
module Par = Hextile_par.Par
open Hextile_ir
open Hextile_deps
open Hextile_tiling
open Hextile_gpusim
open Hextile_schemes

(* ---- common arguments -------------------------------------------------- *)

let load ~file ~builtin =
  match (file, builtin) with
  | Some f, None -> Hextile_frontend.Front.parse_file f
  | None, Some b -> (
      match Hextile_stencils.Suite.find b with
      | p -> Ok p
      | exception Not_found ->
          Error
            (Fmt.str "unknown builtin %s (try: %s)" b
               (String.concat ", "
                  (List.map
                     (fun (p : Stencil.t) -> p.name)
                     Hextile_stencils.Suite.all))))
  | Some _, Some _ -> Error "give either FILE or --builtin, not both"
  | None, None -> Error "give a FILE or --builtin NAME"

let file_arg =
  Arg.(value & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"C-subset stencil source.")

let builtin_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "builtin"; "b" ] ~docv:"NAME" ~doc:"Use a built-in benchmark stencil.")

let n_arg =
  Arg.(value & opt int 64 & info [ "N" ] ~doc:"Grid extent parameter N.")

let t_arg =
  Arg.(value & opt int 16 & info [ "T" ] ~doc:"Time steps parameter T.")

let h_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "height"; "H" ] ~doc:"Hexagon height parameter h.")

let w_arg =
  Arg.(
    value
    & opt (some (list int)) None
    & info [ "widths"; "w" ] ~docv:"W0,W1,..." ~doc:"Tile widths, one per spatial dimension.")

let device_arg =
  Arg.(
    value
    & opt (enum [ ("gtx470", Device.gtx470); ("nvs5200", Device.nvs5200m) ]) Device.gtx470
    & info [ "device" ] ~doc:"Device model: gtx470 or nvs5200.")

let env_of ~n ~t p = match p with "N" -> n | "T" -> t | _ -> raise Not_found

let jobs_arg =
  Arg.(
    value
    & opt int (Par.recommended_jobs ())
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:
          "Worker domains for the parallel runtime (default: the \
           machine's recommended domain count). All outputs are \
           bit-identical for every value; $(docv)=1 takes the exact \
           sequential code path.")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:"Enable the Obs counters and write them as JSON to $(docv).")

(* With --trace, tracing is on for the whole command and the trace is
   written even when the command fails partway. *)
let with_trace trace k =
  match trace with
  | None -> k ()
  | Some path ->
      Obs.reset ();
      Obs.enable ();
      Fun.protect
        ~finally:(fun () ->
          Obs.write_json path;
          Obs.disable ())
        k

let trace_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE"
        ~doc:
          "Record a wall-clock per-domain timeline and write it to \
           $(docv) as a Chrome trace-event JSON file (one track per \
           domain; open in Perfetto or chrome://tracing). Recording \
           never changes counters, grids or any other output.")

(* Like --trace: recording covers the whole command and the trace file
   is written even when the command fails partway. *)
let with_trace_out trace_out k =
  match trace_out with
  | None -> k ()
  | Some path ->
      Timeline.enable ();
      Fun.protect
        ~finally:(fun () ->
          Timeline.write_chrome path;
          Timeline.disable ())
        k

let with_prog file builtin k =
  match load ~file ~builtin with
  | Error m ->
      Fmt.epr "hextile: %s@." m;
      1
  | Ok prog -> k prog

let tiling_of prog h w =
  Experiments.hybrid_tiling ?h ?w:(Option.map Array.of_list w) prog

(* ---- subcommands ------------------------------------------------------- *)

let parse_cmd =
  let run file builtin =
    with_prog file builtin (fun prog ->
        Fmt.pr "%a@." Stencil.pp prog;
        0)
  in
  Cmd.v (Cmd.info "parse" ~doc:"Parse a stencil program and print its IR.")
    Term.(const run $ file_arg $ builtin_arg)

let deps_cmd =
  let run file builtin =
    with_prog file builtin (fun prog ->
        let deps = Dep.analyze prog in
        List.iter (fun d -> Fmt.pr "%a@." Dep.pp d) deps;
        let dims = Stencil.spatial_dims prog in
        for d = 0 to dims - 1 do
          Fmt.pr "dim %d: %a@." d Cone.pp (Cone.of_deps deps ~dim:d)
        done;
        0)
  in
  Cmd.v (Cmd.info "deps" ~doc:"Print dependences and per-dimension cones.")
    Term.(const run $ file_arg $ builtin_arg)

let tile_cmd =
  let run file builtin h w n t trace =
    with_prog file builtin (fun prog ->
        with_trace trace (fun () ->
            let h, w, tiling = tiling_of prog h w in
            Fmt.pr "h=%d w=(%a) %a@." h Fmt.(array ~sep:(any ",") int) w Cone.pp tiling.cone;
            Fmt.pr "%a@.%s@." Hexagon.pp tiling.hex (Render.tile tiling.hex);
            Fmt.pr "%a@." Tile_size.pp_stats (Tile_size.tile_stats tiling);
            match Hybrid.check_legality tiling (env_of ~n ~t) with
            | Ok () ->
                Fmt.pr "legality check (N=%d, T=%d): OK@." n t;
                0
            | Error m ->
                Fmt.epr "hextile: legality check FAILED: %s@." m;
                1))
  in
  Cmd.v
    (Cmd.info "tile" ~doc:"Build the hybrid schedule, show the tile, check legality.")
    Term.(const run $ file_arg $ builtin_arg $ h_arg $ w_arg $ n_arg $ t_arg $ trace_arg)

let codegen_cmd =
  let run file builtin h w =
    with_prog file builtin (fun prog ->
        let _, _, tiling = tiling_of prog h w in
        print_string (Hextile_codegen.Cuda_emit.host_and_kernels tiling prog);
        print_newline ();
        List.iter
          (fun (s : Stencil.stmt) ->
            let l = Hextile_codegen.Ptx_emit.core_listing prog s in
            Fmt.pr "// %s core: %d loads, %d ops@.%s@." s.sname l.loads l.arith l.text)
          prog.stmts;
        0)
  in
  Cmd.v
    (Cmd.info "codegen" ~doc:"Emit CUDA-style host/kernels and PTX-style cores.")
    Term.(const run $ file_arg $ builtin_arg $ h_arg $ w_arg)

let scheme_arg =
  Arg.(
    value
    & opt
        (enum
           [
             ("hybrid", Experiments.Hybrid);
             ("ppcg", Experiments.Ppcg);
             ("par4all", Experiments.Par4all);
             ("overtile", Experiments.Overtile);
             ("patus", Experiments.Patus);
           ])
        Experiments.Hybrid
    & info [ "scheme" ] ~doc:"Tiling scheme to execute.")

let engine_arg =
  Arg.(
    value
    & opt (enum [ ("tape", Common.Tape); ("ref", Common.Ref) ]) Common.Tape
    & info [ "engine" ]
        ~doc:
          "Execution engine: the warp-batched register $(b,tape) (default) or \
           the per-lane closure $(b,ref)erence interpreter.")

let analytic_arg =
  Arg.(
    value & flag
    & info [ "analytic" ]
        ~doc:
          "Hierarchical simulation: instance-execute one representative \
           block per tile class and derive the rest analytically \
           (hybrid scheme only; counters bit-identical except the \
           DRAM pair, whose error is bounded). Makes the paper's \
           full-size instances (e.g. $(b,-N 3072 -T 512)) tractable. \
           Implies no reference verification.")

let run_cmd =
  let run file builtin scheme engine dev n t analytic trace trace_out jobs =
    if analytic && engine = Common.Ref then begin
      (* reject rather than silently simulating something else: the
         analytic mode scales tape-executed streams, which the per-lane
         reference interpreter does not produce *)
      Fmt.epr
        "hextile: --analytic requires --engine tape (the ref interpreter \
         records no streams to scale)@.";
      1
    end
    else
    with_prog file builtin (fun prog ->
        with_trace trace (fun () ->
            with_trace_out trace_out @@ fun () ->
            Par.with_pool ~jobs @@ fun pool ->
            let env = [ ("N", n); ("T", t) ] in
            let t0 = Unix.gettimeofday () in
            (* the reference interpreter is infeasible at the full-size
               instances --analytic exists for; the analytic mode's own
               grids are differentially validated by the test suite *)
            let verify = not analytic in
            (* the hybrid schedule is checked before anything is simulated:
               an illegal one would otherwise surface only as a grid
               mismatch, or not at all under --analytic *)
            let legality = Experiments.check_legality scheme prog env in
            match
              Result.map
                (fun () ->
                  Experiments.run_scheme ~pool ~engine ~analytic ~verify scheme prog env
                    dev)
                legality
            with
            | Error m ->
                Fmt.epr "hextile: legality check FAILED: %s@." m;
                1
            | Ok r ->
                (* like tilesize: the simulation summary goes to stderr
                   unconditionally so stdout stays parseable; the format
                   is the key=value contract of Experiments.sim_summary *)
                Fmt.epr "%s@."
                  (Experiments.sim_summary
                     ~wall_s:(Unix.gettimeofday () -. t0)
                     ~jobs ~engine r);
                Fmt.pr "%s on %s, N=%d T=%d: %s@." r.scheme prog.name n t
                  (if verify then "verified OK" else "completed (analytic)");
                if scheme = Experiments.Hybrid then Fmt.pr "legality           OK@.";
                Fmt.pr "updates            %d@." r.updates;
                (* FNV over every grid's bits: one line that makes
                   cross-jobs bit-identity checkable by diffing stdout
                   (the CI determinism leg does exactly that) *)
                Fmt.pr "grids fnv          %s@."
                  (Hextile_serve.Engine.grids_hash prog r.grids);
                (if analytic then
                   Fmt.pr "blocks analytic    %d of %d (%d classes)@."
                     r.blocks_analytic r.blocks r.classes);
                Fmt.pr "GStencils/s        %.3f@." (Common.gstencils_per_s r);
                Fmt.pr "kernel time        %.3e s (+ %.3e s transfer)@." r.kernel_time
                  r.transfer_time;
                Fmt.pr "%a@." Counters.pp r.counters;
                0
            | exception Failure m ->
                Fmt.epr "hextile: %s@." m;
                1))
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:"Simulate a scheme on the GPU model and verify against the reference.")
    Term.(
      const run $ file_arg $ builtin_arg $ scheme_arg $ engine_arg $ device_arg
      $ n_arg $ t_arg $ analytic_arg $ trace_arg $ trace_out_arg $ jobs_arg)

let tilesize_cmd =
  let run file builtin trace trace_out jobs =
    with_prog file builtin (fun prog ->
        with_trace trace (fun () ->
            with_trace_out trace_out @@ fun () ->
            Par.with_pool ~jobs @@ fun pool ->
            let t0 = Unix.gettimeofday () in
            let best, report =
              Tile_size.select_spec ~pool prog (Tile_size.default_spec prog)
            in
            let dt = Unix.gettimeofday () -. t0 in
            (* search counters go to stderr unconditionally (no --trace
               needed) so the selection line on stdout stays parseable *)
            Fmt.epr "search: %a wall=%.3fms@." Tile_size.pp_report report
              (1000.0 *. dt);
            match best with
            | Some c ->
                Fmt.pr "selected %a@." Tile_size.pp_choice c;
                0
            | None ->
                Fmt.epr "hextile: no feasible tile size in the candidate grid@.";
                1))
  in
  Cmd.v
    (Cmd.info "tilesize" ~doc:"Select tile sizes by load-to-compute ratio (Sec 3.7).")
    Term.(const run $ file_arg $ builtin_arg $ trace_arg $ trace_out_arg $ jobs_arg)

(* ---- profile: the whole pipeline under one trace ----------------------- *)

let output_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "output"; "o" ] ~docv:"FILE"
        ~doc:"Write the profile JSON to $(docv) instead of stdout.")

let timeline_arg =
  Arg.(
    value & flag
    & info [ "timeline" ]
        ~doc:
          "Record the wall-clock per-domain timeline and print a \
           busy/idle/steal/absorb breakdown per domain, the slowest \
           slices, and per-slice latency histograms to stderr.")

let profile_cmd =
  let run file builtin scheme dev n t h w output jobs trace_out timeline =
    Obs.reset ();
    Obs.enable ();
    Timeline.enable ();
    Fun.protect ~finally:(fun () ->
        Obs.disable ();
        Option.iter Timeline.write_chrome trace_out;
        if timeline then Fmt.epr "%a" Timeline.pp_summary ();
        Timeline.disable ())
    @@ fun () ->
    let source =
      match (file, builtin) with
      | Some f, _ -> f
      | _, Some b -> "builtin:" ^ b
      | None, None -> "<none>"
    in
    match
      Experiments.profile ~jobs ~source
        ~load:(fun () -> load ~file ~builtin)
        ?h ?w:(Option.map Array.of_list w) scheme
        [ ("N", n); ("T", t) ]
        dev
    with
    | Error m ->
        Fmt.epr "hextile: %s@." m;
        1
    | Ok doc ->
        (match output with
        | None -> print_endline (Json.to_string doc)
        | Some path ->
            Out_channel.with_open_text path (fun oc ->
                Out_channel.output_string oc (Json.to_string doc);
                Out_channel.output_char oc '\n'));
        0
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Run the whole pipeline (frontend, deps, tiling, codegen, sim) under \
          the tracing layer and emit a single nvprof-style JSON profile.")
    Term.(
      const run $ file_arg $ builtin_arg $ scheme_arg $ device_arg $ n_arg $ t_arg
      $ h_arg $ w_arg $ output_arg $ jobs_arg $ trace_out_arg $ timeline_arg)

let fuzz_cmd =
  let module Check = Hextile_check in
  let seed_arg =
    Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Campaign PRNG seed.")
  in
  let count_arg =
    Arg.(value & opt int 100 & info [ "count" ] ~doc:"Number of generated programs.")
  in
  let shrink_arg =
    Arg.(
      value & flag
      & info [ "shrink" ]
          ~doc:"Greedily shrink each failure to a minimal counterexample.")
  in
  let mutate_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "mutate" ] ~docv:"SCHEME"
          ~doc:
            "Self-test the harness: run $(docv) on an offset-flipped copy of \
             each program and count mutants caught vs. missed.")
  in
  let schemes_arg =
    Arg.(
      value
      & opt (some (list string)) None
      & info [ "schemes" ] ~docv:"S1,S2,..."
          ~doc:"Restrict the differential comparison to these schemes.")
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"DIR"
          ~doc:"Write counterexample .c files to $(docv).")
  in
  let replay_arg =
    Arg.(
      value
      & opt (some file) None
      & info [ "replay" ] ~docv:"FILE"
          ~doc:
            "Instead of fuzzing, re-run the differential oracle on a \
             counterexample file under -N/-T.")
  in
  let replay ~pool file mutate schemes device n t =
    match Hextile_frontend.Front.parse_file file with
    | Error m ->
        Fmt.epr "hextile: %s@." m;
        1
    | Ok prog -> (
        let env =
          List.filter (fun (p, _) -> List.mem p prog.params) [ ("N", n); ("T", t) ]
        in
        match Check.Oracle.check ~pool ?mutate ?schemes prog env device with
        | Error m ->
            Fmt.epr "hextile: %s@." m;
            1
        | Ok [] ->
            Fmt.pr "replay: all schemes agree with the interpreter@.";
            0
        | Ok failures ->
            List.iter (fun f -> Fmt.pr "%a@." Check.Oracle.pp_failure f) failures;
            1)
  in
  let run seed count shrink mutate schemes out replay_file device n t trace_out
      jobs =
    let unknown =
      List.filter
        (fun s -> not (List.mem s Check.Oracle.all_scheme_names))
        (Option.value schemes ~default:[] @ Option.to_list mutate)
    in
    if unknown <> [] then begin
      Fmt.epr "hextile: unknown scheme(s) %s (available: %s)@."
        (String.concat ", " unknown)
        (String.concat ", " Check.Oracle.all_scheme_names);
      1
    end
    else
      with_trace_out trace_out @@ fun () ->
      Par.with_pool ~jobs @@ fun pool ->
      match replay_file with
      | Some file -> replay ~pool file mutate schemes device n t
      | None ->
          let cfg =
            {
              Check.Fuzz.seed;
              count;
              shrink;
              mutate;
              schemes;
              out_dir = out;
            }
          in
          let summary =
            Check.Fuzz.run ~pool
              ~log:(fun line -> Fmt.epr "%s@." line)
              cfg device
          in
          Fmt.pr "%a@." (Check.Fuzz.pp_summary cfg) summary;
          if Check.Fuzz.ok cfg summary then 0 else 1
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Differential fuzzing: generate random stencil programs and compare \
          every scheme executor (and the gpusim sanitizer) against the \
          reference interpreter.")
    Term.(
      const run $ seed_arg $ count_arg $ shrink_arg $ mutate_arg $ schemes_arg
      $ out_arg $ replay_arg $ device_arg $ n_arg $ t_arg $ trace_out_arg
      $ jobs_arg)

let list_cmd =
  (* Diagnostic listing goes to stderr, like all other non-result output,
     so traces piped from stdout stay valid JSON. *)
  let run () =
    List.iter
      (fun (p : Stencil.t) ->
        Fmt.epr "%-12s %dD, %d statement(s)@." p.name (Stencil.spatial_dims p)
          (List.length p.stmts))
      Hextile_stencils.Suite.all;
    0
  in
  Cmd.v (Cmd.info "list" ~doc:"List built-in benchmark stencils.") Term.(const run $ const ())

let serve_cmd =
  let socket_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:
            "Listen on a Unix-domain socket at $(docv) (created, and \
             removed on shutdown).")
  and stdio_arg =
    Arg.(
      value & flag
      & info [ "stdio" ]
          ~doc:
            "Serve JSON lines on stdin/stdout; a blank line delimits a \
             request wave, end of input stops the daemon.")
  and max_queue_arg =
    Arg.(
      value
      & opt int Hextile_serve.Daemon.default_config.max_queue
      & info [ "max-queue" ] ~docv:"N"
          ~doc:
            "Admission bound: requests beyond $(docv) queued are shed \
             with an explicit error response.")
  and max_wave_arg =
    Arg.(
      value
      & opt int Hextile_serve.Daemon.default_config.max_wave
      & info [ "max-wave" ] ~docv:"N"
          ~doc:"Maximum requests batched into one execution wave (stdio).")
  in
  let run socket stdio jobs max_queue max_wave =
    let config = { Hextile_serve.Daemon.max_queue; max_wave } in
    let cache = Hextile_serve.Cache.create () in
    match (socket, stdio) with
    | None, false | Some _, true ->
        Fmt.epr "hextile: serve needs exactly one of --socket PATH or --stdio@.";
        2
    | Some path, false ->
        Par.with_pool ~jobs (fun pool ->
            Hextile_serve.Daemon.serve_socket ~config ~cache ~pool ~path ());
        0
    | None, true ->
        Par.with_pool ~jobs (fun pool ->
            Hextile_serve.Daemon.run_lines ~config ~cache ~pool
              ~read_line:(fun () -> In_channel.input_line In_channel.stdin)
              ~write_line:(fun l ->
                print_string l;
                print_newline ();
                flush stdout)
              ());
        0
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Long-lived compile-and-simulate daemon: JSON-lines requests \
          (run, tilesize, compile, stats) over a Unix socket or stdio, \
          with cross-request structural caching and request batching. \
          Responses are bit-identical to the one-shot commands.")
    Term.(
      const run $ socket_arg $ stdio_arg $ jobs_arg $ max_queue_arg
      $ max_wave_arg)

let () =
  let doc = "hybrid hexagonal/classical tiling for GPUs (CGO 2014), in OCaml" in
  let info = Cmd.info "hextile" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval'
       (Cmd.group info
          [
            parse_cmd;
            deps_cmd;
            tile_cmd;
            codegen_cmd;
            run_cmd;
            profile_cmd;
            tilesize_cmd;
            fuzz_cmd;
            serve_cmd;
            list_cmd;
          ]))
