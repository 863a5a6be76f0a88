open Hextile_ir
module Json = Hextile_obs.Json
module Experiments = Hextile_experiments.Experiments
module Tile_size = Hextile_tiling.Tile_size
module Hybrid = Hextile_tiling.Hybrid
module Device = Hextile_gpusim.Device
module Common = Hextile_schemes.Common
module Hybrid_exec = Hextile_schemes.Hybrid_exec

let grids_hash (prog : Stencil.t) grids =
  let h = ref Shash.fnv_init in
  List.iter
    (fun (a : Stencil.array_decl) ->
      let g = Grid.find grids a.aname in
      h := Shash.fnv_string !h a.aname;
      Array.iter (fun d -> h := Shash.fnv_int !h d) g.Grid.dims;
      Array.iter
        (fun v -> h := Shash.fnv_int64 !h (Int64.bits_of_float v))
        g.Grid.data)
    prog.arrays;
  Shash.to_hex !h

(* ---- request-field resolution ------------------------------------------ *)

let load_program (r : Proto.request) =
  match (r.source, r.builtin) with
  | Some _, Some _ -> Error "give either \"source\" or \"builtin\", not both"
  | None, None -> Error "missing \"source\" or \"builtin\""
  | None, Some b -> (
      match Hextile_stencils.Suite.find b with
      | p -> Ok p
      | exception Not_found ->
          Error
            (Printf.sprintf "unknown builtin %S (try: %s)" b
               (String.concat ", "
                  (List.map
                     (fun (p : Stencil.t) -> p.name)
                     Hextile_stencils.Suite.all))))
  | Some src, None -> Hextile_frontend.Front.parse_string ~name:"<request>" src

let device_of = function
  | "gtx470" -> Ok Device.gtx470
  | "nvs5200" -> Ok Device.nvs5200m
  | d -> Error (Printf.sprintf "unknown device %S (gtx470 or nvs5200)" d)

let scheme_of = function
  | "hybrid" -> Ok Experiments.Hybrid
  | "ppcg" -> Ok Experiments.Ppcg
  | "par4all" -> Ok Experiments.Par4all
  | "overtile" -> Ok Experiments.Overtile
  | "patus" -> Ok Experiments.Patus
  | s -> Error (Printf.sprintf "unknown scheme %S" s)

let engine_of = function
  | "tape" -> Ok Common.Tape
  | "ref" -> Ok Common.Ref
  | e -> Error (Printf.sprintf "unknown engine %S (tape or ref)" e)

let ( let* ) = Result.bind

(* ---- per-op payloads --------------------------------------------------- *)

(* Every payload below is a pure function of the request: no wall-clock,
   no scheduling-dependent counts, floats produced by the deterministic
   simulator. That purity is what makes whole-payload caching and the
   cold/warm bit-identity contract sound. *)

let run_payload (r : Proto.request) prog env dev scheme engine =
  let verify = not r.analytic in
  (* the hybrid schedule is checked before anything is simulated, as
     [hextile run] does: an illegal one fails the request naming the
     dependence *)
  let* () =
    Result.map_error
      (fun m -> "legality check FAILED: " ^ m)
      (Experiments.check_legality scheme prog env)
  in
  match
    Experiments.run_scheme ~engine ~analytic:r.analytic ~verify scheme prog env
      dev
  with
  | exception Failure m -> Error m
  | result ->
      Ok
        (Json.Obj
           [
             ("op", Json.Str "run");
             ("program", Json.Str prog.Stencil.name);
             ("env", Json.Obj [ ("N", Json.Int r.n); ("T", Json.Int r.t) ]);
             ("engine", Json.Str (Experiments.engine_name engine));
             ("analytic", Json.Bool r.analytic);
             ("verified", Json.Bool verify);
             ("grids_hash", Json.Str (grids_hash prog result.Common.grids));
             ("result", Experiments.result_json result);
           ])

let choice_json (c : Tile_size.choice) =
  Json.Obj
    [
      ("h", Json.Int c.h);
      ("w", Json.List (Array.to_list (Array.map (fun x -> Json.Int x) c.w)));
      ("iterations", Json.Int c.stats.iterations);
      ("loads", Json.Int c.stats.loads);
      ("stores", Json.Int c.stats.stores);
      ("footprint_box", Json.Int c.stats.footprint_box);
      ("ratio", Json.Float c.stats.ratio);
    ]

let report_json (rep : Tile_size.report) =
  Json.Obj
    [
      ("candidates", Json.Int rep.candidates);
      ("feasible", Json.Int rep.feasible);
      ("pruned_infeasible", Json.Int rep.pruned_infeasible);
      ("pruned_dominated", Json.Int rep.pruned_dominated);
      ("exact_evals", Json.Int rep.exact_evals);
      ( "skipped",
        Json.Obj
          [
            ("h_residue", Json.Int rep.skipped.h_residue);
            ("w0_convexity", Json.Int rep.skipped.w0_convexity);
          ] );
    ]

let tilesize_payload prog (choice, report) =
  [
    ("op", Json.Str "tilesize");
    ("program", Json.Str prog.Stencil.name);
    ( "selected",
      match choice with None -> Json.Null | Some c -> choice_json c );
    ("report", report_json report);
  ]

let compile_payload (r : Proto.request) prog env =
  let config = Hybrid_exec.default_config prog in
  let h = Option.value ~default:config.Hybrid_exec.h r.h in
  let w =
    match r.w with Some l -> Array.of_list l | None -> config.Hybrid_exec.w
  in
  match Hybrid.make prog ~h ~w with
  | exception Invalid_argument m -> Error m
  | exception Failure m -> Error m
  | tiling ->
      let cuda = Hextile_codegen.Cuda_emit.host_and_kernels tiling prog in
      let legality =
        match Hybrid.check_legality tiling env with
        | Ok () -> Json.Str "ok"
        | Error m -> Json.Str ("FAILED: " ^ m)
      in
      Ok
        (Json.Obj
           [
             ("op", Json.Str "compile");
             ("program", Json.Str prog.Stencil.name);
             ("h", Json.Int h);
             ( "w",
               Json.List (Array.to_list (Array.map (fun x -> Json.Int x) w)) );
             ("legality", legality);
             ("cuda_bytes", Json.Int (String.length cuda));
             ( "cuda_hash",
               Json.Str (Shash.to_hex (Shash.fnv_string Shash.fnv_init cuda)) );
             ( "cores",
               Json.Obj
                 (List.map
                    (fun (s : Stencil.stmt) ->
                      let l =
                        Hextile_codegen.Ptx_emit.core_listing prog s
                      in
                      ( s.sname,
                        Json.Obj
                          [
                            ("loads", Json.Int l.Hextile_codegen.Ptx_emit.loads);
                            ("ops", Json.Int l.Hextile_codegen.Ptx_emit.arith);
                          ] ))
                    prog.stmts) );
           ])

(* ---- dispatch ---------------------------------------------------------- *)

let obj_payload = function Json.Obj l -> l | j -> [ ("value", j) ]

(* Cached computes signal failure by raising (nothing is published for
   a failing request, so errors are recomputed — and stay correct — on
   retry). *)
exception Request_error of string

let execute ~cache (r : Proto.request) =
  match r.op with
  | Proto.Ping -> Ok [ ("op", Json.Str "ping") ]
  | Proto.Shutdown -> Ok [ ("op", Json.Str "shutdown") ]
  | Proto.Stats ->
      Ok
        [
          ("op", Json.Str "stats");
          ("cache", Cache.stats_json cache);
        ]
  | Proto.Run | Proto.Tilesize | Proto.Compile -> (
      let* prog = load_program r in
      let env = [ ("N", r.n); ("T", r.t) ] in
      let envf p = List.assoc p env in
      let entry, renaming = Cache.lookup cache prog in
      match r.op with
      | Proto.Tilesize ->
          let result =
            Cache.tilesize cache entry ~prog ~renaming ~env (fun () ->
                Tile_size.select_spec prog (Tile_size.default_spec prog))
          in
          Ok (tilesize_payload prog result)
      | Proto.Run -> (
          let* dev = device_of r.device in
          let* scheme = scheme_of r.scheme in
          let* engine = engine_of r.engine in
          let* () =
            if r.analytic && engine = Hextile_schemes.Common.Ref then
              Error
                "analytic mode requires the tape engine (the ref interpreter \
                 records no streams to scale)"
            else Ok ()
          in
          let key =
            ( prog,
              env,
              r.device,
              r.scheme,
              r.engine,
              r.analytic )
          in
          match
            Cache.run cache entry ~key (fun () ->
                match run_payload r prog env dev scheme engine with
                | Ok j -> j
                | Error m -> raise (Request_error m))
          with
          | j -> Ok (obj_payload j)
          | exception Request_error m -> Error m)
      | Proto.Compile -> (
          let key = (prog, r.h, r.w, env) in
          match
            Cache.compile cache entry ~key (fun () ->
                match compile_payload r prog envf with
                | Ok j -> j
                | Error m -> raise (Request_error m))
          with
          | j -> Ok (obj_payload j)
          | exception Request_error m -> Error m)
      | _ -> assert false)
