(* Golden-snapshot generator: prints the requested emitter's output, or
   the tile-size search's choice and report, for every stencil in the
   paper's benchmark suite (Table 3) to stdout. The dune rules diff this
   against the committed .expected files, so a refactor that changes any
   byte of generated CUDA/OpenCL/PTX, or any selected size or search
   count (the analytic screen's bounds decide pruning, so a drift in
   them changes [pruned_dominated] and [exact_evals]), fails
   `dune runtest` with the diff; intentional changes are accepted with
   `dune promote`. *)

open Hextile_ir
module Suite = Hextile_stencils.Suite
module Hybrid_exec = Hextile_schemes.Hybrid_exec
module Hybrid = Hextile_tiling.Hybrid
module Cuda = Hextile_codegen.Cuda_emit
module Opencl = Hextile_codegen.Opencl_emit
module Ptx = Hextile_codegen.Ptx_emit
module Tile_size = Hextile_tiling.Tile_size

let tiling_of prog =
  let config = Hybrid_exec.default_config prog in
  Hybrid.make prog ~h:config.h ~w:config.w

let emit which (prog : Stencil.t) =
  Fmt.pr "// ============ %s ============@." prog.name;
  match which with
  | "cuda" -> print_string (Cuda.host_and_kernels (tiling_of prog) prog)
  | "opencl" -> print_string (Opencl.host_and_kernels (tiling_of prog) prog)
  | "ptx" ->
      List.iter
        (fun (s : Stencil.stmt) ->
          let l = Ptx.core_listing prog s in
          Fmt.pr "// %s core: %d loads, %d ops, %d stores@.%s" s.sname l.loads
            l.arith l.stores l.text)
        prog.stmts
  | "tilesize" ->
      let choice, report = Tile_size.select_spec prog (Tile_size.default_spec prog) in
      (match choice with
      | None -> Fmt.pr "selected none@."
      | Some c -> Fmt.pr "selected %a exact_ratio=%h@." Tile_size.pp_choice c c.stats.ratio);
      Fmt.pr "report %a@." Tile_size.pp_report report
  | w -> invalid_arg ("gen_golden: unknown emitter " ^ w)

let () =
  let which =
    if Array.length Sys.argv > 1 then Sys.argv.(1)
    else invalid_arg "gen_golden: expected cuda | opencl | ptx | tilesize"
  in
  List.iter (emit which) Suite.table3
