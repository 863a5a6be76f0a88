(* Scheme shootout: run every tiling scheme (the paper's comparators and
   the hybrid hexagonal/classical tiling) on one workload, verify each
   against the sequential reference, and compare simulated performance.

   Run with: dune exec examples/scheme_shootout.exe [-- kernel] *)

module Experiments = Hextile_experiments.Experiments
open Hextile_gpusim
open Hextile_schemes

let () =
  let kernel = if Array.length Sys.argv > 1 then Sys.argv.(1) else "heat2d" in
  let prog = Hextile_stencils.Suite.find kernel in
  let env = Experiments.sizes prog in
  Fmt.pr "%s at %a on %a@." kernel
    Fmt.(list ~sep:(any ", ") (pair ~sep:(any "=") string int))
    env Device.pp Device.gtx470;
  Fmt.pr "%-10s %10s %8s %12s %10s %9s@." "scheme" "GSt/s" "gld eff" "dram rd"
    "sh ld/req" "kernels";
  List.iter
    (fun s ->
      let r = Experiments.run_scheme s prog env Device.gtx470 in
      Fmt.pr "%-10s %10.3f %7.0f%% %12d %10.2f %9d@."
        (Experiments.scheme_name s)
        (Common.gstencils_per_s r)
        (100.0 *. Counters.gld_efficiency r.counters)
        r.counters.dram_read_transactions
        (Counters.shared_loads_per_request r.counters)
        r.counters.kernels)
    [ Experiments.Ppcg; Experiments.Par4all; Experiments.Patus;
      Experiments.Overtile; Experiments.Hybrid ]
