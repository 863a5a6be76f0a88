(* Reference for [Hybrid.first_violation]: the legality of a hybrid
   schedule by full enumeration of every dependence instance. *)

open Hextile_ir
open Hextile_deps
open Hextile_tiling
open Hextile_util

(* The oracle: [precedes] on every instance of every dependence, each
   endpoint located through [coords]. Reports the last violating tstep
   at the first violating spatial point. *)
let legality (t : Hybrid.t) env =
  let steps = Affp.eval t.prog.steps env in
  let bounds =
    Array.of_list
      (List.map
         (fun (s : Stencil.stmt) ->
           ( Array.map (fun e -> Affp.eval e env) s.lo,
             Array.map (fun e -> Affp.eval e env) s.hi ))
         t.prog.stmts)
  in
  let in_domain i tstep s =
    tstep >= 0 && tstep < steps
    &&
    let lo, hi = bounds.(i) in
    let ok = ref true in
    Array.iteri (fun d v -> if v < lo.(d) || v > hi.(d) then ok := false) s;
    !ok
  in
  let violation = ref None in
  let check_dep (dep : Dep.t) =
    let lo, hi = bounds.(dep.src) in
    let point = Array.make t.dims 0 in
    let rec go d =
      if !violation <> None then ()
      else if d = t.dims then begin
        for tstep = 0 to steps - 1 do
          let u_src = Hybrid.instance_u t ~stmt:dep.src ~tstep in
          let u_dst = u_src + dep.dist.(0) in
          if Intutil.fmod u_dst t.k = dep.dst then begin
            let s_dst = Array.mapi (fun d v -> v + dep.dist.(d + 1)) point in
            if in_domain dep.dst (Hybrid.tstep_of_u t u_dst) s_dst then begin
              let c_src = Hybrid.coords t ~u:u_src ~s:point in
              let c_dst = Hybrid.coords t ~u:u_dst ~s:s_dst in
              if not (Hybrid.precedes t c_src c_dst) then
                violation :=
                  Some
                    (Fmt.str "dep %a violated at u=%d s=(%a)" Dep.pp dep u_src
                       Fmt.(array ~sep:(any ", ") int)
                       point)
            end
          end
        done
      end
      else
        for x = lo.(d) to hi.(d) do
          point.(d) <- x;
          go (d + 1)
        done
    in
    go 0
  in
  List.iter check_dep t.deps;
  match !violation with None -> Ok () | Some m -> Error m
