open Hextile_deps
open Hextile_ir
open Hextile_util
module Timeline = Hextile_obs.Timeline

type coords = {
  phase : int;
  tt : int;
  tiles : int array;
  a : int;
  intra : int array;
}

type t = {
  prog : Stencil.t;
  k : int;
  dims : int;
  deps : Dep.t list;
  cone : Cone.t;
  h : int;
  w : int array;
  hex : Hexagon.t;
  hs : Hex_schedule.t;
  classical : Classical.t array;
}

let make ?(hex_dim = 0) ?deps ?cone ?hex (prog : Stencil.t) ~h ~w =
  if hex_dim <> 0 then
    invalid_arg "Hybrid.make: only hex_dim = 0 is supported (reorder dims in the IR)";
  (match Stencil.validate prog with
  | Ok () -> ()
  | Error m -> invalid_arg ("Hybrid.make: " ^ m));
  let dims = Stencil.spatial_dims prog in
  if Array.length w <> dims then
    invalid_arg
      (Fmt.str "Hybrid.make: %d widths given for %d spatial dimensions"
         (Array.length w) dims);
  let k = List.length prog.stmts in
  if (h + 1) mod k <> 0 then
    invalid_arg
      (Fmt.str
         "Hybrid.make: h+1 = %d must be a multiple of the statement count %d \
          so every tile starts with the same statement"
         (h + 1) k);
  Timeline.slice "tiling.hybrid_make" (fun () ->
      let deps =
        match deps with
        | Some d -> d
        | None -> Timeline.slice "tiling.dependence_cone" (fun () -> Dep.analyze prog)
      in
      let cone = match cone with Some c -> c | None -> Cone.of_deps deps ~dim:0 in
      let hex =
        match hex with
        | Some (hx : Hexagon.t) ->
            if hx.h <> h || hx.w0 <> w.(0) then
              invalid_arg
                (Fmt.str "Hybrid.make: cached hexagon (h=%d, w0=%d) does not match \
                          requested (h=%d, w0=%d)"
                   hx.h hx.w0 h w.(0));
            hx
        | None ->
            Timeline.slice "tiling.hexagon_make" (fun () -> Hexagon.make ~h ~w0:w.(0) cone)
      in
      let hs = Hex_schedule.make hex in
      let classical =
        Timeline.slice "tiling.classical_make" (fun () ->
            Array.init (dims - 1) (fun i ->
                Classical.make
                  ~delta1:(Cone.delta1_only deps ~dim:(i + 1))
                  ~w:w.(i + 1)))
      in
      { prog; k; dims; deps; cone; h; w; hex; hs; classical })

let instance_u t ~stmt ~tstep = (t.k * tstep) + stmt
let stmt_of_u t u = Intutil.fmod u t.k
let tstep_of_u t u = Intutil.fdiv u t.k
let domain_u_bound t env = t.k * Affp.eval t.prog.steps env

let coords t ~u ~s =
  let tt, phase, s0_tile = Hex_schedule.tile_of t.hs ~u ~s0:s.(0) in
  let a, b = Hex_schedule.local t.hs ~phase ~u ~s0:s.(0) in
  let tiles = Array.make t.dims 0 and intra = Array.make t.dims 0 in
  tiles.(0) <- s0_tile;
  intra.(0) <- b;
  Array.iteri
    (fun i c ->
      tiles.(i + 1) <- Classical.tile c ~u:a ~si:s.(i + 1);
      intra.(i + 1) <- Classical.intra c ~u:a ~si:s.(i + 1))
    t.classical;
  { phase; tt; tiles; a; intra }

let vector _t c =
  Array.concat [ [| c.tt; c.phase |]; c.tiles; [| c.a |]; c.intra ]

let precedes t src dst =
  ignore t;
  if (src.tt, src.phase) < (dst.tt, dst.phase) then true
  else if (src.tt, src.phase) > (dst.tt, dst.phase) then false
  else if src.tiles.(0) <> dst.tiles.(0) then false
  else
    let rest a = Array.sub a.tiles 1 (Array.length a.tiles - 1) in
    let c = compare (rest src) (rest dst) in
    if c < 0 then true else if c > 0 then false else src.a < dst.a

let point_of_coords t c =
  if not (Hexagon.contains t.hex ~a:c.a ~b:c.intra.(0)) then None
  else begin
    let u0, s00 =
      Hex_schedule.tile_origin t.hs ~phase:c.phase ~tt:c.tt ~s_tile:c.tiles.(0)
    in
    let s = Array.make t.dims 0 in
    s.(0) <- s00 + c.intra.(0);
    Array.iteri
      (fun i cl ->
        s.(i + 1) <- Classical.si_of cl ~u:c.a ~tile:c.tiles.(i + 1) ~intra:c.intra.(i + 1))
      t.classical;
    Some (u0 + c.a, s)
  end

let check_legality t env =
  Timeline.slice "tiling.check_legality" @@ fun () ->
  let steps = Affp.eval t.prog.steps env in
  (* each statement's domain box, evaluated once per call *)
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
          let u_src = instance_u t ~stmt:dep.src ~tstep in
          let u_dst = u_src + dep.dist.(0) in
          if Intutil.fmod u_dst t.k = dep.dst then begin
            let s_dst = Array.mapi (fun d v -> v + dep.dist.(d + 1)) point in
            if in_domain dep.dst (tstep_of_u t u_dst) s_dst then begin
              let c_src = coords t ~u:u_src ~s:point in
              let c_dst = coords t ~u:u_dst ~s:s_dst in
              if not (precedes t c_src c_dst) then
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
