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

type violation = { dep : Dep.t; u : int; s : int array }

(* Outcomes of one classical dimension's tile comparison, source tile
   against destination tile, as [1 + compare]: lt, eq, gt. *)
let eq_o = 1
let gt_o = 2

let first_violation t env =
  let steps = Affp.eval t.prog.steps env in
  let bounds =
    Array.of_list
      (List.map
         (fun (s : Stencil.stmt) ->
           ( Array.map (fun e -> Affp.eval e env) s.lo,
             Array.map (fun e -> Affp.eval e env) s.hi ))
         t.prog.stmts)
  in
  let hs = t.hs in
  let height = hs.hex.height and width = hs.hex.width and drift = hs.drift in
  let period = height / t.k in
  (* the membership test of the scan below is the hexagon's row table:
     row [a] is [row_lo.(a) .. row_hi.(a)] in local b *)
  let row_lo = hs.hex.row_lo and row_hi = hs.hex.row_hi in
  let ush0 = Hex_schedule.u_shift hs ~phase:0 and ssh0 = Hex_schedule.s_shift hs ~phase:0 in
  let ush1 = Hex_schedule.u_shift hs ~phase:1 and ssh1 = Hex_schedule.s_shift hs ~phase:1 in
  (* [(T, phase, S0, a)] of a point into [r] if it lies in [phase]'s
     hexagon; neither allocates *)
  let place r ~u ~s0 ~phase ~ush ~ssh =
    let uu = u + ush in
    let tt = Intutil.fdiv uu height and a = Intutil.fmod uu height in
    let braw = s0 + ssh + (tt * drift) in
    let b = Intutil.fmod braw width in
    row_lo.(a) <= b
    && b <= row_hi.(a)
    &&
    (r.(0) <- tt;
     r.(1) <- phase;
     r.(2) <- Intutil.fdiv braw width;
     r.(3) <- a;
     true)
  in
  let locate r ~u ~s0 =
    match
      (place r ~u ~s0 ~phase:0 ~ush:ush0 ~ssh:ssh0, place r ~u ~s0 ~phase:1 ~ush:ush1 ~ssh:ssh1)
    with
    | true, false | false, true -> ()
    | both, _ ->
        invalid_arg
          (Fmt.str "Hybrid.check_legality: (%d,%d) claimed by %s" u s0
             (if both then "both phases" else "neither phase"))
  in
  let src = Array.make 4 0 and dst = Array.make 4 0 in
  let ncl = t.dims - 1 in
  let check_dep (dep : Dep.t) =
    let du = dep.dist.(0) in
    let q = Intutil.fdiv (dep.src + du) t.k in
    (* the valid-source box: source and destination both in their domains *)
    let vlo = Array.make t.dims 0 and vhi = Array.make t.dims 0 in
    let slo, shi = bounds.(dep.src) and dlo, dhi = bounds.(dep.dst) in
    for d = 0 to t.dims - 1 do
      vlo.(d) <- max slo.(d) (dlo.(d) - dep.dist.(d + 1));
      vhi.(d) <- min shi.(d) (dhi.(d) - dep.dist.(d + 1))
    done;
    let tlo = max 0 (-q) and thi = min (steps - 1) (steps - 1 - q) in
    if
      Intutil.fmod (dep.src + du) t.k <> dep.dst
      || tlo > thi
      || Array.exists2 (fun l h -> l > h) vlo vhi
    then None
    else begin
      (* classical dims: per local time a, the outcomes {lt, eq, gt} of
         tile(a, s_i) against tile(a + Δu, s_i + Δs_i) over the valid s_i
         (one w_i period of them suffices), one witness s_i per outcome *)
      let mask = Array.make_matrix ncl height 0 in
      let wit = Array.make_matrix ncl (3 * height) 0 in
      Array.iteri
        (fun i (c : Classical.t) ->
          let ds = dep.dist.(i + 2) in
          let off = Array.init (height + du) (fun x -> Classical.skew c ~u:x ~si:0) in
          let lo = vlo.(i + 1) in
          let hi = min vhi.(i + 1) (lo + c.w - 1) in
          for a = 0 to height - 1 - du do
            for si = lo to hi do
              let ts = Intutil.fdiv (si + off.(a)) c.w
              and td = Intutil.fdiv (si + ds + off.(a + du)) c.w in
              let o = 1 + compare ts td in
              if mask.(i).(a) land (1 lsl o) = 0 then begin
                mask.(i).(a) <- mask.(i).(a) lor (1 lsl o);
                wit.(i).((3 * a) + o) <- si
              end
            done
          done)
        t.classical;
      (* per local time a, the classical dim at which a same-hexagon
         instance can first compare later (-1: none can; ncl: all tiles
         can be equal and t' does not increase) *)
      let culprit =
        Array.init height (fun a ->
            let rec scan j =
              if j = ncl then if a >= a + du then ncl else -1
              else if mask.(j).(a) land (1 lsl gt_o) <> 0 then j
              else if mask.(j).(a) land (1 lsl eq_o) <> 0 then scan (j + 1)
              else -1
            in
            if a + du >= height then -1 else scan 0)
      in
      (* periodicity: clamp s0 to one width, and then tstep to one
         height/k (the clamped box is a fundamental domain of the
         schedule's lattice inside the valid box); otherwise tstep only
         to the lattice's pure time period *)
      let spans = vhi.(0) - vlo.(0) + 1 >= width in
      let s0hi = if spans then vlo.(0) + width - 1 else vhi.(0) in
      let tperiod = if spans then period else period * (width / Intutil.gcd drift width) in
      let thi = if thi - tlo + 1 >= tperiod then tlo + tperiod - 1 else thi in
      let found = ref None in
      (try
         for s0 = vlo.(0) to s0hi do
           for tstep = tlo to thi do
             let u = (t.k * tstep) + dep.src in
             locate src ~u ~s0;
             locate dst ~u:(u + du) ~s0:(s0 + dep.dist.(1));
             let earlier = src.(0) < dst.(0) || (src.(0) = dst.(0) && src.(1) < dst.(1)) in
             let same = src.(0) = dst.(0) && src.(1) = dst.(1) && src.(2) = dst.(2) in
             let j = if earlier || not same then 0 else culprit.(src.(3)) in
             if (not earlier) && j >= 0 then begin
               let s = Array.copy vlo in
               s.(0) <- s0;
               if same then
                 for i = 0 to min j (ncl - 1) do
                   s.(i + 1) <- wit.(i).((3 * src.(3)) + if i = j then gt_o else eq_o)
                 done;
               found := Some { dep; u; s };
               raise Exit
             end
           done
         done
       with Exit -> ());
      !found
    end
  in
  List.find_map check_dep t.deps

let check_legality t env =
  Timeline.slice "tiling.check_legality" @@ fun () ->
  match first_violation t env with
  | None -> Ok ()
  | Some v ->
      Error
        (Fmt.str "dep %a violated at u=%d s=(%a)" Dep.pp v.dep v.u
           Fmt.(array ~sep:(any ", ") int)
           v.s)
