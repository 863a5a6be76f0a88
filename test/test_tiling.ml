open Hextile_tiling
open Hextile_deps
open Hextile_stencils
open Hextile_util
open Hextile_oracle

let cone d0 d1 = { Cone.delta0 = d0; delta1 = d1 }
let unit_cone = cone Rat.one Rat.one

let arb_cone =
  let slope =
    QCheck.map (fun (n, d) -> Rat.make n d) QCheck.(pair (int_range 0 5) (int_range 1 3))
  in
  QCheck.map (fun (a, b) -> cone a b) (QCheck.pair slope slope)

let arb_hex =
  QCheck.map
    (fun (c, h, extra) ->
      let w0 = Hexagon.min_w0 ~h c + extra in
      Hexagon.make ~h ~w0 c)
    QCheck.(triple arb_cone (int_range 0 5) (int_range 0 3))

let test_min_w0_paper_example () =
  (* δ0=1, δ1=2, h=2 (the Section 3.3.2 example): w0 >= 1. *)
  Alcotest.(check int) "min_w0" 1 (Hexagon.min_w0 ~h:2 (cone Rat.one (Rat.of_int 2)));
  (* integral slopes have zero fractional part: δ + {δh} - 1 = δ - 1 *)
  Alcotest.(check int) "unit cone" 0 (Hexagon.min_w0 ~h:3 unit_cone);
  (* δ0 = 3/2, h = 1: {3/2} = 1/2 → 3/2 + 1/2 - 1 = 1 *)
  Alcotest.(check int) "fractional" 1
    (Hexagon.min_w0 ~h:1 (cone (Rat.make 3 2) Rat.zero))

let test_figure4_shape () =
  (* h=2, w0=3, δ=1: rows of widths 4,6,8,8,6,4 (36 points). *)
  let hex = Hexagon.make ~h:2 ~w0:3 unit_cone in
  let widths =
    List.map
      (fun a ->
        match Hexagon.row_range hex ~a with
        | Some (lo, hi) -> hi - lo + 1
        | None -> 0)
      [ 0; 1; 2; 3; 4; 5 ]
  in
  Alcotest.(check (list int)) "row widths" [ 4; 6; 8; 8; 6; 4 ] widths;
  Alcotest.(check int) "count" 36 (Hexagon.count hex);
  Alcotest.(check int) "expected" 36 (Hexagon.expected_count hex)

let test_make_validation () =
  Alcotest.(check bool) "negative h rejected" true
    (match Hexagon.make ~h:(-1) ~w0:3 unit_cone with
    | exception Invalid_argument _ -> true
    | _ -> false);
  Alcotest.(check bool) "w0 below minimum rejected" true
    (match Hexagon.make ~h:2 ~w0:0 (cone Rat.one (Rat.of_int 2)) with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* The row table against the polyhedron it tabulates: fractional cones
   (denominators up to 5), h up to 7 and w0 up to min_w0 + 4, on a
   window [width] beyond the tile on every side. Codegen emits [poly]
   while the simulator, the legality check and the tile model read the
   table, so this is what makes them describe one tile. *)
let prop_row_table_matches_poly =
  let slope =
    QCheck.map (fun (n, d) -> Rat.make n d) QCheck.(pair (int_range 0 7) (int_range 1 5))
  in
  QCheck.Test.make ~name:"row table = polyhedron" ~count:300
    QCheck.(quad slope slope (int_range 0 7) (int_range 0 4))
    (fun (d0, d1, h, extra) ->
      let c = cone d0 d1 in
      let hex = Hexagon.make ~h ~w0:(Hexagon.min_w0 ~h c + extra) c in
      let m = hex.width and poly = Hexagon.poly hex in
      let ok = ref true in
      for a = -m to hex.height - 1 + m do
        let lo = ref None and hi = ref None in
        for b = -m to (2 * m) + hex.fl0 + hex.fl1 do
          let inside = Hextile_poly.Polyhedron.contains poly [| a; b |] in
          if inside <> Hexagon.contains hex ~a ~b then ok := false;
          if inside then begin
            if !lo = None then lo := Some b;
            hi := Some b
          end
        done;
        let scanned = match (!lo, !hi) with Some l, Some h -> Some (l, h) | _ -> None in
        if scanned <> Hexagon.row_range hex ~a then ok := false
      done;
      !ok && Hexagon.count hex = Hexagon.expected_count hex)

let prop_count_identical =
  QCheck.Test.make ~name:"all full tiles have (h+1)*width points" ~count:100 arb_hex
    (fun hex -> Hexagon.count hex = Hexagon.expected_count hex)

let prop_partition =
  QCheck.Test.make ~name:"phases partition the (u,s0) plane" ~count:60 arb_hex
    (fun hex ->
      let hs = Hex_schedule.make hex in
      let ok = ref true in
      for u = -12 to 12 do
        for s0 = -15 to 15 do
          match Hex_schedule.phase_of hs ~u ~s0 with
          | _ -> ()
          | exception Invalid_argument _ -> ok := false
        done
      done;
      !ok)

let prop_hex_legality =
  QCheck.Test.make ~name:"hex schedule honors every cone dependence" ~count:40
    arb_hex (fun hex ->
      let hs = Hex_schedule.make hex in
      let c = hex.cone in
      let deps = ref [] in
      for du = 1 to 3 do
        for ds = -12 to 12 do
          if
            Rat.compare (Rat.of_int ds) (Rat.mul_int c.delta0 du) <= 0
            && Rat.compare (Rat.of_int ds) (Rat.neg (Rat.mul_int c.delta1 du)) >= 0
          then deps := (du, ds) :: !deps
        done
      done;
      let ok = ref true in
      for u = -10 to 10 do
        for s0 = -12 to 12 do
          List.iter
            (fun (du, ds) ->
              let v1 = Hex_schedule.sched_vector hs ~u ~s0 in
              let v2 = Hex_schedule.sched_vector hs ~u:(u + du) ~s0:(s0 + ds) in
              let tp1 = (v1.(0), v1.(1)) and tp2 = (v2.(0), v2.(1)) in
              if tp1 < tp2 then ()
              else if tp1 = tp2 && v1.(2) = v2.(2) && v1.(3) < v2.(3) then ()
              else ok := false)
            !deps
        done
      done;
      !ok)

let prop_tile_points_roundtrip =
  QCheck.Test.make ~name:"tile_points ↔ tile_of roundtrip" ~count:50
    (QCheck.pair arb_hex (QCheck.pair (QCheck.int_range (-3) 3) (QCheck.int_range (-3) 3)))
    (fun (hex, (tt, s_tile)) ->
      let hs = Hex_schedule.make hex in
      List.for_all
        (fun phase ->
          let pts = Hex_schedule.tile_points hs ~phase ~tt ~s_tile in
          List.length pts = Hexagon.expected_count hex
          && List.for_all
               (fun (u, s0) -> Hex_schedule.tile_of hs ~u ~s0 = (tt, phase, s_tile))
               pts)
        [ 0; 1 ])

let prop_qmap_matches =
  QCheck.Test.make ~name:"qmap agrees with direct computation" ~count:50 arb_hex
    (fun hex ->
      let hs = Hex_schedule.make hex in
      let ok = ref true in
      List.iter
        (fun phase ->
          let m = Hex_schedule.qmap hs ~phase in
          for u = -8 to 8 do
            for s0 = -8 to 8 do
              let v = Hextile_poly.Qmap.apply m [| u; s0 |] in
              let tt = Hex_schedule.time_tile hs ~phase ~u in
              let st = Hex_schedule.space_tile hs ~phase ~u ~s0 in
              let a, b = Hex_schedule.local hs ~phase ~u ~s0 in
              if v <> [| tt; st; a; b |] then ok := false
            done
          done)
        [ 0; 1 ];
      !ok)

(* classical-tiling legality: a dependence with Δs >= -δ1·Δu never points
   to an earlier classical tile when both endpoints advance in time *)
let prop_classical_monotone =
  QCheck.Test.make ~name:"classical skew keeps dependences forward" ~count:200
    QCheck.(
      quad
        (pair (int_range 0 3) (int_range 1 4)) (* δ1 = p/q *)
        (int_range 1 8) (* width *)
        (pair (int_range 0 6) (int_range (-20) 20)) (* u, si *)
        (int_range 1 3) (* Δu *))
    (fun ((p, q), w, (u, si), du) ->
      let delta1 = Rat.make p q in
      let c = Classical.make ~delta1 ~w in
      (* most negative admissible spatial distance: Δs = -⌈δ1·Δu⌉ ... 0 *)
      let ds_min = -Rat.floor (Rat.mul_int delta1 du) in
      let ok = ref true in
      for ds = ds_min to 2 do
        let t1 = Classical.tile c ~u ~si in
        let t2 = Classical.tile c ~u:(u + du) ~si:(si + ds) in
        if t2 < t1 then ok := false
      done;
      !ok)

let test_classical_roundtrip () =
  let c = Classical.make ~delta1:(Rat.make 1 2) ~w:5 in
  for u = 0 to 7 do
    for si = -20 to 20 do
      let tile = Classical.tile c ~u ~si and intra = Classical.intra c ~u ~si in
      Alcotest.(check int) "si_of inverse" si (Classical.si_of c ~u ~tile ~intra);
      Alcotest.(check bool) "intra in range" true (intra >= 0 && intra < 5)
    done
  done

let test_classical_validation () =
  Alcotest.(check bool) "w=0 rejected" true
    (match Classical.make ~delta1:Rat.one ~w:0 with
    | exception Invalid_argument _ -> true
    | _ -> false);
  Alcotest.(check bool) "negative δ1 rejected" true
    (match Classical.make ~delta1:Rat.minus_one ~w:3 with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_classical_tile_range () =
  let c = Classical.make ~delta1:Rat.one ~w:4 in
  let lo, hi = Classical.tile_range c ~u_max:3 ~lo:0 ~hi:10 in
  (* v ranges over 0 .. 10+3 → tiles 0..3 *)
  Alcotest.(check (pair int int)) "range" (0, 3) (lo, hi)

let hybrid_of prog h wspec =
  let dims = Hextile_ir.Stencil.spatial_dims prog in
  let w = Array.make dims 3 in
  Array.blit (Array.of_list wspec) 0 w 0 (List.length wspec);
  Hybrid.make prog ~h ~w

let test_hybrid_legality_all () =
  List.iter
    (fun (prog : Hextile_ir.Stencil.t) ->
      let k = List.length prog.stmts in
      let h = (2 * k) - 1 in
      let deps = Dep.analyze prog in
      let c = Cone.of_deps deps ~dim:0 in
      let w0 = max 2 (Hexagon.min_w0 ~h c) in
      let t = hybrid_of prog h [ w0 ] in
      let env p = List.assoc p (Suite.test_params prog) in
      match Hybrid.check_legality t env with
      | Ok () -> ()
      | Error m -> Alcotest.failf "%s: %s" prog.name m)
    Suite.all

let test_hybrid_h_multiple () =
  (* fdtd2d has k=3 statements: h=2 gives h+1=3 ✓, h=3 gives 4 ✗. *)
  ignore (hybrid_of Suite.fdtd2d 2 [ 2 ]);
  Alcotest.(check bool) "h+1 must be multiple of k" true
    (match hybrid_of Suite.fdtd2d 3 [ 2 ] with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_hybrid_wrong_width_count () =
  Alcotest.(check bool) "bad width count" true
    (match Hybrid.make Suite.heat2d ~h:1 ~w:[| 2 |] with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_hybrid_coords_roundtrip () =
  let t = hybrid_of Suite.heat2d 3 [ 3; 4 ] in
  for u = -5 to 15 do
    for s0 = -6 to 10 do
      for s1 = -6 to 10 do
        let s = [| s0; s1 |] in
        let c = Hybrid.coords t ~u ~s in
        match Hybrid.point_of_coords t c with
        | None -> Alcotest.failf "coords of (%d,%d,%d) not a tile point" u s0 s1
        | Some (u', s') ->
            Alcotest.(check int) "u roundtrip" u u';
            Alcotest.(check (array int)) "s roundtrip" s s'
      done
    done
  done

let test_hybrid_vector_order () =
  let t = hybrid_of Suite.heat2d 1 [ 2; 3 ] in
  let c1 = Hybrid.coords t ~u:0 ~s:[| 0; 0 |] in
  let c2 = Hybrid.coords t ~u:1 ~s:[| 0; 0 |] in
  Alcotest.(check bool) "dep (1,0,0) precedes" true (Hybrid.precedes t c1 c2);
  Alcotest.(check bool) "reverse does not precede" false (Hybrid.precedes t c2 c1);
  let v = Hybrid.vector t c1 in
  Alcotest.(check int) "vector length 2 + 2*(dims) + 1" 7 (Array.length v)

let test_instance_u () =
  let t = hybrid_of Suite.fdtd2d 2 [ 2 ] in
  Alcotest.(check int) "u of stmt 2 at t=4" 14 (Hybrid.instance_u t ~stmt:2 ~tstep:4);
  Alcotest.(check int) "stmt_of_u" 2 (Hybrid.stmt_of_u t 14);
  Alcotest.(check int) "tstep_of_u" 4 (Hybrid.tstep_of_u t 14);
  let env p = List.assoc p (Suite.test_params Suite.fdtd2d) in
  Alcotest.(check int) "u bound = k*steps" 27 (Hybrid.domain_u_bound t env)

let test_tile_stats_formula () =
  (* Table 4 sizes: h=2, w=(7,10,32) for heat3d. *)
  let t = Hybrid.make Suite.heat3d ~h:2 ~w:[| 7; 10; 32 |] in
  let s = Tile_size.tile_stats t in
  Alcotest.(check int) "iterations = paper formula"
    (Tile_size.iterations_formula_3d ~h:2 ~w0:7 ~w1:10 ~w2:32)
    s.iterations;
  Alcotest.(check int) "iterations = hexcount * w1 * w2"
    (Hexagon.expected_count t.hex * 10 * 32)
    s.iterations;
  Alcotest.(check bool) "loads < iterations (time reuse!)" true (s.loads < s.iterations);
  Alcotest.(check bool) "ratio consistent" true
    (Float.abs (s.ratio -. (float_of_int s.loads /. float_of_int s.iterations)) < 1e-9)

let test_tile_stats_2d () =
  let t = Hybrid.make Suite.jacobi2d ~h:3 ~w:[| 4; 8 |] in
  let s = Tile_size.tile_stats t in
  Alcotest.(check int) "iterations" (Hexagon.expected_count t.hex * 8) s.iterations;
  Alcotest.(check bool) "stores <= iterations" true (s.stores <= s.iterations);
  Alcotest.(check bool) "footprint >= loads" true (s.footprint_box >= s.loads)

let test_select () =
  match
    Tile_size.select Suite.heat2d ~h_candidates:[ 1; 3 ] ~w0_candidates:[ 2; 4 ]
      ~wi_candidates:[ [ 8; 16 ] ] ~shared_mem_floats:4096 ()
  with
  | None -> Alcotest.fail "expected a feasible choice"
  | Some c ->
      Alcotest.(check bool) "budget respected" true (c.stats.footprint_box <= 4096);
      (* a larger h should win on ratio within budget *)
      Alcotest.(check bool) "prefers time reuse" true (c.h >= 3 || c.stats.ratio < 1.0)

let test_select_alignment () =
  match
    Tile_size.select Suite.heat2d ~h_candidates:[ 1 ] ~w0_candidates:[ 2 ]
      ~wi_candidates:[ [ 7; 8; 9 ] ] ~shared_mem_floats:100000 ~require_multiple:8 ()
  with
  | None -> Alcotest.fail "expected a choice"
  | Some c -> Alcotest.(check int) "innermost aligned" 8 c.w.(1)

(* Selection is a pure function of the program and candidate lists: two
   runs must agree choice-for-choice, and the reported ratio must equal a
   recomputation of loads/iterations from the chosen tiling. *)
let test_select_deterministic () =
  let sel () =
    Tile_size.select Suite.heat2d ~h_candidates:[ 1; 3; 5 ]
      ~w0_candidates:[ 2; 4; 6 ] ~wi_candidates:[ [ 8; 16; 32 ] ]
      ~shared_mem_floats:4096 ()
  in
  match (sel (), sel ()) with
  | Some a, Some b ->
      Alcotest.(check int) "same h" a.h b.h;
      Alcotest.(check (array int)) "same w" a.w b.w;
      Alcotest.(check int) "same iterations" a.stats.iterations
        b.stats.iterations;
      Alcotest.(check (float 0.0)) "same ratio" a.stats.ratio b.stats.ratio
  | _ -> Alcotest.fail "expected a feasible choice"

let test_select_ratio_recomputed () =
  match
    Tile_size.select Suite.heat2d ~h_candidates:[ 1; 3 ] ~w0_candidates:[ 2; 4 ]
      ~wi_candidates:[ [ 8; 16 ] ] ~shared_mem_floats:4096 ()
  with
  | None -> Alcotest.fail "expected a feasible choice"
  | Some c ->
      let s = Tile_size.tile_stats (Hybrid.make Suite.heat2d ~h:c.h ~w:c.w) in
      Alcotest.(check int) "loads reproduced" s.loads c.stats.loads;
      Alcotest.(check int) "iterations reproduced" s.iterations
        c.stats.iterations;
      Alcotest.(check (float 1e-12)) "ratio = loads/iterations"
        (float_of_int s.loads /. float_of_int s.iterations)
        c.stats.ratio;
      (* the winner's ratio is minimal among all feasible candidates *)
      List.iter
        (fun h ->
          List.iter
            (fun w0 ->
              List.iter
                (fun w1 ->
                  match Hybrid.make Suite.heat2d ~h ~w:[| w0; w1 |] with
                  | exception Invalid_argument _ -> ()
                  | t ->
                      let s = Tile_size.tile_stats t in
                      if s.footprint_box <= 4096 then
                        Alcotest.(check bool) "no better ratio exists" true
                          (s.ratio >= c.stats.ratio -. 1e-12))
                [ 8; 16 ])
            [ 2; 4 ])
        [ 1; 3 ]

let test_select_infeasible () =
  Alcotest.(check bool) "tiny budget -> None" true
    (Tile_size.select Suite.heat2d ~h_candidates:[ 1 ] ~w0_candidates:[ 2 ]
       ~wi_candidates:[ [ 8 ] ] ~shared_mem_floats:1 ()
    = None)

let test_render () =
  let hex = Hexagon.make ~h:2 ~w0:3 unit_cone in
  let s = Render.tile hex in
  Alcotest.(check bool) "render nonempty" true (String.length s > 0);
  let hs = Hex_schedule.make hex in
  let p = Render.pattern hs ~u_range:(0, 5) ~s0_range:(0, 20) in
  Alcotest.(check bool) "pattern mentions phases" true
    (String.length p > 0 && String.contains p 'A' && String.contains p 'a')

(* random tile sizes on a real stencil: legality must hold for any
   admissible (h, w) *)
let prop_hybrid_legality_random_sizes =
  QCheck.Test.make ~name:"hybrid legal for random (h,w) on jacobi2d" ~count:8
    QCheck.(triple (int_range 0 4) (int_range 0 3) (int_range 1 6))
    (fun (h, w0extra, w1) ->
      let prog = Suite.jacobi2d in
      let deps = Dep.analyze prog in
      let c = Cone.of_deps deps ~dim:0 in
      let w0 = Hexagon.min_w0 ~h c + w0extra in
      let t = Hybrid.make prog ~h ~w:[| max 1 w0; w1 |] in
      let env p = List.assoc p [ ("N", 14); ("T", 6) ] in
      Hybrid.check_legality t env = Ok ())

(* ---- legality: the period check against full enumeration ----------- *)

module Rng = Hextile_check.Rng

let env_of l p = List.assoc p l

type verdict = Legal | Illegal | Raised

let verdict f =
  match f () with
  | Ok () -> Legal
  | Error _ -> Illegal
  | exception Invalid_argument _ -> Raised

let pp_verdict ppf v =
  Fmt.string ppf (match v with Legal -> "legal" | Illegal -> "illegal" | Raised -> "raised")

(* Schedule mutants the check must catch: a cone that is too narrow
   (zero, or δ0 halved) and a classical dimension left unskewed. *)
type mutant = Intact | Zero_cone | Half_delta0 | Zero_skew of int

let mutant_name = function
  | Intact -> "intact"
  | Zero_cone -> "zero cone"
  | Half_delta0 -> "half δ0"
  | Zero_skew i -> Fmt.str "zero skew on s%d" (i + 1)

let with_cone (t : Hybrid.t) c =
  match Hexagon.make ~h:t.h ~w0:t.w.(0) c with
  | exception Invalid_argument _ -> None
  | hex -> Some { t with cone = c; hex; hs = Hex_schedule.make hex }

let mutate (t : Hybrid.t) = function
  | Intact -> Some t
  | Zero_cone -> with_cone t (cone Rat.zero Rat.zero)
  | Half_delta0 -> with_cone t { t.cone with delta0 = Rat.mul t.cone.delta0 (Rat.make 1 2) }
  | Zero_skew i ->
      if i >= t.dims - 1 then None
      else
        let classical = Array.copy t.classical in
        classical.(i) <- { (classical.(i)) with delta1 = Rat.zero };
        Some { t with classical }

(* Whether some dependence's valid-source s0 range spans a full hexagon
   width, i.e. whether the period check clamps s0 on this instance. *)
let spans_width (t : Hybrid.t) env =
  let open Hextile_ir in
  let stmts = Array.of_list t.prog.stmts in
  let b i f = Affp.eval (f stmts.(i)).(0) env in
  List.exists
    (fun (dep : Dep.t) ->
      let lo = max (b dep.src (fun s -> s.Stencil.lo)) (b dep.dst (fun s -> s.lo) - dep.dist.(1))
      and hi = min (b dep.src (fun s -> s.Stencil.hi)) (b dep.dst (fun s -> s.hi) - dep.dist.(1)) in
      hi - lo + 1 >= t.hex.width)
    t.deps

(* A generated program, a random valid (h, w), N and T on both sides of
   [width] and [height/k], and a mutant. [None] when the draw admits no
   tiling (no valid h for k, or a mutant cone below the convexity
   minimum). *)
let legality_draw seed =
  let rng = Rng.create seed in
  (* 1-, 2- and 3-D programs equally often: the classical-dim conditions
     need 3-D ones *)
  let dims = Rng.in_range rng 1 3 in
  let rec program i =
    let prog, _ = Hextile_check.Gen.generate (Rng.derive rng i) in
    if Hextile_ir.Stencil.spatial_dims prog = dims || i = 50 then prog else program (i + 1)
  in
  let prog = program 0 in
  let k = List.length prog.stmts and dims = Hextile_ir.Stencil.spatial_dims prog in
  (* the oracle's cost grows as width^dims: keep h small in 3-D *)
  let hmax = [| 7; 5; 3 |].(dims - 1) in
  match List.filter (fun h -> (h + 1) mod k = 0 && h <= hmax) [ 0; 1; 2; 3; 5; 7 ] with
  | [] -> None
  | hs -> (
      let h = Rng.pick rng hs in
      let c = Cone.of_deps (Dep.analyze prog) ~dim:0 in
      let w0 = Hexagon.min_w0 ~h c + Rng.int rng (if dims = 3 then 2 else 4) in
      let w = Array.init dims (fun d -> if d = 0 then w0 else Rng.pick rng [ 1; 1; 2; 3; 5 ]) in
      match Hybrid.make prog ~h ~w with
      | exception Invalid_argument _ -> None
      | t -> (
          let m =
            Rng.pick rng
              [ Intact; Intact; Zero_cone; Half_delta0; Zero_skew (Rng.int rng (max 1 (dims - 1))) ]
          in
          match mutate t m with
          | None -> None
          | Some t ->
              let period = t.hex.height / k in
              let n = max 1 (t.hex.width + Rng.in_range rng (-3) (if dims = 3 then 6 else 9)) in
              let steps = max 1 (Rng.in_range rng (period - 2) ((2 * period) + 3)) in
              Some (t, m, [ ("N", n); ("T", steps) ])))

(* One draw: the period check's verdict equals the oracle's, and a named
   violation is a real one: both endpoints in their domains, [precedes]
   false on their coordinates. Tallies what the draw exercised. *)
let legality_agrees ~tally seed =
  match legality_draw seed with
  | None -> true
  | Some (t, m, params) ->
      let env = env_of params in
      let fast = verdict (fun () -> Hybrid.check_legality t env) in
      let slow = verdict (fun () -> Hybrid_ref.legality t env) in
      if fast <> slow then
        QCheck.Test.fail_reportf "%s (%s), h=%d w=(%a) N=%d T=%d: check %a, oracle %a"
          t.prog.name (mutant_name m) t.h
          Fmt.(array ~sep:comma int)
          t.w (env "N") (env "T") pp_verdict fast pp_verdict slow;
      tally (spans_width t env) fast;
      (match Hybrid.first_violation t env with
      | exception Invalid_argument _ -> ()
      | None -> ()
      | Some { dep; u; s } ->
          let open Hextile_ir in
          let steps = env "T" in
          let stmts = Array.of_list t.prog.stmts in
          let inside i u s =
            let st = stmts.(i) in
            Hybrid.stmt_of_u t u = i
            && Hybrid.tstep_of_u t u >= 0
            && Hybrid.tstep_of_u t u < steps
            && Array.for_all Fun.id
                 (Array.mapi
                    (fun d x -> Affp.eval st.lo.(d) env <= x && x <= Affp.eval st.hi.(d) env)
                    s)
          in
          let u' = u + dep.dist.(0) and s' = Array.mapi (fun d x -> x + dep.dist.(d + 1)) s in
          if not (inside dep.src u s && inside dep.dst u' s') then
            QCheck.Test.fail_reportf "named instance u=%d s=(%a) outside the domains" u
              Fmt.(array ~sep:comma int)
              s;
          if Hybrid.precedes t (Hybrid.coords t ~u ~s) (Hybrid.coords t ~u:u' ~s:s') then
            QCheck.Test.fail_reportf "named instance u=%d s=(%a) is honored" u
              Fmt.(array ~sep:comma int)
              s);
      true

let test_legality_matches_oracle () =
  let clamped = ref 0 and unclamped = ref 0 and illegal = ref 0 in
  let tally spans v =
    incr (if spans then clamped else unclamped);
    if v = Illegal then incr illegal
  in
  QCheck.Test.check_exn
    ~rand:(Random.State.make [| 0x1e9a1 |])
    (QCheck.Test.make ~name:"period check = full enumeration" ~count:500
       QCheck.(int_bound 0x3fffffff)
       (legality_agrees ~tally));
  if !clamped = 0 || !unclamped = 0 || !illegal = 0 then
    Alcotest.failf "draw too narrow: %d clamped, %d unclamped, %d illegal" !clamped
      !unclamped !illegal

(* The paper's equation (3) writes the phase-0 space shift as
   [⌊δ1h⌋ + w0 + 1]; Hex_schedule uses [⌊δ0h⌋ + w0 + 1]. On every
   asymmetric-cone generated program ([⌊δ0h⌋ ≠ ⌊δ1h⌋]) the paper's
   shift breaks the phase partition — some point falls in both phases or
   in neither — so the legality check rejects the schedule. *)
let test_eq3_shift_rejected () =
  let rng = Rng.create 0xe93 in
  let asymmetric = ref 0 in
  for i = 0 to 150 do
    let prog, _ = Hextile_check.Gen.generate (Rng.derive rng i) in
    let k = List.length prog.stmts and dims = Hextile_ir.Stencil.spatial_dims prog in
    let h = (2 * k) - 1 in
    let c = Cone.of_deps (Dep.analyze prog) ~dim:0 in
    let w = Array.init dims (fun d -> if d = 0 then Hexagon.min_w0 ~h c + 1 else 2) in
    match Hybrid.make prog ~h ~w with
    | exception Invalid_argument _ -> ()
    | t when t.hex.fl0 = t.hex.fl1 || t.deps = [] -> ()
    | t -> (
        incr asymmetric;
        let paper = { t with hs = { t.hs with hex = { t.hex with fl0 = t.hex.fl1 } } } in
        let env = env_of [ ("N", t.hex.width + 8); ("T", (2 * t.hex.height / k) + 1) ] in
        Alcotest.(check bool) "intact schedule legal" true (Hybrid.check_legality t env = Ok ());
        match Hybrid.check_legality paper env with
        | exception Invalid_argument m ->
            Alcotest.(check bool) "partition broken" true
              (String.starts_with ~prefix:"Hybrid.check_legality:" m)
        | _ ->
            Alcotest.failf "#%d (δ0h=%d, δ1h=%d): eq. (3) shift not rejected" i t.hex.fl0
              t.hex.fl1)
  done;
  Alcotest.(check bool) "asymmetric cones drawn" true (!asymmetric >= 20)

let contains ~sub s =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* The legality check [hextile run] and serve's run op share, on
   mutated schedules: a too-narrow cone names a violated dependence, the
   paper's eq. (3) shift a point of the broken phase partition. The
   intact schedule passes, and schemes without a hexagonal schedule are
   not checked. *)
let test_run_legality_mutants () =
  let module E = Hextile_experiments.Experiments in
  let prog = Suite.jacobi2d in
  let _, _, t = E.hybrid_tiling prog in
  let env = [ ("N", 64); ("T", 16) ] in
  Alcotest.(check bool) "intact schedule legal" true (E.check_legality E.Hybrid prog env = Ok ());
  let narrow = Option.get (mutate t Zero_cone) in
  (match E.check_legality ~tiling:narrow E.Hybrid prog env with
  | Ok () -> Alcotest.fail "zero-cone schedule accepted"
  | Error m ->
      Alcotest.(check bool) ("dependence named: " ^ m) true
        (String.starts_with ~prefix:"dep " m && contains ~sub:" violated at u=" m));
  Alcotest.(check bool) "other schemes unchecked" true
    (E.check_legality ~tiling:narrow E.Ppcg prog env = Ok ());
  (* the first asymmetric-cone generated program, under eq. (3) *)
  let rng = Rng.create 0xe93 in
  let rec asymmetric i =
    let prog, _ = Hextile_check.Gen.generate (Rng.derive rng i) in
    let _, _, t = E.hybrid_tiling prog in
    if t.hex.fl0 <> t.hex.fl1 && t.deps <> [] then (prog, t) else asymmetric (i + 1)
  in
  let prog, t = asymmetric 0 in
  let paper = { t with hs = { t.hs with hex = { t.hex with fl0 = t.hex.fl1 } } } in
  let k = List.length prog.stmts in
  let env = [ ("N", t.hex.width + 8); ("T", (2 * t.hex.height / k) + 1) ] in
  Alcotest.(check bool) "intact asymmetric schedule legal" true
    (E.check_legality ~tiling:t E.Hybrid prog env = Ok ());
  match E.check_legality ~tiling:paper E.Hybrid prog env with
  | Ok () -> Alcotest.fail "eq. (3) schedule accepted"
  | Error m ->
      Alcotest.(check bool) ("partition point named: " ^ m) true
        (String.starts_with ~prefix:"Hybrid.check_legality:" m)

let prop_tile_poly_matches_points =
  QCheck.Test.make ~name:"tile polyhedron = tile points" ~count:30
    (QCheck.pair arb_hex (QCheck.pair (QCheck.int_range (-2) 2) (QCheck.int_range (-2) 2)))
    (fun (hex, (tt, s_tile)) ->
      let hs = Hex_schedule.make hex in
      List.for_all
        (fun phase ->
          let poly = Hex_schedule.tile_poly hs ~phase ~tt ~s_tile in
          let from_poly =
            List.map (fun p -> (p.(0), p.(1))) (Hextile_poly.Polyhedron.enumerate poly)
          in
          let pts = List.sort compare (Hex_schedule.tile_points hs ~phase ~tt ~s_tile) in
          List.sort compare from_poly = pts)
        [ 0; 1 ])

let test_diamond_counts () =
  (* even tau: all diamonds identical; odd tau > 1: counts vary — the
     divergence hazard of Section 5 *)
  Alcotest.(check (list int)) "tau=4 identical" [ 8 ]
    (Diamond.count_spectrum (Diamond.make ~tau:4));
  Alcotest.(check (list int)) "tau=2 identical" [ 2 ]
    (Diamond.count_spectrum (Diamond.make ~tau:2));
  let odd = Diamond.count_spectrum (Diamond.make ~tau:3) in
  Alcotest.(check bool) "tau=3 varies" true (List.length odd > 1);
  (* hexagonal tiles never vary (prop_count_identical); diamonds with the
     same slopes do — print-check the exact spectrum *)
  Alcotest.(check (list int)) "tau=3 spectrum {4,5}" [ 4; 5 ] odd

let test_diamond_tile_points () =
  let d = Diamond.make ~tau:3 in
  List.iter
    (fun (a, b) ->
      let pts = Diamond.tile_points d ~a ~b in
      Alcotest.(check int) "count agrees" (Diamond.count d ~a ~b) (List.length pts);
      List.iter
        (fun (t', s) ->
          Alcotest.(check (pair int int)) "tile_of roundtrip" (a, b)
            (Diamond.tile_of d ~t' ~s))
        pts)
    [ (0, 0); (1, -1); (2, 3) ]

let test_diamond_wavefront () =
  Alcotest.(check bool) "jacobi deps legal" true
    (Diamond.wavefront_legal (Diamond.make ~tau:4)
       ~deltas:[ (1, 1); (1, -1); (1, 0); (2, 0) ]);
  Alcotest.(check bool) "too-fast dep illegal" false
    (Diamond.wavefront_legal (Diamond.make ~tau:4) ~deltas:[ (1, 2) ])

let prop_diamond_partition =
  QCheck.Test.make ~name:"diamonds partition the plane" ~count:50
    QCheck.(pair (int_range 1 6) (pair (int_range (-20) 20) (int_range (-20) 20)))
    (fun (tau, (t', s)) ->
      let d = Diamond.make ~tau in
      let a, b = Diamond.tile_of d ~t' ~s in
      List.mem (t', s) (Diamond.tile_points d ~a ~b))

(* ---- staged tile-size search vs the frozen exhaustive oracle ---------- *)

let grids_for (prog : Hextile_ir.Stencil.t) =
  let dims = Hextile_ir.Stencil.spatial_dims prog in
  let wi =
    List.init (dims - 1) (fun d -> if d = dims - 2 then [ 8; 16; 32 ] else [ 2; 4 ])
  in
  ([ 1; 2; 3; 5 ], [ 2; 4; 6 ], wi)

let check_same_choice name staged oracle =
  Option.iter (Alcotest.failf "%s: %s" name) (Tile_size_ref.choice_difference staged oracle)

let test_staged_matches_exhaustive_table3 () =
  List.iter
    (fun (prog : Hextile_ir.Stencil.t) ->
      let hc, w0c, wi = grids_for prog in
      let oracle =
        Tile_size_ref.select_exhaustive prog ~h_candidates:hc ~w0_candidates:w0c
          ~wi_candidates:wi ~shared_mem_floats:4096 ~require_multiple:8 ()
      in
      let staged, report =
        Tile_size.select_with_report prog ~h_candidates:hc ~w0_candidates:w0c
          ~wi_candidates:wi ~shared_mem_floats:4096 ~require_multiple:8 ()
      in
      check_same_choice (prog.name ^ " (seq)") staged oracle;
      Alcotest.(check bool)
        (prog.name ^ ": evals <= candidates")
        true
        (report.exact_evals <= report.candidates
        && report.exact_evals + report.pruned_infeasible + report.pruned_dominated
           = report.candidates);
      (* a worker pool must not change the choice or the counters *)
      Hextile_par.Par.with_pool ~jobs:2 (fun pool ->
          let staged_par, report_par =
            Tile_size.select_with_report ~pool prog ~h_candidates:hc
              ~w0_candidates:w0c ~wi_candidates:wi ~shared_mem_floats:4096
              ~require_multiple:8 ()
          in
          check_same_choice (prog.name ^ " (par)") staged_par oracle;
          Alcotest.(check bool)
            (prog.name ^ ": report jobs-invariant")
            true
            (report = report_par)))
    Suite.table3

let test_staged_matches_exhaustive_fuzzed () =
  let rng = Hextile_check.Rng.create 0x7113512e in
  for i = 0 to 11 do
    let prog, _params = Hextile_check.Gen.generate (Hextile_check.Rng.derive rng i) in
    let dims = Hextile_ir.Stencil.spatial_dims prog in
    let wi = List.init (dims - 1) (fun _ -> [ 1; 2; 4 ]) in
    let hc = [ 0; 1; 2; 3; 5 ] and w0c = [ 1; 2; 4 ] in
    let oracle =
      Tile_size_ref.select_exhaustive prog ~h_candidates:hc ~w0_candidates:w0c
        ~wi_candidates:wi ~shared_mem_floats:2048 ()
    in
    let staged =
      Tile_size.select prog ~h_candidates:hc ~w0_candidates:w0c ~wi_candidates:wi
        ~shared_mem_floats:2048 ()
    in
    check_same_choice (Fmt.str "fuzz #%d %s (seq)" i prog.name) staged oracle;
    Hextile_par.Par.with_pool ~jobs:2 (fun pool ->
        let staged_par =
          Tile_size.select ~pool prog ~h_candidates:hc ~w0_candidates:w0c
            ~wi_candidates:wi ~shared_mem_floats:2048 ()
        in
        check_same_choice (Fmt.str "fuzz #%d %s (par)" i prog.name) staged_par oracle)
  done

(* dense-bitset accounting vs the hashtable reference, all benchmarks *)
let test_dense_stats_match_ref () =
  List.iter
    (fun (prog : Hextile_ir.Stencil.t) ->
      let k = List.length prog.stmts in
      let h = (2 * k) - 1 in
      let deps = Dep.analyze prog in
      let c = Cone.of_deps deps ~dim:0 in
      let w0 = max 2 (Hexagon.min_w0 ~h c) in
      let t = hybrid_of prog h [ w0 ] in
      let d = Tile_size.tile_stats t and r = Tile_size_ref.tile_stats t in
      Alcotest.(check int) (prog.name ^ ": iterations") r.iterations d.iterations;
      Alcotest.(check int) (prog.name ^ ": loads") r.loads d.loads;
      Alcotest.(check int) (prog.name ^ ": stores") r.stores d.stores;
      Alcotest.(check int) (prog.name ^ ": footprint") r.footprint_box
        d.footprint_box)
    Suite.all

let prop_dense_stats_match_ref_random =
  QCheck.Test.make ~name:"dense tile stats = reference on random sizes" ~count:20
    QCheck.(triple (int_range 0 4) (int_range 0 3) (int_range 1 8))
    (fun (h, w0extra, w1) ->
      let prog = Suite.jacobi2d in
      let deps = Dep.analyze prog in
      let c = Cone.of_deps deps ~dim:0 in
      let w0 = max 1 (Hexagon.min_w0 ~h c + w0extra) in
      let t = Hybrid.make prog ~h ~w:[| w0; w1 |] in
      Tile_size.tile_stats t = Tile_size_ref.tile_stats t)

(* Word-parallel accounting vs the hashtable reference on seeded
   generated programs: the draw must cover 1D, 2D and 3D, more than one
   statement and folded arrays, at both valid [h] of each program. *)
let test_stats_match_ref_generated () =
  let rng = Hextile_check.Rng.create 0xb17_5e75 in
  let dims_seen = Array.make 4 false and multi = ref false and folded = ref false in
  for i = 0 to 39 do
    let prog, _ = Hextile_check.Gen.generate (Hextile_check.Rng.derive rng i) in
    let dims = Hextile_ir.Stencil.spatial_dims prog in
    let k = List.length prog.stmts in
    dims_seen.(dims) <- true;
    if k > 1 then multi := true;
    if List.exists (fun (a : Hextile_ir.Stencil.array_decl) -> a.fold <> None) prog.arrays
    then folded := true;
    let c = Cone.of_deps (Dep.analyze prog) ~dim:0 in
    List.iter
      (fun h ->
        let w0 = max 1 (Hexagon.min_w0 ~h c) in
        List.iter
          (fun inner ->
            let w = Array.of_list (w0 :: List.init (dims - 1) (fun d ->
                if d = dims - 2 then inner else 2)) in
            let t = Hybrid.make prog ~h ~w in
            let lbl =
              Fmt.str "gen #%d %dD k=%d h=%d w=[%a]" i dims k h
                Fmt.(array ~sep:(any ",") int) w
            in
            Alcotest.(check bool) lbl true (Tile_size.tile_stats t = Tile_size_ref.tile_stats t))
          (if dims = 1 then [ 0 ] else [ 3; 33 ]))
      [ k - 1; (2 * k) - 1 ]
  done;
  Alcotest.(check (list bool)) "1D, 2D and 3D drawn" [ true; true; true ]
    [ dims_seen.(1); dims_seen.(2); dims_seen.(3) ];
  Alcotest.(check bool) "a multi-statement program drawn" true !multi;
  Alcotest.(check bool) "a folded array drawn" true !folded

(* Innermost runs that start and end inside a 32-bit word, fill one
   exactly, straddle two, and span three or more: the innermost width in
   2D/3D, the hexagon row (w0 plus its flanks) in 1D. *)
let test_stats_match_ref_word_edges () =
  let widths = [ 1; 31; 32; 33; 64; 65; 100 ] in
  let check prog ~h w =
    let t = Hybrid.make prog ~h ~w in
    Alcotest.(check bool)
      (Fmt.str "%s h=%d w=[%a]" prog.Hextile_ir.Stencil.name h
         Fmt.(array ~sep:(any ",") int) w)
      true
      (Tile_size.tile_stats t = Tile_size_ref.tile_stats t)
  in
  List.iter
    (fun n ->
      List.iter (fun prog -> check prog ~h:1 [| 2; n |]) [ Suite.jacobi2d; Suite.wave2d ];
      check Suite.fdtd2d ~h:2 [| 2; n |];
      check Suite.heat3d ~h:1 [| 2; 2; n |];
      List.iter
        (fun (prog : Hextile_ir.Stencil.t) ->
          let c = Cone.of_deps (Dep.analyze prog) ~dim:0 in
          List.iter (fun h -> check prog ~h [| max n (Hexagon.min_w0 ~h c) |]) [ 0; 3 ])
        [ Suite.heat1d; Suite.contrived ])
    widths

(* A two-statement program: [h] must satisfy [(h + 1) mod 2 = 0], and the
   radius-2 read of [a] widens the dependence cone so small [w0] fall
   below the convexity minimum. Both kinds of skipped grid entry are
   counted in the report and as Obs counters. *)
let test_skipped_counted () =
  let src =
    {|float a[N];
float b[N];
for (t = 0; t < T; t++) {
  for (i = 2; i < N - 2; i++)
    b[i] = 0.5f * (a[i-2] + a[i+2]);
  for (i = 2; i < N - 2; i++)
    a[i] = 0.5f * (b[i-1] + b[i+1]);
}
|}
  in
  let prog =
    match Hextile_frontend.Front.parse_string ~name:"two" src with
    | Ok p -> p
    | Error m -> Alcotest.failf "parse: %s" m
  in
  Alcotest.(check int) "two statements" 2 (List.length prog.stmts);
  let c = Cone.of_deps (Dep.analyze prog) ~dim:0 in
  Alcotest.(check (list int)) "min_w0 at h = 1, 3, 5" [ 1; 1; 1 ]
    (List.map (fun h -> Hexagon.min_w0 ~h c) [ 1; 3; 5 ]);
  let module Obs = Hextile_obs.Obs in
  let was = Obs.enabled () in
  Obs.reset ();
  Obs.enable ();
  let _, report =
    Fun.protect
      ~finally:(fun () -> if not was then Obs.disable ())
      (fun () ->
        Tile_size.select_with_report prog ~h_candidates:[ 0; 1; 2; 3; 4; 5 ]
          ~w0_candidates:[ 0; 1; 2; 4 ] ~wi_candidates:[] ~shared_mem_floats:4096 ())
  in
  Alcotest.(check int) "h_residue" 3 report.skipped.h_residue;
  Alcotest.(check int) "w0_convexity" 3 report.skipped.w0_convexity;
  Alcotest.(check int) "candidates" 9 report.candidates;
  Alcotest.(check int) "Obs h_residue" 3 (Obs.counter "tiling.tilesize_skipped.h_residue");
  Alcotest.(check int) "Obs w0_convexity" 3
    (Obs.counter "tiling.tilesize_skipped.w0_convexity");
  Obs.reset ()

(* the paper's closed form agrees with exact enumeration on every 3D
   benchmark across a grid of sizes (they all have δ0 = δ1 = 1) *)
let test_formula_3d_matches_enumeration () =
  List.iter
    (fun (prog : Hextile_ir.Stencil.t) ->
      List.iter
        (fun h ->
          List.iter
            (fun w0 ->
              List.iter
                (fun w1 ->
                  List.iter
                    (fun w2 ->
                      let t = Hybrid.make prog ~h ~w:[| w0; w1; w2 |] in
                      let s = Tile_size.tile_stats t in
                      Alcotest.(check int)
                        (Fmt.str "%s h=%d w=(%d,%d,%d)" prog.name h w0 w1 w2)
                        (Tile_size.iterations_formula_3d ~h ~w0 ~w1 ~w2)
                        s.iterations)
                    [ 4; 8 ])
                [ 2; 3 ])
            [ 2; 5 ])
        [ 1; 2 ])
    (List.filter
       (fun (p : Hextile_ir.Stencil.t) -> Hextile_ir.Stencil.spatial_dims p = 3)
       Suite.table3)

(* ---- tile model: the dense screen against the hash-table reference ---- *)

(* Every candidate of the default search spec (alignment ignored: the
   screen sees all of them) of generated programs and of the builtins:
   the dense screen returns the oracle's record. *)
let test_estimate_matches_ref () =
  let rng = Rng.create 0xe57 in
  let progs =
    Suite.all @ List.init 60 (fun i -> fst (Hextile_check.Gen.generate (Rng.derive rng i)))
  in
  let compared = ref 0 in
  List.iter
    (fun (prog : Hextile_ir.Stencil.t) ->
      let spec = Tile_size.default_spec prog in
      let cx = Tile_model.ctx prog in
      List.iter
        (fun h ->
          List.iter
            (fun w0 ->
              match Tile_model.hslice cx ~h ~w0 with
              | exception Invalid_argument _ -> ()
              | hs ->
                  List.iter
                    (fun wis ->
                      let w = Array.of_list (w0 :: wis) in
                      incr compared;
                      if Tile_model.estimate hs ~w <> Tile_model_ref.estimate hs ~w then
                        Alcotest.failf "%s h=%d w=(%a): estimate differs from the reference"
                          prog.name h
                          Fmt.(array ~sep:comma int)
                          w)
                    (Tile_size_ref.cartesian spec.wi_candidates))
            spec.w0_candidates)
        (List.filter (fun h -> (h + 1) mod cx.k = 0) spec.h_candidates))
    progs;
  Alcotest.(check bool) "candidates compared" true (!compared >= 1000)

(* ---- classical tile windows (analytic mode's class check) ------------- *)

(* Window counts and coverage against dense tile enumeration, on shapes
   chosen to leave remainders: extents not divisible by the width,
   degenerate one-tile grids and 3D-style short extents. *)
let test_tiles_coverage_match_dense () =
  List.iter
    (fun (num, den, w) ->
      let c = Classical.make ~delta1:(Rat.make num den) ~w in
      List.iter
        (fun (lo, hi) ->
          for u_max = 0 to 6 do
            for u = 0 to u_max do
              let lbl =
                Fmt.str "δ1=%d/%d w=%d [%d,%d] u=%d/%d" num den w lo hi u u_max
              in
              Alcotest.(check int)
                (lbl ^ ": tiles_nonempty")
                (Tile_model_ref.tiles_nonempty c ~u_max ~u ~lo ~hi)
                (Tile_model.tiles_nonempty c ~u ~lo ~hi);
              Alcotest.(check int)
                (lbl ^ ": coverage")
                (Tile_model_ref.coverage c ~u_max ~u ~lo ~hi)
                (Tile_model.coverage ~lo ~hi)
            done
          done)
        [
          (0, 6);  (* 7 points: not divisible by w=2,3,4,5 *)
          (0, 0);  (* degenerate single point *)
          (2, 2);
          (0, 9);  (* 3D-style short extent with remainder *)
          (1, 7);
          (3, 1);  (* empty interval *)
        ])
    [ (0, 1, 3); (1, 1, 2); (1, 2, 4); (2, 1, 5); (3, 2, 1) ]

let suite =
  [
    Alcotest.test_case "min_w0 (condition (1))" `Quick test_min_w0_paper_example;
    Alcotest.test_case "Figure 4 shape" `Quick test_figure4_shape;
    Alcotest.test_case "hexagon validation" `Quick test_make_validation;
    QCheck_alcotest.to_alcotest prop_row_table_matches_poly;
    QCheck_alcotest.to_alcotest prop_count_identical;
    QCheck_alcotest.to_alcotest prop_partition;
    QCheck_alcotest.to_alcotest prop_hex_legality;
    QCheck_alcotest.to_alcotest prop_tile_points_roundtrip;
    QCheck_alcotest.to_alcotest prop_qmap_matches;
    Alcotest.test_case "classical roundtrip" `Quick test_classical_roundtrip;
    QCheck_alcotest.to_alcotest prop_classical_monotone;
    Alcotest.test_case "classical validation" `Quick test_classical_validation;
    Alcotest.test_case "classical tile_range" `Quick test_classical_tile_range;
    Alcotest.test_case "hybrid legality (all benchmarks)" `Slow test_hybrid_legality_all;
    Alcotest.test_case "hybrid h+1 multiple of k" `Quick test_hybrid_h_multiple;
    Alcotest.test_case "hybrid width count" `Quick test_hybrid_wrong_width_count;
    Alcotest.test_case "hybrid coords roundtrip" `Quick test_hybrid_coords_roundtrip;
    Alcotest.test_case "hybrid vector order" `Quick test_hybrid_vector_order;
    Alcotest.test_case "instance_u helpers" `Quick test_instance_u;
    Alcotest.test_case "tile stats = Sec 3.7 formula" `Quick test_tile_stats_formula;
    Alcotest.test_case "tile stats 2D" `Quick test_tile_stats_2d;
    Alcotest.test_case "tile size selection" `Quick test_select;
    Alcotest.test_case "selection warp alignment" `Quick test_select_alignment;
    Alcotest.test_case "selection infeasible budget" `Quick test_select_infeasible;
    Alcotest.test_case "selection deterministic" `Quick test_select_deterministic;
    Alcotest.test_case "selection ratio recomputed" `Quick
      test_select_ratio_recomputed;
    Alcotest.test_case "renders" `Quick test_render;
    QCheck_alcotest.to_alcotest prop_hybrid_legality_random_sizes;
    Alcotest.test_case "legality period check = full enumeration" `Quick
      test_legality_matches_oracle;
    Alcotest.test_case "paper's eq. (3) shift rejected (asymmetric cones)" `Quick
      test_eq3_shift_rejected;
    Alcotest.test_case "run legality check rejects mutated schedules" `Quick
      test_run_legality_mutants;
    Alcotest.test_case "diamond count variability (Sec 5)" `Quick test_diamond_counts;
    Alcotest.test_case "diamond tile points" `Quick test_diamond_tile_points;
    Alcotest.test_case "diamond wavefront legality" `Quick test_diamond_wavefront;
    QCheck_alcotest.to_alcotest prop_diamond_partition;
    QCheck_alcotest.to_alcotest prop_tile_poly_matches_points;
    Alcotest.test_case "staged select = exhaustive (Table 3)" `Slow
      test_staged_matches_exhaustive_table3;
    Alcotest.test_case "staged select = exhaustive (fuzzed)" `Slow
      test_staged_matches_exhaustive_fuzzed;
    Alcotest.test_case "dense stats = reference (all benchmarks)" `Quick
      test_dense_stats_match_ref;
    QCheck_alcotest.to_alcotest prop_dense_stats_match_ref_random;
    Alcotest.test_case "stats = reference (generated programs)" `Quick
      test_stats_match_ref_generated;
    Alcotest.test_case "stats = reference (word-edge widths)" `Quick
      test_stats_match_ref_word_edges;
    Alcotest.test_case "skipped grid entries counted" `Quick test_skipped_counted;
    Alcotest.test_case "3D iteration formula = enumeration" `Quick
      test_formula_3d_matches_enumeration;
    Alcotest.test_case "tiles/coverage closed forms = dense" `Quick
      test_tiles_coverage_match_dense;
    Alcotest.test_case "tile model estimate = hash-table reference" `Quick
      test_estimate_matches_ref;
  ]
