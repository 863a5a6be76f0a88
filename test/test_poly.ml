open Hextile_poly
open Hextile_util
module Obs = Hextile_obs.Obs

(* A small 2D triangle: 0 <= x, 0 <= y, x + y <= 4. *)
let triangle =
  let sp = Space.make [ "x"; "y" ] in
  Polyhedron.make sp
    [ Constr.ge [| 1; 0 |] 0; Constr.ge [| 0; 1 |] 0; Constr.ge [| -1; -1 |] 4 ]

let test_contains () =
  Alcotest.(check bool) "origin in" true (Polyhedron.contains triangle [| 0; 0 |]);
  Alcotest.(check bool) "(4,0) in" true (Polyhedron.contains triangle [| 4; 0 |]);
  Alcotest.(check bool) "(3,2) out" false (Polyhedron.contains triangle [| 3; 2 |]);
  Alcotest.(check bool) "(-1,0) out" false (Polyhedron.contains triangle [| -1; 0 |])

let test_count_triangle () =
  (* points with x,y >= 0, x+y <= 4: 15 *)
  Alcotest.(check int) "triangle count" 15 (Polyhedron.count triangle)

let test_enumerate_order () =
  let pts = Polyhedron.enumerate triangle in
  Alcotest.(check int) "count matches" 15 (List.length pts);
  let sorted = List.sort compare pts in
  Alcotest.(check bool) "lexicographic order" true (pts = sorted);
  List.iter
    (fun p -> Alcotest.(check bool) "each enumerated point in set" true (Polyhedron.contains triangle p))
    pts

let test_empty () =
  let sp = Space.make [ "x" ] in
  let p = Polyhedron.make sp [ Constr.ge [| 1 |] 0; Constr.ge [| -1 |] (-1) ] in
  (* x >= 0 and x <= -1 *)
  Alcotest.(check bool) "rationally empty" true (Polyhedron.is_empty_rational p);
  Alcotest.(check bool) "no integer point" false (Polyhedron.exists_point p);
  Alcotest.(check int) "count 0" 0 (Polyhedron.count p)

let test_integer_gap () =
  (* 2x = 1 has rational but no integer solutions. *)
  let sp = Space.make [ "x" ] in
  let p = Polyhedron.make sp [ Constr.eq [| 2 |] (-1) ] in
  Alcotest.(check bool) "not rationally empty" false (Polyhedron.is_empty_rational p);
  Alcotest.(check bool) "no integer point" false (Polyhedron.exists_point p)

let test_unbounded () =
  let sp = Space.make [ "x" ] in
  let p = Polyhedron.make sp [ Constr.ge [| 1 |] 0 ] in
  Alcotest.check_raises "enumerate raises" (Polyhedron.Unbounded "x") (fun () ->
      ignore (Polyhedron.count p))

let test_eliminate () =
  (* Project the triangle onto x: expect 0 <= x <= 4. *)
  let p = Polyhedron.eliminate_keep triangle 1 in
  let xs =
    List.filter (fun x -> Polyhedron.contains p [| x; 0 |]) (Intutil.range (-2) 6)
  in
  Alcotest.(check (list int)) "projection onto x" [ 0; 1; 2; 3; 4 ] xs

let test_equality_pivot () =
  (* x + y = 3, 0 <= x <= 3: project out y, x should stay 0..3 *)
  let sp = Space.make [ "x"; "y" ] in
  let p =
    Polyhedron.make sp
      [ Constr.eq [| 1; 1 |] (-3); Constr.ge [| 1; 0 |] 0; Constr.ge [| -1; 0 |] 3 ]
  in
  Alcotest.(check int) "4 points on segment" 4 (Polyhedron.count p);
  let q = Polyhedron.eliminate_keep p 1 in
  let xs = List.filter (fun x -> Polyhedron.contains q [| x; 0 |]) (Intutil.range (-2) 6) in
  Alcotest.(check (list int)) "projection" [ 0; 1; 2; 3 ] xs

let test_var_bounds () =
  match Polyhedron.var_bounds triangle 0 with
  | None -> Alcotest.fail "triangle not empty"
  | Some (lo, hi) ->
      Alcotest.(check (option (float 0.0)))
        "lo x" (Some 0.0)
        (Option.map Rat.to_float lo);
      Alcotest.(check (option (float 0.0)))
        "hi x" (Some 4.0)
        (Option.map Rat.to_float hi)

let test_lp () =
  (match Lp.maximize triangle ~obj:[| 1; 2 |] () with
  | Lp.Opt r -> Alcotest.(check (float 0.0)) "max x+2y" 8.0 (Rat.to_float r)
  | _ -> Alcotest.fail "expected optimum");
  (match Lp.minimize triangle ~obj:[| 1; 2 |] ~const:5 () with
  | Lp.Opt r -> Alcotest.(check (float 0.0)) "min x+2y+5" 5.0 (Rat.to_float r)
  | _ -> Alcotest.fail "expected optimum");
  let sp = Space.make [ "x" ] in
  let half = Polyhedron.make sp [ Constr.ge [| 2 |] (-1) ] in
  (* 2x - 1 >= 0 is integer-tightened to x >= 1 at construction time, so
     the LP infimum is 1 (not the rational 1/2). *)
  (match Lp.minimize half ~obj:[| 1 |] () with
  | Lp.Opt r -> Alcotest.(check bool) "min is 1 (tightened)" true (Rat.equal r Rat.one)
  | _ -> Alcotest.fail "expected optimum");
  (match Lp.maximize half ~obj:[| 1 |] () with
  | Lp.Unbounded -> ()
  | _ -> Alcotest.fail "expected unbounded");
  let empty = Polyhedron.add_constraints half [ Constr.ge [| -1 |] (-1) ] in
  match Lp.maximize empty ~obj:[| 1 |] () with
  | Lp.Empty -> ()
  | _ -> Alcotest.fail "expected empty"

let test_qaff () =
  let open Qaff in
  (* floor((2x + 3) / 4) at x = 5 -> floor(13/4) = 3 *)
  let e = fdiv (add (scale 2 (var 0)) (const 3)) 4 in
  Alcotest.(check int) "fdiv eval" 3 (eval e [| 5 |]);
  Alcotest.(check int) "fmod eval" 1 (eval (fmod (var 0) 4) [| 13 |]);
  Alcotest.(check int) "fmod negative" 3 (eval (fmod (var 0) 4) [| -13 |]);
  let s = simplify (add (const 0) (scale 1 (sub (var 1) (const 0)))) in
  Alcotest.(check int) "simplify keeps meaning" 7 (eval s [| 0; 7 |]);
  (match s with Var 1 -> () | _ -> Alcotest.fail "expected Var 1 after simplify");
  (match to_affine_in ~dim:2 (add (scale 3 (var 0)) (sub (var 1) (const 2))) with
  | Some (c, k) ->
      Alcotest.(check (array int)) "affine coeffs" [| 3; 1 |] c;
      Alcotest.(check int) "affine const" (-2) k
  | None -> Alcotest.fail "expected affine");
  Alcotest.(check bool) "fdiv/fmod not affine" true
    (to_affine_in ~dim:1 (fdiv (var 0) 2) = None);
  Alcotest.check_raises "fdiv nonpositive divisor"
    (Invalid_argument "Qaff.fdiv: divisor must be positive") (fun () ->
      ignore (fdiv (var 0) 0))

let test_qmap () =
  let dom = Space.make [ "t"; "s" ] in
  let rng = Space.make [ "T"; "S" ] in
  let m = Qmap.make ~dom ~rng [| Qaff.(fdiv (var 0) 4); Qaff.(fmod (var 1) 3) |] in
  Alcotest.(check (array int)) "apply" [| 2; 1 |] (Qmap.apply m [| 9; 7 |]);
  Alcotest.(check int) "lex order" (-1) (Qmap.compare_points m [| 3; 0 |] [| 4; 0 |])

(* Property: FM projection is sound & (integer-)complete on random bounded
   2D sets: x has an integer value in proj iff some (x,y) in set. *)
let arb_constrs =
  QCheck.(
    list_of_size (Gen.int_range 1 5)
      (triple (int_range (-3) 3) (int_range (-3) 3) (int_range (-6) 6)))

let box =
  [
    Constr.ge [| 1; 0 |] 8;
    Constr.ge [| -1; 0 |] 8;
    Constr.ge [| 0; 1 |] 8;
    Constr.ge [| 0; -1 |] 8;
  ]

let mk_random_poly cs =
  let sp = Space.make [ "x"; "y" ] in
  Polyhedron.make sp (box @ List.map (fun (a, b, c) -> Constr.ge [| a; b |] c) cs)

let prop_fm_sound =
  QCheck.Test.make ~name:"FM projection contains every witnessed x" ~count:300
    arb_constrs (fun cs ->
      let p = mk_random_poly cs in
      let proj = Polyhedron.eliminate_keep p 1 in
      List.for_all
        (fun pt -> Polyhedron.contains proj [| pt.(0); 0 |])
        (Polyhedron.enumerate p))

let prop_count_matches_brute_force =
  QCheck.Test.make ~name:"count = brute force over box" ~count:300 arb_constrs
    (fun cs ->
      let p = mk_random_poly cs in
      let brute = ref 0 in
      for x = -8 to 8 do
        for y = -8 to 8 do
          if Polyhedron.contains p [| x; y |] then incr brute
        done
      done;
      Polyhedron.count p = !brute)

(* FM projection agrees exactly with brute-force shadow computation when
   every constraint's coefficient on the eliminated variable is in
   {-1, 0, 1}: each combined pair then has a unit pivot, so the rational
   projection has no integer "dark shadow" gap. Random small 3D
   polyhedra, eliminating z. *)
let arb_unit_z_constrs =
  QCheck.(
    list_of_size (Gen.int_range 1 5)
      (quad (int_range (-3) 3) (int_range (-3) 3) (int_range (-1) 1)
         (int_range (-6) 6)))

let prop_fm_exact_unit_coeff =
  QCheck.Test.make
    ~name:"FM projection = brute-force shadow (unit z coefficients)"
    ~count:200 arb_unit_z_constrs (fun cs ->
      let sp = Space.make [ "x"; "y"; "z" ] in
      let b = 5 in
      let box3 =
        List.concat_map
          (fun d ->
            let pos = Array.init 3 (fun i -> if i = d then 1 else 0) in
            let neg = Array.init 3 (fun i -> if i = d then -1 else 0) in
            [ Constr.ge pos b; Constr.ge neg b ])
          [ 0; 1; 2 ]
      in
      let p =
        Polyhedron.make sp
          (box3 @ List.map (fun (a, c, z, k) -> Constr.ge [| a; c; z |] k) cs)
      in
      let proj = Polyhedron.eliminate_keep p 2 in
      let shadow_brute x y =
        let rec go z = z <= b && (Polyhedron.contains p [| x; y; z |] || go (z + 1)) in
        go (-b)
      in
      let ok = ref true in
      for x = -b to b do
        for y = -b to b do
          if Polyhedron.contains proj [| x; y; 0 |] <> shadow_brute x y then
            ok := false
        done
      done;
      !ok)

let prop_lp_bounds_enumeration =
  QCheck.Test.make ~name:"LP max dominates every integer point" ~count:200
    arb_constrs (fun cs ->
      let p = mk_random_poly cs in
      match Lp.maximize p ~obj:[| 2; -3 |] () with
      | Lp.Empty -> not (Polyhedron.exists_point p)
      | Lp.Unbounded -> false (* impossible: boxed *)
      | Lp.Opt m ->
          Polyhedron.fold_points p ~init:true ~f:(fun ok pt ->
              let v = (2 * pt.(0)) - (3 * pt.(1)) in
              ok && Rat.compare (Rat.of_int v) m <= 0))

(* random quasi-affine expression trees *)
let arb_qaff =
  let open QCheck.Gen in
  let rec gen depth =
    if depth = 0 then
      oneof [ map Qaff.const (int_range (-20) 20); map Qaff.var (int_range 0 2) ]
    else
      frequency
        [
          (2, map Qaff.const (int_range (-20) 20));
          (2, map Qaff.var (int_range 0 2));
          (3, map2 Qaff.add (gen (depth - 1)) (gen (depth - 1)));
          (2, map2 Qaff.sub (gen (depth - 1)) (gen (depth - 1)));
          (2, map2 (fun k e -> Qaff.scale k e) (int_range (-4) 4) (gen (depth - 1)));
          (2, map2 (fun e d -> Qaff.fdiv e d) (gen (depth - 1)) (int_range 1 7));
          (2, map2 (fun e d -> Qaff.fmod e d) (gen (depth - 1)) (int_range 1 7));
        ]
  in
  QCheck.make (gen 4)

let prop_qaff_simplify_preserves =
  QCheck.Test.make ~name:"Qaff.simplify preserves evaluation" ~count:500
    (QCheck.pair arb_qaff (QCheck.triple QCheck.small_signed_int QCheck.small_signed_int QCheck.small_signed_int))
    (fun (e, (x, y, z)) ->
      let env = [| x; y; z |] in
      Qaff.eval e env = Qaff.eval (Qaff.simplify e) env)

let prop_qaff_affine_roundtrip =
  QCheck.Test.make ~name:"to_affine_in agrees with eval" ~count:300
    (QCheck.pair arb_qaff (QCheck.triple QCheck.small_signed_int QCheck.small_signed_int QCheck.small_signed_int))
    (fun (e, (x, y, z)) ->
      match Qaff.to_affine_in ~dim:3 e with
      | None -> true
      | Some (coeffs, c) ->
          let env = [| x; y; z |] in
          Qaff.eval e env
          = (coeffs.(0) * x) + (coeffs.(1) * y) + (coeffs.(2) * z) + c)

let test_count_vs_enumerate () =
  let sp = Space.make [ "x"; "y" ] in
  let fixtures =
    [
      triangle;
      (* square with an equality: y = 2, 0 <= x <= 3 *)
      Polyhedron.make sp
        [ Constr.eq [| 0; 1 |] (-2); Constr.ge [| 1; 0 |] 0; Constr.ge [| -1; 0 |] 3 ];
      (* empty *)
      Polyhedron.make sp
        [ Constr.ge [| 1; 0 |] 0; Constr.ge [| -1; 0 |] (-1); Constr.ge [| 0; 1 |] 0;
          Constr.ge [| 0; -1 |] 4 ];
    ]
  in
  List.iter
    (fun p ->
      Alcotest.(check int) "count = |enumerate|"
        (List.length (Polyhedron.enumerate p))
        (Polyhedron.count p))
    fixtures

let suite =
  [
    Alcotest.test_case "contains" `Quick test_contains;
    Alcotest.test_case "count triangle" `Quick test_count_triangle;
    Alcotest.test_case "enumerate order" `Quick test_enumerate_order;
    Alcotest.test_case "empty set" `Quick test_empty;
    Alcotest.test_case "integer gap (2x=1)" `Quick test_integer_gap;
    Alcotest.test_case "unbounded detection" `Quick test_unbounded;
    Alcotest.test_case "FM elimination" `Quick test_eliminate;
    Alcotest.test_case "count vs enumerate" `Quick test_count_vs_enumerate;
    Alcotest.test_case "equality pivot" `Quick test_equality_pivot;
    Alcotest.test_case "var_bounds" `Quick test_var_bounds;
    Alcotest.test_case "LP optimize" `Quick test_lp;
    Alcotest.test_case "qaff eval/simplify" `Quick test_qaff;
    Alcotest.test_case "qmap" `Quick test_qmap;
    QCheck_alcotest.to_alcotest prop_fm_sound;
    QCheck_alcotest.to_alcotest prop_count_matches_brute_force;
    QCheck_alcotest.to_alcotest prop_fm_exact_unit_coeff;
    QCheck_alcotest.to_alcotest prop_lp_bounds_enumeration;
    QCheck_alcotest.to_alcotest prop_qaff_simplify_preserves;
    QCheck_alcotest.to_alcotest prop_qaff_affine_roundtrip;
  ]
