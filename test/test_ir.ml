open Hextile_ir
open Hextile_stencils

let env_of l p = List.assoc p l
let test_env prog = env_of (Suite.test_params prog)

(* In-place Gauss-Seidel sweeps: each statement reads neighbours of its
   own write cell in the written storage. [Interp.run] sweeps them in
   row-major order; [Stencil.validate] rejects them, because every
   scheme runs one statement's instances of a step in parallel. *)
let gauss_seidel ~dims =
  let open Stencil in
  let n = Affp.param "N" in
  let rd offsets = Read { array = "A"; time_off = 0; offsets } in
  let off d k = Array.init dims (fun i -> if i = d then k else 0) in
  let neigh =
    List.concat_map (fun d -> [ rd (off d (-1)); rd (off d 1) ]) (List.init dims Fun.id)
  in
  let sum = List.fold_left (fun a r -> Bin (Add, a, r)) (rd (Array.make dims 0)) neigh in
  {
    name = Fmt.str "gauss_seidel%dd" dims;
    params = [ "N"; "T" ];
    steps = Affp.param "T";
    arrays = [ { aname = "A"; extents = Array.make dims n; fold = None } ];
    stmts =
      [
        {
          sname = "S0";
          lo = Array.make dims (Affp.const 1);
          hi = Array.make dims (Affp.add n (Affp.const (-2)));
          write = { array = "A"; time_off = 0; offsets = Array.make dims 0 };
          rhs = Bin (Mul, Fconst (1.0 /. float_of_int (1 + (2 * dims))), sum);
        };
      ];
  }


let test_affp () =
  let e = Affp.(add_const (sub (scale 2 (param "N")) (param "T")) 3) in
  Alcotest.(check int) "eval 2N - T + 3" 40 (Affp.eval e (env_of [ ("N", 20); ("T", 3) ]));
  Alcotest.(check string) "pp" "2*N - T + 3" (Affp.to_string e);
  Alcotest.(check bool) "equal" true (Affp.equal e e);
  Alcotest.(check (option int)) "is_const" (Some 5) (Affp.is_const (Affp.const 5));
  Alcotest.(check (option int)) "is_const param" None (Affp.is_const (Affp.param "N"));
  Alcotest.(check (list string)) "params" [ "N"; "T" ] (Affp.params e);
  (* x - x cancels *)
  let z = Affp.(sub (param "N") (param "N")) in
  Alcotest.(check (option int)) "cancellation" (Some 0) (Affp.is_const z)

let test_validate_all () =
  List.iter
    (fun (p : Stencil.t) ->
      match Stencil.validate p with
      | Ok () -> ()
      | Error m -> Alcotest.failf "%s invalid: %s" p.name m)
    Suite.all

let test_validate_rejects () =
  let bad =
    {
      Suite.heat1d with
      Stencil.stmts =
        List.map
          (fun (s : Stencil.stmt) ->
            { s with write = { s.write with array = "nonexistent" } })
          Suite.heat1d.stmts;
    }
  in
  (match Stencil.validate bad with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "expected unknown-array error");
  let empty = { Suite.heat1d with stmts = [] } in
  match Stencil.validate empty with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "expected no-statements error"

(* Table 3 row check: loads and flops per statement. *)
let test_table3_characteristics () =
  let expect =
    [
      ("laplacian2d", [ (5, 6) ]);
      ("heat2d", [ (9, 9) ]);
      ("gradient2d", [ (5, 15) ]);
      ("fdtd2d", [ (3, 3); (3, 3); (5, 5) ]);
      ("laplacian3d", [ (7, 8) ]);
      ("heat3d", [ (27, 27) ]);
      ("gradient3d", [ (7, 20) ]);
    ]
  in
  List.iter
    (fun (name, rows) ->
      let c = Analysis.characterize (Suite.find name) in
      let got = List.map (fun (r : Analysis.stmt_chars) -> (r.loads, r.flops)) c.per_stmt in
      Alcotest.(check (list (pair int int))) name rows got)
    expect

let test_jacobi_chars () =
  let c = Analysis.characterize Suite.jacobi2d in
  Alcotest.(check (list (pair int int)))
    "jacobi2d 5/5"
    [ (5, 5) ]
    (List.map (fun (r : Analysis.stmt_chars) -> (r.loads, r.flops)) c.per_stmt)

let test_data_size_strings () =
  Alcotest.(check string) "2d" "N^2" (Analysis.data_size_string Suite.heat2d);
  Alcotest.(check string) "3d" "N^3" (Analysis.data_size_string Suite.heat3d)

let test_grid_alloc () =
  let prog = Suite.heat1d in
  let env = test_env prog in
  let tbl = Grid.alloc prog env in
  let g = Grid.find tbl "A" in
  Alcotest.(check (array int)) "folded dims" [| 2; 30 |] g.dims;
  Alcotest.(check int) "size" 60 (Array.length g.data);
  (* determinism *)
  let tbl2 = Grid.alloc prog env in
  Alcotest.(check bool) "deterministic init" true (Grid.equal g (Grid.find tbl2 "A"));
  (* values in [0,1) *)
  Array.iter
    (fun v -> Alcotest.(check bool) "init in range" true (v >= 0.0 && v < 1.0))
    g.data

let test_grid_bounds () =
  let tbl = Grid.alloc Suite.heat1d (test_env Suite.heat1d) in
  let g = Grid.find tbl "A" in
  Alcotest.(check bool) "oob raises" true
    (match Grid.get g [| 0; 30 |] with
    | exception Invalid_argument _ -> true
    | _ -> false);
  Alcotest.(check bool) "wrong arity raises" true
    (match Grid.get g [| 0 |] with exception Invalid_argument _ -> true | _ -> false)

let test_grid_equal_short_circuit () =
  let tbl = Grid.alloc Suite.heat1d (test_env Suite.heat1d) in
  let g = Grid.find tbl "A" in
  let h = { g with data = Array.copy g.data } in
  Alcotest.(check bool) "copies equal" true (Grid.equal g h);
  h.data.(0) <- h.data.(0) +. 1.0;
  Alcotest.(check bool) "first element differs" false (Grid.equal g h);
  Alcotest.(check bool) "eps absorbs the difference" true (Grid.equal ~eps:2.0 g h);
  Alcotest.(check bool) "length mismatch" false
    (Grid.equal g { g with data = Array.make 1 0.0; dims = [| 1 |] });
  (* a mismatch in the first element must stop the scan: comparing grids
     that differ at index 0 should not touch the remaining million
     elements, so it runs far faster than a full equal-grid scan *)
  let n = 1_000_000 in
  let mk v = { g with dims = [| n |]; data = Array.make n v } in
  let a = mk 0.5 and b = mk 0.5 in
  let diff = mk 0.5 in
  diff.data.(0) <- 1.0;
  let time k f =
    let t0 = Sys.time () in
    for _ = 1 to k do
      ignore (f ())
    done;
    Sys.time () -. t0
  in
  let full = time 20 (fun () -> Grid.equal a b) in
  let short = time 20 (fun () -> Grid.equal a diff) in
  Alcotest.(check bool) "early exit beats full scan" true
    (short < (full /. 5.0) +. 1e-4)

let test_grid_slot () =
  let tbl = Grid.alloc Suite.contrived (test_env Suite.contrived) in
  let g = Grid.find tbl "A" in
  Alcotest.(check int) "slot fold 3" 2 (Grid.slot g 5);
  Alcotest.(check int) "slot negative tau" 2 (Grid.slot g (-1))

(* Reference interpreter sanity: a constant-preserving stencil keeps a
   constant field constant (heat1d weights sum to 0.99 — use jacobi which
   sums to 1.0). *)
let test_interp_fixpoint () =
  let prog = Suite.jacobi2d in
  let env = test_env prog in
  let tbl = Grid.alloc prog env in
  let g = Grid.find tbl "A" in
  Array.fill g.data 0 (Array.length g.data) 1.0;
  let steps = Affp.eval prog.steps env in
  for t = 0 to steps - 1 do
    List.iter
      (fun (s : Stencil.stmt) ->
        let lo = Array.map (fun e -> Affp.eval e env) s.lo in
        let hi = Array.map (fun e -> Affp.eval e env) s.hi in
        let n = Affp.eval (Affp.param "N") env in
        ignore n;
        let rec iter d point =
          if d = Array.length lo then Hextile_oracle.Interp_ref.exec_instance tbl s ~t ~point
          else
            for x = lo.(d) to hi.(d) do
              point.(d) <- x;
              iter (d + 1) point
            done
        in
        iter 0 (Array.make (Array.length lo) 0))
      prog.stmts
  done;
  Array.iter
    (fun v ->
      Alcotest.(check bool) "close to 1.0" true (Float.abs (v -. 1.0) < 1e-4))
    g.data

let test_interp_runs () =
  List.iter
    (fun (p : Stencil.t) ->
      let env = test_env p in
      let tbl = Interp.run p env in
      Hashtbl.iter
        (fun name g ->
          let c = Grid.checksum g in
          if Float.is_nan c then Alcotest.failf "%s/%s produced NaN" p.name name)
        tbl)
    Suite.all

(* The row-compiled interpreter against the per-instance tree walker
   (test/oracle/interp_ref.ml): every grid equal bit for bit. *)
let check_oracle what prog env =
  Option.iter
    (Alcotest.failf "%s: compiled interpreter differs from the tree walker (%s)" what)
    (Hextile_oracle.Results.grids_difference (Interp.run prog env)
       (Hextile_oracle.Interp_ref.run prog env))

let test_interp_vs_oracle_suite () =
  let odd = function
    | 1 -> [ [ ("N", 31); ("T", 7) ]; [ ("N", 9); ("T", 4) ] ]
    | 2 -> [ [ ("N", 23); ("T", 5) ]; [ ("N", 13); ("T", 3) ] ]
    | _ -> [ [ ("N", 11); ("T", 3) ]; [ ("N", 7); ("T", 2) ] ]
  in
  (* in-place sweeps read cells their own row wrote a lane earlier *)
  let in_place = [ gauss_seidel ~dims:1; gauss_seidel ~dims:2 ] in
  List.iter
    (fun (p : Stencil.t) ->
      List.iter
        (fun params ->
          check_oracle
            (Fmt.str "%s %a" p.name Fmt.(list ~sep:comma (pair ~sep:(any "=") string int)) params)
            p (env_of params))
        (Suite.test_params p :: odd (Stencil.spatial_dims p)))
    (Suite.all @ in_place)

let test_interp_vs_oracle_generated () =
  let rng = Hextile_check.Rng.create 0x1e7e in
  for i = 0 to 59 do
    let prog, params = Hextile_check.Gen.generate (Hextile_check.Rng.derive rng i) in
    check_oracle (Fmt.str "generated #%d" i) prog (env_of params)
  done

let test_stencil_updates () =
  (* heat1d: T=10 steps, domain 1..28 → 28 points *)
  Alcotest.(check int) "heat1d updates" 280
    (Interp.stencil_updates Suite.heat1d (test_env Suite.heat1d));
  (* fdtd2d: 3 stmts × (N-2)^2 × T = 3 * 18^2 * 9 *)
  Alcotest.(check int) "fdtd2d updates" (3 * 18 * 18 * 9)
    (Interp.stencil_updates Suite.fdtd2d (test_env Suite.fdtd2d))

let test_footprint () =
  (* heat2d, N=20: folded A = 2*20*20 *)
  Alcotest.(check int) "heat2d footprint" 800
    (Analysis.footprint_floats Suite.heat2d (test_env Suite.heat2d));
  (* fdtd2d: 3 arrays of N^2 *)
  Alcotest.(check int) "fdtd2d footprint" 1200
    (Analysis.footprint_floats Suite.fdtd2d (test_env Suite.fdtd2d))

(* The shared out-of-domain convention: accesses must stay inside the
   declared extents for the whole domain — programs that do not are
   rejected up front (no clamping or wrapping anywhere), so the
   interpreter and every scheme executor agree on boundary semantics by
   construction. *)
let test_bounds_check () =
  List.iter
    (fun prog ->
      match Analysis.bounds_check prog (test_env prog) with
      | Ok () -> ()
      | Error m ->
          Alcotest.failf "%s rejected: %s" prog.Stencil.name m)
    Suite.all;
  (* heat1d with its margin removed reads A[i-1] at i = 0 *)
  let bad =
    {
      Suite.heat1d with
      Stencil.stmts =
        List.map
          (fun (s : Stencil.stmt) -> { s with lo = [| Affp.const 0 |] })
          Suite.heat1d.stmts;
    }
  in
  (match Analysis.bounds_check bad (test_env Suite.heat1d) with
  | Ok () -> Alcotest.fail "expected an out-of-bounds rejection"
  | Error m ->
      Alcotest.(check bool) "mentions the array and dim" true
        (let has sub =
           let n = String.length sub in
           let rec go i =
             i + n <= String.length m && (String.sub m i n = sub || go (i + 1))
           in
           go 0
         in
         has "out of bounds" && has "dim 0"));
  match Interp.run bad (test_env Suite.heat1d) with
  | _ -> Alcotest.fail "Interp.run accepted an out-of-domain read"
  | exception Invalid_argument _ -> ()

(* Empty domains (lo > hi) have no instances to read out of bounds:
   vacuously fine under any extents. *)
let test_bounds_check_empty_domain () =
  let empty =
    {
      Suite.heat1d with
      Stencil.stmts =
        List.map
          (fun (s : Stencil.stmt) ->
            { s with lo = [| Affp.const 5 |]; hi = [| Affp.const 1 |] })
          Suite.heat1d.stmts;
    }
  in
  match Analysis.bounds_check empty (test_env Suite.heat1d) with
  | Ok () -> ()
  | Error m -> Alcotest.failf "empty domain rejected: %s" m

let test_affp_pp_negative () =
  Alcotest.(check string) "leading negative" "-N + 3"
    (Affp.to_string (Affp.add_const (Affp.scale (-1) (Affp.param "N")) 3));
  Alcotest.(check string) "mixed" "2*M - N"
    (Affp.to_string
       (Affp.sub (Affp.scale 2 (Affp.param "M")) (Affp.param "N")));
  Alcotest.(check string) "const only" "-7" (Affp.to_string (Affp.const (-7)))

let test_stencil_pp () =
  let s = Fmt.str "%a" Stencil.pp Suite.contrived in
  List.iter
    (fun sub ->
      Alcotest.(check bool) sub true
        (let n = String.length sub in
         let rec go i =
           i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
         in
         go 0))
    [ "stencil contrived"; "fold 3"; "A⟨t+2⟩" ]

let suite =
  [
    Alcotest.test_case "affp" `Quick test_affp;
    Alcotest.test_case "all benchmarks validate" `Quick test_validate_all;
    Alcotest.test_case "validate rejects bad programs" `Quick test_validate_rejects;
    Alcotest.test_case "Table 3 loads/flops" `Quick test_table3_characteristics;
    Alcotest.test_case "jacobi 5/5" `Quick test_jacobi_chars;
    Alcotest.test_case "data size strings" `Quick test_data_size_strings;
    Alcotest.test_case "grid alloc" `Quick test_grid_alloc;
    Alcotest.test_case "grid bounds checks" `Quick test_grid_bounds;
    Alcotest.test_case "grid fold slots" `Quick test_grid_slot;
    Alcotest.test_case "grid equal short-circuits" `Quick
      test_grid_equal_short_circuit;
    Alcotest.test_case "interp fixpoint" `Quick test_interp_fixpoint;
    Alcotest.test_case "interp runs all benchmarks" `Quick test_interp_runs;
    Alcotest.test_case "interp = tree walker (suite, odd sizes)" `Quick
      test_interp_vs_oracle_suite;
    Alcotest.test_case "interp = tree walker (60 generated)" `Quick
      test_interp_vs_oracle_generated;
    Alcotest.test_case "stencil_updates" `Quick test_stencil_updates;
    Alcotest.test_case "footprint" `Quick test_footprint;
    Alcotest.test_case "bounds convention" `Quick test_bounds_check;
    Alcotest.test_case "bounds on empty domains" `Quick
      test_bounds_check_empty_domain;
    Alcotest.test_case "affp printing (negatives)" `Quick test_affp_pp_negative;
    Alcotest.test_case "stencil printing" `Quick test_stencil_pp;
  ]
