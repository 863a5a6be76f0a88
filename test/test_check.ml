open Hextile_ir
open Hextile_gpusim
open Hextile_schemes
module Check = Hextile_check
module Suite = Hextile_stencils.Suite

let dev = Device.gtx470
let envf env p = List.assoc p env

let contains ~sub s =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

(* ---- PRNG ------------------------------------------------------------- *)

let test_rng_determinism () =
  let seq rng = List.init 20 (fun _ -> Check.Rng.int rng 1000) in
  Alcotest.(check (list int))
    "same seed, same stream"
    (seq (Check.Rng.create 7))
    (seq (Check.Rng.create 7));
  Alcotest.(check bool)
    "different seeds differ" false
    (seq (Check.Rng.create 7) = seq (Check.Rng.create 8));
  (* derive: independent of how far the parent has advanced *)
  let a = Check.Rng.create 7 in
  let b = Check.Rng.create 7 in
  ignore (seq a);
  Alcotest.(check (list int))
    "derive ignores parent position"
    (seq (Check.Rng.derive a 3))
    (seq (Check.Rng.derive b 3))

let test_rng_bounds () =
  let rng = Check.Rng.create 1 in
  for _ = 1 to 1000 do
    let v = Check.Rng.int rng 7 in
    Alcotest.(check bool) "int in [0,7)" true (v >= 0 && v < 7);
    let r = Check.Rng.in_range rng 3 9 in
    Alcotest.(check bool) "in_range inclusive" true (r >= 3 && r <= 9);
    let f = Check.Rng.float rng 2.0 in
    Alcotest.(check bool) "float in [0,2)" true (f >= 0.0 && f < 2.0)
  done

(* ---- generator -------------------------------------------------------- *)

let test_gen_valid () =
  let rng = Check.Rng.create 123 in
  for i = 0 to 49 do
    let prog, env = Check.Gen.generate (Check.Rng.derive rng i) in
    (match Stencil.validate prog with
    | Ok () -> ()
    | Error m -> Alcotest.failf "iteration %d: validate: %s" i m);
    match Analysis.bounds_check prog (envf env) with
    | Ok () -> ()
    | Error m -> Alcotest.failf "iteration %d: bounds: %s" i m
  done

let test_gen_deterministic () =
  let one () = Check.Gen.generate (Check.Rng.create 99) in
  let p1, e1 = one () and p2, e2 = one () in
  Alcotest.(check bool) "same program" true (Check.Pretty.equal_program p1 p2);
  Alcotest.(check (list (pair string int))) "same valuation" e1 e2

let test_flip_offset () =
  let rng = Check.Rng.create 5 in
  let flipped = ref 0 in
  for i = 0 to 29 do
    let prog, env = Check.Gen.generate (Check.Rng.derive rng i) in
    match Check.Gen.flip_offset prog with
    | None -> ()
    | Some prog' ->
        incr flipped;
        Alcotest.(check bool)
          "mutant differs" false
          (Check.Pretty.equal_program prog prog');
        (match Stencil.validate prog' with
        | Ok () -> ()
        | Error m -> Alcotest.failf "iteration %d: mutant invalid: %s" i m);
        (match Analysis.bounds_check prog' (envf env) with
        | Ok () -> ()
        | Error m ->
            Alcotest.failf "iteration %d: mutant out of bounds: %s" i m)
  done;
  Alcotest.(check bool) "most programs have an offset to flip" true
    (!flipped > 15)

(* The write-translating variant: every statement writes a shifted cell,
   the program still validates and stays in bounds, its source round-trips,
   and every scheme agrees with the interpreter on it. *)
let test_translate_writes () =
  let rng = Check.Rng.create 77 in
  for i = 0 to 29 do
    let prog, env = Check.Gen.generate (Check.Rng.derive rng i) in
    let prog' = Check.Gen.translate_writes prog in
    List.iter
      (fun (s : Stencil.stmt) ->
        if Array.for_all (fun o -> o = 0) s.write.offsets then
          Alcotest.failf "iteration %d: %s still writes at offset 0" i s.sname)
      prog'.stmts;
    (match Stencil.validate prog' with
    | Ok () -> ()
    | Error m -> Alcotest.failf "iteration %d: invalid: %s" i m);
    (match Analysis.bounds_check prog' (envf env) with
    | Ok () -> ()
    | Error m -> Alcotest.failf "iteration %d: out of bounds: %s" i m);
    let src = Check.Pretty.to_source prog' in
    (match Hextile_frontend.Front.parse_string ~name:"gen" src with
    | Ok parsed when Check.Pretty.equal_program prog' parsed -> ()
    | Ok _ -> Alcotest.failf "iteration %d: round-trip not structural:\n%s" i src
    | Error m -> Alcotest.failf "iteration %d: reparse failed: %s\n%s" i m src);
    match Check.Oracle.check prog' env dev with
    | Ok [] -> ()
    | Ok fs ->
        Alcotest.failf "iteration %d: %a\n%s" i
          Fmt.(list ~sep:(any "; ") Check.Oracle.pp_failure)
          fs src
    | Error m -> Alcotest.failf "iteration %d: %s" i m
  done

let test_roundtrip_generated () =
  let rng = Check.Rng.create 321 in
  for i = 0 to 29 do
    let prog, _ = Check.Gen.generate (Check.Rng.derive rng i) in
    let src = Check.Pretty.to_source prog in
    match Hextile_frontend.Front.parse_string ~name:"gen" src with
    | Error m -> Alcotest.failf "iteration %d: reparse failed: %s\n%s" i m src
    | Ok parsed ->
        if not (Check.Pretty.equal_program prog parsed) then
          Alcotest.failf "iteration %d: round-trip not structural:\n%s" i src
  done

(* ---- the shared out-of-domain convention ------------------------------ *)

(* A 1D statement reading A[i-1] from i = 0: out of the array domain. The
   convention (Analysis.bounds_check) is that such programs are rejected
   up front — identically by the interpreter and by the scheme executors,
   so a differential run can never diverge on boundary semantics. *)
let oob_prog =
  let n = Affp.param "N" in
  {
    Stencil.name = "oob";
    params = [ "N"; "T" ];
    steps = Affp.param "T";
    arrays = [ { Stencil.aname = "A"; extents = [| n |]; fold = Some 2 } ];
    stmts =
      [
        {
          Stencil.sname = "S0";
          lo = [| Affp.const 0 |];
          hi = [| Affp.add_const n (-1) |];
          write = { Stencil.array = "A"; time_off = 1; offsets = [| 0 |] };
          rhs = Read { Stencil.array = "A"; time_off = 0; offsets = [| -1 |] };
        };
      ];
  }

let test_oob_convention () =
  let env p = List.assoc p [ ("N", 8); ("T", 2) ] in
  (match Analysis.bounds_check oob_prog env with
  | Ok () -> Alcotest.fail "bounds_check accepted an out-of-domain read"
  | Error m ->
      Alcotest.(check bool) "message names the overflow" true
        (contains ~sub:"out of bounds" m));
  let raises_oob name f =
    match f () with
    | _ -> Alcotest.failf "%s accepted an out-of-domain read" name
    | exception Invalid_argument m ->
        Alcotest.(check bool)
          (name ^ " rejects with the shared message")
          true
          (contains ~sub:"out of bounds" m)
  in
  raises_oob "Interp.run" (fun () -> Interp.run oob_prog env);
  raises_oob "Common.make_ctx" (fun () -> Common.make_ctx oob_prog env dev)

(* ---- oracle ----------------------------------------------------------- *)

let test_oracle_clean_generated () =
  let cfg = { Check.Fuzz.default_config with seed = 5; count = 8 } in
  let s = Check.Fuzz.run cfg dev in
  Alcotest.(check int) "no failures" 0 s.failed;
  Alcotest.(check int) "all ran" 8 s.total;
  Alcotest.(check bool) "exit criterion" true (Check.Fuzz.ok cfg s)

let test_oracle_clean_suite () =
  List.iter
    (fun (prog, env) ->
      match Check.Oracle.check prog env dev with
      | Error m -> Alcotest.failf "%s: %s" prog.Stencil.name m
      | Ok [] -> ()
      | Ok fs ->
          Alcotest.failf "%s: %a" prog.Stencil.name
            Fmt.(list ~sep:(any "; ") Check.Oracle.pp_failure)
            fs)
    [
      (Suite.heat1d, [ ("N", 40); ("T", 4) ]);
      (Suite.jacobi2d, [ ("N", 12); ("T", 3) ]);
      (Suite.fdtd2d, [ ("N", 12); ("T", 3) ]);
    ]

let test_oracle_catches_mutant () =
  (* the harness's own acceptance check: an injected flipped offset must
     be caught by the differential run and shrink to <= 2 statements *)
  let cfg =
    {
      Check.Fuzz.default_config with
      seed = 42;
      count = 4;
      mutate = Some "hybrid";
      shrink = true;
    }
  in
  let s = Check.Fuzz.run cfg dev in
  Alcotest.(check bool) "at least one mutant caught" true (s.caught >= 1);
  Alcotest.(check int) "no mutant missed" 0 s.missed;
  Alcotest.(check bool) "exit criterion" true (Check.Fuzz.ok cfg s);
  List.iter
    (fun (c : Check.Fuzz.failure_case) ->
      Alcotest.(check bool) "shrunk to <= 2 statements" true
        (List.length c.f_prog.Stencil.stmts <= 2);
      Alcotest.(check bool) "failure is on the mutated scheme" true
        (List.for_all
           (fun f -> Check.Oracle.scheme_of_failure f = "hybrid")
           c.f_failures))
    s.cases

let test_oracle_scheme_filter () =
  let prog, env = Check.Gen.generate (Check.Rng.create 11) in
  (match Check.Oracle.check ~schemes:[ "par4all" ] prog env dev with
  | Ok [] -> ()
  | Ok fs ->
      Alcotest.failf "%a"
        Fmt.(list ~sep:(any "; ") Check.Oracle.pp_failure)
        fs
  | Error m -> Alcotest.fail m);
  match Check.Oracle.check ~schemes:[ "nonesuch" ] prog env dev with
  | Error m ->
      Alcotest.(check bool) "unknown scheme reported" true
        (contains ~sub:"nonesuch" m)
  | Ok _ -> Alcotest.fail "unknown scheme accepted"

(* ---- shrinking -------------------------------------------------------- *)

let test_shrink_fixpoint () =
  let prog, env = Check.Gen.generate (Check.Rng.create 77) in
  (* a predicate nothing satisfies: the input comes back unchanged *)
  let p, e =
    Check.Shrink.shrink ~still_fails:(fun _ _ -> false) prog env
  in
  Alcotest.(check bool) "no shrink without failure" true
    (Check.Pretty.equal_program p prog && e = env);
  (* an always-true predicate shrinks to something small but still valid *)
  let p, e = Check.Shrink.shrink ~still_fails:(fun _ _ -> true) prog env in
  Alcotest.(check bool) "result valid" true (Check.Shrink.valid p e);
  Alcotest.(check int) "single statement" 1 (List.length p.Stencil.stmts);
  Alcotest.(check bool) "tiny valuation" true
    (List.for_all (fun (_, v) -> v <= 2) e)

let test_shrink_candidates_smaller () =
  let measure (p : Stencil.t) env =
    let rec nodes (e : Stencil.fexpr) =
      match e with
      | Read _ | Fconst _ -> 1
      | Neg x -> 1 + nodes x
      | Bin (_, l, r) -> 1 + nodes l + nodes r
    in
    let offs =
      List.fold_left
        (fun acc (s : Stencil.stmt) ->
          List.fold_left
            (fun acc (a : Stencil.access) ->
              Array.fold_left (fun acc o -> acc + abs o) acc a.offsets)
            acc (Stencil.reads s))
        0 p.stmts
    in
    (1000 * List.length p.stmts)
    + List.fold_left (fun acc (s : Stencil.stmt) -> acc + nodes s.rhs) 0 p.stmts
    + offs
    + List.length p.arrays
    + List.fold_left (fun acc (_, v) -> acc + v) 0 env
  in
  let rng = Check.Rng.create 13 in
  for i = 0 to 9 do
    let prog, env = Check.Gen.generate (Check.Rng.derive rng i) in
    let m0 = measure prog env in
    List.iter
      (fun (p, e) ->
        Alcotest.(check bool) "candidate strictly smaller" true
          (measure p e < m0))
      (Check.Shrink.candidates prog env)
  done

(* ---- counterexample files --------------------------------------------- *)

let test_counterexample_roundtrip () =
  let prog, env = Check.Gen.generate (Check.Rng.create 55) in
  let src =
    Check.Fuzz.counterexample_source ~mutate:"hybrid" ~seed:9 ~index:3 prog env
      []
  in
  Alcotest.(check bool) "records the replay line" true
    (contains ~sub:"--replay" src && contains ~sub:"--mutate hybrid" src);
  match Hextile_frontend.Front.parse_string ~name:"cex" src with
  | Error m -> Alcotest.failf "counterexample does not reparse: %s" m
  | Ok parsed ->
      Alcotest.(check bool) "reparses to the same program" true
        (Check.Pretty.equal_program prog parsed)

let suite =
  [
    Alcotest.test_case "rng determinism / derive" `Quick test_rng_determinism;
    Alcotest.test_case "rng bounds" `Quick test_rng_bounds;
    Alcotest.test_case "generated programs valid" `Quick test_gen_valid;
    Alcotest.test_case "generation deterministic" `Quick test_gen_deterministic;
    Alcotest.test_case "offset flip mutants" `Quick test_flip_offset;
    Alcotest.test_case "write-translated variants" `Quick test_translate_writes;
    Alcotest.test_case "generated programs round-trip" `Quick
      test_roundtrip_generated;
    Alcotest.test_case "shared out-of-domain convention" `Quick
      test_oob_convention;
    Alcotest.test_case "oracle clean on generated programs" `Quick
      test_oracle_clean_generated;
    Alcotest.test_case "oracle clean on the suite" `Quick
      test_oracle_clean_suite;
    Alcotest.test_case "oracle catches + shrinks mutants" `Quick
      test_oracle_catches_mutant;
    Alcotest.test_case "oracle scheme filter" `Quick test_oracle_scheme_filter;
    Alcotest.test_case "shrink fixpoint" `Quick test_shrink_fixpoint;
    Alcotest.test_case "shrink candidates strictly smaller" `Quick
      test_shrink_candidates_smaller;
    Alcotest.test_case "counterexample file round-trip" `Quick
      test_counterexample_roundtrip;
  ]
