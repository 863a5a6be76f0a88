(* Tests for the lib/obs counter registry: disabled no-op behaviour,
   counter accumulation, fork absorption, and the JSON emitter/parser
   round trip. *)

module Obs = Hextile_obs.Obs
module Json = Hextile_obs.Json
module Counters = Hextile_gpusim.Counters

(* Every test starts from a clean, enabled registry and leaves it
   disabled so obs state never leaks into other suites. *)
let with_obs f () =
  Obs.reset ();
  Obs.enable ();
  Fun.protect ~finally:(fun () -> Obs.disable (); Obs.reset ()) f

let test_disabled_noop () =
  Obs.disable ();
  Obs.incr "ghost_counter";
  Obs.incr ~by:5 "ghost_counter";
  Alcotest.(check int) "counter untouched" 0 (Obs.counter "ghost_counter");
  Alcotest.(check (list (pair string int))) "nothing recorded" [] (Obs.counters ());
  Obs.enable ()

let test_counter_accumulation () =
  (* Obs counters accumulate by plain addition, exactly like
     Counters.add; a start/end snapshot diff must agree with
     Counters.diff on the same bumps. *)
  let sim_start = Counters.create () and sim_end = Counters.create () in
  sim_end.gld_inst <- 5;
  Obs.incr ~by:5 "gld_inst";
  sim_end.shared_load_requests <- 2;
  Obs.incr ~by:2 "shared_load_requests";
  sim_end.gld_inst <- sim_end.gld_inst + 3;
  Obs.incr ~by:3 "gld_inst";
  let delta = Counters.diff sim_end sim_start in
  Alcotest.(check int) "gld matches diff" delta.gld_inst (Obs.counter "gld_inst");
  Alcotest.(check int)
    "shared matches diff" delta.shared_load_requests
    (Obs.counter "shared_load_requests");
  let total = Counters.create () in
  Counters.add total delta;
  Counters.add total delta;
  Obs.incr ~by:(Obs.counter "gld_inst") "gld_inst";
  Alcotest.(check int) "double add matches" total.gld_inst
    (Obs.counter "gld_inst");
  Alcotest.(check (list (pair string int)))
    "counters sorted"
    [ ("gld_inst", 16); ("shared_load_requests", 2) ]
    (Obs.counters ())

let test_tape_engine_counters () =
  (* A hybrid run under observation must report the tape-engine counters
     (instructions executed, memoized blocks, replayed address-stream
     events), and they must survive the profile-JSON round trip. *)
  let prog = Hextile_stencils.Suite.jacobi2d in
  let env p = List.assoc p [ ("N", 64); ("T", 8) ] in
  let r =
    Hextile_schemes.Hybrid_exec.run prog env Hextile_gpusim.Device.gtx470
  in
  Alcotest.(check bool)
    "tape instructions executed" true
    (Obs.counter "sim.tape_instrs" > 0);
  Alcotest.(check int)
    "memoized blocks match result" r.blocks_memoized
    (Obs.counter "sim.blocks_memoized");
  Alcotest.(check bool)
    "address streams replayed" true
    (Obs.counter "sim.addr_streams_replayed" > 0);
  match Json.parse (Json.to_string (Obs.to_json ())) with
  | Error e -> Alcotest.failf "profile JSON did not parse: %s" e
  | Ok doc ->
      let counters = Option.get (Json.member "counters" doc) in
      List.iter
        (fun name ->
          Alcotest.(check (option int))
            (name ^ " survives the JSON round trip")
            (Some (Obs.counter name))
            (Option.bind (Json.member name counters) Json.to_int))
        [ "sim.tape_instrs"; "sim.blocks_memoized"; "sim.addr_streams_replayed" ]

(* The trace document holds its version and the counters, and nothing
   else: Obs keeps no clock, so there are no spans or events to emit. *)
let test_trace_json_roundtrip () =
  Obs.incr ~by:4 "poly.lp_solves";
  Obs.incr "sim.blocks_memoized";
  let s = Json.to_string (Obs.to_json ()) in
  match Json.parse s with
  | Error e -> Alcotest.failf "trace did not parse: %s" e
  | Ok doc ->
      Alcotest.(check (option int))
        "trace version" (Some 2)
        (Option.bind (Json.member "trace_version" doc) Json.to_int);
      let counters = Option.get (Json.member "counters" doc) in
      Alcotest.(check (option int))
        "counter survives" (Some 4)
        (Option.bind (Json.member "poly.lp_solves" counters) Json.to_int);
      Alcotest.(check (option int))
        "second counter survives" (Some 1)
        (Option.bind (Json.member "sim.blocks_memoized" counters) Json.to_int);
      (match doc with
      | Json.Obj kvs ->
          Alcotest.(check (list string))
            "only version and counters" [ "trace_version"; "counters" ]
            (List.map fst kvs)
      | _ -> Alcotest.fail "trace is not an object")

let test_absorb_after_reset () =
  (* A fork detached before a reset must still absorb cleanly into the
     fresh registry: its counters are plain deltas, so the merged totals
     are exactly the fork's own bumps. *)
  Obs.incr ~by:10 "pre.reset";
  Obs.fork_begin ();
  Obs.incr ~by:3 "fork.count";
  let f = Obs.fork_end () in
  Obs.reset ();
  Alcotest.(check int) "reset dropped main counters" 0 (Obs.counter "pre.reset");
  Obs.absorb f;
  Alcotest.(check int) "fork counters survive" 3 (Obs.counter "fork.count");
  Alcotest.(check (list (pair string int)))
    "only the fork's counters" [ ("fork.count", 3) ] (Obs.counters ());
  (* absorbing the same fork twice is plain re-addition, like
     Counters.add *)
  Obs.absorb f;
  Alcotest.(check int) "second absorb re-adds" 6 (Obs.counter "fork.count")

let test_absorb_order_determinism () =
  (* Counter totals are plain sums: forks absorbed in any order (as
     domains finish in any order) yield the same counters, and a second
     pass reproduces the first exactly. *)
  let mk i =
    Obs.fork_begin ();
    Obs.incr ~by:i "order.count";
    Obs.incr (Fmt.str "order.task%d" (i mod 3));
    Obs.fork_end ()
  in
  let totals order =
    Obs.reset ();
    let forks = Array.init 5 mk in
    List.iter (fun i -> Obs.absorb forks.(i)) order;
    Obs.counters ()
  in
  let first = totals [ 0; 1; 2; 3; 4 ] in
  Alcotest.(check (option int)) "all forks absorbed" (Some 10)
    (List.assoc_opt "order.count" first);
  Alcotest.(check (list (pair string int))) "reverse order, same counters" first
    (totals [ 4; 3; 2; 1; 0 ]);
  Alcotest.(check (list (pair string int))) "shuffled order, same counters" first
    (totals [ 2; 0; 4; 1; 3 ])

let test_json_parse_values () =
  let ok s = Result.get_ok (Json.parse s) in
  Alcotest.(check bool) "null" true (ok "null" = Json.Null);
  Alcotest.(check bool) "true" true (ok "true" = Json.Bool true);
  Alcotest.(check (option int)) "int" (Some (-42)) (Json.to_int (ok "-42"));
  Alcotest.(check (option (float 1e-9)))
    "float" (Some 2.5e3)
    (Json.to_float (ok "2.5e3"));
  Alcotest.(check (option string))
    "escapes" (Some "a\"b\\c\n\t\xe2\x82\xac")
    (Json.to_str (ok {|"a\"b\\c\n\t€"|}));
  Alcotest.(check bool) "nested" true
    (ok {| {"a": [1, {"b": null}], "c": ""} |}
    = Json.Obj
        [
          ("a", Json.List [ Json.Int 1; Json.Obj [ ("b", Json.Null) ] ]);
          ("c", Json.Str "");
        ]);
  List.iter
    (fun bad ->
      match Json.parse bad with
      | Ok _ -> Alcotest.failf "accepted malformed input %S" bad
      | Error _ -> ())
    [ ""; "{"; "[1,]"; "{\"a\" 1}"; "tru"; "\"unterminated"; "1 2"; "nan" ]

let test_json_roundtrip_values () =
  let docs =
    [
      Json.Null;
      Json.Obj [];
      Json.List [];
      Json.Obj
        [
          ("s", Json.Str "quote\" backslash\\ control\x01");
          ("neg", Json.Int (-7));
          ("f", Json.Float 0.1);
          ("inner", Json.List [ Json.Bool false; Json.Float 1e-20 ]);
        ];
    ]
  in
  List.iter
    (fun d ->
      List.iter
        (fun minify ->
          match Json.parse (Json.to_string ~minify d) with
          | Ok d' ->
              Alcotest.(check bool)
                (Fmt.str "round trip (minify=%b)" minify)
                true (d = d')
          | Error e -> Alcotest.failf "round trip failed: %s" e)
        [ false; true ])
    docs;
  (* Non-finite floats degrade to null rather than producing invalid
     JSON. *)
  Alcotest.(check bool) "nan -> null" true
    (Result.get_ok (Json.parse (Json.to_string (Json.Float Float.nan))) = Json.Null)

let suite =
  [
    Alcotest.test_case "disabled is a no-op" `Quick (with_obs test_disabled_noop);
    Alcotest.test_case "counter accumulation matches Counters" `Quick
      (with_obs test_counter_accumulation);
    Alcotest.test_case "trace JSON round trip" `Quick
      (with_obs test_trace_json_roundtrip);
    Alcotest.test_case "tape-engine counters in profile JSON" `Quick
      (with_obs test_tape_engine_counters);
    Alcotest.test_case "absorb after reset" `Quick (with_obs test_absorb_after_reset);
    Alcotest.test_case "absorb order determinism" `Quick
      (with_obs test_absorb_order_determinism);
    Alcotest.test_case "JSON parser values" `Quick test_json_parse_values;
    Alcotest.test_case "JSON printer/parser round trip" `Quick
      test_json_roundtrip_values;
  ]
