(* Tests for lib/serve: canonical structural hashing (alpha renaming,
   offset normalization, collision handling), the cross-request cache
   context, the JSON-lines protocol/daemon (waves, dedup, shed, deadline,
   shutdown), fuzzed traffic bit-identity across --jobs values and cache
   temperature, and agreement with the one-shot pipeline. *)

module Serve = Hextile_serve
module Shash = Serve.Shash
module Cache = Serve.Cache
module Proto = Serve.Proto
module Engine = Serve.Engine
module Daemon = Serve.Daemon
module Par = Hextile_par.Par
module Json = Hextile_obs.Json
module Experiments = Hextile_experiments.Experiments
module Gen = Hextile_check.Gen
module Rng = Hextile_check.Rng
module Pretty = Hextile_check.Pretty

let parse_ok name src =
  match Hextile_frontend.Front.parse_string ~name src with
  | Ok p -> p
  | Error m -> Alcotest.failf "parse %s: %s" name m

let heat_src =
  {|float A[2][N];
for (t = 0; t < T; t++)
  for (i = 1; i < N - 1; i++)
    A[(t+1)%2][i] = 0.5f * (A[t%2][i-1] + A[t%2][i+1]);
|}

(* heat_src with the array renamed. *)
let heat_renamed_src =
  {|float B[2][N];
for (t = 0; t < T; t++)
  for (i = 1; i < N - 1; i++)
    B[(t+1)%2][i] = 0.5f * (B[t%2][i-1] + B[t%2][i+1]);
|}

(* heat_src translated one cell right: writes at i+1 over a shifted
   domain — offset normalization maps it onto heat_src's canon. *)
let heat_shifted_src =
  {|float A[2][N];
for (t = 0; t < T; t++)
  for (i = 0; i < N - 2; i++)
    A[(t+1)%2][i+1] = 0.5f * (A[t%2][i] + A[t%2][i+2]);
|}

(* ---- Shash ------------------------------------------------------------- *)

let test_shash_alpha () =
  let p = parse_ok "a" heat_src and q = parse_ok "b" heat_renamed_src in
  let cp, _ = Shash.canonicalize p and cq, _ = Shash.canonicalize q in
  Alcotest.(check bool) "renamed programs share a canon" true
    (Shash.equal_canon cp cq);
  Alcotest.(check string) "and a hash" (Shash.to_hex (Shash.hash cp))
    (Shash.to_hex (Shash.hash cq));
  let s = parse_ok "c" heat_shifted_src in
  let cs, _ = Shash.canonicalize s in
  Alcotest.(check bool) "translated program shares the canon" true
    (Shash.equal_canon cp cs);
  Alcotest.(check bool) "but records its translation" true
    (Shash.write_offsets p <> Shash.write_offsets s);
  let j = Hextile_stencils.Suite.jacobi2d in
  let cj, _ = Shash.canonicalize j in
  Alcotest.(check bool) "different program, different canon" false
    (Shash.equal_canon cp cj);
  Alcotest.(check bool) "and (here) a different hash" true
    (Shash.hash cp <> Shash.hash cj)

let test_shash_env () =
  let p = parse_ok "a" heat_src in
  let _, renaming = Shash.canonicalize p in
  Alcotest.(check (list (pair string int)))
    "env canonicalized and sorted"
    [ ("P0", 64); ("P1", 16) ]
    (Shash.canon_env renaming [ ("T", 16); ("N", 64); ("junk", 1) ])

(* ---- Cache ------------------------------------------------------------- *)

let request ?(id = Json.Null) ?source ?builtin ?(n = 64) ?(t = 8)
    ?(op = Proto.Run) ?h ?w () =
  {
    Proto.id;
    op;
    source;
    builtin;
    n;
    t;
    device = "gtx470";
    scheme = "hybrid";
    engine = "tape";
    analytic = false;
    h;
    w;
    timeout_ms = None;
  }

let payload_str p = Json.to_string ~minify:true (Json.Obj p)

let test_cache_collisions () =
  (* A 1-bit structural hash forces distinct programs onto the same
     entry slots; full-key verification must detect every collision and
     the engine must keep answering exactly as an uncollided cache. *)
  let tiny = Cache.create ~hash_bits:1 () in
  let full = Cache.create () in
  let progs = [ "heat1d"; "jacobi2d"; "heat2d" ] in
  let answers c =
    List.map
      (fun b ->
        match Engine.execute ~cache:c (request ~builtin:b ()) with
        | Ok p -> payload_str p
        | Error m -> Alcotest.failf "execute %s: %s" b m)
      progs
  in
  let cold_tiny = answers tiny and cold_full = answers full in
  Alcotest.(check (list string))
    "collided cache answers = uncollided answers" cold_full cold_tiny;
  Alcotest.(check (list string))
    "collided cache answers stable on repeat" cold_tiny (answers tiny);
  let s = Cache.stats tiny in
  Alcotest.(check bool) "collisions detected" true (s.Cache.collisions > 0);
  let sf = Cache.stats full in
  Alcotest.(check int) "full-width hash never collides" 0 sf.Cache.collisions;
  Alcotest.(check bool) "full-width cache hits on repeat" true
    (let _ = answers full in
     (Cache.stats full).Cache.run_hits > sf.Cache.run_hits)

let test_cache_alpha_sharing () =
  (* Renamed programs share one tile-size search; the translated program
     (same canon, different write offsets) must not. *)
  let cache = Cache.create () in
  let exec src =
    match
      Engine.execute ~cache (request ~source:src ~op:Proto.Tilesize ())
    with
    | Ok p -> p
    | Error m -> Alcotest.failf "tilesize: %s" m
  in
  let a = exec heat_src in
  let s0 = Cache.stats cache in
  Alcotest.(check int) "first search misses" 1 s0.Cache.tilesize_misses;
  let b = exec heat_renamed_src in
  let s1 = Cache.stats cache in
  Alcotest.(check int) "renamed program hits" 1 s1.Cache.tilesize_hits;
  Alcotest.(check string) "and selects identically"
    (Json.to_string (List.assoc "selected" a))
    (Json.to_string (List.assoc "selected" b));
  let _ = exec heat_shifted_src in
  let s2 = Cache.stats cache in
  Alcotest.(check int) "translated program searches afresh" 2
    s2.Cache.tilesize_misses

(* More distinct programs than the entry table's 2^10 slots, through one
   cache: once probe windows fill, lookups admit nothing and return
   [None]; every admitted program still hits on a repeat, and a program
   that was not admitted is answered exactly as a fresh cache answers
   it. *)
let test_cache_full_table () =
  let cache = Cache.create () in
  let sources =
    List.init 1200 (fun k ->
        Fmt.str
          {|float A[2][N];
for (t = 0; t < T; t++)
  for (i = 1; i < N - 1; i++)
    A[(t+1)%%2][i] = %d.0f * (A[t%%2][i-1] + A[t%%2][i+1]);
|}
          (k + 2))
  in
  let lookup src = fst (Cache.lookup cache (parse_ok "p" src)) in
  let first = List.map (fun src -> (src, lookup src)) sources in
  let admitted = List.filter_map (fun (s, e) -> Option.map (fun e -> (s, e)) e) first
  and refused = List.filter_map (fun (s, e) -> if e = None then Some s else None) first in
  Alcotest.(check bool) "some lookups return None" true (refused <> []);
  Alcotest.(check bool) "most programs admitted" true (List.length admitted >= 900);
  let s = Cache.stats cache in
  Alcotest.(check int) "every refusal counted" (List.length refused) s.Cache.entry_refused;
  Alcotest.(check int) "refusals are still misses" 1200 s.Cache.entry_misses;
  let hits0 = (Cache.stats cache).Cache.entry_hits in
  List.iter
    (fun (src, e) ->
      match lookup src with
      | Some e' when e' == e -> ()
      | _ -> Alcotest.fail "an admitted program missed on repeat")
    admitted;
  Alcotest.(check int) "every repeat counted as a hit" (List.length admitted)
    ((Cache.stats cache).Cache.entry_hits - hits0);
  let run c src =
    match Engine.execute ~cache:c (request ~source:src ~n:16 ~t:2 ()) with
    | Ok payload -> payload_str payload
    | Error m -> Alcotest.failf "execute: %s" m
  in
  let src = List.hd refused in
  Alcotest.(check bool) "still refused" true (lookup src = None);
  Alcotest.(check string) "refused program answered as on a fresh cache"
    (run (Cache.create ()) src) (run cache src)

(* ---- daemon over injected stdio ---------------------------------------- *)

let drive ?now ?config ~cache ~jobs lines =
  Par.with_pool ~jobs @@ fun pool ->
  let inp = ref lines and out = ref [] in
  Daemon.run_lines ?now ?config ~cache ~pool
    ~read_line:(fun () ->
      match !inp with
      | [] -> None
      | l :: r ->
          inp := r;
          Some l)
    ~write_line:(fun l -> out := l :: !out)
    ();
  List.rev !out

let field name line =
  match Json.parse line with
  | Error e -> Alcotest.failf "response did not parse (%s): %s" e line
  | Ok doc -> Json.member name doc

let is_ok line = field "ok" line = Some (Json.Bool true)

let test_daemon_protocol () =
  let cache = Cache.create () in
  let out =
    drive ~cache ~jobs:1
      [
        "{\"id\":1,\"op\":\"ping\"}";
        "this is not json";
        "{\"id\":3,\"op\":\"nope\"}";
        "{\"id\":4,\"op\":\"run\",\"builtin\":\"zebra\"}";
        "{\"id\":5,\"op\":\"run\",\"source\":\"float A[2][N];\"}";
      ]
  in
  Alcotest.(check int) "one response per line" 5 (List.length out);
  Alcotest.(check bool) "ping ok" true (is_ok (List.nth out 0));
  List.iteri
    (fun i line ->
      if i > 0 then begin
        Alcotest.(check bool) "failure reported" false (is_ok line);
        Alcotest.(check bool) "with an error message" true
          (field "error" line <> None)
      end)
    out;
  (* ids correlate even for unparseable ops *)
  Alcotest.(check (option int)) "id echoed" (Some 3)
    (Option.bind (field "id" (List.nth out 2)) Json.to_int)

let test_daemon_dedupe_and_waves () =
  let cache = Cache.create () in
  let run_line i = Printf.sprintf "{\"id\":%d,\"op\":\"run\",\"builtin\":\"heat1d\",\"N\":64,\"T\":8}" i in
  (* one wave: three identical requests, one distinct *)
  let out =
    drive ~cache ~jobs:2
      [ run_line 1; run_line 2; "{\"id\":9,\"op\":\"ping\"}"; run_line 3 ]
  in
  Alcotest.(check int) "all answered" 4 (List.length out);
  let s = Cache.stats cache in
  Alcotest.(check int) "wave computed the run once" 1
    (s.Cache.run_hits + s.Cache.run_misses);
  let strip_id line =
    match Json.parse line with
    | Ok (Json.Obj kvs) ->
        Json.to_string (Json.Obj (List.remove_assoc "id" kvs))
    | _ -> Alcotest.fail "bad response"
  in
  Alcotest.(check string) "duplicates share the payload"
    (strip_id (List.nth out 0))
    (strip_id (List.nth out 1));
  (* a blank line splits waves: the same request in a later wave is a
     cache hit, not a recompute *)
  let out2 = drive ~cache ~jobs:2 [ run_line 4; ""; run_line 5 ] in
  let s2 = Cache.stats cache in
  Alcotest.(check int) "second wave hits the cache" 0
    (s2.Cache.run_misses - s.Cache.run_misses);
  Alcotest.(check string) "and replays the identical payload"
    (strip_id (List.nth out 0))
    (strip_id (List.nth out2 1))

let test_daemon_shed_and_deadline () =
  let cache = Cache.create () in
  let config = { Daemon.max_queue = 2; max_wave = 64 } in
  let out =
    drive ~cache ~config ~jobs:1
      [
        "{\"id\":1,\"op\":\"ping\"}";
        "{\"id\":2,\"op\":\"ping\"}";
        "{\"id\":3,\"op\":\"ping\"}";
      ]
  in
  Alcotest.(check (option string)) "over-admission is shed"
    (Some "shed: queue full")
    (Option.bind (field "error" (List.nth out 2)) Json.to_str);
  (* a deadline that passes while queued is answered, not executed *)
  let clock = ref 0.0 in
  let now () =
    clock := !clock +. 10.0;
    !clock
  in
  let cache2 = Cache.create () in
  let out =
    drive ~now ~cache:cache2 ~jobs:1
      [
        "{\"id\":1,\"op\":\"run\",\"builtin\":\"heat1d\",\"timeout_ms\":500}";
        "{\"id\":2,\"op\":\"run\",\"builtin\":\"heat1d\",\"N\":64,\"T\":8,\"timeout_ms\":3600000}";
      ]
  in
  Alcotest.(check (option string)) "expired request answered as such"
    (Some "deadline exceeded")
    (Option.bind (field "error" (List.nth out 0)) Json.to_str);
  Alcotest.(check bool) "fresh request still served" true
    (is_ok (List.nth out 1));
  let s = Cache.stats cache2 in
  Alcotest.(check int) "expired request never executed" 1
    (s.Cache.run_hits + s.Cache.run_misses)

let test_daemon_shutdown () =
  let cache = Cache.create () in
  let out =
    drive ~cache ~jobs:1
      [
        "{\"id\":1,\"op\":\"ping\"}";
        "{\"id\":2,\"op\":\"shutdown\"}";
        "";
        "{\"id\":3,\"op\":\"ping\"}";
      ]
  in
  Alcotest.(check int) "shutdown stops after its wave" 2 (List.length out);
  Alcotest.(check bool) "shutdown acknowledged" true (is_ok (List.nth out 1))

(* ---- the input envelope ------------------------------------------------ *)

(* An in-place Gauss-Seidel sweep reads its neighbours in the storage it
   writes, so one step's instances are not independent: outside the
   input envelope, rejected loudly at every entry point. *)
let gauss_seidel_src =
  {|float A[N][N];
for (t = 0; t < T; t++)
  for (i = 1; i < N - 1; i++)
    for (j = 1; j < N - 1; j++)
      A[i][j] = 0.2f * (A[i][j] + A[i-1][j] + A[i+1][j] + A[i][j-1] + A[i][j+1]);
|}

let test_in_place_rejected () =
  let envelope m =
    Test_frontend.contains ~sub:"statement S0" m
    && Test_frontend.contains ~sub:"write slot" m
  in
  (match Hextile_frontend.Front.parse_string ~name:"gs" gauss_seidel_src with
  | Ok _ -> Alcotest.fail "frontend accepted an in-place sweep"
  | Error m ->
      Alcotest.(check bool) ("frontend names the statement: " ^ m) true (envelope m));
  List.iter
    (fun dims ->
      let prog = Test_ir.gauss_seidel ~dims in
      List.iter
        (fun scheme ->
          match
            Experiments.run_scheme scheme prog
              [ ("N", 21); ("T", 5) ]
              Hextile_gpusim.Device.gtx470
          with
          | _ ->
              Alcotest.failf "%s ran %s" (Experiments.scheme_name scheme) prog.name
          | exception Invalid_argument m ->
              Alcotest.(check bool)
                (Fmt.str "%s on %s: %s" (Experiments.scheme_name scheme) prog.name m)
                true (envelope m))
        Experiments.[ Ppcg; Par4all; Overtile; Patus; Hybrid ])
    [ 1; 2 ];
  let line id op =
    Printf.sprintf "{\"id\":%d,\"op\":%S,\"source\":%s,\"N\":21,\"T\":5}" id op
      (Json.to_string ~minify:true (Json.Str gauss_seidel_src))
  in
  let out =
    drive ~cache:(Cache.create ()) ~jobs:1
      [
        line 1 "run";
        line 2 "compile";
        line 3 "tilesize";
        "{\"id\":4,\"op\":\"run\",\"builtin\":\"heat1d\",\"N\":64,\"T\":8}";
        "{\"id\":5,\"op\":\"ping\"}";
      ]
  in
  Alcotest.(check int) "one response per request" 5 (List.length out);
  List.iteri
    (fun i l ->
      if i < 3 then begin
        Alcotest.(check bool) ("error reply: " ^ l) false (is_ok l);
        Alcotest.(check bool) ("names the envelope: " ^ l) true
          (match Option.bind (field "error" l) Json.to_str with
          | Some m -> envelope m
          | None -> false)
      end
      else Alcotest.(check bool) ("still serving: " ^ l) true (is_ok l))
    out

(* ---- fuzzed traffic: bit-identity across jobs and temperature ---------- *)

(* A deterministic mixed traffic trace over seeded random programs:
   tilesize + run + compile per program, with exact duplicates. *)
let fuzz_traffic seeds =
  let base = Rng.create 0x5e24e1 in
  List.concat_map
    (fun seed ->
      let prog, env = Gen.generate (Rng.derive base seed) in
      let n = List.assoc "N" env and t = List.assoc "T" env in
      let line id op =
        Printf.sprintf
          "{\"id\":%d,\"op\":%S,\"source\":%s,\"N\":%d,\"T\":%d}" id op
          (Json.to_string ~minify:true (Json.Str (Pretty.to_source prog)))
          n t
      in
      [
        line (seed * 10) "tilesize";
        line ((seed * 10) + 1) "run";
        line ((seed * 10) + 2) "run";
        line ((seed * 10) + 3) "compile";
      ])
    seeds

let strip_ids lines =
  List.map
    (fun l ->
      match Json.parse l with
      | Ok (Json.Obj kvs) -> Json.to_string (Json.Obj (List.remove_assoc "id" kvs))
      | _ -> l)
    lines

let test_fuzz_traffic_determinism () =
  let traffic = fuzz_traffic [ 1; 2; 3 ] in
  (* cold runs at three pool sizes: byte-identical response streams *)
  let cold_outs =
    List.map
      (fun jobs -> drive ~cache:(Cache.create ()) ~jobs traffic)
      [ 1; 2; 4 ]
  in
  (match cold_outs with
  | [ o1; o2; o4 ] ->
      Alcotest.(check (list string)) "jobs 1 = jobs 2" o1 o2;
      Alcotest.(check (list string)) "jobs 1 = jobs 4" o1 o4;
      List.iter
        (fun l -> Alcotest.(check bool) ("ok: " ^ l) true (is_ok l))
        o1
  | _ -> assert false);
  (* warm run over one persistent cache: same bytes again *)
  let cache = Cache.create () in
  let cold = drive ~cache ~jobs:2 traffic in
  let misses_after_cold = (Cache.stats cache).Cache.run_misses in
  let warm = drive ~cache ~jobs:2 traffic in
  Alcotest.(check (list string)) "warm = cold" cold warm;
  Alcotest.(check int) "warm pass recomputed nothing" misses_after_cold
    (Cache.stats cache).Cache.run_misses;
  Alcotest.(check (list string)) "same stream as fresh caches"
    (strip_ids (List.hd (List.map Fun.id [ List.nth cold_outs 0 ])))
    (strip_ids cold)

(* Serve responses agree with the one-shot pipeline (what `hextile run`
   prints is derived from the same result record). *)
let test_fuzz_agrees_with_oneshot () =
  let base = Rng.create 0xfeed in
  List.iter
    (fun seed ->
      let prog, env = Gen.generate (Rng.derive base seed) in
      let n = List.assoc "N" env and t = List.assoc "T" env in
      let r =
        request
          ~source:(Pretty.to_source prog)
          ~n ~t ()
      in
      let payload =
        match Engine.execute ~cache:(Cache.create ()) r with
        | Ok p -> p
        | Error m -> Alcotest.failf "serve run failed: %s" m
      in
      let oneshot =
        Experiments.run_scheme ~engine:Hextile_schemes.Common.Tape
          Experiments.Hybrid prog
          [ ("N", n); ("T", t) ]
          Hextile_gpusim.Device.gtx470
      in
      Alcotest.(check string)
        (Printf.sprintf "seed %d: grids hash matches one-shot" seed)
        (Engine.grids_hash prog oneshot.Hextile_schemes.Common.grids)
        (match List.assoc "grids_hash" payload with
        | Json.Str s -> s
        | _ -> "missing");
      Alcotest.(check string)
        (Printf.sprintf "seed %d: result record matches one-shot" seed)
        (Json.to_string (Experiments.result_json oneshot))
        (Json.to_string (List.assoc "result" payload)))
    [ 1; 2; 3; 4 ]

(* ---- socket transport -------------------------------------------------- *)

let test_socket_roundtrip () =
  let path = Filename.temp_file "hextile_serve" ".sock" in
  Sys.remove path;
  let reqs =
    [
      "{\"id\":1,\"op\":\"ping\"}";
      "{\"id\":2,\"op\":\"run\",\"builtin\":\"heat1d\",\"N\":64,\"T\":8}";
      "{\"id\":3,\"op\":\"shutdown\"}";
    ]
  in
  (* client on its own domain (the daemon's select loop owns this one);
     connects with retries, sends everything, reads until one response
     line per request arrived *)
  let client =
    Domain.spawn (fun () ->
        let rec connect tries =
          let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
          match Unix.connect fd (Unix.ADDR_UNIX path) with
          | () -> fd
          | exception Unix.Unix_error _ when tries > 0 ->
              Unix.close fd;
              Unix.sleepf 0.05;
              connect (tries - 1)
        in
        let fd = connect 200 in
        let body = String.concat "\n" reqs ^ "\n" in
        let _ = Unix.write fd (Bytes.of_string body) 0 (String.length body) in
        let buf = Buffer.create 1024 in
        let chunk = Bytes.create 4096 in
        let rec read_all () =
          if
            List.length (String.split_on_char '\n' (Buffer.contents buf))
            <= List.length reqs
          then
            match Unix.read fd chunk 0 (Bytes.length chunk) with
            | 0 -> ()
            | n ->
                Buffer.add_subbytes buf chunk 0 n;
                read_all ()
        in
        read_all ();
        Unix.close fd;
        Buffer.contents buf)
  in
  let cache = Cache.create () in
  Par.with_pool ~jobs:1 (fun pool -> Daemon.serve_socket ~cache ~pool ~path ());
  let received = Domain.join client in
  let lines =
    List.filter
      (fun l -> String.trim l <> "")
      (String.split_on_char '\n' received)
  in
  Alcotest.(check int) "three responses" 3 (List.length lines);
  List.iter
    (fun l -> Alcotest.(check bool) ("ok: " ^ l) true (is_ok l))
    lines;
  (* the socket answer is byte-identical to the stdio answer *)
  let stdio = drive ~cache:(Cache.create ()) ~jobs:1 [ List.nth reqs 1 ] in
  Alcotest.(check string) "socket = stdio" (List.hd stdio) (List.nth lines 1)

let suite =
  [
    Alcotest.test_case "shash: alpha renaming and translation" `Quick
      test_shash_alpha;
    Alcotest.test_case "shash: env canonicalization" `Quick test_shash_env;
    Alcotest.test_case "cache: forced collisions stay correct" `Quick
      test_cache_collisions;
    Alcotest.test_case "cache: alpha-equivalent tilesize sharing" `Quick
      test_cache_alpha_sharing;
    Alcotest.test_case "cache: full entry table degrades to uncached" `Quick
      test_cache_full_table;
    Alcotest.test_case "daemon: protocol errors" `Quick test_daemon_protocol;
    Alcotest.test_case "daemon: wave dedupe and cache replay" `Quick
      test_daemon_dedupe_and_waves;
    Alcotest.test_case "daemon: shed and deadline" `Quick
      test_daemon_shed_and_deadline;
    Alcotest.test_case "daemon: shutdown" `Quick test_daemon_shutdown;
    Alcotest.test_case "in-place statements rejected: frontend, schemes, serve" `Quick
      test_in_place_rejected;
    Alcotest.test_case "fuzz traffic: bit-identical at jobs 1/2/4, cold/warm"
      `Slow test_fuzz_traffic_determinism;
    Alcotest.test_case "fuzz traffic: agrees with one-shot pipeline" `Slow
      test_fuzz_agrees_with_oneshot;
    Alcotest.test_case "socket transport round trip" `Quick
      test_socket_roundtrip;
  ]
