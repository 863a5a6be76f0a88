(* Stress tests for the shared-cache parallel runtime: the sharded
   [Par.map] scheduler (exactly-once claims, stealing under imbalance,
   nested degradation, exception capture under load), the [Oncemap]
   publish-once table the serve cache is built on, and the
   allocation budget of the simulator's L2-trace encode hot loop. *)

open Hextile_gpusim
module Par = Hextile_par.Par
module Oncemap = Hextile_par.Oncemap

(* Deterministic little RNG so the "randomized" pool sizes and task mixes
   are reproducible run to run. *)
let rng_make seed = ref (seed lor 1)

let rng_int r bound =
  let x = !r in
  let x = x lxor (x lsl 13) in
  let x = x lxor (x lsr 7) in
  let x = x lxor (x lsl 17) in
  r := x land max_int;
  !r mod bound

(* ---- exactly-once claims under randomized pools ----------------------- *)

(* The shard+steal scheduler's one real correctness risk is a double or
   missed claim when helpers race a shard owner on its cursor. Hammer it
   across random pool sizes and task counts, counting executions per
   index atomically. *)
let test_exactly_once () =
  let r = rng_make 0x5eed in
  for _rep = 1 to 20 do
    let jobs = 1 + rng_int r 8 in
    let n = 1 + rng_int r 300 in
    let hits = Array.init n (fun _ -> Atomic.make 0) in
    let out =
      Par.with_pool ~jobs (fun p ->
          Par.map p
            (fun i ->
              Atomic.incr hits.(i);
              i * i)
            (Array.init n Fun.id))
    in
    Array.iteri
      (fun i c ->
        if Atomic.get c <> 1 then
          Alcotest.failf "jobs=%d n=%d: index %d executed %d times" jobs n i
            (Atomic.get c))
      hits;
    Alcotest.(check (array int))
      (Fmt.str "results by index at jobs=%d n=%d" jobs n)
      (Array.init n (fun i -> i * i))
      out
  done

(* ---- steal fairness under a mixed-size task hammer --------------------- *)

(* 1k tasks whose costs differ by orders of magnitude, arranged so the
   static shards are maximally imbalanced (all the heavy work lands in
   one shard). Every index must still run exactly once with its result
   delivered by index — completion itself proves the schedule is
   work-conserving, since a starved scheduler would either deadlock or
   drop claims. *)
let test_steal_fairness_hammer () =
  let n = 1000 in
  let work = Array.make n 0 in
  List.iter
    (fun jobs ->
      Array.fill work 0 n 0;
      let hits = Array.init n (fun _ -> Atomic.make 0) in
      let spin = Array.make 64 1.0 in
      let out =
        Par.with_pool ~jobs (fun p ->
            Par.map p
              (fun i ->
                Atomic.incr hits.(i);
                (* heavy only in the first shard's range: everyone else
                   must finish early and come steal *)
                let cost = if i < n / jobs then 20_000 else 50 in
                let acc = ref 0.0 in
                for k = 0 to cost - 1 do
                  acc := !acc +. spin.(k land 63)
                done;
                work.(i) <- int_of_float !acc;
                i)
              (Array.init n Fun.id))
      in
      Alcotest.(check int)
        (Fmt.str "all %d tasks claimed once at jobs=%d" n jobs)
        n
        (Array.fold_left (fun a c -> a + Atomic.get c) 0 hits);
      Array.iteri
        (fun i c ->
          if Atomic.get c <> 1 then
            Alcotest.failf "jobs=%d: task %d ran %d times" jobs i (Atomic.get c))
        hits;
      Alcotest.(check (array int))
        (Fmt.str "identity map by index at jobs=%d" jobs)
        (Array.init n Fun.id) out)
    [ 2; 4; 8 ]

(* ---- nested regions under randomized pools ----------------------------- *)

let test_nested_degradation_randomized () =
  let r = rng_make 0xabcd in
  for _rep = 1 to 10 do
    let jobs = 1 + rng_int r 8 in
    let n = 1 + rng_int r 40 in
    let got =
      Par.with_pool ~jobs (fun p ->
          Par.map p
            (fun i ->
              if jobs > 1 && not (Par.in_region ()) then
                failwith "task not flagged in-region";
              (* three levels deep: everything below the first must run
                 the plain sequential loop on this domain *)
              let inner =
                Par.map p
                  (fun j ->
                    Array.fold_left ( + ) 0
                      (Par.map p (fun k -> i + j + k) (Array.init 5 Fun.id)))
                  (Array.init 4 Fun.id)
              in
              Array.fold_left ( + ) 0 inner)
            (Array.init n Fun.id))
    in
    let expect =
      Array.init n (fun i ->
          let s = ref 0 in
          for j = 0 to 3 do
            for k = 0 to 4 do
              s := !s + i + j + k
            done
          done;
          !s)
    in
    Alcotest.(check (array int))
      (Fmt.str "nested maps at jobs=%d n=%d" jobs n)
      expect got
  done;
  Alcotest.(check bool) "region flag restored" false (Par.in_region ())

(* ---- exception capture under load -------------------------------------- *)

exception Boom of int

let test_exceptions_under_load () =
  let r = rng_make 0xfa11 in
  for _rep = 1 to 10 do
    let jobs = 2 + rng_int r 7 in
    let n = 50 + rng_int r 200 in
    let nfail = 1 + rng_int r 10 in
    let failing = Array.make n false in
    for _ = 1 to nfail do
      failing.(rng_int r n) <- true
    done;
    let lowest = ref (-1) in
    Array.iteri (fun i f -> if f && !lowest < 0 then lowest := i) failing;
    if !lowest >= 0 then begin
      let ran = Array.init n (fun _ -> Atomic.make 0) in
      match
        Par.with_pool ~jobs (fun p ->
            Par.map p
              (fun i ->
                Atomic.incr ran.(i);
                (* mixed sizes so failures surface while other domains
                   are mid-task *)
                let acc = ref 0 in
                for k = 0 to 100 * (i land 7) do
                  acc := !acc + k
                done;
                if failing.(i) then raise (Boom i);
                !acc)
              (Array.init n Fun.id))
      with
      | _ -> Alcotest.failf "jobs=%d: expected Boom %d" jobs !lowest
      | exception Boom i ->
          Alcotest.(check int)
            (Fmt.str "lowest failing index at jobs=%d" jobs)
            !lowest i;
          (* no cancellation: every index was still claimed exactly once *)
          Array.iteri
            (fun j c ->
              if Atomic.get c <> 1 then
                Alcotest.failf "jobs=%d: index %d ran %d times after failure"
                  jobs j (Atomic.get c))
            ran
    end
  done

(* ---- Oncemap: publish-once semantics under contention ------------------- *)

(* [find], then on a miss compute and [publish]: the way the serve cache
   uses the map. *)
let find_or_publish m k f =
  match Oncemap.find m k with
  | Some v -> v
  | None ->
      let v = f () in
      Option.value (Oncemap.publish m k v) ~default:v

(* Hammer one shared map from every domain with computes that allocate a
   fresh value each call: publish-once means every caller ends up with
   the same physical value per key, no matter who computed first. *)
let test_oncemap_publish_once () =
  let m : (int, int array) Oncemap.t = Oncemap.create ~bits:6 () in
  let nkeys = 8 in
  let per_task =
    Par.with_pool ~jobs:4 (fun p ->
        Par.map p
          (fun _ ->
            Array.init nkeys (fun k -> find_or_publish m k (fun () -> Array.make 4 k)))
          (Array.init 64 Fun.id))
  in
  for k = 0 to nkeys - 1 do
    let v0 = per_task.(0).(k) in
    Alcotest.(check (array int))
      (Fmt.str "key %d value" k)
      (Array.make 4 k) v0;
    Array.iteri
      (fun t vs ->
        if not (vs.(k) == v0) then
          Alcotest.failf "key %d: task %d holds a different physical value" k t)
      per_task
  done

let test_oncemap_sequential_contract () =
  let m : (string, int ref) Oncemap.t =
    Oncemap.create ~bits:4 ~name:"test.sequential" ()
  in
  Alcotest.(check bool) "empty find" true (Oncemap.find m "a" = None);
  let v1 = ref 1 in
  let got = Option.get (Oncemap.publish m "a" v1) in
  Alcotest.(check bool) "publish returns own value" true (got == v1);
  (match Oncemap.find m "a" with
  | Some v -> Alcotest.(check bool) "find returns published" true (v == v1)
  | None -> Alcotest.fail "published key not found");
  let v2 = ref 2 in
  let got2 = Option.get (Oncemap.publish m "a" v2) in
  Alcotest.(check bool) "second publish adopts the winner" true (got2 == v1);
  Alcotest.(check bool) "other key still absent" true (Oncemap.find m "b" = None);
  (* finds so far: "a" missed, hit; "b" missed *)
  Alcotest.(check bool) "named table in stats_all" true
    (List.mem ("test.sequential", 1, 2) (Oncemap.stats_all ()))

(* The map is a bounded cache: overload a tiny table and verify it keeps
   returning correct (caller-computed) values once full. *)
let test_oncemap_overflow_degrades () =
  let m : (int, int) Oncemap.t = Oncemap.create ~bits:2 () in
  for k = 0 to 63 do
    Alcotest.(check int)
      (Fmt.str "key %d" k)
      (k * 7)
      (find_or_publish m k (fun () -> k * 7))
  done

(* ---- allocation budget of the L2 encode hot loop ------------------------ *)

(* The parallel path's per-domain trace buffers are persistent and the
   per-block bookkeeping is arrays of ints: after a warm-up launch has
   grown every buffer, a further launch must allocate only the fixed
   per-launch bookkeeping on this domain — nothing proportional to the
   number of encoded events. The old path allocated a fresh 256-word
   tbuf plus [Some] boxing per block (>= 256 words/block, plus growth
   doublings proportional to events); the budget below is far under
   that, so any per-event or per-block boxing reappearing fails loudly. *)
let test_encode_allocation_budget () =
  let nblocks = 64 in
  let touch s events b =
    for e = 0 to events - 1 do
      (* distinct lines per (block, event) so the trace actually fills *)
      Sim.global_load_run s ~addr:(4 * 32 * ((b * events) + e)) ~n:32;
      Sim.global_store_run s ~addr:(4 * 32 * ((b * events) + e)) ~n:32
    done
  in
  Par.with_pool ~jobs:2 (fun pool ->
      let s = Sim.create { Device.gtx470 with l2_bytes = 8192 } in
      let run events =
        Sim.launch ~pool s ~name:"alloc" ~blocks:nblocks ~threads:32
          ~shared_bytes:0 ~f:(touch s events)
      in
      (* warm-up with 4x the measured event count: whatever mix of
         chunks this domain ends up executing below, its persistent
         buffer is already big enough, so no growth is charged *)
      run 256;
      let events = 64 in
      let before = Gc.minor_words () in
      run events;
      let delta = Gc.minor_words () -. before in
      (* fixed bookkeeping + a small per-block allowance (position
         arrays, chunk counters); the old path needed >= 256 words per
         block before counting its per-event growth doublings *)
      let budget = float_of_int ((64 * nblocks) + 8192) in
      if delta > budget then
        Alcotest.failf
          "encode hot loop allocated %.0f minor words for %d blocks x %d \
           events (budget %.0f): per-event or per-block allocation is back"
          delta nblocks (2 * events) budget)

let suite =
  [
    Alcotest.test_case "map: exactly-once at random pool sizes" `Quick
      test_exactly_once;
    Alcotest.test_case "map: steal fairness, 1k mixed-size tasks" `Quick
      test_steal_fairness_hammer;
    Alcotest.test_case "nested regions degrade (randomized)" `Quick
      test_nested_degradation_randomized;
    Alcotest.test_case "exceptions under load: lowest index wins" `Quick
      test_exceptions_under_load;
    Alcotest.test_case "oncemap: publish-once under contention" `Quick
      test_oncemap_publish_once;
    Alcotest.test_case "oncemap: sequential contract" `Quick
      test_oncemap_sequential_contract;
    Alcotest.test_case "oncemap: bounded table degrades gracefully" `Quick
      test_oncemap_overflow_degrades;
    Alcotest.test_case "sim: encode hot loop allocation budget" `Quick
      test_encode_allocation_budget;
  ]
