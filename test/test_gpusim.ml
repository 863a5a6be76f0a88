open Hextile_gpusim
open Hextile_ir

let mk_sim () = Sim.create Device.gtx470

let some_addrs l = Array.of_list (List.map (fun x -> Some x) l)

let test_coalesced_load () =
  let s = mk_sim () in
  Sim.launch s ~name:"k" ~blocks:1 ~threads:32 ~shared_bytes:0 ~f:(fun _ ->
      (* 32 consecutive floats starting on a line boundary: 1 transaction *)
      Sim.global_load_warp s (some_addrs (List.init 32 (fun i -> 4 * i))));
  let c = s.total in
  Alcotest.(check int) "1 transaction" 1 c.gld_transactions;
  Alcotest.(check int) "32 per-thread loads" 32 c.gld_inst;
  Alcotest.(check int) "1 request" 1 c.gld_requests;
  Alcotest.(check int) "1 dram read (cold)" 1 c.dram_read_transactions;
  Alcotest.(check (float 0.001)) "100%% efficiency" 1.0 (Counters.gld_efficiency c)

let test_unaligned_load () =
  let s = mk_sim () in
  Sim.launch s ~name:"k" ~blocks:1 ~threads:32 ~shared_bytes:0 ~f:(fun _ ->
      (* offset by one float: spans two 128B lines *)
      Sim.global_load_warp s (some_addrs (List.init 32 (fun i -> 4 * (i + 1)))));
  Alcotest.(check int) "2 transactions" 2 s.total.gld_transactions;
  Alcotest.(check (float 0.001)) "50%% efficiency" 0.5
    (Counters.gld_efficiency s.total)

let test_strided_load () =
  let s = mk_sim () in
  Sim.launch s ~name:"k" ~blocks:1 ~threads:32 ~shared_bytes:0 ~f:(fun _ ->
      (* stride of one line per lane: fully uncoalesced *)
      Sim.global_load_warp s (some_addrs (List.init 32 (fun i -> 128 * i))));
  Alcotest.(check int) "32 transactions" 32 s.total.gld_transactions

let test_inactive_lanes () =
  let s = mk_sim () in
  Sim.launch s ~name:"k" ~blocks:1 ~threads:32 ~shared_bytes:0 ~f:(fun _ ->
      let addrs = Array.init 32 (fun i -> if i < 4 then Some (4 * i) else None) in
      Sim.global_load_warp s addrs;
      Sim.global_load_warp s (Array.make 32 None));
  Alcotest.(check int) "only active lanes" 4 s.total.gld_inst;
  Alcotest.(check int) "empty warp ignored" 1 s.total.gld_requests

let test_l2_hit () =
  (* disable L1 so the repeated load reaches L2 *)
  let s = Sim.create { Device.gtx470 with l1_bytes = 0 } in
  Sim.launch s ~name:"k" ~blocks:1 ~threads:32 ~shared_bytes:0 ~f:(fun _ ->
      let a = some_addrs (List.init 32 (fun i -> 4 * i)) in
      Sim.global_load_warp s a;
      Sim.global_load_warp s a);
  Alcotest.(check int) "2 l2 reads" 2 s.total.l2_read_transactions;
  Alcotest.(check int) "1 dram read" 1 s.total.dram_read_transactions

let test_l1_filter () =
  let s = mk_sim () in
  Sim.launch s ~name:"k" ~blocks:2 ~threads:32 ~shared_bytes:0 ~f:(fun _ ->
      let a = some_addrs (List.init 32 (fun i -> 4 * i)) in
      Sim.global_load_warp s a;
      Sim.global_load_warp s a);
  (* per block: first load reaches L2, repeat is absorbed by L1; the L1 is
     reset between blocks so each block contributes one L2 read *)
  Alcotest.(check int) "L1 absorbs repeats" 2 s.total.l2_read_transactions;
  Alcotest.(check int) "gld transactions still counted" 4 s.total.gld_transactions

let test_writeback () =
  let dev = { Device.gtx470 with l2_bytes = 4096 } in
  let s = Sim.create dev in
  Sim.launch s ~name:"k" ~blocks:1 ~threads:32 ~shared_bytes:0 ~f:(fun _ ->
      (* dirty one line, then stream enough lines through the tiny L2 to
         force its eviction *)
      Sim.global_store_warp s (some_addrs [ 0 ]);
      for i = 1 to 64 do
        Sim.global_load_warp s (some_addrs [ 128 * i ])
      done);
  Alcotest.(check int) "dirty eviction counted" 1 s.total.dram_write_transactions

let test_bank_conflicts () =
  let s = mk_sim () in
  Sim.launch s ~name:"k" ~blocks:1 ~threads:32 ~shared_bytes:0 ~f:(fun _ ->
      (* stride 1: conflict-free *)
      Sim.shared_load_warp s (some_addrs (List.init 32 (fun i -> i)));
      (* stride 32: all lanes in bank 0 -> 32-way conflict *)
      Sim.shared_load_warp s (some_addrs (List.init 32 (fun i -> 32 * i)));
      (* broadcast: same word for all lanes -> 1 transaction *)
      Sim.shared_load_warp s (some_addrs (List.init 32 (fun _ -> 7)));
      (* stride 2: 2-way conflict *)
      Sim.shared_load_warp s (some_addrs (List.init 32 (fun i -> 2 * i))));
  let c = s.total in
  Alcotest.(check int) "requests" 4 c.shared_load_requests;
  Alcotest.(check int) "transactions 1+32+1+2" 36 c.shared_load_transactions;
  Alcotest.(check (float 0.001)) "replay factor" 9.0
    (Counters.shared_loads_per_request c)

let test_replay_param () =
  let s = mk_sim () in
  Sim.launch s ~name:"k" ~blocks:1 ~threads:32 ~shared_bytes:0 ~f:(fun _ ->
      Sim.shared_load_warp ~replay:2 s (some_addrs (List.init 32 (fun i -> i))));
  Alcotest.(check int) "replay doubles transactions" 2 s.total.shared_load_transactions

let test_launch_limits () =
  let s = mk_sim () in
  Alcotest.(check bool) "too many threads rejected" true
    (match
       Sim.launch s ~name:"k" ~blocks:1 ~threads:2048 ~shared_bytes:0 ~f:(fun _ -> ())
     with
    | exception Invalid_argument _ -> true
    | () -> false);
  Alcotest.(check bool) "too much shared memory rejected" true
    (match
       Sim.launch s ~name:"k" ~blocks:1 ~threads:32 ~shared_bytes:(1 lsl 20)
         ~f:(fun _ -> ())
     with
    | exception Invalid_argument _ -> true
    | () -> false)

let test_block_scramble () =
  let s = mk_sim () in
  let order = ref [] in
  Sim.launch s ~name:"k" ~blocks:7 ~threads:32 ~shared_bytes:0 ~f:(fun b ->
      order := b :: !order);
  let seen = List.sort_uniq compare !order in
  Alcotest.(check (list int)) "all blocks run once" [ 0; 1; 2; 3; 4; 5; 6 ] seen;
  Alcotest.(check bool) "order scrambled" true (List.rev !order <> [ 0; 1; 2; 3; 4; 5; 6 ])

let test_launch_records () =
  let s = mk_sim () in
  Sim.launch s ~name:"a" ~blocks:2 ~threads:64 ~shared_bytes:0 ~f:(fun _ ->
      Sim.flops_warp s ~active:32 ~per_lane:10);
  Sim.launch s ~name:"b" ~blocks:0 ~threads:64 ~shared_bytes:0 ~f:(fun _ ->
      Alcotest.fail "0-block launch must not run");
  Alcotest.(check int) "one kernel recorded" 1 (List.length s.launches);
  Alcotest.(check int) "flops counted" 640 s.total.flops;
  Alcotest.(check bool) "time positive" true (Sim.kernel_time s > 0.0)

let test_timing_monotone () =
  (* more DRAM traffic -> more time *)
  let t n =
    let dev = { Device.gtx470 with l2_bytes = 4096 } in
    let s = Sim.create dev in
    Sim.launch s ~name:"k" ~blocks:64 ~threads:32 ~shared_bytes:0 ~f:(fun b ->
        if b = 0 then
          for i = 0 to n - 1 do
            Sim.global_load_warp s (some_addrs [ 1000000 + (128 * i) ])
          done);
    Sim.kernel_time s
  in
  Alcotest.(check bool) "t(1000) > t(10)" true (t 1000 > t 10)

let test_addrmap () =
  let prog = Hextile_stencils.Suite.heat1d in
  let env x = List.assoc x [ ("N", 30); ("T", 10) ] in
  let grids = Grid.alloc prog env in
  let g = Grid.find grids "A" in
  let am = Addrmap.create () in
  let h = Addrmap.resolve am g in
  let a0 = Addrmap.addr h 0 in
  Alcotest.(check int) "256-aligned base" 0 (a0 mod 256);
  Alcotest.(check int) "stride 4" 4 (Addrmap.addr h 1 - a0);
  let am2 = Addrmap.create () in
  Addrmap.register am2 g ~offset_floats:3;
  Alcotest.(check int) "offset applied" 12 (Addrmap.base (Addrmap.resolve am2 g) mod 256);
  (* a handle resolved before a re-registration sees the new offset,
     at the same base *)
  Addrmap.register am g ~offset_floats:5;
  Alcotest.(check int) "earlier handle sees the offset" (a0 + 20) (Addrmap.base h)

let test_device_lookup () =
  Alcotest.(check string) "gtx470" "gtx470" (Device.by_name "gtx470").name;
  Alcotest.(check string) "nvs5200m alias" "nvs5200" (Device.by_name "nvs5200m").name;
  Alcotest.check_raises "unknown device" Not_found (fun () ->
      ignore (Device.by_name "h100"));
  Alcotest.(check bool) "peak gflops plausible" true
    (Device.peak_gflops Device.gtx470 > 100.0)

let test_zero_denominator_ratios () =
  (* A kernel that issues no global loads / shared requests must not
     divide by zero: efficiency is 0 (no useful traffic), conflicts are
     1 (no replays). *)
  let c = Counters.create () in
  Alcotest.(check (float 0.0)) "gld_efficiency on 0 loads" 0.0
    (Counters.gld_efficiency c);
  Alcotest.(check (float 0.0)) "shared replays on 0 requests" 1.0
    (Counters.shared_loads_per_request c)

let test_counters_to_assoc () =
  let c = Counters.create () in
  c.gld_inst <- 7;
  c.shared_load_requests <- 3;
  let assoc = Counters.to_assoc c in
  Alcotest.(check int) "gld_inst exported" 7 (List.assoc "gld_inst" assoc);
  Alcotest.(check int) "shared_load_requests exported" 3 (List.assoc "shared_load_requests" assoc);
  Alcotest.(check int) "untouched counter is 0" 0 (List.assoc "gst_inst" assoc);
  Alcotest.(check int) "all 18 counters present" 18 (List.length assoc)

let test_counters_diff () =
  let a = Counters.create () in
  a.gld_inst <- 10;
  let b = Counters.copy a in
  b.gld_inst <- 25;
  Alcotest.(check int) "diff" 15 (Counters.diff b a).gld_inst;
  Counters.add a b;
  Alcotest.(check int) "add" 35 a.gld_inst

(* ---- race / barrier sanitizer ----------------------------------------- *)

let with_sanitizer f =
  Sanitize.reset ();
  Sanitize.enable ();
  Fun.protect ~finally:(fun () -> Sanitize.disable ()) f

let races () =
  List.filter_map
    (function Sanitize.Race r -> Some r | Sanitize.Divergence _ -> None)
    (Sanitize.findings ())

let divergences () =
  List.filter_map
    (function Sanitize.Divergence d -> Some d | Sanitize.Race _ -> None)
    (Sanitize.findings ())

let lane_pair w1 w2 =
  Array.init 32 (fun i -> if i = 0 then Some w1 else if i = 1 then Some w2 else None)

let tid_pair t1 t2 =
  Array.init 32 (fun i -> if i = 0 then t1 else if i = 1 then t2 else 0)

let lane_one w = Array.init 32 (fun i -> if i = 0 then Some w else None)
let tid_one t = Array.make 32 t

let test_sanitizer_ww_race () =
  with_sanitizer (fun () ->
      let s = mk_sim () in
      Sim.launch s ~name:"k" ~blocks:1 ~threads:32 ~shared_bytes:256
        ~f:(fun _ ->
          (* lanes 0 and 1 both store word 5, no barrier between *)
          Sim.shared_store_warp s ~tids:(tid_pair 1 2) (lane_pair 5 5));
      match races () with
      | [ r ] ->
          Alcotest.(check bool) "write/write" true (r.r_kind = `Write_write);
          Alcotest.(check int) "word" 5 r.r_word
      | rs -> Alcotest.failf "expected 1 race, got %d" (List.length rs))

let test_sanitizer_wr_race_and_barrier () =
  (* store then load of the same word by different threads: a race
     without a barrier in between, silent with one *)
  let run_with_barrier b =
    with_sanitizer (fun () ->
        let s = mk_sim () in
        Sim.launch s ~name:"k" ~blocks:1 ~threads:32 ~shared_bytes:256
          ~f:(fun _ ->
            Sim.shared_store_warp s ~tids:(tid_one 1) (lane_one 7);
            if b then Sim.sync s;
            Sim.shared_load_warp s ~tids:(tid_one 2) (lane_one 7));
        List.length (races ()))
  in
  Alcotest.(check int) "no barrier: 1 race" 1 (run_with_barrier false);
  Alcotest.(check int) "barrier: no race" 0 (run_with_barrier true)

let test_sanitizer_same_tid_ok () =
  with_sanitizer (fun () ->
      let s = mk_sim () in
      Sim.launch s ~name:"k" ~blocks:1 ~threads:32 ~shared_bytes:256
        ~f:(fun _ ->
          (* one thread reads its own cell and overwrites it: fine *)
          Sim.shared_load_warp s ~tids:(tid_one 9) (lane_one 3);
          Sim.shared_store_warp s ~tids:(tid_one 9) (lane_one 3));
      Alcotest.(check int) "no race" 0 (List.length (races ())))

let test_sanitizer_synthetic_tids () =
  with_sanitizer (fun () ->
      let s = mk_sim () in
      Sim.launch s ~name:"k" ~blocks:1 ~threads:32 ~shared_bytes:256
        ~f:(fun _ ->
          (* without identities every lane is assumed distinct: the
             store/load pair on word 0 must be flagged *)
          Sim.shared_store_warp s (lane_pair 0 1);
          Sim.shared_load_warp s (lane_pair 0 1));
      Alcotest.(check bool) "reported" true (List.length (races ()) >= 1))

let test_sanitizer_divergence () =
  with_sanitizer (fun () ->
      let s = mk_sim () in
      Sim.launch s ~name:"k" ~blocks:2 ~threads:32 ~shared_bytes:0
        ~f:(fun b ->
          Sim.sync s;
          if b = 0 then Sim.sync s);
      match divergences () with
      | [ d ] ->
          Alcotest.(check bool) "counts differ" true (d.d_syncs <> d.d_expected);
          Alcotest.(check bool) "counts are 1 and 2" true
            (List.sort compare [ d.d_syncs; d.d_expected ] = [ 1; 2 ])
      | ds -> Alcotest.failf "expected 1 divergence, got %d" (List.length ds))

let test_sanitizer_disabled_and_reset () =
  Sanitize.reset ();
  Alcotest.(check bool) "disabled by default" false (Sanitize.enabled ());
  let s = mk_sim () in
  Sim.launch s ~name:"k" ~blocks:1 ~threads:32 ~shared_bytes:256 ~f:(fun _ ->
      Sim.shared_store_warp s ~tids:(tid_pair 1 2) (lane_pair 5 5));
  Alcotest.(check int) "no findings while disabled" 0
    (List.length (Sanitize.findings ()));
  with_sanitizer (fun () ->
      let s = mk_sim () in
      Sim.launch s ~name:"k" ~blocks:1 ~threads:32 ~shared_bytes:256
        ~f:(fun _ ->
          Sim.shared_store_warp s ~tids:(tid_pair 1 2) (lane_pair 5 5));
      Alcotest.(check int) "finding recorded" 1
        (List.length (Sanitize.findings ()));
      Alcotest.(check int) "none dropped" 0 (Sanitize.dropped ());
      Sanitize.reset ();
      Alcotest.(check int) "reset clears" 0
        (List.length (Sanitize.findings ())))

(* [L2.access_run] against [L2.access_code]: one run-length probe of [n]
   lines from [line0] must touch the cache exactly like [n] successive
   per-line probes on a twin cache. Both caches first see the same random
   warm-up traffic, so runs meet resident, dirty and evicted lines; line0
   and n are drawn so runs often wrap past [sets] (several lines per set).
   After the aggregate hit/writeback counts, a further probe sequence run
   on both caches exposes any difference in the final LRU order or dirty
   bits. *)
type l2_case = {
  sets_log : int;
  assoc : int;
  warm : (int * bool) list;
  runs : (int * int * bool) list;
  probes : (int * bool) list;
}

let arb_l2_case =
  let open QCheck.Gen in
  let gen =
    let* sets_log = int_range 0 4 and* assoc = int_range 1 4 in
    let lines = (1 lsl sets_log) * assoc in
    let span = 4 * lines in
    let access = pair (int_bound span) bool in
    let* warm = list_size (int_bound (2 * lines)) access
    and* runs =
      list_size (int_range 1 4)
        (triple (int_bound span) (int_bound (3 * lines)) bool)
    and* probes = list_size (int_range 1 (3 * lines)) access in
    return { sets_log; assoc; warm; runs; probes }
  in
  QCheck.make
    ~print:(fun c ->
      Printf.sprintf "sets=%d assoc=%d warm=%d runs=[%s] probes=%d"
        (1 lsl c.sets_log) c.assoc (List.length c.warm)
        (String.concat "; "
           (List.map (fun (l, n, w) -> Printf.sprintf "%d+%d%s" l n (if w then "w" else "r")) c.runs))
        (List.length c.probes))
    gen

let prop_access_run_equals_access_code =
  QCheck.Test.make ~name:"L2.access_run = per-line L2.access_code" ~count:300
    arb_l2_case (fun { sets_log; assoc; warm; runs; probes } ->
      let line_bytes = 128 in
      let mk () = L2.create ~bytes:((1 lsl sets_log) * assoc * line_bytes) ~assoc ~line_bytes in
      let run_c = mk () and line_c = mk () in
      let probe c (line, write) = L2.access_code c ~line ~write in
      List.iter
        (fun a ->
          ignore (probe run_c a);
          ignore (probe line_c a))
        warm;
      List.iter
        (fun (line0, n, write) ->
          let code = L2.access_run run_c ~line0 ~n ~write in
          let hits = ref 0 and wbs = ref 0 in
          for l = line0 to line0 + n - 1 do
            let c = probe line_c (l, write) in
            if c land L2.hit_bit <> 0 then incr hits;
            if c land L2.writeback_bit <> 0 then incr wbs
          done;
          if code lsr L2.run_shift <> !hits || code land ((1 lsl L2.run_shift) - 1) <> !wbs
          then
            QCheck.Test.fail_reportf "run %d+%d: access_run hits/wbs %d/%d, per line %d/%d"
              line0 n (code lsr L2.run_shift)
              (code land ((1 lsl L2.run_shift) - 1))
              !hits !wbs)
        runs;
      List.for_all (fun a -> probe run_c a = probe line_c a) probes
      && L2.flush run_c = L2.flush line_c)

let suite =
  [
    Alcotest.test_case "coalesced warp load" `Quick test_coalesced_load;
    Alcotest.test_case "unaligned warp load" `Quick test_unaligned_load;
    Alcotest.test_case "strided warp load" `Quick test_strided_load;
    Alcotest.test_case "inactive lanes" `Quick test_inactive_lanes;
    Alcotest.test_case "L2 hits" `Quick test_l2_hit;
    Alcotest.test_case "L1 filtering" `Quick test_l1_filter;
    Alcotest.test_case "dirty writeback" `Quick test_writeback;
    QCheck_alcotest.to_alcotest prop_access_run_equals_access_code;
    Alcotest.test_case "shared bank conflicts" `Quick test_bank_conflicts;
    Alcotest.test_case "replay parameter" `Quick test_replay_param;
    Alcotest.test_case "launch limits" `Quick test_launch_limits;
    Alcotest.test_case "block scrambling" `Quick test_block_scramble;
    Alcotest.test_case "launch records" `Quick test_launch_records;
    Alcotest.test_case "timing monotone in traffic" `Quick test_timing_monotone;
    Alcotest.test_case "address map" `Quick test_addrmap;
    Alcotest.test_case "device lookup" `Quick test_device_lookup;
    Alcotest.test_case "counters add/diff" `Quick test_counters_diff;
    Alcotest.test_case "zero-denominator ratios" `Quick test_zero_denominator_ratios;
    Alcotest.test_case "counters to_assoc" `Quick test_counters_to_assoc;
    Alcotest.test_case "sanitizer write/write race" `Quick
      test_sanitizer_ww_race;
    Alcotest.test_case "sanitizer write/read race vs barrier" `Quick
      test_sanitizer_wr_race_and_barrier;
    Alcotest.test_case "sanitizer same-thread access ok" `Quick
      test_sanitizer_same_tid_ok;
    Alcotest.test_case "sanitizer synthetic identities" `Quick
      test_sanitizer_synthetic_tids;
    Alcotest.test_case "sanitizer barrier divergence" `Quick
      test_sanitizer_divergence;
    Alcotest.test_case "sanitizer disabled/reset" `Quick
      test_sanitizer_disabled_and_reset;
  ]
