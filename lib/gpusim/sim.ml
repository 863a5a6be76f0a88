module Obs = Hextile_obs.Obs
module Tl = Hextile_obs.Timeline
module Par = Hextile_par.Par

type fallback = Unequal_stride | Unaligned_stride

let fallback_name = function
  | Unequal_stride -> "unequal_stride"
  | Unaligned_stride -> "unaligned_stride"

type t = {
  dev : Device.t;
  total : Counters.t;
  l2 : L2.t;
  addr : Addrmap.t;
  mutable launches : launch list;
  blocks_memoized : int Atomic.t;  (** blocks retired by {!replay_stream} *)
  blocks_analytic : int Atomic.t;
      (** blocks retired by analytic class scaling, never instanced *)
  tile_classes : int Atomic.t;  (** tile classes enumerated by analytic mode *)
  analytic_blit_rows : int Atomic.t;
      (** recorded compute rows retired through coalesced bulk runs *)
  analytic_replay_lines : int Atomic.t;
      (** L2 line probes issued by the batched compressed-trace replay *)
  mutable analytic_epilogue_s : float;  (** total epilogue wall time *)
  mutable analytic_derive_s : float;  (** …counter-derivation stage *)
  mutable analytic_dram_s : float;  (** …sequential L2 replay stage *)
  mutable analytic_grids_s : float;  (** …grid reconstruction stage *)
  mutable fallback : fallback option;  (** the run's regime fallback *)
  recordings_dropped : int Atomic.t;  (** recordings a per-lane event dropped *)
}

and launch = {
  lname : string;
  blocks : int;
  threads : int;
  shared_bytes : int;
  delta : Counters.t;
  time_s : float;
  bottleneck : string;
}

let create (dev : Device.t) =
  {
    dev;
    total = Counters.create ();
    l2 = L2.create ~bytes:dev.l2_bytes ~assoc:dev.l2_assoc ~line_bytes:dev.line_bytes;
    addr = Addrmap.create ();
    launches = [];
    blocks_memoized = Atomic.make 0;
    blocks_analytic = Atomic.make 0;
    tile_classes = Atomic.make 0;
    analytic_blit_rows = Atomic.make 0;
    analytic_replay_lines = Atomic.make 0;
    analytic_epilogue_s = 0.0;
    analytic_derive_s = 0.0;
    analytic_dram_s = 0.0;
    analytic_grids_s = 0.0;
    fallback = None;
    recordings_dropped = Atomic.make 0;
  }

(* ---- block shadows ------------------------------------------------------ *)

(* The L2 is shared across blocks, so its hit/miss sequence depends on the
   global access order — which a parallel run does not reproduce online.
   Every block therefore runs against its domain's private shadow (own
   counter accumulator, own L1 replica — the L1 resets per block anyway)
   and records its L2 access sequence as an encoded trace; the traces are
   replayed through the real shared L2 in the launch's scrambled block
   order, so the hit/miss/writeback sequence (and hence the DRAM
   counters) is the same at every jobs value. *)

type tbuf = { mutable buf : int array; mutable len : int }

let tbuf_create () = { buf = Array.make 256 0; len = 0 }

let tbuf_push b v =
  if b.len = Array.length b.buf then begin
    let nb = Array.make (2 * b.len) 0 in
    Array.blit b.buf 0 nb 0 b.len;
    b.buf <- nb
  end;
  b.buf.(b.len) <- v;
  b.len <- b.len + 1

type shadow = {
  owner : t;  (** the sim whose launch this shadow belongs to *)
  sc : Counters.t;  (** chunk accumulator, added into [total] after the blocks *)
  sl1 : L2.t;  (** the domain's L1 replica, reset per block *)
  strace : tbuf;  (** the domain's L2 trace: (line lsl 1) lor write *)
}

let shadow_key : shadow option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

(* The calling domain's shadow for [t]: warp events only happen inside a
   block of one of [t]'s launches. *)
let shadow t =
  match Domain.DLS.get shadow_key with
  | Some s when s.owner == t -> s
  | _ -> invalid_arg "Sim: warp event outside a block of a launch"

(* ---- address-stream recording ----------------------------------------- *)

(* While a recording is active on the current domain, every batched
   global memory event and every compute row is appended to the stream;
   shared-memory, flop and barrier events are not (their counts do not
   change under translation, see {!replay_stream}). Per-lane warp events
   carry information the stream cannot represent (arbitrary option
   arrays, sanitizer thread ids), so they invalidate the recording
   instead — a missing stream only costs the memoization, never
   correctness. *)

type recording = { rowner : t; rstream : Tileclass.stream; mutable rvalid : bool }

let record_key : recording option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let recording_active t =
  match Domain.DLS.get record_key with
  | Some r -> r.rowner == t && r.rvalid
  | None -> false

let record_begin t =
  Domain.DLS.set record_key
    (Some { rowner = t; rstream = Tileclass.create (); rvalid = true })

let record_end t =
  match Domain.DLS.get record_key with
  | Some r when r.rowner == t ->
      Domain.DLS.set record_key None;
      if r.rvalid then Some r.rstream else None
  | _ -> None

(* A per-lane warp event drops the recording; each dropped recording
   counts once. *)
let record_invalidate t =
  match Domain.DLS.get record_key with
  | Some r when r.rowner == t && r.rvalid ->
      r.rvalid <- false;
      Atomic.incr t.recordings_dropped;
      Obs.incr "sim.recordings_invalidated.per_lane"
  | _ -> ()

(* Callers test [recording_active] first, so no event is allocated when
   nothing records. *)
let record t ev =
  match Domain.DLS.get record_key with
  | Some r when r.rowner == t && r.rvalid -> Tileclass.push r.rstream ev
  | _ -> ()

let record_compute t ~stmt ~tstep ~wflat ~srcs ~n =
  record t (Compute { stmt; tstep; wflat; srcs; n })

let active addrs =
  Array.fold_left (fun n a -> if a = None then n else n + 1) 0 addrs

(* Distinct cache lines among active lanes. *)
let lines_of dev addrs =
  let seen = ref [] in
  Array.iter
    (function
      | None -> ()
      | Some a ->
          let l = a / dev.Device.line_bytes in
          if not (List.mem l !seen) then seen := l :: !seen)
    addrs;
  !seen

(* One coalesced load transaction: L1 probe, then the block's L2 trace. *)
let load_line t s line =
  let c = s.sc in
  c.gld_transactions <- c.gld_transactions + 1;
  let l1 = t.dev.l1_bytes > 0 && L2.access_code s.sl1 ~line ~write:false land L2.hit_bit <> 0 in
  if not l1 then begin
    c.l2_read_transactions <- c.l2_read_transactions + 1;
    tbuf_push s.strace (line lsl 1)
  end

let store_line s ~serial line =
  let c = s.sc in
  c.gst_transactions <- c.gst_transactions + 1;
  if serial then c.serial_store_transactions <- c.serial_store_transactions + 1;
  c.l2_write_transactions <- c.l2_write_transactions + 1;
  tbuf_push s.strace ((line lsl 1) lor 1)

let global_load_warp t addrs =
  let n = active addrs in
  if n > 0 then begin
    let s = shadow t in
    record_invalidate t;
    let c = s.sc in
    c.gld_inst <- c.gld_inst + n;
    c.gld_requests <- c.gld_requests + 1;
    c.gld_useful_bytes <- c.gld_useful_bytes + (4 * n);
    List.iter (load_line t s) (lines_of t.dev addrs)
  end

let global_store_warp ?(serial = false) t addrs =
  let n = active addrs in
  if n > 0 then begin
    let s = shadow t in
    record_invalidate t;
    s.sc.gst_inst <- s.sc.gst_inst + n;
    List.iter (store_line s ~serial) (lines_of t.dev addrs)
  end

(* ---- warp-batched entry points ----------------------------------------- *)

(* The batched forms take a contiguous word run (or a sorted lane-address
   array) instead of a per-lane option array: same counters and the same
   cache-access sequence, without materializing per-lane [Some] cells.
   [lines_of] discovers distinct lines by prepending, so it yields them
   highest-first for ascending addresses — the loops below walk the line
   range (or the address array) downwards to preserve that order, which
   the L1/L2 LRU state and hence the DRAM counters depend on.

   These entry points do not feed the {!Sanitize} race checker (they
   carry no thread identities); callers fall back to the per-lane forms
   whenever the sanitizer is enabled. *)

let global_load_run t ~addr ~n =
  if n > 0 then begin
    let s = shadow t in
    let c = s.sc in
    c.gld_inst <- c.gld_inst + n;
    c.gld_requests <- c.gld_requests + 1;
    c.gld_useful_bytes <- c.gld_useful_bytes + (4 * n);
    let lb = t.dev.line_bytes in
    let lo = addr / lb and hi = (addr + (4 * n) - 4) / lb in
    for line = hi downto lo do
      load_line t s line
    done;
    if recording_active t then record t (Gload_run { addr; n })
  end

let global_store_run ?(serial = false) t ~addr ~n =
  if n > 0 then begin
    let s = shadow t in
    s.sc.gst_inst <- s.sc.gst_inst + n;
    let lb = t.dev.line_bytes in
    let lo = addr / lb and hi = (addr + (4 * n) - 4) / lb in
    for line = hi downto lo do
      store_line s ~serial line
    done;
    if recording_active t then record t (Gstore_run { addr; n; serial })
  end

(* Nondecreasing lane addresses: adjacent dedup of the backwards walk
   yields the distinct lines in descending order — exactly [lines_of]. *)
let gload_lanes_off t addrs off =
  let n = Array.length addrs in
  if n > 0 then begin
    let s = shadow t in
    let c = s.sc in
    c.gld_inst <- c.gld_inst + n;
    c.gld_requests <- c.gld_requests + 1;
    c.gld_useful_bytes <- c.gld_useful_bytes + (4 * n);
    let lb = t.dev.line_bytes in
    let prev = ref min_int in
    for i = n - 1 downto 0 do
      let line = (addrs.(i) + off) / lb in
      if line <> !prev then begin
        prev := line;
        load_line t s line
      end
    done
  end

let gstore_lanes_off ~serial t addrs off =
  let n = Array.length addrs in
  if n > 0 then begin
    let s = shadow t in
    s.sc.gst_inst <- s.sc.gst_inst + n;
    let lb = t.dev.line_bytes in
    let prev = ref min_int in
    for i = n - 1 downto 0 do
      let line = (addrs.(i) + off) / lb in
      if line <> !prev then begin
        prev := line;
        store_line s ~serial line
      end
    done
  end

let global_load_lanes t addrs =
  gload_lanes_off t addrs 0;
  if Array.length addrs > 0 && recording_active t then record t (Gload_lanes { addrs })

let global_store_lanes ?(serial = false) t addrs =
  gstore_lanes_off ~serial t addrs 0;
  if Array.length addrs > 0 && recording_active t then
    record t (Gstore_lanes { addrs; serial })

(* Bank conflicts: transactions = max over banks of the number of distinct
   words requested in that bank (same word broadcast counts once). *)
let bank_transactions dev addrs =
  let banks = dev.Device.banks in
  let per_bank = Array.make banks [] in
  Array.iter
    (function
      | None -> ()
      | Some w ->
          let b = ((w mod banks) + banks) mod banks in
          if not (List.mem w per_bank.(b)) then per_bank.(b) <- w :: per_bank.(b))
    addrs;
  Array.fold_left (fun m l -> max m (List.length l)) 0 per_bank

let counters_of t = (shadow t).sc

let live_counters = counters_of

let shared_load_warp ?(replay = 1) ?tids t addrs =
  let n = active addrs in
  if n > 0 then begin
    let c = counters_of t in
    record_invalidate t;
    if Sanitize.enabled () then Sanitize.access ~write:false ?tids addrs;
    c.shared_load_requests <- c.shared_load_requests + 1;
    c.shared_load_transactions <-
      c.shared_load_transactions + (replay * max 1 (bank_transactions t.dev addrs))
  end

let shared_store_warp ?(replay = 1) ?tids t addrs =
  let n = active addrs in
  if n > 0 then begin
    let c = counters_of t in
    record_invalidate t;
    if Sanitize.enabled () then Sanitize.access ~write:true ?tids addrs;
    c.shared_store_requests <- c.shared_store_requests + 1;
    c.shared_store_transactions <-
      c.shared_store_transactions + (replay * max 1 (bank_transactions t.dev addrs))
  end

(* Batched shared accesses. A contiguous word run touches distinct words
   whose per-bank counts differ by at most one, so the conflict count is
   [ceil n/banks] — equal to [bank_transactions] on the materialized
   addresses. Strictly ascending lane arrays hold distinct words, so the
   per-bank distinct-word count is a plain population count. *)

let shared_load_run ?(replay = 1) t ~n =
  if n > 0 then begin
    let c = counters_of t in
    c.shared_load_requests <- c.shared_load_requests + 1;
    let tx = replay * max 1 ((n + t.dev.banks - 1) / t.dev.banks) in
    c.shared_load_transactions <- c.shared_load_transactions + tx
  end

let shared_store_run ?(replay = 1) t ~n =
  if n > 0 then begin
    let c = counters_of t in
    c.shared_store_requests <- c.shared_store_requests + 1;
    let tx = replay * max 1 ((n + t.dev.banks - 1) / t.dev.banks) in
    c.shared_store_transactions <- c.shared_store_transactions + tx
  end

let bank_tx_lanes dev addrs =
  let banks = dev.Device.banks in
  let cnt = Array.make banks 0 in
  let m = ref 0 in
  Array.iter
    (fun w ->
      let b = ((w mod banks) + banks) mod banks in
      let c = cnt.(b) + 1 in
      cnt.(b) <- c;
      if c > !m then m := c)
    addrs;
  !m

let shared_load_lanes ?(replay = 1) t addrs =
  if Array.length addrs > 0 then begin
    let c = counters_of t in
    c.shared_load_requests <- c.shared_load_requests + 1;
    let tx = replay * max 1 (bank_tx_lanes t.dev addrs) in
    c.shared_load_transactions <- c.shared_load_transactions + tx
  end

let shared_store_lanes ?(replay = 1) t addrs =
  if Array.length addrs > 0 then begin
    let c = counters_of t in
    c.shared_store_requests <- c.shared_store_requests + 1;
    let tx = replay * max 1 (bank_tx_lanes t.dev addrs) in
    c.shared_store_transactions <- c.shared_store_transactions + tx
  end

let flops_warp t ~active ~per_lane =
  if active > 0 then begin
    let c = counters_of t in
    c.flops <- c.flops + (active * per_lane)
  end

let sync t =
  let c = counters_of t in
  if Sanitize.enabled () then Sanitize.barrier ();
  c.syncs <- c.syncs + 1

(* Replay a recorded stream for another block of the same tile class:
   memory events run through the same shadowed machinery as live
   execution, with every global address moved by the member's [off]
   words; line ranges, coalescing and L1/L2 behaviour are recomputed
   from the translated addresses, so the accounting is exact at any
   alignment. The translation-invariant counts come from the
   representative's [delta] as plain additions. [Compute] events are
   skipped: the caller reproduces the grid writes from the class's
   compiled rows. *)
let replay_stream t (s : Tileclass.stream) ~delta ~off =
  let db = 4 * off in
  Tileclass.iter s ~f:(function
    | Tileclass.Gload_run { addr; n } -> global_load_run t ~addr:(addr + db) ~n
    | Gstore_run { addr; n; serial } -> global_store_run ~serial t ~addr:(addr + db) ~n
    | Gload_lanes { addrs } -> gload_lanes_off t addrs db
    | Gstore_lanes { addrs; serial } -> gstore_lanes_off ~serial t addrs db
    | Compute _ -> ());
  Counters.add_invariant (counters_of t) delta ~times:1;
  Atomic.incr t.blocks_memoized;
  if Obs.enabled () then begin
    Obs.incr "sim.blocks_memoized";
    Obs.incr ~by:(Tileclass.mem_events s) "sim.addr_streams_replayed"
  end

let occupancy (dev : Device.t) ~blocks =
  if blocks <= 0 then 1.0
  else Float.min 1.0 (float_of_int blocks /. float_of_int dev.sms)

(* The roofline resources a launch can be limited by, with the time each
   one alone would take. The overall launch time is the max over these,
   plus serialized copy-out, barrier cost and fixed launch overhead. *)
let roofline_components (dev : Device.t) ~blocks (d : Counters.t) =
  let concurrency = occupancy dev ~blocks in
  let line = float_of_int dev.line_bytes in
  let t_compute =
    float_of_int d.flops
    /. (Device.peak_gflops dev *. 1e9 *. dev.issue_efficiency *. concurrency)
  in
  let t_dram =
    float_of_int (d.dram_read_transactions + d.dram_write_transactions)
    *. line
    /. (dev.dram_bw_gbs *. 1e9 *. dev.dram_efficiency)
  in
  let t_l2 =
    float_of_int (d.l2_read_transactions + d.l2_write_transactions)
    *. line /. (dev.l2_bw_gbs *. 1e9)
  in
  let sm_hz = float_of_int dev.sms *. dev.clock_ghz *. 1e9 *. concurrency in
  let t_shared =
    float_of_int (d.shared_load_transactions + d.shared_store_transactions) /. sm_hz
  in
  (* LSU throughput: warp-level global requests cost several cycles even
     on L1 hits (Fermi MSHR/issue limits) *)
  let t_lsu =
    (float_of_int d.gld_requests +. (float_of_int d.gst_inst /. 32.0))
    *. dev.gmem_request_cycles /. sm_hz
  in
  [
    ("compute", t_compute);
    ("dram", t_dram);
    ("l2", t_l2);
    ("shared", t_shared);
    ("lsu", t_lsu);
  ]

let bottleneck_of (dev : Device.t) ~blocks (d : Counters.t) =
  List.fold_left
    (fun (bn, bt) (n, t) -> if t > bt then (n, t) else (bn, bt))
    ("compute", Float.neg_infinity)
    (roofline_components dev ~blocks d)
  |> fst

let launch_time (dev : Device.t) ~blocks (d : Counters.t) =
  let sm_hz =
    float_of_int dev.sms *. dev.clock_ghz *. 1e9 *. occupancy dev ~blocks
  in
  let line = float_of_int dev.line_bytes in
  let t_sync = float_of_int d.syncs *. dev.sync_cycles /. sm_hz in
  (* a dedicated copy-out phase does not overlap computation *)
  let t_serial =
    float_of_int d.serial_store_transactions *. line /. (dev.l2_bw_gbs *. 1e9)
  in
  List.fold_left
    (fun acc (_, t) -> Float.max acc t)
    0.0
    (roofline_components dev ~blocks d)
  +. t_serial +. t_sync +. dev.launch_overhead_s

(* Deterministic scrambled block order: visit i -> (i*stride + 1) mod n for
   a stride coprime with n. *)
let scrambled n =
  let rec coprime s = if Hextile_util.Intutil.gcd s n = 1 then s else coprime (s + 1) in
  let stride = if n <= 2 then 1 else coprime (max 1 ((n * 5 / 8) + 1)) in
  Array.init n (fun i -> ((i * stride) + 1) mod n)

let block_order ~blocks = scrambled blocks

(* Replay one slice of an encoded L2 trace through the real shared L2,
   charging the resulting DRAM traffic to [t.total]. *)
let replay_l2 t buf off len =
  let c = t.total in
  for i = off to off + len - 1 do
    let v = buf.(i) in
    let line = v lsr 1 in
    if v land 1 = 1 then begin
      let o = L2.access_code t.l2 ~line ~write:true in
      if o land L2.writeback_bit <> 0 then
        c.dram_write_transactions <- c.dram_write_transactions + 1
    end
    else begin
      let o = L2.access_code t.l2 ~line ~write:false in
      if o land L2.hit_bit = 0 then
        c.dram_read_transactions <- c.dram_read_transactions + 1;
      if o land L2.writeback_bit <> 0 then
        c.dram_write_transactions <- c.dram_write_transactions + 1
    end
  done

(* Per-domain persistent encode state. Worker domains outlive launches,
   so each domain keeps one trace buffer and one L1 replica for its whole
   life; a launch serial stamps the buffer so the first chunk of a new
   launch rewinds it (len <- 0) without freeing the storage. After
   warm-up no steady-state per-block or per-event allocation remains on
   the encode path — blocks record their slice of the domain buffer as a
   (buffer, offset, length) triple into arrays preallocated per launch.
   The L1 replica is kept with its geometry (bytes, line bytes) and
   rebuilt when a launch's device has another one. *)
type dstate = {
  dt : tbuf;
  mutable dl1 : (int * int * L2.t) option;
  mutable stamp : int;
}

let launch_serials = Atomic.make 0

let dstate_key : dstate Domain.DLS.key =
  Domain.DLS.new_key (fun () -> { dt = tbuf_create (); dl1 = None; stamp = -1 })

let domain_l1 t (d : dstate) =
  let bytes = max t.dev.line_bytes t.dev.l1_bytes and lb = t.dev.line_bytes in
  match d.dl1 with
  | Some (b, l, l1) when b = bytes && l = lb -> l1
  | _ ->
      let l1 = L2.create ~bytes ~assoc:4 ~line_bytes:lb in
      d.dl1 <- Some (bytes, lb, l1);
      l1

let empty_tbuf = { buf = [||]; len = 0 }

(* Waves partition the canonical positions while preserving canonical
   order inside each wave. *)
let waves_of ~order wave_of =
  let nblocks = Array.length order in
  match wave_of with
  | None -> [| Array.init nblocks Fun.id |]
  | Some wf ->
      let wid = Array.map wf order in
      let nw = 1 + Array.fold_left max 0 wid in
      let counts = Array.make nw 0 in
      Array.iter (fun w -> counts.(w) <- counts.(w) + 1) wid;
      let arrs = Array.map (fun c -> Array.make c 0) counts in
      let fill = Array.make nw 0 in
      for k = 0 to nblocks - 1 do
        let w = wid.(k) in
        arrs.(w).(fill.(w)) <- k;
        fill.(w) <- fill.(w) + 1
      done;
      arrs

(* Run the blocks of one launch, each under its domain's shadow, and
   replay their L2 traces in canonical (scrambled) position order. With a
   pool outside a parallel region, contiguous chunks of each wave run
   across the pool's domains and the traces are replayed after the last
   wave; otherwise one chunk runs inline, in canonical order, so each
   block's slice is replayed as the block retires and the buffer rewound. *)
let run_blocks t pool ~name ~order ?wave_of ~f () =
  let nblocks = Array.length order in
  let serial = 1 + Atomic.fetch_and_add launch_serials 1 in
  let sanitize = Sanitize.enabled () in
  let reports = Array.make (if sanitize then nblocks else 0) None in
  (* positions [ks.(lo) .. ks.(hi-1)] on the calling domain, counters into
     [sc]; [retire k buf off len] gets each block's trace slice *)
  let run_chunk sc ks lo hi retire =
    let d = Domain.DLS.get dstate_key in
    if d.stamp <> serial then begin
      d.stamp <- serial;
      d.dt.len <- 0
    end;
    let sh = { owner = t; sc; sl1 = domain_l1 t d; strace = d.dt } in
    (* read once per chunk: while recording is off, no block pays for the
       boxed timeline args *)
    let tl = Tl.enabled () in
    Domain.DLS.set shadow_key (Some sh);
    Fun.protect
      ~finally:(fun () -> Domain.DLS.set shadow_key None)
      (fun () ->
        for j = lo to hi - 1 do
          let k = ks.(j) in
          let b = order.(k) in
          (* fresh per-block L1 (Fermi L1 is per SM and not coherent) *)
          L2.reset sh.sl1;
          let off = d.dt.len in
          if tl then Tl.begin_ ~arg:(float_of_int b) "sim.block";
          if sanitize then
            reports.(k) <- Some (Sanitize.capture_block ~name ~block:b (fun () -> f b))
          else f b;
          let len = d.dt.len - off in
          if tl then begin
            (* arg = L2-trace events encoded for this block; the encode
               cost is inline with compute, so the attribution multiplies
               this by the calibrated per-event push cost *)
            Tl.instant ~arg:(float_of_int len) "sim.encode";
            Tl.end_ ()
          end;
          retire k d.dt off len
        done)
  in
  (match pool with
  | Some p when Par.jobs p > 1 && nblocks > 1 && not (Par.in_region ()) ->
      (* each canonical position k records which domain buffer holds its
         trace and where — pointers and ints only, no per-block boxing *)
      let traces_buf = Array.make nblocks empty_tbuf in
      let tpos_off = Array.make nblocks 0 in
      let tpos_len = Array.make nblocks 0 in
      let retire k buf off len =
        traces_buf.(k) <- buf;
        tpos_off.(k) <- off;
        tpos_len.(k) <- len
      in
      (* the Par.run join between waves is the publication barrier that
         lets wave-0 blocks produce shared state (e.g. representative
         tile-class recordings) that wave-1 blocks consume without any
         spinning or racing *)
      let all_chunk_counters = ref [] in
      Array.iter
        (fun wave ->
          let wn = Array.length wave in
          if wn > 0 then begin
            let nchunks = min (Par.jobs p) wn in
            let chunk_counters = Array.init nchunks (fun _ -> Counters.create ()) in
            all_chunk_counters := chunk_counters :: !all_chunk_counters;
            Par.run p
              (Array.init nchunks (fun ci () ->
                   (* contiguous chunk of this wave's canonical positions:
                      merging per-chunk state in chunk order reproduces
                      the canonical order *)
                   run_chunk chunk_counters.(ci) wave (ci * wn / nchunks)
                     ((ci + 1) * wn / nchunks)
                     retire))
          end)
        (waves_of ~order wave_of);
      (* the determinism tax, made visible: sequential counter merge, then
         sequential replay of the encoded traces through the shared L2 in
         canonical position order — wave-independent *)
      Tl.begin_ ~arg:(float_of_int nblocks) "sim.absorb";
      List.iter
        (fun ccs -> Array.iter (fun c -> Counters.add t.total c) ccs)
        (List.rev !all_chunk_counters);
      Tl.end_ ();
      Tl.begin_ ~arg:(float_of_int nblocks) "sim.l2_replay";
      for k = 0 to nblocks - 1 do
        replay_l2 t traces_buf.(k).buf tpos_off.(k) tpos_len.(k)
      done;
      if Tl.enabled () then begin
        let _valid, dirty = L2.stats t.l2 in
        Tl.instant ~arg:(float_of_int dirty) "sim.l2_dirty_lines"
      end;
      Tl.end_ ()
  | _ ->
      (* one chunk: execution order is canonical order, and the scrambled
         order already visits each class representative first, so
         [wave_of] is not needed *)
      let sc = Counters.create () in
      run_chunk sc (Array.init nblocks Fun.id) 0 nblocks (fun _ buf off len ->
          replay_l2 t buf.buf off len;
          buf.len <- off);
      Counters.add t.total sc);
  if sanitize then
    Tl.slice "sim.absorb" (fun () ->
        Sanitize.absorb_block_reports
          (Array.map (function Some r -> r | None -> assert false) reports))

let launch ?pool ?post ?wave_of t ~name ~blocks ~threads ~shared_bytes ~f =
  if threads > t.dev.max_threads_per_block then
    invalid_arg
      (Fmt.str "Sim.launch %s: %d threads exceed device limit %d" name threads
         t.dev.max_threads_per_block);
  if shared_bytes > t.dev.shared_mem_bytes then
    invalid_arg
      (Fmt.str "Sim.launch %s: %d B shared memory exceed device limit %d" name
         shared_bytes t.dev.shared_mem_bytes);
  if blocks > 0 then begin
    Tl.begin_ ~arg:(float_of_int blocks) "sim.launch";
    Fun.protect ~finally:Tl.end_ @@ fun () ->
    let before = Counters.copy t.total in
    if Sanitize.enabled () then Sanitize.launch_begin ~name;
    run_blocks t pool ~name ~order:(scrambled blocks) ?wave_of ~f ();
    if Sanitize.enabled () then Sanitize.launch_end ();
    (* launch epilogue: runs on the main domain after every block has
       retired but before the launch delta is captured, so analytically
       derived counters (written straight to [t.total] and the shared L2)
       feed the same roofline time model as instanced ones *)
    (match post with None -> () | Some g -> g ());
    t.total.kernels <- t.total.kernels + 1;
    let delta = Counters.diff t.total before in
    delta.kernels <- 1;
    let time_s = launch_time t.dev ~blocks delta in
    let bottleneck = bottleneck_of t.dev ~blocks delta in
    t.launches <-
      { lname = name; blocks; threads; shared_bytes; delta; time_s; bottleneck }
      :: t.launches
  end

(* Calibrate the per-event cost of L2-trace encoding. The encode
   ([tbuf_push] in [load_line]/[store_line]) happens inline with block
   compute, so the timeline cannot slice it out per event; instead the
   parattr attribution multiplies the recorded event count (the
   "sim.encode" instant args) by this measured steady-state push cost,
   amortised growth included. *)
let encode_cost_per_event_s () =
  let b = tbuf_create () in
  let warm = 1 lsl 14 and n = 1 lsl 19 in
  for i = 0 to warm - 1 do
    tbuf_push b (i lsl 1)
  done;
  b.len <- 0;
  let t0 = Unix.gettimeofday () in
  for i = 0 to n - 1 do
    tbuf_push b (i lsl 1)
  done;
  let t1 = Unix.gettimeofday () in
  ignore (Sys.opaque_identity b.buf.(n - 1));
  (t1 -. t0) /. float_of_int n

let kernel_time t = List.fold_left (fun acc l -> acc +. l.time_s) 0.0 t.launches

let transfer_time t ~bytes =
  2.0 *. float_of_int bytes /. (t.dev.pcie_bw_gbs *. 1e9)
