(* Class-population counter scaling and the analytic L2/DRAM model for
   the hierarchical (tile-class) simulation mode. See analytic.mli for
   the exactness argument. *)

let dram_error_bound = 0.5

(* Every counter except the DRAM pair and [kernels] is per-block state:
   coalescing is recomputed per event from addresses whose translation is
   a whole number of lines, the L1 is private and reset per block (a
   uniform line-shift rotates its set mapping bijectively, preserving the
   hit/miss sequence), and shared-memory conflict counts are
   base-independent. So a class member's delta equals its
   representative's delta field-for-field, and population scaling is
   bit-exact. The DRAM pair depends on the shared cross-block L2 state
   and is modelled by {!replay_line_runs} instead. *)
let scale_into (into : Counters.t) ~(delta : Counters.t) ~times =
  if times < 0 then invalid_arg "Analytic.scale_into: negative times";
  let k = times in
  into.gld_inst <- into.gld_inst + (k * delta.gld_inst);
  into.gst_inst <- into.gst_inst + (k * delta.gst_inst);
  into.gld_requests <- into.gld_requests + (k * delta.gld_requests);
  into.gld_transactions <- into.gld_transactions + (k * delta.gld_transactions);
  into.gst_transactions <- into.gst_transactions + (k * delta.gst_transactions);
  into.gld_useful_bytes <- into.gld_useful_bytes + (k * delta.gld_useful_bytes);
  into.l2_read_transactions <-
    into.l2_read_transactions + (k * delta.l2_read_transactions);
  into.l2_write_transactions <-
    into.l2_write_transactions + (k * delta.l2_write_transactions);
  into.serial_store_transactions <-
    into.serial_store_transactions + (k * delta.serial_store_transactions);
  Counters.add_invariant into delta ~times:k

(* First-touch-ordered distinct lines of a recorded stream, encoded as
   [(line lsl 1) lor write] — the same encoding as the parallel path's L2
   traces. A line is emitted once at its first load and once at its first
   store: repeated accesses overwhelmingly hit (the block's own L1/L2
   residency absorbs them), so the compressed trace keeps the L2's state
   evolution while dropping the per-event walk. *)
let lines_of_stream (s : Tileclass.stream) ~line_bytes =
  let seen : (int, unit) Hashtbl.t = Hashtbl.create 512 in
  let out = ref [] in
  let n = ref 0 in
  let touch ~write line =
    let enc = (line lsl 1) lor if write then 1 else 0 in
    if not (Hashtbl.mem seen enc) then begin
      Hashtbl.add seen enc ();
      out := enc :: !out;
      incr n
    end
  in
  let run ~write addr bytes =
    let lo = addr / line_bytes and hi = (addr + bytes - 1) / line_bytes in
    for l = lo to hi do
      touch ~write l
    done
  in
  Tileclass.iter s ~f:(function
    | Tileclass.Gload_run { addr; n; _ } -> run ~write:false addr (4 * n)
    | Gstore_run { addr; n; _ } -> run ~write:true addr (4 * n)
    | Gload_lanes { addrs; _ } ->
        Array.iter (fun a -> touch ~write:false (a / line_bytes)) addrs
    | Gstore_lanes { addrs; _ } ->
        Array.iter (fun a -> touch ~write:true (a / line_bytes)) addrs
    | Compute _ -> ());
  let arr = Array.make !n 0 in
  List.iteri (fun i enc -> arr.(!n - 1 - i) <- enc) !out;
  arr

(* Sorted line-run form of a compressed trace: reads first, then
   writes, each direction sorted by line and coalesced into maximal
   consecutive runs, flattened as [(enc, n)] pairs ([enc] is the run's
   first line in the [(line lsl 1) lor write] encoding). Replaying runs
   instead of first-touch order reorders distinct-line touches within
   one block's trace; the DRAM model's error contract
   ({!dram_error_bound}) already covers exactly this class of
   order-of-touch perturbation, and the analytic bench/tests assert the
   bound holds. *)
let compress_lines (lines : int array) =
  let a = Array.copy lines in
  (* (write, line) ascending *)
  Array.sort
    (fun e1 e2 ->
      let c = compare (e1 land 1) (e2 land 1) in
      if c <> 0 then c else compare (e1 asr 1) (e2 asr 1))
    a;
  let out = ref [] and nruns = ref 0 in
  let n = Array.length a in
  let i = ref 0 in
  while !i < n do
    let e0 = a.(!i) in
    let c = ref 1 in
    while
      !i + !c < n
      && a.(!i + !c) land 1 = e0 land 1
      && a.(!i + !c) asr 1 = (e0 asr 1) + !c
    do
      incr c
    done;
    out := (e0, !c) :: !out;
    incr nruns;
    i := !i + !c
  done;
  let runs = Array.make (2 * !nruns) 0 in
  List.iteri
    (fun j (e, c) ->
      let k = !nruns - 1 - j in
      runs.(2 * k) <- e;
      runs.((2 * k) + 1) <- c)
    !out;
  runs

(* Replay a translated line-run trace through the shared L2 with one
   {!L2.access_run} probe per run, charging t.total's DRAM counters with
   the aggregated miss/writeback counts — per-line cache semantics
   identical to [Sim.replay_l2]'s, in run order. Must run on the main
   domain (launch epilogue). *)
let replay_line_runs (t : Sim.t) runs ~dline =
  let c = t.Sim.total in
  let nlines = ref 0 in
  let nruns = Array.length runs / 2 in
  for k = 0 to nruns - 1 do
    let enc = runs.(2 * k) and n = runs.((2 * k) + 1) in
    let line0 = (enc asr 1) + dline in
    let write = enc land 1 = 1 in
    let code = L2.access_run t.Sim.l2 ~line0 ~n ~write in
    let hits = code lsr L2.run_shift
    and wbs = code land ((1 lsl L2.run_shift) - 1) in
    if not write then
      c.dram_read_transactions <- c.dram_read_transactions + (n - hits);
    c.dram_write_transactions <- c.dram_write_transactions + wbs;
    nlines := !nlines + n
  done;
  ignore (Atomic.fetch_and_add t.Sim.analytic_replay_lines !nlines)
