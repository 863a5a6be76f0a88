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

(* The sorted line-run form of a recorded stream's distinct global
   lines: the scaled blocks' compressed L2 trace. Each touched line is
   a code [(line lsl 1) lor write], the same encoding as the parallel
   path's L2 traces, and counts once per direction: repeated accesses
   overwhelmingly hit (the block's own L1/L2 residency absorbs them),
   so the compressed trace keeps the L2's state evolution while
   dropping the per-event walk. The codes are sorted reads first, then
   writes, each by line, deduplicated and coalesced into maximal
   consecutive runs, flattened as [(code, n)] pairs ([code] is the
   run's first line). Replaying runs reorders distinct-line touches
   within one block's trace; the DRAM model's error contract
   ({!dram_error_bound}) already covers exactly this class of
   order-of-touch perturbation, and the analytic bench/tests assert the
   bound holds. *)
let line_runs (s : Tileclass.stream) ~line_bytes =
  let codes = ref (Array.make 256 0) and n = ref 0 in
  (* a direct-mapped filter of recently pushed codes drops most repeat
     touches before they reach the buffer (a stencil block touches each
     line several times); the sort below removes the rest *)
  let recent = Array.make 4096 min_int in
  let push c =
    let slot = c land 4095 in
    if Array.unsafe_get recent slot <> c then begin
      Array.unsafe_set recent slot c;
      if !n = Array.length !codes then begin
        let a = Array.make (2 * !n) 0 in
        Array.blit !codes 0 a 0 !n;
        codes := a
      end;
      Array.unsafe_set !codes !n c;
      incr n
    end
  in
  let run w addr bytes =
    for l = addr / line_bytes to (addr + bytes - 1) / line_bytes do
      push ((l lsl 1) lor w)
    done
  in
  let lanes w addrs = Array.iter (fun a -> push (((a / line_bytes) lsl 1) lor w)) addrs in
  Tileclass.iter s ~f:(function
    | Tileclass.Gload_run { addr; n } -> run 0 addr (4 * n)
    | Gstore_run { addr; n; _ } -> run 1 addr (4 * n)
    | Gload_lanes { addrs } -> lanes 0 addrs
    | Gstore_lanes { addrs; _ } -> lanes 1 addrs
    | Compute _ -> ());
  let a = Array.sub !codes 0 !n in
  Array.sort
    (fun (x : int) y ->
      let c = Int.compare (x land 1) (y land 1) in
      if c <> 0 then c else Int.compare x y)
    a;
  (* a code that neither repeats nor extends its predecessor by one line
     in the same direction starts a run *)
  let starts i = i = 0 || (a.(i) <> a.(i - 1) && a.(i) <> a.(i - 1) + 2) in
  let nruns = ref 0 in
  Array.iteri (fun i _ -> if starts i then incr nruns) a;
  let runs = Array.make (2 * !nruns) 0 and k = ref (-2) in
  Array.iteri
    (fun i c ->
      if starts i then begin
        k := !k + 2;
        runs.(!k) <- c;
        runs.(!k + 1) <- 1
      end
      else if c <> a.(i - 1) then runs.(!k + 1) <- runs.(!k + 1) + 1)
    a;
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
