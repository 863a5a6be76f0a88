type t = {
  mutable gld_inst : int;
  mutable gst_inst : int;
  mutable gld_requests : int;
  mutable gld_transactions : int;
  mutable gst_transactions : int;
  mutable gld_useful_bytes : int;
  mutable l2_read_transactions : int;
  mutable l2_write_transactions : int;
  mutable dram_read_transactions : int;
  mutable dram_write_transactions : int;
  mutable shared_load_requests : int;
  mutable shared_load_transactions : int;
  mutable shared_store_requests : int;
  mutable shared_store_transactions : int;
  mutable serial_store_transactions : int;
  mutable flops : int;
  mutable syncs : int;
  mutable kernels : int;
}

let create () =
  {
    gld_inst = 0;
    gst_inst = 0;
    gld_requests = 0;
    gld_transactions = 0;
    gst_transactions = 0;
    gld_useful_bytes = 0;
    l2_read_transactions = 0;
    l2_write_transactions = 0;
    dram_read_transactions = 0;
    dram_write_transactions = 0;
    shared_load_requests = 0;
    shared_load_transactions = 0;
    shared_store_requests = 0;
    shared_store_transactions = 0;
    serial_store_transactions = 0;
    flops = 0;
    syncs = 0;
    kernels = 0;
  }

let copy t = { t with gld_inst = t.gld_inst }

let add acc x =
  acc.gld_inst <- acc.gld_inst + x.gld_inst;
  acc.gst_inst <- acc.gst_inst + x.gst_inst;
  acc.gld_requests <- acc.gld_requests + x.gld_requests;
  acc.gld_transactions <- acc.gld_transactions + x.gld_transactions;
  acc.gst_transactions <- acc.gst_transactions + x.gst_transactions;
  acc.gld_useful_bytes <- acc.gld_useful_bytes + x.gld_useful_bytes;
  acc.l2_read_transactions <- acc.l2_read_transactions + x.l2_read_transactions;
  acc.l2_write_transactions <- acc.l2_write_transactions + x.l2_write_transactions;
  acc.dram_read_transactions <- acc.dram_read_transactions + x.dram_read_transactions;
  acc.dram_write_transactions <- acc.dram_write_transactions + x.dram_write_transactions;
  acc.shared_load_requests <- acc.shared_load_requests + x.shared_load_requests;
  acc.shared_load_transactions <- acc.shared_load_transactions + x.shared_load_transactions;
  acc.shared_store_requests <- acc.shared_store_requests + x.shared_store_requests;
  acc.shared_store_transactions <- acc.shared_store_transactions + x.shared_store_transactions;
  acc.serial_store_transactions <- acc.serial_store_transactions + x.serial_store_transactions;
  acc.flops <- acc.flops + x.flops;
  acc.syncs <- acc.syncs + x.syncs;
  acc.kernels <- acc.kernels + x.kernels

(* The counts a uniform s0 translation of a block cannot change:
   shared-memory requests and bank-conflict transactions (shared
   addresses are tile-relative or shift uniformly, which rotates the
   bank assignment), flops and barriers. *)
let add_invariant acc d ~times =
  acc.shared_load_requests <- acc.shared_load_requests + (times * d.shared_load_requests);
  acc.shared_load_transactions <-
    acc.shared_load_transactions + (times * d.shared_load_transactions);
  acc.shared_store_requests <- acc.shared_store_requests + (times * d.shared_store_requests);
  acc.shared_store_transactions <-
    acc.shared_store_transactions + (times * d.shared_store_transactions);
  acc.flops <- acc.flops + (times * d.flops);
  acc.syncs <- acc.syncs + (times * d.syncs)

let diff now before =
  {
    gld_inst = now.gld_inst - before.gld_inst;
    gst_inst = now.gst_inst - before.gst_inst;
    gld_requests = now.gld_requests - before.gld_requests;
    gld_transactions = now.gld_transactions - before.gld_transactions;
    gst_transactions = now.gst_transactions - before.gst_transactions;
    gld_useful_bytes = now.gld_useful_bytes - before.gld_useful_bytes;
    l2_read_transactions = now.l2_read_transactions - before.l2_read_transactions;
    l2_write_transactions = now.l2_write_transactions - before.l2_write_transactions;
    dram_read_transactions = now.dram_read_transactions - before.dram_read_transactions;
    dram_write_transactions = now.dram_write_transactions - before.dram_write_transactions;
    shared_load_requests = now.shared_load_requests - before.shared_load_requests;
    shared_load_transactions = now.shared_load_transactions - before.shared_load_transactions;
    shared_store_requests = now.shared_store_requests - before.shared_store_requests;
    shared_store_transactions = now.shared_store_transactions - before.shared_store_transactions;
    serial_store_transactions = now.serial_store_transactions - before.serial_store_transactions;
    flops = now.flops - before.flops;
    syncs = now.syncs - before.syncs;
    kernels = now.kernels - before.kernels;
  }

(* Ratio counters must stay defined when the denominator is zero so that
   NaN/inf never leak into reports: no transactions means no transferred
   bytes (efficiency 0), no requests means no replays (factor 1). *)
let gld_efficiency t =
  if t.gld_transactions = 0 then 0.0
  else
    float_of_int t.gld_useful_bytes /. float_of_int (t.gld_transactions * 128)

let shared_loads_per_request t =
  if t.shared_load_requests = 0 then 1.0
  else float_of_int t.shared_load_transactions /. float_of_int t.shared_load_requests

let to_assoc t =
  [
    ("gld_inst", t.gld_inst);
    ("gst_inst", t.gst_inst);
    ("gld_requests", t.gld_requests);
    ("gld_transactions", t.gld_transactions);
    ("gst_transactions", t.gst_transactions);
    ("gld_useful_bytes", t.gld_useful_bytes);
    ("l2_read_transactions", t.l2_read_transactions);
    ("l2_write_transactions", t.l2_write_transactions);
    ("dram_read_transactions", t.dram_read_transactions);
    ("dram_write_transactions", t.dram_write_transactions);
    ("shared_load_requests", t.shared_load_requests);
    ("shared_load_transactions", t.shared_load_transactions);
    ("shared_store_requests", t.shared_store_requests);
    ("shared_store_transactions", t.shared_store_transactions);
    ("serial_store_transactions", t.serial_store_transactions);
    ("flops", t.flops);
    ("syncs", t.syncs);
    ("kernels", t.kernels);
  ]

let pp ppf t =
  Fmt.pf ppf
    "@[<v>gld_inst=%d gst_inst=%d gld_trans=%d (eff %.0f%%)@,\
     l2_read=%d dram_read=%d dram_write=%d@,\
     shared: loads %d/%d req stores %d/%d req (%.2f loads/req)@,\
     flops=%d syncs=%d kernels=%d@]"
    t.gld_inst t.gst_inst t.gld_transactions
    (100.0 *. gld_efficiency t)
    t.l2_read_transactions t.dram_read_transactions t.dram_write_transactions
    t.shared_load_transactions t.shared_load_requests t.shared_store_transactions
    t.shared_store_requests
    (shared_loads_per_request t)
    t.flops t.syncs t.kernels
