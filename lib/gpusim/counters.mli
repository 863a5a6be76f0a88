(** Hardware event counters gathered during simulation — the profiler
    quantities of the paper's Table 5. *)

type t = {
  mutable gld_inst : int;
      (** per-thread 32-bit global load instructions ("gld inst 32bit") *)
  mutable gst_inst : int;
  mutable gld_requests : int;  (** per-warp global load instructions *)
  mutable gld_transactions : int;  (** 128 B transactions sent to L2 *)
  mutable gst_transactions : int;
  mutable gld_useful_bytes : int;  (** bytes actually consumed by lanes *)
  mutable l2_read_transactions : int;
  mutable l2_write_transactions : int;
  mutable dram_read_transactions : int;
  mutable dram_write_transactions : int;
  mutable shared_load_requests : int;
  mutable shared_load_transactions : int;
  mutable shared_store_requests : int;
  mutable shared_store_transactions : int;
  mutable serial_store_transactions : int;
      (** store transactions issued in a dedicated copy-out phase that
          does not overlap computation (Section 4.2.1) *)
  mutable flops : int;
  mutable syncs : int;
  mutable kernels : int;
}

val create : unit -> t
val copy : t -> t
val add : t -> t -> unit
(** [add acc x] accumulates [x] into [acc]. *)

val add_invariant : t -> t -> times:int -> unit
(** [add_invariant acc d ~times] adds [times × d] to the counters a
    uniform translation of a block leaves unchanged: shared-memory
    requests and transactions, [flops] and [syncs]. Replay and analytic
    scaling take these from a class representative's delta. *)

val diff : t -> t -> t
(** [diff now before] — per-launch deltas. *)

val gld_efficiency : t -> float
(** useful bytes / transferred bytes of global loads, in [0, 1];
    defined as [0.0] when no transaction was issued. *)

val shared_loads_per_request : t -> float
(** Bank-conflict replay factor ("shared loads per request", ≥ 1);
    defined as [1.0] when no request was issued. *)

val to_assoc : t -> (string * int) list
(** Every counter as a (name, value) pair, in declaration order — the
    machine-readable form used by trace/JSON sinks. *)

val pp : t Fmt.t
