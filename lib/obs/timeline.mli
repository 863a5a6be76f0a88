(** Wall-clock per-domain timeline recorder with Chrome trace export.

    The only recorder of durations. Deliberately separate from the
    deterministic {!Obs} counters, which must stay bit-identical at
    every [--jobs] value, while timelines record wall-clock begin/end
    slices, instant events, and flow arrows whose contents differ run
    to run. Nothing here feeds back into Obs, so enabling recording
    never perturbs a deterministic output.

    Cost model: every record call is a single [!on] test when
    disabled. When enabled, each domain lazily owns one fixed-capacity
    track (flat arrays written lock-free by that domain only), and
    recording an event is a handful of array stores with no buffer
    allocation. A full track drops newest events and counts the drops,
    keeping the recorded prefix well-formed. *)

val enabled : unit -> bool

val enable : ?capacity:int -> unit -> unit
(** Start recording: resets all tracks, stamps a fresh epoch, and sets
    the per-track event capacity (default 2^18). *)

val disable : unit -> unit
val reset : unit -> unit

val label : string -> unit
(** Name the calling domain's track (e.g. ["worker-2"]); shows up as
    the Perfetto thread name. Unlabelled domains render as ["main"] or
    ["domain-N"]. Effective for both the current track and any track
    the domain creates after a later {!reset}. *)

(* ---- recording ---------------------------------------------------------- *)

val begin_ : ?arg:float -> string -> unit
(** Open a slice on the calling domain's track. [arg] is an optional
    numeric payload shown in the trace viewer. *)

val end_ : unit -> unit
(** Close the innermost open slice; also feeds its duration into the
    per-name latency histogram. Safe no-op with no slice open. *)

val slice : ?arg:float -> string -> (unit -> 'a) -> 'a
(** [slice name f] = [begin_ name; f (); end_ ()], exception-safe. *)

val instant : ?arg:float -> string -> unit
(** Zero-duration marker (Perfetto "instant" arrowhead). *)

val flow_id : unit -> int
(** Fresh process-wide flow id, for pairing {!flow_s} / {!flow_f}. *)

val flow_s : int -> unit
(** Flow start: draws an arrow from here (e.g. task submission)... *)

val flow_f : int -> unit
(** ...to the matching flow finish (e.g. task execution start). *)

val dropped : unit -> int
(** Events discarded because a track filled. *)

(* ---- aggregation -------------------------------------------------------- *)

type slice_tot = {
  sl_name : string;
  sl_count : int;
  sl_incl_s : float;  (** wall time inside slices of this name *)
  sl_excl_s : float;  (** inclusive minus time in child slices *)
  sl_arg : float;  (** sum of begin/instant args of this name *)
}

type track_tot = {
  tk_tid : int;  (** domain id *)
  tk_name : string;
  tk_busy_s : float;  (** covered by top-level slices *)
  tk_events : int;
  tk_dropped : int;
  tk_slices : slice_tot list;  (** sorted by exclusive time, descending *)
}

type summary = {
  su_tracks : track_tot list;  (** sorted by domain id *)
  su_slowest : (string * string * float * float) list;
      (** top slices as (name, track, start since epoch in s, duration
          in s), longest first *)
  su_hist : (string * Hist.t) list;  (** merged across tracks, by name *)
  su_dropped : int;
  su_span_s : float;  (** last recorded timestamp minus epoch *)
}

val summary : unit -> summary
(** Aggregate all tracks. Slices left open (e.g. a worker parked in
    its idle wait) are closed at the last timestamp seen on their
    track. *)

val excl_s : summary -> string -> float
(** Exclusive seconds for a slice name, summed over all tracks. *)

val incl_s : summary -> string -> float
val arg_sum : summary -> string -> float

val pp_summary : Format.formatter -> unit -> unit
(** Per-track busy time and slice breakdown, top slowest slices, and
    latency histograms. *)

(* ---- export ------------------------------------------------------------- *)

val write_chrome : string -> unit
(** Write all tracks as a Chrome trace-event JSON file ("JSON Array
    Format"): open it in {{:https://ui.perfetto.dev}Perfetto} or
    chrome://tracing. One process, one named thread track per domain,
    timestamps in microseconds since the recorder epoch. *)

val write_chrome_channel : Out_channel.t -> unit
