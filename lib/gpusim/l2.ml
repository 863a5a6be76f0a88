type t = {
  sets : int;
  assoc : int;
  line_bytes : int;
  tags : int array array;  (** [sets][assoc], -1 = invalid; index 0 = MRU *)
  dirty : bool array array;
}

let create ~bytes ~assoc ~line_bytes =
  let lines = max 1 (bytes / line_bytes) in
  let sets = max 1 (lines / assoc) in
  {
    sets;
    assoc;
    line_bytes;
    tags = Array.make_matrix sets assoc (-1);
    dirty = Array.make_matrix sets assoc false;
  }

(* The simulator probes once per memory transaction, so a probe returns
   its outcome as a bit pair ([hit_bit] lor [writeback_bit]), never a
   freshly allocated record — the encode path's allocation-free
   guarantee depends on it. *)
let hit_bit = 1
let writeback_bit = 2

(* top-level (closure-free) way lookup: a local [let rec] would capture
   [set]/[tag] and allocate a closure on every probe. Every L1 and L2
   probe runs through here, so tags must compare as ints, never with
   polymorphic compare: without the annotations [=] is polymorphic and
   calls [caml_equal] on every way probed (~2.6x slower per replayed
   line). The polymorphic compares in lib/schemes run once per statement,
   not per probe, and can stay. *)
let rec find_way (set : int array) (tag : int) assoc i =
  if i >= assoc then -1
  else if Array.unsafe_get set i = tag then i
  else find_way set tag assoc (i + 1)

let access_code t ~line ~write =
  let si = line mod t.sets in
  let set = t.tags.(si) and dirty = t.dirty.(si) in
  let tag = line / t.sets in
  let i = find_way set tag t.assoc 0 in
  if i >= 0 then begin
    let d = dirty.(i) in
    for j = i downto 1 do
      set.(j) <- set.(j - 1);
      dirty.(j) <- dirty.(j - 1)
    done;
    set.(0) <- tag;
    dirty.(0) <- d || write;
    hit_bit
  end
  else begin
    let victim_dirty = set.(t.assoc - 1) >= 0 && dirty.(t.assoc - 1) in
    for j = t.assoc - 1 downto 1 do
      set.(j) <- set.(j - 1);
      dirty.(j) <- dirty.(j - 1)
    done;
    set.(0) <- tag;
    dirty.(0) <- write;
    if victim_dirty then writeback_bit else 0
  end

(* Run-length probe for the batched compressed-trace replay: touch [n]
   consecutive lines starting at [line0] and return the aggregate
   [(hits lsl run_shift) lor writebacks]. Per-line semantics are exactly
   [access_code] — consecutive lines land in consecutive sets, so the
   loop is a tight walk with one tag-divide per line and no per-line
   record or closure. *)
let run_shift = 24

let access_run t ~line0 ~n ~write =
  if n < 0 || n >= 1 lsl run_shift then
    invalid_arg "L2.access_run: n out of range";
  let hits = ref 0 and wbs = ref 0 in
  for l = line0 to line0 + n - 1 do
    let si = l mod t.sets in
    let set = t.tags.(si) and dirty = t.dirty.(si) in
    let tag = l / t.sets in
    let i = find_way set tag t.assoc 0 in
    if i >= 0 then begin
      let d = dirty.(i) in
      for j = i downto 1 do
        set.(j) <- set.(j - 1);
        dirty.(j) <- dirty.(j - 1)
      done;
      set.(0) <- tag;
      dirty.(0) <- d || write;
      incr hits
    end
    else begin
      let victim_dirty = set.(t.assoc - 1) >= 0 && dirty.(t.assoc - 1) in
      for j = t.assoc - 1 downto 1 do
        set.(j) <- set.(j - 1);
        dirty.(j) <- dirty.(j - 1)
      done;
      set.(0) <- tag;
      dirty.(0) <- write;
      if victim_dirty then incr wbs
    end
  done;
  (!hits lsl run_shift) lor !wbs

(* plain nested loops: the simulator resets a (small) per-block L1
   through here once per block, so closure-per-set iteration would put
   hundreds of words of garbage on every block boundary *)
let flush t =
  let n = ref 0 in
  for si = 0 to t.sets - 1 do
    let set = t.tags.(si) and dirty = t.dirty.(si) in
    for i = 0 to t.assoc - 1 do
      if set.(i) >= 0 && dirty.(i) then incr n;
      set.(i) <- -1;
      dirty.(i) <- false
    done
  done;
  !n

let reset t = ignore (flush t)
let line_bytes t = t.line_bytes

let stats t =
  let valid = ref 0 and dirty = ref 0 in
  Array.iteri
    (fun si set ->
      Array.iteri
        (fun i tag ->
          if tag >= 0 then begin
            incr valid;
            if t.dirty.(si).(i) then incr dirty
          end)
        set)
    t.tags;
  (!valid, !dirty)
