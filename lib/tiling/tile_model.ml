open Hextile_ir
open Hextile_deps
open Hextile_util

(* Closed-form per-candidate analysis of one generic hybrid tile: exact
   iteration and footprint counts plus sound lower/upper bounds on the
   number of global loads, all from the hexagon row ranges, the
   classical widths and the static access offsets — no statement
   instance is ever enumerated. The analysis mirrors the per-instance
   walk of the reference accounting in test/oracle/ (generic tile tt=7,
   phase=1, s_tile=7) cell for cell, which the property tests enforce. *)

type box = { lo : int array; hi : int array }

let volume b =
  let n = Array.length b.lo in
  let rec go i acc =
    if i = n then acc
    else
      let e = b.hi.(i) - b.lo.(i) + 1 in
      if e <= 0 then 0 else go (i + 1) (acc * e)
  in
  go 0 1

type ainfo = {
  acc : Stencil.access;
  arr : int;  (** index into [array_names] *)
  fold : int;  (** storage slots of the array; 1 when not folded *)
  id : int;  (** unique access-occurrence id *)
  aslot : int;  (** dense index of (this access, slot 0) *)
  gslot : int;  (** dense index of (its array, slot 0) *)
}

type sinfo = { reads : ainfo array; write : ainfo }

type ctx = {
  prog : Stencil.t;
  k : int;
  dims : int;
  deps : Dep.t list;
  cone : Cone.t;
  delta1 : Rat.t array;  (** inner-dimension slopes, length [dims - 1] *)
  stmts : sinfo array;
  narrays : int;
  array_names : string array;
  naslots : int;  (** number of (access, slot) pairs *)
  gbase : int array;
      (** array [i]'s (array, slot) pairs are [gbase.(i) .. gbase.(i+1) - 1] *)
}

let ctx ?deps (prog : Stencil.t) =
  (match Stencil.validate prog with
  | Ok () -> ()
  | Error m -> invalid_arg ("Tile_model.ctx: " ^ m));
  let deps = match deps with Some d -> d | None -> Dep.analyze prog in
  let cone = Cone.of_deps deps ~dim:0 in
  let k = List.length prog.stmts in
  let dims = Stencil.spatial_dims prog in
  let delta1 = Array.init (dims - 1) (fun i -> Cone.delta1_only deps ~dim:(i + 1)) in
  let array_names =
    Array.of_list (List.map (fun (d : Stencil.array_decl) -> d.aname) prog.arrays)
  in
  let arr_index name =
    let rec go i =
      if i >= Array.length array_names then
        invalid_arg ("Tile_model.ctx: unknown array " ^ name)
      else if String.equal array_names.(i) name then i
      else go (i + 1)
    in
    go 0
  in
  let fold_of name =
    match (Stencil.array_decl prog name).fold with Some m -> m | None -> 1
  in
  (* (array, slot) pairs, array-major; (access, slot) pairs, id-major *)
  let gbase = Array.make (Array.length array_names + 1) 0 in
  Array.iteri (fun i n -> gbase.(i + 1) <- gbase.(i) + fold_of n) array_names;
  let next_id = ref 0 and next_aslot = ref 0 in
  let mk (acc : Stencil.access) =
    let arr = arr_index acc.array and fold = fold_of acc.array in
    let id = !next_id and aslot = !next_aslot in
    incr next_id;
    next_aslot := aslot + fold;
    { acc; arr; fold; id; aslot; gslot = gbase.(arr) }
  in
  let stmts =
    Array.of_list
      (List.map
         (fun (s : Stencil.stmt) ->
           {
             reads = Array.of_list (List.map mk (Stencil.distinct_reads s));
             write = mk s.write;
           })
         prog.stmts)
  in
  {
    prog;
    k;
    dims;
    deps;
    cone;
    delta1;
    stmts;
    narrays = Array.length array_names;
    array_names;
    naslots = !next_aslot;
    gbase;
  }

type row = {
  a : int;
  blo : int;
  bhi : int;  (** inclusive [b] range of the hexagon row *)
  sidx : int;  (** statement executing at this row *)
  tstep : int;  (** logical time step of the row *)
  fl : int array;  (** [⌊δ1_d · a⌋] per inner dimension *)
}

type hslice = {
  cx : ctx;
  h : int;
  w0 : int;
  hex : Hexagon.t;
  u0 : int;
  s00 : int;
  rows : row array;  (** non-empty rows, ascending [a] *)
}

let hslice_of_hex (cx : ctx) (hex : Hexagon.t) =
  let hs = Hex_schedule.make hex in
  let u0, s00 = Hex_schedule.tile_origin hs ~phase:1 ~tt:7 ~s_tile:7 in
  let rows = ref [] in
  for a = 0 to hex.height - 1 do
    let blo = hex.row_lo.(a) and bhi = hex.row_hi.(a) in
    if blo <= bhi then begin
      let u = u0 + a in
      rows :=
        {
          a;
          blo;
          bhi;
          sidx = Intutil.fmod u cx.k;
          tstep = Intutil.fdiv u cx.k;
          fl = Array.map (fun d -> Rat.floor (Rat.mul_int d a)) cx.delta1;
        }
        :: !rows
    end
  done;
  { cx; h = hex.h; w0 = hex.w0; hex; u0; s00; rows = Array.of_list (List.rev !rows) }

let hslice cx ~h ~w0 = hslice_of_hex cx (Hexagon.make ~h ~w0 cx.cone)

let slot_of row (ai : ainfo) = Intutil.fmod (row.tstep + ai.acc.time_off) ai.fold

(* Boxes live in flat [int] arrays, box [i] of a table at
   [i·dims .. i·dims + dims - 1] of its [lo] and [hi] arrays. A box never
   written is empty as [lo = max_int], [hi = min_int]: it meets nothing,
   and hulling a box into it yields that box. *)

(* The (absolute) spatial box access [ai] touches over one hexagon row
   of the generic tile, written at offset [o]: dimension 0 sweeps the
   row's [b] range, inner dimension [d] sweeps the classical intra-tile
   window [7·w_d - ⌊δ1_d·a⌋ .. +w_d-1], both shifted by the access
   offset. *)
let access_box hs ~w row ai lo hi o =
  let off = ai.acc.offsets in
  lo.(o) <- hs.s00 + row.blo + off.(0);
  hi.(o) <- hs.s00 + row.bhi + off.(0);
  for d = 1 to hs.cx.dims - 1 do
    let base = (7 * w.(d)) - row.fl.(d - 1) + off.(d) in
    lo.(o + d) <- base;
    hi.(o + d) <- base + w.(d) - 1
  done

(* box at [o] of [dlo]/[dhi] := its hull with the box at 0 of [lo]/[hi] *)
let hull_into ~dims dlo dhi o lo hi =
  for d = 0 to dims - 1 do
    if lo.(d) < dlo.(o + d) then dlo.(o + d) <- lo.(d);
    if hi.(d) > dhi.(o + d) then dhi.(o + d) <- hi.(d)
  done

let blit_box ~dims lo hi dlo dhi o =
  Array.blit lo 0 dlo o dims;
  Array.blit hi 0 dhi o dims

(* |r|, |r ∩ p| and |r ∩ p ∩ q|, each box at the given offset of its
   table; [r] of the last two at 0 *)
let vol1 ~dims rlo rhi ro =
  let rec go d acc =
    if d = dims then acc
    else
      let l = rlo.(ro + d) and h = rhi.(ro + d) in
      if h < l then 0 else go (d + 1) (acc * (h - l + 1))
  in
  go 0 1

let vol2 ~dims rlo rhi plo phi po =
  let rec go d acc =
    if d = dims then acc
    else
      let l = max rlo.(d) plo.(po + d) and h = min rhi.(d) phi.(po + d) in
      if h < l then 0 else go (d + 1) (acc * (h - l + 1))
  in
  go 0 1

let vol3 ~dims rlo rhi plo phi po qlo qhi qo =
  let rec go d acc =
    if d = dims then acc
    else
      let l = max (max rlo.(d) plo.(po + d)) qlo.(qo + d)
      and h = min (min rhi.(d) phi.(po + d)) qhi.(qo + d) in
      if h < l then 0 else go (d + 1) (acc * (h - l + 1))
  in
  go 0 1

let empty_boxes ~dims n = (Array.make (n * dims) max_int, Array.make (n * dims) min_int)

type footprint = {
  floats : int;
  boxes : box option array;
  slots : int array array;
}

let footprint hs ~w =
  let cx = hs.cx in
  let dims = cx.dims in
  let blo, bhi = empty_boxes ~dims cx.narrays in
  let live = Array.make cx.gbase.(cx.narrays) false in
  let rlo = Array.make dims 0 and rhi = Array.make dims 0 in
  let touch row ai =
    access_box hs ~w row ai rlo rhi 0;
    hull_into ~dims blo bhi (ai.arr * dims) rlo rhi;
    live.(ai.gslot + slot_of row ai) <- true
  in
  Array.iter
    (fun row ->
      let si = cx.stmts.(row.sidx) in
      Array.iter (touch row) si.reads;
      touch row si.write)
    hs.rows;
  let boxes =
    Array.init cx.narrays (fun i ->
        let o = i * dims in
        if blo.(o) = max_int then None
        else Some { lo = Array.sub blo o dims; hi = Array.sub bhi o dims })
  in
  let slots =
    Array.init cx.narrays (fun i ->
        let g = cx.gbase.(i) in
        Array.of_list
          (List.filter (fun s -> live.(g + s)) (List.init (cx.gbase.(i + 1) - g) Fun.id)))
  in
  let floats = ref 0 in
  Array.iteri
    (fun i ob ->
      match ob with
      | None -> ()
      | Some b -> floats := !floats + (volume b * max 1 (Array.length slots.(i))))
    boxes;
  { floats = !floats; boxes; slots }

type estimate = {
  iterations : int;
  fp : footprint;
  loads_lb : int;
  loads_ub : int;
}

(* Loads bounds. Per (array, slot) and per read access, the cells the
   access touches at row [a] form a box whose per-dimension interval
   endpoints are monotone (inner dims) or row-convex (dim 0), so the set
   of rows containing a fixed cell is contiguous: subtracting only the
   access's previous same-slot row box from the current one counts every
   cell exactly once, at its first-touch row. Subtracting additionally
   the hull of the writes flushed before that row over-approximates the
   written set, so the per-access sum undercounts first-read-unwritten
   cells — a sound lower bound; the per-(array, slot) bound takes the
   max over its read accesses (distinct accesses may read the same
   cells). The upper bound per (array, slot) is the smaller of the hull
   of all its read boxes and the sum of the per-access exact union
   sizes. All tables are dense: [prev], [lb] and [ub] by (access,
   slot), the read and write hulls by (array, slot). *)
let estimate hs ~w =
  let cx = hs.cx in
  let dims = cx.dims in
  let fp = footprint hs ~w in
  let rowsum = Array.fold_left (fun acc r -> acc + (r.bhi - r.blo + 1)) 0 hs.rows in
  let inner = ref 1 in
  for d = 1 to dims - 1 do
    inner := !inner * w.(d)
  done;
  let iterations = rowsum * !inner in
  let ngslots = cx.gbase.(cx.narrays) in
  let plo, phi = empty_boxes ~dims cx.naslots in
  let lb = Array.make cx.naslots 0 and ub = Array.make cx.naslots 0 in
  let wlo, whi = empty_boxes ~dims ngslots in
  let rhlo, rhhi = empty_boxes ~dims ngslots in
  let rlo = Array.make dims 0 and rhi = Array.make dims 0 in
  (* the previous row's write, flushed into [wlo]/[whi] at the row
     boundary; [pending_g < 0] when there is none *)
  let pending_g = ref (-1) in
  let pend_lo = Array.make dims 0 and pend_hi = Array.make dims 0 in
  Array.iter
    (fun row ->
      if !pending_g >= 0 then hull_into ~dims wlo whi (!pending_g * dims) pend_lo pend_hi;
      let si = cx.stmts.(row.sidx) in
      Array.iter
        (fun ai ->
          access_box hs ~w row ai rlo rhi 0;
          let s = slot_of row ai in
          let a = ai.aslot + s and g = ai.gslot + s in
          let ao = a * dims and go = g * dims in
          (* |r \ (p ∪ w)| and |r \ p| by inclusion–exclusion, [p] the
             access's previous same-slot row box, [w] the write hull *)
          let r = vol1 ~dims rlo rhi 0 in
          let rp = vol2 ~dims rlo rhi plo phi ao in
          lb.(a) <-
            lb.(a) + r - rp - vol2 ~dims rlo rhi wlo whi go
            + vol3 ~dims rlo rhi plo phi ao wlo whi go;
          ub.(a) <- ub.(a) + r - rp;
          blit_box ~dims rlo rhi plo phi ao;
          hull_into ~dims rhlo rhhi go rlo rhi)
        si.reads;
      access_box hs ~w row si.write pend_lo pend_hi 0;
      pending_g := si.write.gslot + slot_of row si.write)
    hs.rows;
  (* per (array, slot): max of its read accesses' lower bounds, sum of
     their upper bounds; an access that never read a slot adds 0 to both *)
  let gmax = Array.make ngslots 0 and gsum = Array.make ngslots 0 in
  Array.iter
    (fun si ->
      Array.iter
        (fun ai ->
          for s = 0 to ai.fold - 1 do
            let a = ai.aslot + s and g = ai.gslot + s in
            gmax.(g) <- max gmax.(g) lb.(a);
            gsum.(g) <- gsum.(g) + ub.(a)
          done)
        si.reads)
    cx.stmts;
  let loads_lb = ref 0 and loads_ub = ref 0 in
  for g = 0 to ngslots - 1 do
    (* an (array, slot) no access read has an empty read hull *)
    if rhlo.(g * dims) <> max_int then begin
      loads_lb := !loads_lb + gmax.(g);
      loads_ub := !loads_ub + min (vol1 ~dims rhlo rhhi (g * dims)) gsum.(g)
    end
  done;
  { iterations; fp; loads_lb = !loads_lb; loads_ub = !loads_ub }

(* ---- classical tile windows over a clipped row ------------------------ *)

let tiles_nonempty (c : Classical.t) ~u ~lo ~hi =
  if lo > hi then 0
  else Classical.tile c ~u ~si:hi - Classical.tile c ~u ~si:lo + 1

let coverage ~lo ~hi = max 0 (hi - lo + 1)
