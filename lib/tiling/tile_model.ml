open Hextile_ir
open Hextile_deps
open Hextile_util

(* Closed-form per-candidate analysis of one generic hybrid tile: exact
   iteration and footprint counts plus sound lower/upper bounds on the
   number of global loads, all from the hexagon row ranges, the
   classical widths and the static access offsets — no statement
   instance is ever enumerated. The analysis mirrors
   [Tile_size.iter_tile_instances] (generic tile tt=7, phase=1,
   s_tile=7) cell for cell, which the property tests enforce. *)

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

let inter a b =
  {
    lo = Array.mapi (fun i x -> max x b.lo.(i)) a.lo;
    hi = Array.mapi (fun i x -> min x b.hi.(i)) a.hi;
  }

let hull a b =
  {
    lo = Array.mapi (fun i x -> min x b.lo.(i)) a.lo;
    hi = Array.mapi (fun i x -> max x b.hi.(i)) a.hi;
  }

(* |r \ p| and |r \ (p ∪ w)| by inclusion–exclusion over boxes. *)
let diff1 r p = match p with None -> volume r | Some p -> volume r - volume (inter r p)

let diff2 r p w =
  match (p, w) with
  | None, None -> volume r
  | Some p, None -> volume r - volume (inter r p)
  | None, Some w -> volume r - volume (inter r w)
  | Some p, Some w ->
      volume r - volume (inter r p) - volume (inter r w)
      + volume (inter (inter r p) w)

type ainfo = {
  acc : Stencil.access;
  arr : int;  (** index into [array_names] *)
  fold : int;  (** storage slots of the array; 1 when not folded *)
  id : int;  (** unique access-occurrence id *)
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
  let next_id = ref 0 in
  let mk (acc : Stencil.access) =
    let decl = Stencil.array_decl prog acc.array in
    let id = !next_id in
    incr next_id;
    {
      acc;
      arr = arr_index acc.array;
      fold = (match decl.fold with Some m -> m | None -> 1);
      id;
    }
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
  for a = 0 to (2 * hex.h) + 1 do
    match Hexagon.row_range hex ~a with
    | None -> ()
    | Some (blo, bhi) ->
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
  done;
  { cx; h = hex.h; w0 = hex.w0; hex; u0; s00; rows = Array.of_list (List.rev !rows) }

let hslice cx ~h ~w0 = hslice_of_hex cx (Hexagon.make ~h ~w0 cx.cone)

let slot_of row (ai : ainfo) = Intutil.fmod (row.tstep + ai.acc.time_off) ai.fold

(* The (absolute) spatial box an access touches over one hexagon row:
   dimension 0 sweeps the row's [b] range, inner dimension [d] sweeps
   the classical intra-tile window [7·w_d - ⌊δ1_d·a⌋ .. +w_d-1], both
   shifted by the access offset. *)
let access_box hs ~w row (ai : ainfo) =
  let dims = hs.cx.dims in
  let lo = Array.make dims 0 and hi = Array.make dims 0 in
  lo.(0) <- hs.s00 + row.blo + ai.acc.offsets.(0);
  hi.(0) <- hs.s00 + row.bhi + ai.acc.offsets.(0);
  for d = 1 to dims - 1 do
    let base = (7 * w.(d)) - row.fl.(d - 1) + ai.acc.offsets.(d) in
    lo.(d) <- base;
    hi.(d) <- base + w.(d) - 1
  done;
  { lo; hi }

type footprint = {
  floats : int;
  boxes : box option array;
  slots : int array array;
}

let footprint hs ~w =
  let cx = hs.cx in
  let boxes = Array.make cx.narrays None in
  let slotsets = Array.make cx.narrays [] in
  let touch row ai =
    let b = access_box hs ~w row ai in
    (boxes.(ai.arr) <-
       (match boxes.(ai.arr) with None -> Some b | Some cur -> Some (hull cur b)));
    let s = slot_of row ai in
    if not (List.mem s slotsets.(ai.arr)) then
      slotsets.(ai.arr) <- s :: slotsets.(ai.arr)
  in
  Array.iter
    (fun row ->
      let si = cx.stmts.(row.sidx) in
      Array.iter (touch row) si.reads;
      touch row si.write)
    hs.rows;
  let floats = ref 0 in
  Array.iteri
    (fun i ob ->
      match ob with
      | None -> ()
      | Some b ->
          floats := !floats + (volume b * max 1 (List.length slotsets.(i))))
    boxes;
  {
    floats = !floats;
    boxes;
    slots = Array.map (fun l -> Array.of_list (List.sort compare l)) slotsets;
  }

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
   sizes. *)
let estimate hs ~w =
  let cx = hs.cx in
  let fp = footprint hs ~w in
  let rowsum = Array.fold_left (fun acc r -> acc + (r.bhi - r.blo + 1)) 0 hs.rows in
  let inner = ref 1 in
  for d = 1 to cx.dims - 1 do
    inner := !inner * w.(d)
  done;
  let iterations = rowsum * !inner in
  let prev : (int * int, box) Hashtbl.t = Hashtbl.create 32 in
  let lb : (int * int, int) Hashtbl.t = Hashtbl.create 32 in
  let ub : (int * int, int) Hashtbl.t = Hashtbl.create 32 in
  let whull : (int * int, box) Hashtbl.t = Hashtbl.create 8 in
  let rhull : (int * int, box) Hashtbl.t = Hashtbl.create 8 in
  let groups : (int * int, int list) Hashtbl.t = Hashtbl.create 8 in
  let bump tbl key v =
    Hashtbl.replace tbl key (v + Option.value ~default:0 (Hashtbl.find_opt tbl key))
  in
  let pending = ref [] in
  Array.iter
    (fun row ->
      (* writes of earlier rows flush at the row boundary *)
      List.iter
        (fun (gkey, b) ->
          Hashtbl.replace whull gkey
            (match Hashtbl.find_opt whull gkey with
            | None -> b
            | Some cur -> hull cur b))
        !pending;
      pending := [];
      let si = cx.stmts.(row.sidx) in
      Array.iter
        (fun ai ->
          let r = access_box hs ~w row ai in
          let s = slot_of row ai in
          let akey = (ai.id, s) and gkey = (ai.arr, s) in
          let p = Hashtbl.find_opt prev akey in
          bump lb akey (diff2 r p (Hashtbl.find_opt whull gkey));
          bump ub akey (diff1 r p);
          Hashtbl.replace prev akey r;
          Hashtbl.replace rhull gkey
            (match Hashtbl.find_opt rhull gkey with
            | None -> r
            | Some cur -> hull cur r);
          let ids = Option.value ~default:[] (Hashtbl.find_opt groups gkey) in
          if not (List.mem ai.id ids) then Hashtbl.replace groups gkey (ai.id :: ids))
        si.reads;
      let wb = access_box hs ~w row si.write in
      pending := ((si.write.arr, slot_of row si.write), wb) :: !pending)
    hs.rows;
  let loads_lb = ref 0 and loads_ub = ref 0 in
  Hashtbl.iter
    (fun gkey ids ->
      let (arr_lb, arr_ub) =
        List.fold_left
          (fun (mx, sum) id ->
            let l = Option.value ~default:0 (Hashtbl.find_opt lb (id, snd gkey)) in
            let u = Option.value ~default:0 (Hashtbl.find_opt ub (id, snd gkey)) in
            (max mx l, sum + u))
          (0, 0) ids
      in
      let hull_sz =
        match Hashtbl.find_opt rhull gkey with None -> 0 | Some b -> volume b
      in
      loads_lb := !loads_lb + arr_lb;
      loads_ub := !loads_ub + min hull_sz arr_ub)
    groups;
  { iterations; fp; loads_lb = !loads_lb; loads_ub = !loads_ub }

(* ---- classical tile windows over a clipped row ------------------------ *)

let tiles_nonempty (c : Classical.t) ~u ~lo ~hi =
  if lo > hi then 0
  else Classical.tile c ~u ~si:hi - Classical.tile c ~u ~si:lo + 1

let coverage ~lo ~hi = max 0 (hi - lo + 1)
