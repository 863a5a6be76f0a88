(* References for [Tile_model]'s closed forms. *)

open Hextile_tiling
module M = Tile_model

(* The screen as first written: boxes allocated per row, tables keyed by
   (access id, slot) and (array, slot) tuples in [Hashtbl]s.
   [Tile_model.estimate] must equal [estimate] record for record. *)

let inter (a : M.box) (b : M.box) : M.box =
  {
    lo = Array.mapi (fun i x -> max x b.lo.(i)) a.lo;
    hi = Array.mapi (fun i x -> min x b.hi.(i)) a.hi;
  }

let hull (a : M.box) (b : M.box) : M.box =
  {
    lo = Array.mapi (fun i x -> min x b.lo.(i)) a.lo;
    hi = Array.mapi (fun i x -> max x b.hi.(i)) a.hi;
  }

let diff1 r p = match p with None -> M.volume r | Some p -> M.volume r - M.volume (inter r p)

let diff2 r p w =
  match (p, w) with
  | None, None -> M.volume r
  | Some p, None -> M.volume r - M.volume (inter r p)
  | None, Some w -> M.volume r - M.volume (inter r w)
  | Some p, Some w ->
      M.volume r - M.volume (inter r p) - M.volume (inter r w)
      + M.volume (inter (inter r p) w)

let access_box (hs : M.hslice) ~w (row : M.row) (ai : M.ainfo) : M.box =
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

let footprint (hs : M.hslice) ~w : M.footprint =
  let cx = hs.cx in
  let boxes = Array.make cx.narrays None in
  let slotsets = Array.make cx.narrays [] in
  let touch row (ai : M.ainfo) =
    let b = access_box hs ~w row ai in
    boxes.(ai.arr) <-
      (match boxes.(ai.arr) with None -> Some b | Some cur -> Some (hull cur b));
    let s = M.slot_of row ai in
    if not (List.mem s slotsets.(ai.arr)) then slotsets.(ai.arr) <- s :: slotsets.(ai.arr)
  in
  Array.iter
    (fun (row : M.row) ->
      let si = cx.stmts.(row.sidx) in
      Array.iter (touch row) si.reads;
      touch row si.write)
    hs.rows;
  let floats = ref 0 in
  Array.iteri
    (fun i ob ->
      match ob with
      | None -> ()
      | Some b -> floats := !floats + (M.volume b * max 1 (List.length slotsets.(i))))
    boxes;
  {
    floats = !floats;
    boxes;
    slots = Array.map (fun l -> Array.of_list (List.sort compare l)) slotsets;
  }

let estimate (hs : M.hslice) ~w : M.estimate =
  let cx = hs.cx in
  let fp = footprint hs ~w in
  let rowsum =
    Array.fold_left (fun acc (r : M.row) -> acc + (r.bhi - r.blo + 1)) 0 hs.rows
  in
  let inner = ref 1 in
  for d = 1 to cx.dims - 1 do
    inner := !inner * w.(d)
  done;
  let prev : (int * int, M.box) Hashtbl.t = Hashtbl.create 32 in
  let lb : (int * int, int) Hashtbl.t = Hashtbl.create 32 in
  let ub : (int * int, int) Hashtbl.t = Hashtbl.create 32 in
  let whull : (int * int, M.box) Hashtbl.t = Hashtbl.create 8 in
  let rhull : (int * int, M.box) Hashtbl.t = Hashtbl.create 8 in
  let groups : (int * int, int list) Hashtbl.t = Hashtbl.create 8 in
  let bump tbl key v =
    Hashtbl.replace tbl key (v + Option.value ~default:0 (Hashtbl.find_opt tbl key))
  in
  let hull_in tbl key b =
    Hashtbl.replace tbl key
      (match Hashtbl.find_opt tbl key with None -> b | Some cur -> hull cur b)
  in
  let pending = ref [] in
  Array.iter
    (fun (row : M.row) ->
      (* writes of earlier rows flush at the row boundary *)
      List.iter (fun (gkey, b) -> hull_in whull gkey b) !pending;
      pending := [];
      let si = cx.stmts.(row.sidx) in
      Array.iter
        (fun (ai : M.ainfo) ->
          let r = access_box hs ~w row ai in
          let s = M.slot_of row ai in
          let akey = (ai.id, s) and gkey = (ai.arr, s) in
          let p = Hashtbl.find_opt prev akey in
          bump lb akey (diff2 r p (Hashtbl.find_opt whull gkey));
          bump ub akey (diff1 r p);
          Hashtbl.replace prev akey r;
          hull_in rhull gkey r;
          let ids = Option.value ~default:[] (Hashtbl.find_opt groups gkey) in
          if not (List.mem ai.id ids) then Hashtbl.replace groups gkey (ai.id :: ids))
        si.reads;
      pending :=
        ((si.write.arr, M.slot_of row si.write), access_box hs ~w row si.write) :: !pending)
    hs.rows;
  let loads_lb = ref 0 and loads_ub = ref 0 in
  Hashtbl.iter
    (fun gkey ids ->
      let arr_lb, arr_ub =
        List.fold_left
          (fun (mx, sum) id ->
            let l = Option.value ~default:0 (Hashtbl.find_opt lb (id, snd gkey)) in
            let u = Option.value ~default:0 (Hashtbl.find_opt ub (id, snd gkey)) in
            (max mx l, sum + u))
          (0, 0) ids
      in
      let hull_sz =
        match Hashtbl.find_opt rhull gkey with None -> 0 | Some b -> M.volume b
      in
      loads_lb := !loads_lb + arr_lb;
      loads_ub := !loads_ub + min hull_sz arr_ub)
    groups;
  { iterations = rowsum * !inner; fp; loads_lb = !loads_lb; loads_ub = !loads_ub }

(* The dense references: enumerate the tiles of [Classical.tile_range]
   and clip each one's window at normalized time [u] to [lo, hi]. *)
let tiles_nonempty (c : Classical.t) ~u_max ~u ~lo ~hi =
  if lo > hi then 0
  else begin
    let tlo, thi = Classical.tile_range c ~u_max ~lo ~hi in
    let n = ref 0 in
    for v = tlo to thi do
      let wlo = Classical.si_of c ~u ~tile:v ~intra:0 in
      let whi = Classical.si_of c ~u ~tile:v ~intra:(c.w - 1) in
      if max wlo lo <= min whi hi then incr n
    done;
    !n
  end

let coverage (c : Classical.t) ~u_max ~u ~lo ~hi =
  let tlo, thi = Classical.tile_range c ~u_max ~lo ~hi in
  let s = ref 0 in
  for v = tlo to thi do
    let wlo = Classical.si_of c ~u ~tile:v ~intra:0 in
    let whi = Classical.si_of c ~u ~tile:v ~intra:(c.w - 1) in
    s := !s + max 0 (min whi hi - max wlo lo + 1)
  done;
  !s
