open Hextile_ir
open Hextile_gpusim
open Hextile_util
open Hextile_deps

type config = { hh : int; tile : int array option }

let default_config ~dims = { hh = (if dims >= 3 then 1 else 4); tile = None }

let radii (prog : Stencil.t) =
  let dims = Stencil.spatial_dims prog in
  let r = Array.make dims 0 in
  List.iter
    (fun (s : Stencil.stmt) ->
      List.iter
        (fun (a : Stencil.access) ->
          Array.iteri (fun d o -> r.(d) <- max r.(d) (abs o)) a.offsets)
        (Stencil.reads s))
    prog.stmts;
  r

(* Value-flow reach per schedule-time unit, from the dependence cone. *)
let slopes (prog : Stencil.t) =
  let deps = Dep.analyze prog in
  Array.init (Stencil.spatial_dims prog) (fun d ->
      let c = Cone.of_deps deps ~dim:d in
      Rat.max c.delta0 c.delta1)

let dilate (region : Common.box) ~by ~lo ~hi =
  {
    Common.blo = Array.mapi (fun d l -> max lo.(d) (l - by.(d))) region.blo;
    bhi = Array.mapi (fun d h -> min hi.(d) (h + by.(d))) region.bhi;
  }

(* (array, slot) pairs that must be preloaded: read before written, at
   slot granularity (exact for shrinking trapezoids). *)
let needed_slots (ctx : Common.ctx) ~tt0 ~hh_eff =
  let needed = Hashtbl.create 8 and written = Hashtbl.create 8 in
  for j = 0 to hh_eff - 1 do
    let t = tt0 + j in
    Array.iter
      (fun (s : Stencil.stmt) ->
        List.iter
          (fun (a : Stencil.access) ->
            let g = Grid.find ctx.grids a.array in
            let key = (a.array, Grid.slot g (t + a.time_off)) in
            if not (Hashtbl.mem written key) then Hashtbl.replace needed key ())
          (Stencil.reads s);
        let g = Grid.find ctx.grids s.write.array in
        Hashtbl.replace written (s.write.array, Grid.slot g (t + s.write.time_off)) ())
      ctx.stmts
  done;
  needed

let run ?pool ?engine ?config prog env dev =
  let ctx = Common.make_ctx ?engine prog env dev in
  let config =
    match config with Some c -> c | None -> default_config ~dims:ctx.dims
  in
  let hh = max 1 config.hh in
  let tile =
    match config.tile with
    | Some t -> t
    | None ->
        if ctx.dims >= 3 then begin
          (* the autotuned space-tiling fallback favours taller tiles than
             PPCG's default (lower halo-to-volume ratio) *)
          let t = Array.make ctx.dims 8 in
          t.(ctx.dims - 1) <- 32;
          t
        end
        else Ppcg.default_tile ~dims:ctx.dims
  in
  let threads = min dev.Device.max_threads_per_block (Array.fold_left ( * ) 1 tile) in
  let slope = slopes prog in
  let rad = radii prog in
  (* Output tiles partition the cells the statements write: the union of
     dom(s) + w(s), w(s) the write offset. A tile's cells are the writes
     of the points in [base], the tile shifted back by every write offset;
     the trapezoid grows from there. *)
  let woff si d = ctx.stmts.(si).Stencil.write.offsets.(d) in
  let wext f init =
    Array.init ctx.dims (fun d -> Seq.fold_left f init (Seq.init ctx.k (fun si -> woff si d)))
  in
  let wlo = wext min max_int and whi = wext max min_int in
  let wrad = Array.init ctx.dims (fun d -> max (abs wlo.(d)) (abs whi.(d))) in
  let lo =
    Array.init ctx.dims (fun d ->
        Array.fold_left min max_int (Array.mapi (fun si l -> l.(d) + woff si d) ctx.lo))
  in
  let hi =
    Array.init ctx.dims (fun d ->
        Array.fold_left max min_int (Array.mapi (fun si h -> h.(d) + woff si d) ctx.hi))
  in
  let ntiles = Array.init ctx.dims (fun d -> max 0 ((hi.(d) - lo.(d) + tile.(d)) / tile.(d))) in
  let blocks = Array.fold_left ( * ) 1 ntiles in
  let reach units = Array.map (fun s -> Rat.ceil (Rat.mul_int s units)) slope in
  let tt0 = ref 0 in
  while !tt0 < ctx.steps do
    let hh_eff = min hh (ctx.steps - !tt0) in
    let tt0v = !tt0 in
    let snap = Common.snapshot ctx in
    let needed = needed_slots ctx ~tt0:tt0v ~hh_eff in
    Sim.launch ?pool ctx.sim
      ~name:(Fmt.str "overtile_tt%d" tt0v)
      ~blocks ~threads ~shared_bytes:0
      ~f:(fun b ->
        let tc = Array.make ctx.dims 0 in
        let rest = ref b in
        for d = ctx.dims - 1 downto 0 do
          tc.(d) <- !rest mod ntiles.(d);
          rest := !rest / ntiles.(d)
        done;
        let out =
          {
            Common.blo = Array.init ctx.dims (fun d -> lo.(d) + (tc.(d) * tile.(d)));
            bhi =
              Array.init ctx.dims (fun d ->
                  min hi.(d) (lo.(d) + ((tc.(d) + 1) * tile.(d)) - 1));
          }
        in
        if not (Common.box_is_empty out) then begin
          let base =
            {
              Common.blo = Array.mapi (fun d l -> l - whi.(d)) out.blo;
              bhi = Array.mapi (fun d h -> h - wlo.(d)) out.bhi;
            }
          in
          (* copy-in: one shared box per accessed (array, slot) *)
          let copy_by = Array.mapi (fun d r -> r + rad.(d)) (reach (ctx.k * (hh_eff - 1))) in
          let inbox (arr : string) =
            let g = Grid.find ctx.grids arr in
            let spatial_dims = ctx.dims in
            let ext d = g.dims.(Array.length g.dims - spatial_dims + d) in
            dilate base ~by:copy_by ~lo:(Array.make ctx.dims 0)
              ~hi:(Array.init ctx.dims (fun d -> ext d - 1))
          in
          let lay = Common.Layout.create () in
          (* values this block computes live in a dense overlay per
             touched (array, slot), seeded from the pre-launch snapshot
             over the base grown by every reach the trapezoid can have
             and by the largest access offset *)
          let ov = Common.Overlay.create () in
          let ov_by =
            Array.mapi (fun d r -> r + max rad.(d) wrad.(d)) (reach ((ctx.k * hh_eff) + ctx.k))
          in
          let ov_box =
            {
              Common.blo = Array.mapi (fun d l -> l - ov_by.(d)) base.blo;
              bhi = Array.mapi (fun d h -> h + ov_by.(d)) base.bhi;
            }
          in
          let touch (arr, slot) =
            let grid = Grid.find ctx.grids arr in
            Common.Layout.add lay ~grid ~slot (inbox arr);
            Common.Overlay.add ov ~grid ~slot ~box:ov_box ~src:(Hashtbl.find snap arr)
          in
          (* allocate shared boxes and overlays for every (array, slot) touched *)
          List.iter
            (fun (s : Stencil.stmt) ->
              List.iter
                (fun (a : Stencil.access) ->
                  let g = Grid.find ctx.grids a.array in
                  for j = 0 to hh_eff - 1 do
                    touch (a.array, Grid.slot g (tt0v + j + a.time_off))
                  done)
                (s.write :: Stencil.reads s))
            ctx.prog.stmts;
          Hashtbl.iter
            (fun (arr, slot) () ->
              match Common.Layout.find lay ~grid:(Grid.find ctx.grids arr) ~slot with
              | None -> ()
              | Some e -> Common.load_box_rows ctx e ())
            needed;
          Sim.sync ctx.sim;
          (* redundant compute over the shrinking trapezoid *)
          for j = 0 to hh_eff - 1 do
            let t = tt0v + j in
            Array.iteri
              (fun si _ ->
                let units = (ctx.k * (hh_eff - 1 - j)) + (ctx.k - 1 - si) in
                let region =
                  dilate base ~by:(reach units) ~lo:ctx.lo.(si) ~hi:ctx.hi.(si)
                in
                (* also clip the out-region to the statement domain *)
                let region =
                  Common.box_inter region
                    { Common.blo = ctx.lo.(si); bhi = ctx.hi.(si) }
                in
                if not (Common.box_is_empty region) then begin
                  let xdim = ctx.dims - 1 in
                  let xs =
                    Array.init
                      (region.bhi.(xdim) - region.blo.(xdim) + 1)
                      (fun i -> region.blo.(xdim) + i)
                  in
                  Common.iter_box_rows region ~f:(fun point ->
                      Common.exec_stmt_row ctx ~stmt_idx:si ~tstep:t ~point ~xs ~overlay:ov
                        ~layout:lay ~count:false ~global_reads:false ~shared_replay:1
                        ~interleave_store:false ~use_shared:true ())
                end)
              ctx.stmts;
            Sim.sync ctx.sim
          done;
          (* copy-out: for every (array, slot) written in this time tile,
             the output tile within the cells the writing statement
             writes, as one ascending run of flat cells per array (slots
             ascending) *)
          let written : (string, Grid.t * (int * Common.box) list ref) Hashtbl.t =
            Hashtbl.create 4
          in
          for j = 0 to hh_eff - 1 do
            Array.iteri
              (fun si (stmt : Stencil.stmt) ->
                let copy =
                  Common.box_inter out
                    {
                      Common.blo = Array.mapi (fun d l -> l + woff si d) ctx.lo.(si);
                      bhi = Array.mapi (fun d h -> h + woff si d) ctx.hi.(si);
                    }
                in
                if not (Common.box_is_empty copy) then begin
                  let g = Grid.find ctx.grids stmt.write.array in
                  let slot = Grid.slot g (tt0v + j + stmt.write.time_off) in
                  let _, slots =
                    match Hashtbl.find_opt written stmt.write.array with
                    | Some e -> e
                    | None ->
                        let e = (g, ref []) in
                        Hashtbl.replace written stmt.write.array e;
                        e
                  in
                  if not (List.mem_assoc slot !slots) then slots := (slot, copy) :: !slots
                end)
              ctx.stmts
          done;
          Hashtbl.iter
            (fun _ ((g : Grid.t), slots) ->
              let cells = ref [] in
              List.iter
                (fun (slot, box) ->
                  Common.Overlay.write_back ov ~grid:g ~slot ~box;
                  Common.iter_box_rows box ~f:(fun row ->
                      let f0 = Common.flat g ~slot row in
                      for dx = 0 to box.Common.bhi.(ctx.dims - 1) - box.blo.(ctx.dims - 1) do
                        cells := (f0 + dx) :: !cells
                      done))
                (List.sort compare !slots);
              Common.store_cells ctx ~grid:g ~cells:(List.rev !cells) ~via_shared:true)
            written
        end);
    tt0 := tt0v + hh_eff
  done;
  (* Useful updates = the reference instance count (redundant halo
     recomputation does not produce additional stencils). *)
  Atomic.set ctx.updates (Interp.stencil_updates prog env);
  Common.finish ctx ~scheme:"overtile"
