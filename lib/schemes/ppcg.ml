open Hextile_ir
open Hextile_gpusim

type config = { tile : int array option }

let default_config = { tile = None }

let default_tile ~dims =
  match dims with
  | 1 -> [| 256 |]
  | 2 -> [| 16; 32 |]
  | _ ->
      let t = Array.make dims 4 in
      t.(dims - 1) <- 32;
      t.(dims - 2) <- 8;
      t

(* The rectangular input boxes a tile region needs, per (array, slot):
   the region dilated by each read's offsets, clipped to array extents. *)
let input_boxes (ctx : Common.ctx) ~stmt_idx ~tstep ~(region : Common.box) =
  let boxes = Hashtbl.create 4 in
  Array.iter
    (fun ({ sacc = r; sgrid = g; _ } : Common.src) ->
      let slot = Grid.slot g (tstep + r.time_off) in
      let spatial_dims = Array.length r.offsets in
      let ext d = g.dims.(Array.length g.dims - spatial_dims + d) in
      let blo = Array.mapi (fun d l -> max 0 (l + r.offsets.(d))) region.blo in
      let bhi = Array.mapi (fun d h -> min (ext d - 1) (h + r.offsets.(d))) region.bhi in
      let key = (r.array, slot) in
      match Hashtbl.find_opt boxes key with
      | None -> Hashtbl.replace boxes key (g, { Common.blo; bhi })
      | Some (_, (b : Common.box)) ->
          Hashtbl.replace boxes key
            ( g,
              {
                Common.blo = Array.map2 min b.blo blo;
                bhi = Array.map2 max b.bhi bhi;
              } ))
    (Common.stmt_reads ctx ~stmt_idx);
  boxes

let run ?pool ?engine ?(config = default_config) ?(name = "ppcg") prog env dev =
  let ctx = Common.make_ctx ?engine prog env dev in
  let tile =
    match config.tile with Some t -> t | None -> default_tile ~dims:ctx.dims
  in
  let threads = min dev.Device.max_threads_per_block (Array.fold_left ( * ) 1 tile) in
  for tstep = 0 to ctx.steps - 1 do
    Array.iteri
      (fun si stmt ->
        let lo = ctx.lo.(si) and hi = ctx.hi.(si) in
        (* grid of tiles over the statement domain *)
        let ntiles =
          Array.init ctx.dims (fun d ->
              max 0 ((hi.(d) - lo.(d) + tile.(d)) / tile.(d)))
        in
        let blocks = Array.fold_left ( * ) 1 ntiles in
        if blocks > 0 then
          Sim.launch ?pool ctx.sim
            ~name:(Fmt.str "%s_%s_t%d" name stmt.Stencil.sname tstep)
            ~blocks ~threads
            ~shared_bytes:0 (* checked per-block below via layout *)
            ~f:(fun b ->
              (* decode block id into tile coordinates *)
              let tc = Array.make ctx.dims 0 in
              let rest = ref b in
              for d = ctx.dims - 1 downto 0 do
                tc.(d) <- !rest mod ntiles.(d);
                rest := !rest / ntiles.(d)
              done;
              let region =
                {
                  Common.blo = Array.init ctx.dims (fun d -> lo.(d) + (tc.(d) * tile.(d)));
                  bhi =
                    Array.init ctx.dims (fun d ->
                        min hi.(d) (lo.(d) + ((tc.(d) + 1) * tile.(d)) - 1));
                }
              in
              if not (Common.box_is_empty region) then begin
                (* copy-in *)
                let lay = Common.Layout.create () in
                let boxes = input_boxes ctx ~stmt_idx:si ~tstep ~region in
                Hashtbl.iter
                  (fun (_, slot) (grid, box) -> Common.Layout.add lay ~grid ~slot box)
                  boxes;
                Common.Layout.iter lay ~f:(fun e -> Common.load_box_rows ctx e ());
                Sim.sync ctx.sim;
                (* compute *)
                let xdim = ctx.dims - 1 in
                let xs =
                  Array.init
                    (region.bhi.(xdim) - region.blo.(xdim) + 1)
                    (fun i -> region.blo.(xdim) + i)
                in
                Common.iter_box_rows region ~f:(fun point ->
                    Common.exec_stmt_row ctx ~stmt_idx:si ~tstep ~point ~xs ~layout:lay
                      ~global_reads:false ~shared_replay:1 ~interleave_store:true
                      ~use_shared:false ());
                Sim.sync ctx.sim
              end))
      ctx.stmts
  done;
  Common.finish ctx ~scheme:name
