open Hextile_ir
open Hextile_gpusim
open Hextile_util
open Hextile_deps

type config = { hh : int; width : int }

let default_config = { hh = 4; width = 64 }

let run ?pool ?engine ?(config = default_config) prog env dev =
  let ctx = Common.make_ctx ?engine prog env dev in
  if ctx.dims <> 1 then
    invalid_arg "Split_tiling.run: only 1D stencils (the paper's degenerate case)";
  if ctx.k <> 1 then
    invalid_arg "Split_tiling.run: single-statement programs only";
  let hh = max 1 config.hh and width = config.width in
  let deps = Dep.analyze prog in
  let cone = Cone.of_deps deps ~dim:0 in
  (* symmetric per-u-unit slope, scaled to per-time-step reach *)
  let r =
    max 1 (Rat.ceil (Rat.mul_int (Rat.max cone.delta0 cone.delta1) ctx.k))
  in
  if width <= 2 * r * hh then
    invalid_arg
      (Fmt.str "Split_tiling.run: width %d too small for reach %d over %d steps"
         width r hh);
  let lo = ctx.lo.(0).(0) and hi = ctx.hi.(0).(0) in
  let span = hi - lo + 1 in
  (* A clipped last tile narrower than the dependence reach over the
     block would vanish partway up, merging the phase-B gaps around it —
     and the merged gap's owner would read cells that a later block of
     the same launch writes. Absorb such a remainder into its left
     neighbour so no upright ever vanishes and gaps never merge. *)
  let nbase0 = (span + width - 1) / width in
  let rem = span - ((nbase0 - 1) * width) in
  let nbase, wlast =
    if nbase0 > 1 && rem <= 2 * r * hh then (nbase0 - 1, width + rem)
    else (nbase0, rem)
  in
  let stmts = ctx.stmts in
  (* cells an upright trapezoid touches beyond its base: the largest read
     offset (a read-only coefficient array can reach past the slope) or
     the write offset *)
  let rad = max (Overtile.radii prog).(0) (abs stmts.(0).write.offsets.(0)) in
  let exec_interval ?overlay ~layout ~tstep ~xlo ~xhi () =
    let xlo = max xlo ctx.lo.(0).(0) and xhi = min xhi ctx.hi.(0).(0) in
    if xlo <= xhi then
      Common.exec_stmt_row ctx ~stmt_idx:0 ~tstep ~point:[| xlo |]
        ~xs:(Array.init (xhi - xlo + 1) (fun i -> xlo + i))
        ?overlay ~layout ~global_reads:false ~shared_replay:1 ~interleave_store:true
        ~use_shared:true ()
  in
  (* shared memory: the copied-in interval, in every slot of every array *)
  let layout_of box =
    let lay = Common.Layout.create () in
    List.iter
      (fun (d : Stencil.array_decl) ->
        let m = match d.fold with Some m -> m | None -> 1 in
        for slot = 0 to m - 1 do
          Common.Layout.add lay ~grid:(Grid.find ctx.grids d.aname) ~slot box
        done)
      prog.arrays;
    Common.Layout.iter lay ~f:(fun e -> Common.load_box_rows ctx e ());
    Sim.sync ctx.sim;
    lay
  in
  let tt0 = ref 0 in
  (* an empty domain launches nothing (and would give blocks of height 0,
     which never advance the time loop) *)
  while span > 0 && !tt0 < ctx.steps do
    (* a single-tile domain can itself be narrower than the reach over
       the block; cap the block height so the tile survives every step *)
    let hh_eff =
      min (min hh (ctx.steps - !tt0)) (1 + ((span - 1) / (2 * r)))
    in
    let t0 = !tt0 in
    (* ---- phase A: upright trapezoids --------------------------------- *)
    let snap = Common.snapshot ctx in
    Sim.launch ?pool ctx.sim
      ~name:(Fmt.str "split_up_tt%d" t0)
      ~blocks:nbase ~threads:(min (max width wlast) 256) ~shared_bytes:0
      ~f:(fun b ->
        let base_lo = lo + (b * width) in
        let base_hi = if b = nbase - 1 then hi else base_lo + width - 1 in
        (* copy-in the base plus read halo, from the pre-launch snapshot *)
        let inlo = max lo (base_lo - r) and inhi = min hi (base_hi + r) in
        let layout = layout_of { Common.blo = [| inlo |]; bhi = [| inhi |] } in
        (* the block computes into overlays seeded from the pre-launch
           snapshot, so concurrent blocks read pre-launch halo values *)
        let ov = Common.Overlay.create () in
        let ov_box = { Common.blo = [| base_lo - rad |]; bhi = [| base_hi + rad |] } in
        List.iter
          (fun (d : Stencil.array_decl) ->
            let m = match d.fold with Some m -> m | None -> 1 in
            for slot = 0 to m - 1 do
              Common.Overlay.add ov ~grid:(Grid.find ctx.grids d.aname) ~slot ~box:ov_box
                ~src:(Hashtbl.find snap d.aname)
            done)
          prog.arrays;
        let w = stmts.(0).write in
        let wg = Grid.find ctx.grids w.array in
        let written = ref [] in
        for j = 0 to hh_eff - 1 do
          let t = t0 + j in
          let xlo = base_lo + (r * j) and xhi = base_hi - (r * j) in
          exec_interval ~overlay:ov ~layout ~tstep:t ~xlo ~xhi ();
          (* intervals shrink with j: a slot's first one covers its later
             ones; the points [xlo, xhi] write the cells shifted by the
             write offset *)
          let slot = Grid.slot wg (t + w.time_off) in
          if not (List.mem_assoc slot !written) then begin
            let wo = w.offsets.(0) in
            written :=
              ( slot,
                {
                  Common.blo = [| max xlo ctx.lo.(0).(0) + wo |];
                  bhi = [| min xhi ctx.hi.(0).(0) + wo |];
                } )
              :: !written
          end;
          Sim.sync ctx.sim
        done;
        (* write through: no block of this launch reads the grids *)
        List.iter
          (fun (slot, box) -> Common.Overlay.write_back ov ~grid:wg ~slot ~box)
          !written)
      ;
    (* ---- phase B: inverted trapezoids -------------------------------- *)
    (* Upright tile k at step j covers [ulo k j, uhi k j]; the inverted
       block at boundary b owns the gap containing its boundary. Every
       upright is wider than the reach over the block (narrow remainders
       were absorbed above), so no upright vanishes and every gap holds
       exactly one boundary; the owner scan below is kept as a guard. *)
    let ulo k j = lo + (k * width) + (r * j) in
    let uhi k j =
      (if k = nbase - 1 then hi else lo + ((k + 1) * width) - 1) - (r * j)
    in
    let bnd_of b = if b >= nbase then hi + 1 else min (lo + (b * width)) (hi + 1) in
    let gap_of b j =
      let bnd = bnd_of b in
      (* nearest nonempty upright strictly left / right of the boundary *)
      let rec left k = if k < 0 then lo - 1 else if ulo k j <= uhi k j && uhi k j < bnd then uhi k j else left (k - 1) in
      let rec right k = if k >= nbase then hi + 1 else if ulo k j <= uhi k j && ulo k j >= bnd then ulo k j else right (k + 1) in
      let gl = left (b - 1) + 1 and gh = right b - 1 in
      (* ownership: the smallest boundary inside (gl-1, gh] *)
      let rec owner b' = if bnd_of b' >= gl then owner (b' - 1) else b' + 1 in
      if b = owner b then Some (max lo gl, min hi gh) else None
    in
    Sim.launch ?pool ctx.sim
      ~name:(Fmt.str "split_down_tt%d" t0)
      ~blocks:(nbase + 1) ~threads:(min (2 * r * hh) 256) ~shared_bytes:0
      ~f:(fun b ->
        let bnd = bnd_of b in
        let inlo = max lo (bnd - (r * hh_eff) - r)
        and inhi = min hi (bnd + (r * hh_eff) + r - 1) in
        if inlo <= inhi then begin
          let layout = layout_of { Common.blo = [| inlo |]; bhi = [| inhi |] } in
          for j = 1 to hh_eff - 1 do
            let t = t0 + j in
            (match gap_of b j with
            | Some (xlo, xhi) -> exec_interval ~layout ~tstep:t ~xlo ~xhi ()
            | None -> ());
            Sim.sync ctx.sim
          done
        end);
    tt0 := t0 + hh_eff
  done;
  Common.finish ctx ~scheme:"split"
