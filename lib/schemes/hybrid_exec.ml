open Hextile_ir
open Hextile_gpusim
open Hextile_tiling
open Hextile_util
module Obs = Hextile_obs.Obs
module Tl = Hextile_obs.Timeline
module Par = Hextile_par.Par

type reuse = No_reuse | Static | Dynamic

type strategy = {
  use_shared : bool;
  interleave : bool;
  align : bool;
  reuse : reuse;
}

let strategy_of_step = function
  | 'a' -> { use_shared = false; interleave = false; align = false; reuse = No_reuse }
  | 'b' -> { use_shared = true; interleave = false; align = false; reuse = No_reuse }
  | 'c' -> { use_shared = true; interleave = true; align = false; reuse = No_reuse }
  | 'd' -> { use_shared = true; interleave = true; align = true; reuse = No_reuse }
  | 'e' -> { use_shared = true; interleave = true; align = true; reuse = Static }
  | 'f' -> { use_shared = true; interleave = true; align = true; reuse = Dynamic }
  | c -> invalid_arg (Fmt.str "Hybrid_exec.strategy_of_step: %c not in a..f" c)

let best_strategy = strategy_of_step 'f'

type config = {
  h : int;
  w : int array;
  threads : int;
  strategy : strategy;
  register_tile : bool;
      (** unroll the point loop and keep sweep-reusable values in
          registers, eliminating their shared-memory loads (the paper's
          "register tiling" future-work item, cf. the Figure 2 core) *)
}

let default_config (prog : Stencil.t) =
  let dims = Stencil.spatial_dims prog in
  let k = List.length prog.stmts in
  (* smallest h with h+1 a multiple of k, near the paper's picks *)
  let round_h h0 = (((h0 + 1 + k - 1) / k) * k) - 1 in
  match dims with
  | 1 ->
      {
        h = round_h 3;
        w = [| 16 |];
        threads = 64;
        strategy = best_strategy;
        register_tile = false;
      }
  | 2 ->
      {
        h = round_h 3;
        w = [| 4; 32 |];
        threads = 256;
        strategy = best_strategy;
        register_tile = false;
      }
  | _ ->
      (* 2h+2 = 4 time steps per tile, as the paper reports for 3D; the
         Table 4 sizes (h=2, w=(7,10,32)) exceed a literal rectangular-box
         shared allocation and can be requested explicitly. *)
      {
        h = round_h 1;
        w = Array.concat [ [| 4; 6 |]; Array.make (dims - 2) 32 ];
        threads = 192;
        strategy = best_strategy;
        register_tile = false;
      }

(* x-alignment translation offsets (Section 4.2.3): make the generic
   tile's first x-load line-aligned, assuming the innermost extent is a
   multiple of the warp size. *)
let align_offsets (t : Hybrid.t) ~reuse =
  if t.dims < 2 then fun _ -> 0
  else begin
    let c = t.classical.(t.dims - 2) in
    let fl = Rat.floor (Rat.mul_int c.delta1 ((2 * t.h) + 1)) in
    fun (rx : int) ->
      (* Residue of the first x-load of a generic interior tile: without
         reuse the whole box row starts at [S·w - ⌊δ1(2h+1)⌋ - rx]; with
         reuse only the fresh strip is loaded, starting at
         [prev box hi + 1 ≡ rx (mod 32)]. *)
      let base = match reuse with No_reuse -> -fl - rx | Static | Dynamic -> rx in
      Intutil.fmod (-base) 32
  end

(* How a launch runs the blocks of a tile class other than its
   representative. [Replay] replays the representative's recorded memory
   events and adds its translation-invariant counts, then runs its
   compiled rows (grid writes), all at the member's word offset;
   [Derive] runs nothing in
   the launch, the launch epilogue derives the member; [Execute] runs it
   live. A [Replay] or [Derive] class whose recording was dropped runs
   its members live. *)
type member = Execute | Replay | Derive

(* What deriving or replaying a block of a class needs, and what the
   cross-launch class cache keeps: the recording block's s0 origin (for
   the word offset), its exact per-block counter delta, its compressed
   DRAM line runs (analytic runs only) and its fused-plan compute
   rows. *)
type source = {
  s00 : int;
  delta : Counters.t;
  runs : int array;
  crows : Common.crows;
}

(* A representative's publication for its class: written once in wave 0
   on the representative's domain, read in wave 1 by every member (the
   wave join orders the two) and by the epilogue. The recorded stream is
   kept only for [Replay] members; nothing reads it after wave 0
   otherwise. *)
type record = { replay : Tileclass.stream option; src : source }

type regime = Exact | Memo | Analytic

let run ?pool ?engine ?(analytic = false) ?(name = "hybrid") ?config prog env dev =
  let ctx = Common.make_ctx ?engine prog env dev in
  let config = match config with Some c -> c | None -> default_config prog in
  let strat = config.strategy in
  let t = Hybrid.make prog ~h:config.h ~w:config.w in
  let dims = t.dims in
  let h = config.h in
  let height = (2 * h) + 2 in
  (* the hexagon's row table: row [a] is [row_lo.(a) .. row_hi.(a)] in
     local b, empty when [row_lo.(a) > row_hi.(a)] *)
  let row_lo = t.hex.row_lo and row_hi = t.hex.row_hi in
  let ubound = Hybrid.domain_u_bound t ctx.env in
  (* global domain bounds across statements *)
  let glo = Array.init dims (fun d -> Array.fold_left (fun m l -> min m l.(d)) max_int ctx.lo) in
  let ghi = Array.init dims (fun d -> Array.fold_left (fun m x -> max m x.(d)) min_int ctx.hi) in
  (* alignment: translate arrays so tile x-loads start on line boundaries *)
  if strat.align then begin
    let off_of = align_offsets t ~reuse:strat.reuse in
    List.iter
      (fun (decl : Stencil.array_decl) ->
        let rx =
          List.fold_left
            (fun m (s : Stencil.stmt) ->
              List.fold_left
                (fun m (a : Stencil.access) ->
                  if String.equal a.array decl.aname then
                    max m (abs a.offsets.(Array.length a.offsets - 1))
                  else m)
                m
                (s.write :: Stencil.reads s))
            0 prog.stmts
        in
        Addrmap.register ctx.sim.addr (Grid.find ctx.grids decl.aname)
          ~offset_floats:(off_of rx))
      prog.arrays
  end;
  (* Blocks of one launch differ only by a translation along s0, so every
     flat word index of a same-class block is the representative's plus
     Δs00·stride0 (one stride for all arrays, see the regime below). *)
  let stride0s =
    List.map
      (fun (decl : Stencil.array_decl) ->
        let g = Grid.find ctx.grids decl.aname in
        let nd = Array.length g.dims in
        let p = ref 1 in
        for d = nd - dims + 1 to nd - 1 do
          p := !p * g.dims.(d)
        done;
        !p)
      prog.arrays
  in
  (* The launch regime, chosen once per run. Memoized replay moves a
     representative's compiled rows to a member by one word offset, so it
     needs one s0 stride shared by every array. Analytic derivation
     also needs that stride to move same-class blocks by a whole number
     of 128 B lines: then coalescing runs, the per-block L1's set
     mapping and all shared-memory counts are translation-invariant, so
     a class member's counter delta equals its representative's bit for
     bit and population scaling is exact (see Gpusim.Analytic). The
     reference engine and the sanitizer need per-lane events, which no
     recording can hold. Each fallback from the requested regime is
     recorded on the simulator and counted under
     [sim.regime_fallback.<reason>]. *)
  let stride0 = List.hd stride0s in
  let fall_back reason regime =
    ctx.sim.fallback <- Some reason;
    Obs.incr ("sim.regime_fallback." ^ Sim.fallback_name reason);
    regime
  in
  let regime =
    if ctx.engine <> Common.Tape || Sanitize.enabled () then Exact
    else if not (List.for_all (( = ) stride0) stride0s) then
      fall_back Sim.Unequal_stride Exact
    else if not analytic then Memo
    else if 4 * stride0 mod dev.Device.line_bytes <> 0 then
      fall_back Sim.Unaligned_stride Memo
    else Analytic
  in
  (* Cross-launch class cache: classes recur across launches. Two blocks
     (of any launch) whose clip vectors match and whose [u0] agree modulo
     [k · lcm(folds)] run the same statement at every hexagon row with
     the same grid time-slot parity, over identically-shaped classical
     windows — so their recorded streams are pure s0-translations of
     each other, exactly like same-launch class members ([u = k·tstep +
     si] makes [stmt_of_u] and every [tstep mod fold] a function of
     [u0 mod (k·lcm folds)]; everything else in the key is a run
     constant). A class whose signature was recorded in an earlier
     launch is derived entirely in the epilogue — representative
     included — without executing anything. *)
  let sig_mod =
    max 1 (List.length prog.stmts)
    * List.fold_left
        (fun acc (d : Stencil.array_decl) ->
          match d.fold with
          | Some f when f > 0 -> Intutil.lcm acc f
          | _ -> acc)
        1 prog.arrays
  in
  let sig_of_key (key : int array) =
    let s = Array.copy key in
    s.(0) <- Intutil.fmod key.(0) sig_mod;
    s
  in
  let cls_cache : (int array, source) Hashtbl.t = Hashtbl.create 64 in
  let stmts = ctx.stmts in
  (* register tiling: reads whose cell was read (or produced) by the
     previous unrolled iteration along the sweep direction stay in
     registers; only the leading cells load from shared memory. *)
  let loads_subset =
    let sweep = if dims >= 2 then dims - 1 else 0 in
    Array.map
      (fun (s : Stencil.stmt) ->
        if not config.register_tile then None
        else begin
          let reads = Stencil.distinct_reads s in
          let shift (a : Stencil.access) =
            {
              a with
              offsets = Array.mapi (fun i o -> if i = sweep then o + 1 else o) a.offsets;
            }
          in
          let avail a =
            let a' = shift a in
            List.exists (fun r -> r = a') reads || a' = s.write
          in
          Some (Common.resolve_reads ctx (List.filter (fun r -> not (avail r)) reads))
        end)
      stmts
  in
  (* Iterate the instance rows of one tile in execution order: for each
     valid t' step, every (prefix point, x-range) with x the innermost
     dimension. [fa] runs once per t' step (barrier point). *)
  let iter_tile ~u0 ~s00 ~(cls : int array) ~on_step ~on_row =
    for a = 0 to height - 1 do
      let u = u0 + a in
      let rb_lo = row_lo.(a) and rb_hi = row_hi.(a) in
      if u >= 0 && u < ubound && rb_lo <= rb_hi then begin
        let si = Hybrid.stmt_of_u t u in
        let tstep = Hybrid.tstep_of_u t u in
        let slo = ctx.lo.(si) and shi = ctx.hi.(si) in
        let s0lo = max (s00 + rb_lo) slo.(0) and s0hi = min (s00 + rb_hi) shi.(0) in
        if s0lo <= s0hi then begin
          (* classical windows, clipped to the statement domain *)
          let wins =
            Array.init (dims - 1) (fun i ->
                let c = t.classical.(i) in
                let lo = Classical.si_of c ~u:a ~tile:cls.(i) ~intra:0 in
                let hi = Classical.si_of c ~u:a ~tile:cls.(i) ~intra:(t.w.(i + 1) - 1) in
                (max lo slo.(i + 1), min hi shi.(i + 1)))
          in
          if Array.for_all (fun (l, h2) -> l <= h2) wins then begin
            on_step ();
            if dims = 1 then begin
              let point = [| s0lo |] in
              let xs = Array.init (s0hi - s0lo + 1) (fun i -> s0lo + i) in
              on_row ~si ~tstep ~point ~xs
            end
            else begin
              (* prefix dims: s0 and windows 1..dims-2; x = last dim *)
              let xlo, xhi = wins.(dims - 2) in
              let xs = Array.init (xhi - xlo + 1) (fun i -> xlo + i) in
              let point = Array.make dims 0 in
              let rec go d =
                if d = dims - 1 then on_row ~si ~tstep ~point ~xs
                else if d = 0 then
                  for s0 = s0lo to s0hi do
                    point.(0) <- s0;
                    go 1
                  done
                else
                  let l, h2 = wins.(d - 1) in
                  for v = l to h2 do
                    point.(d) <- v;
                    go (d + 1)
                  done
              in
              go 0
            end
          end
        end
      end
    done
  in
  (* process one (T, phase, S0, S1..Sn) tile; returns its layout *)
  let shared_warned = Atomic.make false in
  let process_tile ~u0 ~s00 ~(cls : int array) ~(prev : Common.Layout.t option) =
    let lay = Common.Layout.create () in
    if strat.use_shared then begin
      (* pre-pass: accessed boxes per (array, slot). Rows find their box
         in [seen] by grid identity; [boxes] is filled once per key and
         fixes the order in which the layout receives them. *)
      let boxes : (string * int, Grid.t * Common.box) Hashtbl.t = Hashtbl.create 8 in
      let seen = ref [] in
      let rec find_box g slot = function
        | [] ->
            let b = Common.empty_box ~dims in
            seen := (g, slot, b) :: !seen;
            Hashtbl.replace boxes (g.Grid.decl.aname, slot) (g, b);
            b
        | (g', slot', b) :: tl -> if g' == g && slot' = slot then b else find_box g slot tl
      in
      let grow_access (r : Common.src) ~tstep ~point ~xs =
        let box = find_box r.sgrid (Grid.slot r.sgrid (tstep + r.sacc.time_off)) !seen in
        let offsets = r.sacc.offsets in
        let grow d v =
          if v < box.blo.(d) then box.blo.(d) <- v;
          if v > box.bhi.(d) then box.bhi.(d) <- v
        in
        for d = 0 to dims - 2 do
          grow d (point.(d) + offsets.(d))
        done;
        grow (dims - 1) (xs.(0) + offsets.(dims - 1));
        grow (dims - 1) (xs.(Array.length xs - 1) + offsets.(dims - 1))
      in
      iter_tile ~u0 ~s00 ~cls
        ~on_step:(fun () -> ())
        ~on_row:(fun ~si ~tstep ~point ~xs ->
          Array.iter
            (fun r -> grow_access r ~tstep ~point ~xs)
            (Common.stmt_reads ctx ~stmt_idx:si);
          grow_access (Common.stmt_write ctx ~stmt_idx:si) ~tstep ~point ~xs);
      Hashtbl.iter
        (fun (_, slot) (grid, box) -> Common.Layout.add lay ~grid ~slot box)
        boxes;
      if
        4 * Common.Layout.words lay > dev.Device.shared_mem_bytes
        (* blocks may run on several domains: claim the warning atomically *)
        && Atomic.compare_and_set shared_warned false true
      then begin
        (* The box over-approximation exceeds the device limit; the
           paper's code generator avoids this with live-window modular
           mappings (Section 4.2.2), which the traffic model below does
           not need to materialize. Warn once and continue. *)
        Fmt.epr
          "[hextile] warning: %s tile box needs %d B shared memory (device limit %d)@."
          name
          (4 * Common.Layout.words lay)
          dev.Device.shared_mem_bytes
      end;
      (* copy-in, with inter-tile reuse *)
      Common.Layout.iter lay ~f:(fun e ->
          let pbox =
            match (strat.reuse, prev) with
            | No_reuse, _ | _, None -> None
            | _, Some p ->
                Option.map
                  (fun (pe : Common.Layout.entry) -> pe.lbox)
                  (Common.Layout.find p ~grid:e.lgrid ~slot:e.lslot)
          in
          let skip_x row =
            match pbox with
            | None -> None
            | Some pb ->
                let inside = ref true in
                for d = 0 to dims - 2 do
                  if row.(d) < pb.blo.(d) || row.(d) > pb.bhi.(d) then inside := false
                done;
                if !inside then Some (pb.blo.(dims - 1), pb.bhi.(dims - 1)) else None
          in
          Common.load_box_rows ctx e ~skip_x ();
          (* dynamic reuse: move the overlap within shared memory *)
          match (strat.reuse, pbox) with
          | Dynamic, Some pb ->
              let overlap = Common.box_inter e.lbox pb in
              if not (Common.box_is_empty overlap) then
                Common.shared_copy_rows ctx e ~box:overlap
          | _ -> ());
      Sim.sync ctx.sim
    end;
    (* compute *)
    let replay = match strat.reuse with Static -> 2 | _ -> 1 in
    let pending_sync = ref false in
    let nsteps = ref 0 in
    (* written cells for the copy-out phase, per statement (each array
       has one writer); [copyout] is filled on a statement's first row and
       fixes the order of the copy-out *)
    let copyout : (string, Grid.t * int list ref) Hashtbl.t = Hashtbl.create 4 in
    let out_cells = Array.make ctx.k None in
    let wp = Array.make dims 0 in
    iter_tile ~u0 ~s00 ~cls
      ~on_step:(fun () ->
        if !pending_sync then Sim.sync ctx.sim;
        pending_sync := true;
        incr nsteps)
      ~on_row:(fun ~si ~tstep ~point ~xs ->
        Common.exec_stmt_row ctx ~stmt_idx:si ~tstep ~point ~xs ~layout:lay
          ?loads_subset:loads_subset.(si) ~global_reads:(not strat.use_shared)
          ~shared_replay:replay ~interleave_store:strat.interleave
          ~use_shared:strat.use_shared ();
        if strat.use_shared && not strat.interleave then begin
          let w = Common.stmt_write ctx ~stmt_idx:si in
          let g = w.sgrid and wo = w.sacc.offsets in
          let slot = Grid.slot g (tstep + w.sacc.time_off) in
          let cells =
            match out_cells.(si) with
            | Some l -> l
            | None ->
                let l = ref [] in
                Hashtbl.replace copyout w.sacc.array (g, l);
                out_cells.(si) <- Some l;
                l
          in
          for d = 0 to dims - 1 do
            wp.(d) <- point.(d) + wo.(d)
          done;
          Array.iter
            (fun x ->
              wp.(dims - 1) <- x + wo.(dims - 1);
              cells := Common.flat g ~slot wp :: !cells)
            xs
        end);
    if !pending_sync then Sim.sync ctx.sim;
    (* The perf path skips barriers for steps with no work, so blocks at
       the domain boundary legitimately run fewer syncs. Under the
       sanitizer we model the real kernel's unconditional per-step
       __syncthreads instead, so the barrier-divergence check holds
       without boundary false positives. *)
    if Sanitize.enabled () then
      for _ = !nsteps + 1 to height do
        Sim.sync ctx.sim
      done;
    (* copy-out *)
    if strat.use_shared && not strat.interleave then
      Hashtbl.iter
        (fun _ (grid, cells) ->
          Common.store_cells ctx ~grid ~cells:(List.rev !cells) ~via_shared:true)
        copyout;
    lay
  in
  (* Tile class of a block: u0 plus, per hexagon row, the left/right
     clipping of the s0 interval against the statement domain (-2 marks
     rows with no work). Everything else a block does — classical tile
     ranges, windows, statement/step assignment — is a launch constant,
     so equal keys imply identical event streams up to the s0
     translation. Boundary-clipped classes are near-singletons; the
     interior class covers the bulk of each launch. *)
  let class_key ~u0 ~s00 =
    let key = Array.make (1 + (2 * height)) (-2) in
    key.(0) <- u0;
    for a = 0 to height - 1 do
      let u = u0 + a in
      if u >= 0 && u < ubound && row_lo.(a) <= row_hi.(a) then begin
        let si = Hybrid.stmt_of_u t u in
        let slo = ctx.lo.(si) and shi = ctx.hi.(si) in
        key.(1 + (2 * a)) <- max 0 (slo.(0) - (s00 + row_lo.(a)));
        key.(2 + (2 * a)) <- max 0 (s00 + row_hi.(a) - shi.(0))
      end
    done;
    key
  in
  (* Closed-form self-check of a recorded class: the tile model's
     per-class counts must match the instanced representative exactly —
     its compiled rows' lanes = Σ per live row of (clipped s0 length ×
     inner-domain coverage), and its counted barriers = copy-in barriers
     (one per classical tile) + steps whose windows are non-empty. Rows
     the key records as fully clipped (length ≤ 0 after subtracting the
     left/right clips) contribute nothing. A mismatch
     means the class decomposition that both the population scaling and
     the cross-launch cache rest on is wrong, so fail loudly rather than
     degrade. *)
  let check_class ~lname ~(key : int array) (src : source) =
    let points = Common.points src.crows and syncs = src.delta.syncs in
    let cu0 = key.(0) in
    let tuples = ref 1 in
    for i = 0 to dims - 2 do
      let lo, hi =
        Classical.tile_range t.classical.(i) ~u_max:(height - 1)
          ~lo:glo.(i + 1) ~hi:ghi.(i + 1)
      in
      tuples := !tuples * (hi - lo + 1)
    done;
    let exp_points = ref 0 and exp_steps = ref 0 in
    for a = 0 to height - 1 do
      if key.(1 + (2 * a)) >= 0 then begin
        let u = cu0 + a in
        let si = Hybrid.stmt_of_u t u in
        let slo = ctx.lo.(si) and shi = ctx.hi.(si) in
        let len =
          row_hi.(a) - row_lo.(a) + 1 - key.(1 + (2 * a)) - key.(2 + (2 * a))
        in
        if len > 0 then begin
          let inner = ref 1 and steps = ref 1 in
          for i = 0 to dims - 2 do
            inner :=
              !inner * Tile_model.coverage ~lo:slo.(i + 1) ~hi:shi.(i + 1);
            steps :=
              !steps
              * Tile_model.tiles_nonempty t.classical.(i) ~u:a
                  ~lo:slo.(i + 1) ~hi:shi.(i + 1)
          done;
          exp_points := !exp_points + (len * !inner);
          exp_steps := !exp_steps + !steps
        end
      end
    done;
    let exp_syncs = (if strat.use_shared then !tuples else 0) + !exp_steps in
    if points <> !exp_points then
      failwith
        (Fmt.str
           "%s: analytic class model mismatch: %d compute lanes recorded, %d \
            expected"
           lname points !exp_points);
    if syncs <> exp_syncs then
      failwith
        (Fmt.str
           "%s: analytic class model mismatch: %d syncs recorded, %d expected"
           lname syncs exp_syncs)
  in
  (* Host loop: time tiles x phases. Every launch takes one path: classify
     its blocks in canonical order; in wave 0 each class's representative
     runs (outside the exact regime it records its stream, counter delta
     and compiled rows into the class's record); in wave 1 every other
     block follows its class's member strategy; in the analytic regime
     the launch epilogue then derives the [Derive] blocks. The plan, the
     strategies and the cache hits are fixed before the launch and the
     wave join publishes the records, so every jobs value runs the same
     blocks the same way. *)
  let launch_phase ~tt ~phase =
    (* does any u of this phase's tiles fall in the domain? *)
    let u0, _ = Hex_schedule.tile_origin t.hs ~phase ~tt ~s_tile:0 in
    if u0 + height - 1 >= 0 && u0 < ubound then begin
      let s_of s0 = Hex_schedule.space_tile t.hs ~phase ~u:(max 0 u0) ~s0 in
      (* S0 is monotone in s0: *)
      let s0_lo = s_of glo.(0) and s0_hi = s_of ghi.(0) in
      let blocks = s0_hi - s0_lo + 1 in
      if blocks > 0 then begin
        let lname = Fmt.str "%s_T%d_p%d" name tt phase in
        let origin_of b =
          Hex_schedule.tile_origin t.hs ~phase ~tt ~s_tile:(s0_lo + b)
        in
        let exec_block ~u0 ~s00 =
          (* classical tile ranges *)
          let ranges =
            Array.init (dims - 1) (fun i ->
                Classical.tile_range t.classical.(i) ~u_max:(height - 1)
                  ~lo:glo.(i + 1) ~hi:ghi.(i + 1))
          in
          let cls = Array.map fst ranges in
          let prev = ref None in
          let rec loop d =
            if d = dims - 1 then begin
              let lay = process_tile ~u0 ~s00 ~cls ~prev:!prev in
              prev := Some lay
            end
            else begin
              let lo, hi = ranges.(d) in
              for v = lo to hi do
                cls.(d) <- v;
                if d = dims - 2 && v = lo then prev := None;
                loop (d + 1)
              done
            end
          in
          if dims = 1 then ignore (process_tile ~u0 ~s00 ~cls ~prev:None)
          else loop 0
        in
        let plan =
          Classplan.classify ~blocks ~key:(fun b ->
              let u0, s00 = origin_of b in
              class_key ~u0 ~s00)
        in
        let nclasses = Classplan.classes plan in
        let cached =
          Array.map
            (fun key ->
              if regime = Analytic then Hashtbl.find_opt cls_cache (sig_of_key key)
              else None)
            plan.key
        in
        let nhits =
          Array.fold_left (fun a c -> if Option.is_some c then a + 1 else a) 0 cached
        in
        if nhits > 0 then Obs.incr ~by:nhits "sim.class_cache_hits";
        (* analytic runs derive the members of interior classes (no s0
           clipping anywhere); clipped classes are singletons within a
           launch (a positive clip pins s00) *)
        let member =
          Array.map
            (fun key ->
              match regime with
              | Exact -> Execute
              | Memo -> Replay
              | Analytic ->
                  let clips = Array.sub key 1 (Array.length key - 1) in
                  if Array.exists (fun c -> c > 0) clips then Execute else Derive)
            plan.key
        in
        let records = Array.make nclasses None in
        let record cid ~u0 ~s00 =
          (* the active accumulator is only mutated by this domain *)
          let before = Counters.copy (Sim.live_counters ctx.sim) in
          Sim.record_begin ctx.sim;
          match exec_block ~u0 ~s00 with
          | exception e ->
              ignore (Sim.record_end ctx.sim);
              raise e
          | () ->
              let delta = Counters.diff (Sim.live_counters ctx.sim) before in
              Sim.record_end ctx.sim
              |> Option.map (fun stream ->
                     let runs =
                       if regime <> Analytic then [||]
                       else
                         Analytic.line_runs stream ~line_bytes:dev.Device.line_bytes
                     in
                     let crows = Common.compile_rows ctx (Tileclass.rows stream) in
                     let replay = if member.(cid) = Replay then Some stream else None in
                     { replay; src = { s00; delta; runs; crows } })
        in
        let run_block b =
          let u0, s00 = origin_of b in
          let cid = plan.role.(b) in
          if Option.is_some cached.(cid) then ()
          else if plan.rep.(cid) = b && regime <> Exact then
            records.(cid) <- record cid ~u0 ~s00
          else
            match (member.(cid), records.(cid)) with
            | Replay, Some { replay = Some stream; src; _ } ->
                let off = (s00 - src.s00) * stride0 in
                Sim.replay_stream ctx.sim stream ~delta:src.delta ~off;
                Common.exec_rows ctx src.crows ~off
            | Derive, Some _ -> ()
            | _ -> exec_block ~u0 ~s00
        in
        (* Analytic epilogue: check and publish the fresh records in
           class-id order, then derive every [Derive] block — counters by
           population scaling of its source's exact delta, DRAM by
           sorted-line-run replay through the shared L2 in canonical block
           order (sequential: the L2 is order-sensitive state), grids by
           fused-plan blits of its source's compute rows at the block's
           word offset (parallel: disjoint writes, commutative
           counters). *)
        let derive () =
          let ep0 = Unix.gettimeofday () in
          ignore (Atomic.fetch_and_add ctx.sim.tile_classes nclasses);
          Obs.incr ~by:nclasses "sim.tile_classes";
          Array.iteri
            (fun cid r ->
              Option.iter
                (fun r ->
                  check_class ~lname ~key:plan.key.(cid) r.src;
                  let s = sig_of_key plan.key.(cid) in
                  if not (Hashtbl.mem cls_cache s) then Hashtbl.add cls_cache s r.src)
                r)
            records;
          (* each derived class's source and derived blocks: a cache hit
             derives its representative too *)
          let derived =
            Array.init nclasses (fun cid ->
                match (cached.(cid), member.(cid), records.(cid)) with
                | Some src, _, _ -> Some (src, plan.rep.(cid) :: plan.members.(cid))
                | None, Derive, Some r -> Some (r.src, plan.members.(cid))
                | _ -> None)
          in
          let nderived = ref 0 in
          Array.iter
            (Option.iter (fun (src, bs) ->
                 let m = List.length bs in
                 Analytic.scale_into ctx.sim.total ~delta:src.delta ~times:m;
                 nderived := !nderived + m))
            derived;
          let t1 = Unix.gettimeofday () in
          ctx.sim.analytic_derive_s <- ctx.sim.analytic_derive_s +. (t1 -. ep0);
          if !nderived > 0 then begin
            Tl.begin_ ~arg:(float_of_int !nderived) "sim.analytic_dram";
            Array.iter
              (fun b ->
                let cid = plan.role.(b) in
                match derived.(cid) with
                | Some (src, _)
                  when Option.is_some cached.(cid) || plan.rep.(cid) <> b ->
                    let _, s00 = origin_of b in
                    Analytic.replay_line_runs ctx.sim src.runs
                      ~dline:((s00 - src.s00) * stride0 * 4 / dev.Device.line_bytes)
                | _ -> ())
              (Sim.block_order ~blocks);
            Tl.end_ ()
          end;
          let t2 = Unix.gettimeofday () in
          ctx.sim.analytic_dram_s <- ctx.sim.analytic_dram_s +. (t2 -. t1);
          let gtasks =
            Array.of_list
              (List.concat_map
                 (function
                   | None -> []
                   | Some (src, bs) ->
                       List.map
                         (fun b ->
                           let _, s00 = origin_of b in
                           (src.crows, (s00 - src.s00) * stride0))
                         bs)
                 (Array.to_list derived))
          in
          if Array.length gtasks > 0 then begin
            Tl.begin_ ~arg:(float_of_int (Array.length gtasks)) "sim.analytic_grids";
            let run_task (crows, off) = Common.exec_rows ctx crows ~off in
            (match pool with
            | Some p -> Par.iter p run_task gtasks
            | None -> Array.iter run_task gtasks);
            Tl.end_ ()
          end;
          ignore (Atomic.fetch_and_add ctx.sim.blocks_analytic !nderived);
          Obs.incr ~by:!nderived "sim.blocks_analytic";
          let t3 = Unix.gettimeofday () in
          ctx.sim.analytic_grids_s <- ctx.sim.analytic_grids_s +. (t3 -. t2);
          ctx.sim.analytic_epilogue_s <- ctx.sim.analytic_epilogue_s +. (t3 -. ep0)
        in
        Sim.launch ?pool ctx.sim ~name:lname ~blocks ~threads:config.threads
          ~shared_bytes:0
          ?post:(if regime = Analytic then Some derive else None)
          ~wave_of:(fun b -> if Classplan.is_rep plan b then 0 else 1)
          ~f:run_block
      end
    end
  in
  (* T bounds covering every u in [0, ubound) for both phases *)
  let t_lo =
    min
      (Hex_schedule.time_tile t.hs ~phase:0 ~u:0)
      (Hex_schedule.time_tile t.hs ~phase:1 ~u:0)
  in
  let t_hi =
    max
      (Hex_schedule.time_tile t.hs ~phase:0 ~u:(ubound - 1))
      (Hex_schedule.time_tile t.hs ~phase:1 ~u:(ubound - 1))
  in
  for tt = t_lo to t_hi do
    launch_phase ~tt ~phase:0;
    launch_phase ~tt ~phase:1
  done;
  Common.finish ctx ~scheme:name
