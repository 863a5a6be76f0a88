open Hextile_ir
open Hextile_deps
module Obs = Hextile_obs.Obs
module Timeline = Hextile_obs.Timeline
module Par = Hextile_par.Par
module M = Tile_model

type stats = {
  iterations : int;
  loads : int;
  stores : int;
  footprint_box : int;
  ratio : float;
}

type choice = { h : int; w : int array; stats : stats }

type skipped = { h_residue : int; w0_convexity : int }

type report = {
  candidates : int;
  feasible : int;
  pruned_infeasible : int;
  pruned_dominated : int;
  exact_evals : int;
  skipped : skipped;
}

(* Memory cell identity: (array, storage slot, spatial indices). *)
type cell = string * int * int list

let cell_of_access (prog : Stencil.t) (a : Stencil.access) ~tstep ~point : cell =
  let decl = Stencil.array_decl prog a.array in
  let slot =
    match decl.fold with
    | Some m -> Hextile_util.Intutil.fmod (tstep + a.time_off) m
    | None -> 0
  in
  (a.array, slot, Array.to_list (Array.mapi (fun i o -> point.(i) + o) a.offsets))

(* Enumerate the statement instances of one generic tile in intra-tile
   execution order (ascending t' = a; instances within a step are
   parallel). *)
let iter_tile_instances (t : Hybrid.t) ~f =
  let tt = 7 and phase = 1 in
  let u0, s00 = Hex_schedule.tile_origin t.hs ~phase ~tt ~s_tile:7 in
  let stmts = Array.of_list t.prog.stmts in
  for a = 0 to (2 * t.h) + 1 do
    match Hexagon.row_range t.hex ~a with
    | None -> ()
    | Some (blo, bhi) ->
        let u = u0 + a in
        let stmt = stmts.(Hybrid.stmt_of_u t u) in
        let tstep = Hybrid.tstep_of_u t u in
        (* spatial values per dimension *)
        let dim_values =
          Array.init t.dims (fun d ->
              if d = 0 then
                Array.init (bhi - blo + 1) (fun i -> s00 + blo + i)
              else
                let c = t.classical.(d - 1) in
                Array.init t.w.(d) (fun i -> Classical.si_of c ~u:a ~tile:7 ~intra:i))
        in
        let point = Array.make t.dims 0 in
        let rec go d =
          if d = t.dims then f ~a ~stmt ~tstep ~point
          else
            Array.iter
              (fun v ->
                point.(d) <- v;
                go (d + 1))
              dim_values.(d)
        in
        go 0
  done

(* Reference implementation: hashtables keyed by cons-cell identities.
   Kept as the oracle the dense accounting below is differentially
   tested (and benchmarked) against. *)
let tile_stats_ref (t : Hybrid.t) =
  let written : (cell, unit) Hashtbl.t = Hashtbl.create 256 in
  let loaded : (cell, unit) Hashtbl.t = Hashtbl.create 256 in
  let boxes : (string, (int * int) array) Hashtbl.t = Hashtbl.create 4 in
  let slots : (string * int, unit) Hashtbl.t = Hashtbl.create 8 in
  let iterations = ref 0 and loads = ref 0 in
  let touch ((arr, slot, idx) : cell) =
    Hashtbl.replace slots (arr, slot) ();
    let idx = Array.of_list idx in
    match Hashtbl.find_opt boxes arr with
    | None -> Hashtbl.replace boxes arr (Array.map (fun x -> (x, x)) idx)
    | Some box ->
        Array.iteri
          (fun i x ->
            let lo, hi = box.(i) in
            box.(i) <- (min lo x, max hi x))
          idx
  in
  (* Writes of the current time step are deferred so that same-step reads
     (which cannot depend on them) do not mask loads. *)
  let pending = ref [] and current_a = ref min_int in
  let flush () =
    List.iter (fun c -> Hashtbl.replace written c ()) !pending;
    pending := []
  in
  iter_tile_instances t ~f:(fun ~a ~stmt ~tstep ~point ->
      if a <> !current_a then begin
        flush ();
        current_a := a
      end;
      incr iterations;
      List.iter
        (fun r ->
          let c = cell_of_access t.prog r ~tstep ~point in
          touch c;
          if not (Hashtbl.mem written c || Hashtbl.mem loaded c) then begin
            incr loads;
            Hashtbl.replace loaded c ()
          end)
        (Stencil.distinct_reads stmt);
      let wc = cell_of_access t.prog stmt.write ~tstep ~point in
      touch wc;
      pending := wc :: !pending);
  flush ();
  let footprint_box =
    Hashtbl.fold
      (fun arr box acc ->
        let spatial =
          Array.fold_left (fun p (lo, hi) -> p * (hi - lo + 1)) 1 box
        in
        let nslots =
          Hashtbl.fold (fun (a, _) () n -> if String.equal a arr then n + 1 else n) slots 0
        in
        acc + (spatial * max 1 nslots))
      boxes 0
  in
  {
    iterations = !iterations;
    loads = !loads;
    stores = Hashtbl.length written;
    footprint_box;
    ratio = float_of_int !loads /. float_of_int !iterations;
  }

(* Word-parallel exact accounting: row-level bit-run set algebra. The
   analytic footprint gives, per array, the exact bounding box and
   live-slot set of everything the tile touches; lay those regions out
   contiguously (slot-major, then row-major over the box) and keep
   written/loaded as two bitsets over flat offsets, 32 bits per [int].
   Two facts make whole runs exact. Writes are deferred to the end of a
   hexagon row, so a row's new loads are its reads minus [written] (and
   minus [loaded], which the union absorbs): the order of instances
   inside a row does not matter. And the innermost box dimension has
   stride 1, so one access over one line of the row (all coordinates but
   the innermost fixed) is a run of contiguous bits. Per line,
   [loaded |= run land lnot written]; at the row's end,
   [written |= write runs]; loads and stores are the two popcounts.
   Loads, stores, iterations and the footprint agree bit for bit with
   [tile_stats_ref]. *)
let word_mask = 0xffff_ffff

(* [dst |= bits [f, f + n) land lnot mask], word by word *)
let or_run dst mask f n =
  let l = f + n - 1 in
  let wf = f lsr 5 and wl = l lsr 5 in
  let head = (word_mask lsl (f land 31)) land word_mask in
  let tail = word_mask lsr (31 - (l land 31)) in
  if wf = wl then dst.(wf) <- dst.(wf) lor (head land tail land lnot mask.(wf))
  else begin
    dst.(wf) <- dst.(wf) lor (head land lnot mask.(wf));
    for i = wf + 1 to wl - 1 do
      dst.(i) <- dst.(i) lor (word_mask land lnot mask.(i))
    done;
    dst.(wl) <- dst.(wl) lor (tail land lnot mask.(wl))
  end

let popcount32 x =
  let x = x - ((x lsr 1) land 0x5555_5555) in
  let x = (x land 0x3333_3333) + ((x lsr 2) land 0x3333_3333) in
  let x = (x + (x lsr 4)) land 0x0f0f_0f0f in
  ((x * 0x0101_0101) lsr 24) land 0xff

let popcount bits = Array.fold_left (fun n x -> n + popcount32 x) 0 bits

let tile_stats_runs (cx : M.ctx) (hs : M.hslice) (fp : M.footprint) ~w =
  let narr = cx.M.narrays in
  let base = Array.make narr 0 in
  let strides = Array.make narr [||] in
  let spatial_sz = Array.make narr 0 in
  let slotmap = Array.make narr [||] in
  let total = ref 0 in
  for i = 0 to narr - 1 do
    match fp.M.boxes.(i) with
    | None -> ()
    | Some b ->
        let dims = Array.length b.M.lo in
        let st = Array.make dims 1 in
        for d = dims - 2 downto 0 do
          st.(d) <- st.(d + 1) * (b.M.hi.(d + 1) - b.M.lo.(d + 1) + 1)
        done;
        strides.(i) <- st;
        let spatial = M.volume b in
        spatial_sz.(i) <- spatial;
        let slots = fp.M.slots.(i) in
        let map = Array.make (slots.(Array.length slots - 1) + 1) (-1) in
        Array.iteri (fun j s -> map.(s) <- j) slots;
        slotmap.(i) <- map;
        base.(i) <- !total;
        total := !total + (spatial * Array.length slots)
  done;
  let nwords = (!total + 31) / 32 in
  let written = Array.make nwords 0 and loaded = Array.make nwords 0 in
  let dims = cx.M.dims in
  let inner = dims - 1 in
  let iterations = ref 0 in
  Array.iter
    (fun (row : M.row) ->
      let extent d = if d = 0 then row.M.bhi - row.M.blo + 1 else w.(d) in
      let n = extent inner in
      (* Every line of access [ai] over this row, as the flat offset of
         its first cell: region base, plus the dense slot page, plus the
         spatial offset of the box corner the row sweep starts from, plus
         the line's coordinates times the box strides. *)
      let runs (ai : M.ainfo) ~f =
        let arr = ai.M.arr in
        let b = match fp.M.boxes.(arr) with Some b -> b | None -> assert false in
        let st = strides.(arr) in
        let sdense = slotmap.(arr).(M.slot_of row ai) in
        let c = ref (base.(arr) + (sdense * spatial_sz.(arr))) in
        c := !c + ((hs.M.s00 + row.M.blo + ai.M.acc.offsets.(0) - b.M.lo.(0)) * st.(0));
        for d = 1 to inner do
          c :=
            !c
            + (((7 * w.(d)) - row.M.fl.(d - 1) + ai.M.acc.offsets.(d) - b.M.lo.(d))
              * st.(d))
        done;
        let rec go d off =
          if d = inner then f off
          else
            for i = 0 to extent d - 1 do
              go (d + 1) (off + (i * st.(d)))
            done
        in
        go 0 !c
      in
      let instances = ref 1 in
      for d = 0 to inner do
        instances := !instances * extent d
      done;
      iterations := !iterations + !instances;
      (* [or_run] needs [n >= 1]; a zero inner width touches nothing *)
      if n > 0 then begin
        let si = cx.M.stmts.(row.M.sidx) in
        Array.iter (fun ai -> runs ai ~f:(fun off -> or_run loaded written off n)) si.M.reads;
        (* [written |= run land lnot written] is [written |= run] *)
        runs si.M.write ~f:(fun off -> or_run written written off n)
      end)
    hs.M.rows;
  let loads = popcount loaded in
  {
    iterations = !iterations;
    loads;
    stores = popcount written;
    footprint_box = fp.M.floats;
    ratio = float_of_int loads /. float_of_int !iterations;
  }

let tile_stats (t : Hybrid.t) =
  let cx = M.ctx ~deps:t.deps t.prog in
  let hs = M.hslice_of_hex cx t.hex in
  let fp = M.footprint hs ~w:t.w in
  tile_stats_runs cx hs fp ~w:t.w

let iterations_formula_3d ~h ~w0 ~w1 ~w2 =
  2 * (1 + (2 * h) + (h * h) + (w0 * (h + 1))) * w1 * w2

let rec cartesian = function
  | [] -> [ [] ]
  | choices :: rest ->
      let tails = cartesian rest in
      List.concat_map (fun c -> List.map (fun t -> c :: t) tails) choices

(* Same element order as [cartesian], but lazy: a pruned slice never
   materializes its tail. *)
let rec cartesian_seq = function
  | [] -> Seq.return []
  | choices :: rest ->
      List.to_seq choices
      |> Seq.concat_map (fun c -> Seq.map (fun t -> c :: t) (cartesian_seq rest))

(* The frozen pre-staging search: enumerate every candidate eagerly,
   evaluate all of them with the reference accounting, fold.  This is
   the oracle the staged engine's choice is differentially tested
   against, and the baseline `bench tilesearch` times. *)
let select_exhaustive ?pool prog ~h_candidates ~w0_candidates ~wi_candidates
    ~shared_mem_floats ?require_multiple () =
  Timeline.slice "tiling.tile_size_select_exhaustive" (fun () ->
      let k = List.length prog.Stencil.stmts in
      let deps = Dep.analyze prog in
      let cone = Cone.of_deps deps ~dim:0 in
      let candidates =
        List.concat_map
          (fun h ->
            if (h + 1) mod k <> 0 then []
            else
              List.concat_map
                (fun w0 ->
                  if w0 < Hexagon.min_w0 ~h cone then []
                  else
                    List.filter_map
                      (fun wis ->
                        let w = Array.of_list (w0 :: wis) in
                        let innermost = w.(Array.length w - 1) in
                        let aligned =
                          match require_multiple with
                          | Some m -> innermost mod m = 0
                          | None -> true
                        in
                        if aligned then Some (h, w) else None)
                      (cartesian wi_candidates))
                w0_candidates)
          h_candidates
        |> Array.of_list
      in
      let eval (h, w) =
        let t = Hybrid.make prog ~h ~w in
        (h, w, tile_stats_ref t)
      in
      let evaluated =
        match pool with
        | Some p -> Par.map p eval candidates
        | None -> Array.map eval candidates
      in
      let best = ref None in
      Array.iter
        (fun (h, w, stats) ->
          if stats.footprint_box <= shared_mem_floats then
            match !best with
            | None -> best := Some { h; w; stats }
            | Some b ->
                if
                  stats.ratio < b.stats.ratio -. 1e-12
                  || (Float.abs (stats.ratio -. b.stats.ratio) <= 1e-12
                     && stats.iterations > b.stats.iterations)
                then best := Some { h; w; stats })
        evaluated;
      !best)

(* Candidate stream, in exactly the order the exhaustive search folds:
   h outer, then w0, then the cartesian product of the inner widths.
   The [bool] marks candidates whose whole (h, w0) slice is already
   known infeasible: the footprint is strictly increasing in every
   inner width, so if the per-dimension minimum busts the budget the
   entire product does — those candidates are emitted (they must be
   counted) but never analyzed further. *)
let candidate_seq ~k ~cone ~slice ~budget ~h_candidates ~w0_candidates
    ~wi_candidates ~require_multiple =
  let wi_nonempty = List.for_all (fun l -> l <> []) wi_candidates in
  let wi_min =
    if wi_nonempty then
      List.map (fun l -> List.fold_left min (List.hd l) (List.tl l)) wi_candidates
    else []
  in
  List.to_seq h_candidates
  |> Seq.concat_map (fun h ->
         if (h + 1) mod k <> 0 then Seq.empty
         else
           List.to_seq w0_candidates
           |> Seq.concat_map (fun w0 ->
                  if w0 < Hexagon.min_w0 ~h cone then Seq.empty
                  else
                    let slice_infeasible =
                      wi_nonempty
                      && (let hsl : M.hslice = slice h w0 in
                          let wmin = Array.of_list (w0 :: wi_min) in
                          (M.footprint hsl ~w:wmin).M.floats > budget)
                    in
                    cartesian_seq wi_candidates
                    |> Seq.filter_map (fun wis ->
                           let w = Array.of_list (w0 :: wis) in
                           let innermost = w.(Array.length w - 1) in
                           let aligned =
                             match require_multiple with
                             | Some m -> innermost mod m = 0
                             | None -> true
                           in
                           if aligned then Some (h, w, slice_infeasible) else None)))

let rec seq_take n seq =
  if n = 0 then ([], seq)
  else
    match seq () with
    | Seq.Nil -> ([], Seq.empty)
    | Seq.Cons (x, rest) ->
        let xs, r = seq_take (n - 1) rest in
        (x :: xs, r)

(* Screening runs on the main domain in candidate order; only the exact
   evaluation of survivors fans out, one fixed-size wave at a time, so
   counters, the running upper bound and the final fold are identical at
   every [--jobs] value. Within a wave, [Par.map] hands each domain a
   contiguous static shard of survivors (with stealing once a shard runs
   dry). The wave size is part of the determinism contract: the upper
   bound tightens between waves, so changing it changes which
   candidates are exactly evaluated (and the [exact_evals] report). *)
let wave_size = 32

(* Why pruning cannot change the selected choice: the fold only ever
   installs a candidate whose exact ratio is within 1e-12 of the
   running minimum.  [ubound] is maintained as a true upper bound on
   that minimum (analytic upper bounds of screened candidates, exact
   ratios of evaluated ones), so a candidate with
   [lb_ratio > ubound + 1e-6] has an exact ratio strictly above every
   later value of the running minimum — the 1e-6 margin dwarfs the
   worst-case 1e-12-per-tie drift of the running best across the whole
   candidate list.  Removing such a candidate from the fold leaves the
   sequence of best-updates, and hence the selected choice, bit
   identical. *)
let prune_margin = 1e-6

(* The grid entries no candidate is generated from: an [h] breaking
   [(h + 1) mod k = 0], and a [w0] below the convexity minimum of an
   otherwise valid [h] (one per such [(h, w0)] pair). *)
let count_skipped ~k ~cone ~h_candidates ~w0_candidates =
  List.fold_left
    (fun s h ->
      if (h + 1) mod k <> 0 then begin
        Obs.incr "tiling.tilesize_skipped.h_residue";
        { s with h_residue = s.h_residue + 1 }
      end
      else
        List.fold_left
          (fun s w0 ->
            if w0 < Hexagon.min_w0 ~h cone then begin
              Obs.incr "tiling.tilesize_skipped.w0_convexity";
              { s with w0_convexity = s.w0_convexity + 1 }
            end
            else s)
          s w0_candidates)
    { h_residue = 0; w0_convexity = 0 }
    h_candidates

let select_with_report ?pool prog ~h_candidates ~w0_candidates ~wi_candidates
    ~shared_mem_floats ?require_multiple () =
  Timeline.slice "tiling.tile_size_select" (fun () ->
      let k = List.length prog.Stencil.stmts in
      let deps = Dep.analyze prog in
      let cone = Cone.of_deps deps ~dim:0 in
      let cx = M.ctx ~deps prog in
      let skipped = count_skipped ~k ~cone ~h_candidates ~w0_candidates in
      let slices : (int * int, M.hslice) Hashtbl.t = Hashtbl.create 16 in
      let slice h w0 =
        match Hashtbl.find_opt slices (h, w0) with
        | Some s -> s
        | None ->
            let s = M.hslice cx ~h ~w0 in
            Hashtbl.replace slices (h, w0) s;
            s
      in
      let cands =
        candidate_seq ~k ~cone ~slice ~budget:shared_mem_floats ~h_candidates
          ~w0_candidates ~wi_candidates ~require_multiple
      in
      let candidates = ref 0
      and feasible = ref 0
      and pruned_infeasible = ref 0
      and pruned_dominated = ref 0
      and exact_evals = ref 0 in
      let ubound = ref infinity in
      let best = ref None in
      let eval (h, w, hsl, fp) =
        (h, w, tile_stats_runs cx hsl fp ~w)
      in
      let screen (h, w, slice_infeasible) =
        incr candidates;
        Obs.incr "tiling.tilesize_candidates";
        if slice_infeasible then begin
          incr pruned_infeasible;
          Obs.incr "tiling.tilesize_pruned_analytic";
          None
        end
        else begin
          let hsl = slice h w.(0) in
          let e = M.estimate hsl ~w in
          if e.M.fp.M.floats > shared_mem_floats then begin
            incr pruned_infeasible;
            Obs.incr "tiling.tilesize_pruned_analytic";
            None
          end
          else begin
            incr feasible;
            Obs.incr "tiling.tilesize_feasible";
            let iters = float_of_int e.M.iterations in
            let lb = float_of_int e.M.loads_lb /. iters in
            let ub = float_of_int e.M.loads_ub /. iters in
            let keep = not (lb > !ubound +. prune_margin) in
            if ub < !ubound then ubound := ub;
            if keep then Some (h, w, hsl, e.M.fp)
            else begin
              incr pruned_dominated;
              Obs.incr "tiling.tilesize_pruned_analytic";
              None
            end
          end
        end
      in
      let absorb (h, w, stats) =
        incr exact_evals;
        Obs.incr "tiling.tilesize_exact_evals";
        if stats.footprint_box <= shared_mem_floats then begin
          (match !best with
          | None -> best := Some { h; w; stats }
          | Some b ->
              if
                stats.ratio < b.stats.ratio -. 1e-12
                || (Float.abs (stats.ratio -. b.stats.ratio) <= 1e-12
                   && stats.iterations > b.stats.iterations)
              then best := Some { h; w; stats });
          if stats.ratio < !ubound then ubound := stats.ratio
        end
      in
      let rec drain seq =
        let wave, rest = seq_take wave_size seq in
        if wave <> [] then begin
          let survivors = Array.of_list (List.filter_map screen wave) in
          let results =
            match pool with
            | Some p -> Par.map p eval survivors
            | None -> Array.map eval survivors
          in
          Array.iter absorb results;
          drain rest
        end
      in
      drain cands;
      ( !best,
        {
          candidates = !candidates;
          feasible = !feasible;
          pruned_infeasible = !pruned_infeasible;
          pruned_dominated = !pruned_dominated;
          exact_evals = !exact_evals;
          skipped;
        } ))

let select ?pool prog ~h_candidates ~w0_candidates ~wi_candidates
    ~shared_mem_floats ?require_multiple () =
  fst
    (select_with_report ?pool prog ~h_candidates ~w0_candidates ~wi_candidates
       ~shared_mem_floats ?require_multiple ())

let pp_stats ppf s =
  Fmt.pf ppf "iters=%d loads=%d stores=%d box=%d ratio=%.4f" s.iterations s.loads
    s.stores s.footprint_box s.ratio

let pp_choice ppf c =
  Fmt.pf ppf "h=%d w=[%a] %a" c.h Fmt.(array ~sep:(any ", ") int) c.w pp_stats c.stats

let pp_report ppf r =
  Fmt.pf ppf
    "candidates=%d feasible=%d pruned(infeasible=%d dominated=%d) exact_evals=%d \
     skipped(h_residue=%d w0_convexity=%d)"
    r.candidates r.feasible r.pruned_infeasible r.pruned_dominated r.exact_evals
    r.skipped.h_residue r.skipped.w0_convexity

(* The CLI's candidate grid, factored here so `hextile tilesize` and the
   serve daemon search the identical space: a request answered by the
   daemon must be bit-identical to the one-shot command. *)
type spec = {
  h_candidates : int list;
  w0_candidates : int list;
  wi_candidates : int list list;
  shared_mem_floats : int;
  require_multiple : int;
}

let default_spec prog =
  let dims = Stencil.spatial_dims prog in
  {
    h_candidates = [ 1; 2; 3; 5 ];
    w0_candidates = [ 2; 4; 7; 8 ];
    wi_candidates =
      List.init (dims - 1) (fun d ->
          if d = dims - 2 then [ 32; 64 ] else [ 4; 6; 10 ]);
    shared_mem_floats = 48 * 1024 / 4;
    require_multiple = (if dims > 1 then 32 else 1);
  }

let select_spec ?pool prog (s : spec) =
  select_with_report ?pool prog ~h_candidates:s.h_candidates
    ~w0_candidates:s.w0_candidates ~wi_candidates:s.wi_candidates
    ~shared_mem_floats:s.shared_mem_floats ~require_multiple:s.require_multiple
    ()
