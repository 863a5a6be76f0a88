open Hextile_ir
open Hextile_gpusim
open Hextile_util
module Obs = Hextile_obs.Obs

type engine = Ref | Tape

(* One access of a statement, resolved once against the context: its
   grid, flat-index closure and global address handle. *)
type src = {
  sacc : Stencil.access;
  sgrid : Grid.t;
  sflat : int -> int array -> int;  (** tstep -> point -> flat element index *)
  saddr : Addrmap.handle;
}

type compiled = {
  cidx : int;  (** statement index in the program (tape replay key) *)
  cflops : int;  (** [Stencil.flops] of the statement *)
  ceval : int -> int array -> float;  (** tstep -> point -> value *)
  cwrite : src;
  creads : src array;
      (** distinct reads in first-occurrence order (= tape register
          order) *)
  tape : Tape.t;
  tplan : Tape.plan;  (** the tape's fused run plan: every row runs it *)
  tdatas : float array array;  (** [creads] data arrays (read-only share) *)
}

type ctx = {
  sim : Sim.t;
  prog : Stencil.t;
  env : string -> int;
  grids : (string, Grid.t) Hashtbl.t;
  k : int;
  dims : int;
  steps : int;
  stmts : Stencil.stmt array;
  lo : int array array;
  hi : int array array;
  updates : int Atomic.t;
  compiled : compiled array;
  engine : engine;
}

(* Out-of-line error path: the hot loop pays one compare per dimension
   and never touches the [Fmt] machinery unless a bound actually
   fails. *)
let[@inline never] oob_access aname d c =
  invalid_arg (Fmt.str "access to %s out of bounds (dim %d: %d)" aname d c)

(* Compile an access into a closure computing the flat element index
   without allocation. *)
let access_flat (g : Grid.t) (a : Stencil.access) =
  let dims = g.dims in
  let fold = g.decl.fold in
  let ns = Array.length a.offsets in
  let base_j = Array.length dims - ns in
  let offsets = a.offsets in
  let toff = a.time_off in
  let aname = a.array in
  fun tstep (point : int array) ->
    let off =
      ref (match fold with Some m -> Intutil.fmod (tstep + toff) m | None -> 0)
    in
    for d = 0 to ns - 1 do
      let c = point.(d) + offsets.(d) in
      let ext = dims.(base_j + d) in
      if c < 0 || c >= ext then oob_access aname d c;
      off := (!off * ext) + c
    done;
    !off

(* Flatten the right-hand side into a {!Tape.t}, with the statement's
   distinct reads as source registers. A plan evaluates a run's reads
   before its writes where the closure path interleaves them per lane;
   the orders agree because a validated statement reads its write slot
   only at the written cell. *)
let compile_tape (s : Stencil.stmt) =
  let srcs = Array.of_list (Stencil.distinct_reads s) in
  let nsrcs = Array.length srcs in
  let src_reg a =
    let r = ref (-1) in
    Array.iteri (fun i a' -> if a' = a then r := i) srcs;
    !r
  in
  let instrs = ref [] in
  let next = ref nsrcs in
  let fresh () =
    let r = !next in
    incr next;
    r
  in
  let emit i = instrs := i :: !instrs in
  let rec comp (e : Stencil.fexpr) =
    match e with
    | Read a -> src_reg a
    | Fconst v ->
        let dst = fresh () in
        emit (Tape.Const { dst; v });
        dst
    | Neg e ->
        let a = comp e in
        let dst = fresh () in
        emit (Tape.Neg { dst; a });
        dst
    | Bin (op, l, r) ->
        let a = comp l in
        let b = comp r in
        let dst = fresh () in
        emit
          (match op with
          | Add -> Tape.Add { dst; a; b }
          | Sub -> Tape.Sub { dst; a; b }
          | Mul -> Tape.Mul { dst; a; b }
          | Div -> Tape.Div { dst; a; b });
        dst
  in
  let result = comp s.rhs in
  Tape.make ~nsrcs ~nregs:(max !next 1) ~result
    ~instrs:(Array.of_list (List.rev !instrs))

(* Cross-request tape cache. A statement's register tape and plan are a
   pure function of the statement, so they are shared process-wide in a
   publish-once table — a long-lived server compiles each distinct
   statement once across every request instead of once per [make_ctx].
   Tapes and plans are immutable (scratch buffers are per-domain), so
   sharing is sound. *)
let tape_cache : (Stencil.stmt, Tape.t * Tape.plan) Hextile_par.Oncemap.t =
  Hextile_par.Oncemap.create ~bits:8 ~name:"schemes.tape" ()

(* Compile a right-hand side into a closure of (tstep, point), reading
   each access through the closure [read] builds for it. *)
let rec compile_eval read (e : Stencil.fexpr) : int -> int array -> float =
  match e with
  | Read a -> read a
  | Fconst f -> fun _ _ -> f
  | Neg e ->
      let c = compile_eval read e in
      fun t p -> -.c t p
  | Bin (op, l, r) -> (
      let cl = compile_eval read l and cr = compile_eval read r in
      match op with
      | Add -> fun t p -> cl t p +. cr t p
      | Sub -> fun t p -> cl t p -. cr t p
      | Mul -> fun t p -> cl t p *. cr t p
      | Div -> fun t p -> cl t p /. cr t p)

let resolve_src grids addr (a : Stencil.access) =
  let g = Grid.find grids a.array in
  { sacc = a; sgrid = g; sflat = access_flat g a; saddr = Addrmap.resolve addr g }

let compile_stmt grids addr cidx (s : Stencil.stmt) =
  let read_grid (a : Stencil.access) =
    let g = Grid.find grids a.array in
    let fl = access_flat g a in
    fun tstep point -> g.data.(fl tstep point)
  in
  let cwrite = resolve_src grids addr s.write in
  let creads =
    Array.of_list (List.map (resolve_src grids addr) (Stencil.distinct_reads s))
  in
  let tape, tplan =
    Hextile_par.Oncemap.find_or_compute tape_cache s (fun () ->
        let t = compile_tape s in
        (t, Tape.plan t))
  in
  {
    cidx;
    cflops = Stencil.flops s;
    ceval = compile_eval read_grid s.rhs;
    cwrite;
    creads;
    tape;
    tplan;
    tdatas = Array.map (fun r -> r.sgrid.data) creads;
  }

let make_ctx ?(engine = Tape) (prog : Stencil.t) env dev =
  (match Stencil.validate prog with
  | Ok () -> ()
  | Error m -> invalid_arg ("Common.make_ctx: " ^ m));
  (* Same out-of-domain convention (and diagnostic) as Interp.run: any
     reachable out-of-bounds access is rejected before execution. *)
  (match Analysis.bounds_check prog env with
  | Ok () -> ()
  | Error m -> invalid_arg ("Common.make_ctx: " ^ m));
  let stmts = Array.of_list prog.stmts in
  let sim = Sim.create dev in
  let grids = Grid.alloc prog env in
  (* Make the context read-only before any (possibly parallel) block
     execution: place every array at its declaration-order address so the
     lazy first-touch path never runs, and compile every statement —
     flops, distinct reads, grids, flat-index closures and address
     handles — so row loops only index [compiled] and add offsets.
     Handles see later re-registrations (the hybrid alignment offsets);
     base values must be read after them. *)
  List.iter
    (fun (a : Stencil.array_decl) ->
      Addrmap.register sim.addr (Grid.find grids a.aname) ~offset_floats:0)
    prog.arrays;
  {
    sim;
    prog;
    env;
    grids;
    k = Array.length stmts;
    dims = Stencil.spatial_dims prog;
    steps = Affp.eval prog.steps env;
    stmts;
    lo = Array.map (fun (s : Stencil.stmt) -> Array.map (fun e -> Affp.eval e env) s.lo) stmts;
    hi = Array.map (fun (s : Stencil.stmt) -> Array.map (fun e -> Affp.eval e env) s.hi) stmts;
    updates = Atomic.make 0;
    compiled = Array.mapi (compile_stmt grids sim.addr) stmts;
    engine;
  }

let stmt_reads ctx ~stmt_idx = ctx.compiled.(stmt_idx).creads
let stmt_write ctx ~stmt_idx = ctx.compiled.(stmt_idx).cwrite
let resolve_reads ctx accs =
  Array.of_list (List.map (resolve_src ctx.grids ctx.sim.addr) accs)

type result = {
  scheme : string;
  device : Device.t;
  counters : Counters.t;
  kernel_time : float;
  transfer_time : float;
  updates : int;
  grids : (string, Grid.t) Hashtbl.t;
  launches : Sim.launch list;
  blocks : int;
  blocks_memoized : int;
  blocks_analytic : int;
  classes : int;
  blit_rows : int;
  replay_lines : int;
  epilogue_ms : float;
  derive_ms : float;
  dram_ms : float;
  grids_ms : float;
}

let finish ctx ~scheme =
  let bytes = 4 * Analysis.footprint_floats ctx.prog ctx.env in
  {
    scheme;
    device = ctx.sim.dev;
    counters = ctx.sim.total;
    kernel_time = Sim.kernel_time ctx.sim;
    transfer_time = Sim.transfer_time ctx.sim ~bytes;
    updates = Atomic.get ctx.updates;
    grids = ctx.grids;
    launches = List.rev ctx.sim.launches;
    blocks =
      List.fold_left (fun a (l : Sim.launch) -> a + l.blocks) 0 ctx.sim.launches;
    blocks_memoized = Atomic.get ctx.sim.blocks_memoized;
    blocks_analytic = Atomic.get ctx.sim.blocks_analytic;
    classes = Atomic.get ctx.sim.tile_classes;
    blit_rows = Atomic.get ctx.sim.analytic_blit_rows;
    replay_lines = Atomic.get ctx.sim.analytic_replay_lines;
    epilogue_ms = 1000.0 *. ctx.sim.analytic_epilogue_s;
    derive_ms = 1000.0 *. ctx.sim.analytic_derive_s;
    dram_ms = 1000.0 *. ctx.sim.analytic_dram_s;
    grids_ms = 1000.0 *. ctx.sim.analytic_grids_s;
  }

let total_time r = r.kernel_time +. r.transfer_time
let gstencils_per_s r = float_of_int r.updates /. total_time r /. 1e9
let gflops r ~flops_per_update =
  float_of_int r.updates *. flops_per_update /. total_time r /. 1e9

type box = { blo : int array; bhi : int array }

let empty_box ~dims = { blo = Array.make dims max_int; bhi = Array.make dims min_int }
let box_is_empty b = Array.exists2 (fun l h -> l > h) b.blo b.bhi
let box_count b =
  if box_is_empty b then 0
  else Array.fold_left ( * ) 1 (Array.map2 (fun l h -> h - l + 1) b.blo b.bhi)

let box_inter a b =
  {
    blo = Array.map2 max a.blo b.blo;
    bhi = Array.map2 min a.bhi b.bhi;
  }

module Layout = struct
  type entry = { lgrid : Grid.t; lslot : int; lbox : box; lbase : int }

  (* Entries are resolved at [add]: lookups compare the grid physically
     and the slot, over a handful of entries. [order] only fixes the
     iteration order — that of a table keyed by (array name, slot) filled
     in [add] order — which the copy-in phases have always used and on
     which the L1/L2 state, hence the counters, depend. *)
  type nonrec t = {
    mutable entries : entry list;
    order : (string * int, entry) Hashtbl.t;
    mutable next : int;
  }

  let create () = { entries = []; order = Hashtbl.create 8; next = 0 }

  let rec find_in grid slot = function
    | [] -> None
    | e :: tl -> if e.lgrid == grid && e.lslot = slot then Some e else find_in grid slot tl

  let find t ~grid ~slot = find_in grid slot t.entries

  let add t ~(grid : Grid.t) ~slot box =
    if (not (box_is_empty box)) && find t ~grid ~slot = None then begin
      let e = { lgrid = grid; lslot = slot; lbox = box; lbase = t.next } in
      t.entries <- e :: t.entries;
      Hashtbl.replace t.order (grid.decl.aname, slot) e;
      t.next <- t.next + box_count box
    end

  (* word address of [point + offsets] clipped into the box *)
  let addr e (point : int array) (offsets : int array) =
    let off = ref 0 in
    for d = 0 to Array.length offsets - 1 do
      let lo = e.lbox.blo.(d) and hi = e.lbox.bhi.(d) in
      let x = point.(d) + offsets.(d) in
      let x = if x < lo then lo else if x > hi then hi else x in
      off := (!off * (hi - lo + 1)) + (x - lo)
    done;
    e.lbase + !off

  let words t = t.next
  let iter t ~f = Hashtbl.iter (fun _ e -> f e) t.order
end

let warp_size = 32

(* Thread identity handed to the race sanitizer: the virtual thread that
   owns a domain cell, encoded injectively from its spatial point (the
   executors assign one lane per cell along x). Identities only need to
   be equal exactly when two warp events come from the same cell's lane. *)
let tid_of_point (point : int array) x =
  let h = ref 0 in
  for d = 0 to Array.length point - 2 do
    h := (!h * 8191) + point.(d) + 64
  done;
  (!h * 8191) + x + 64

let lane_tids point lane_xs =
  if Sanitize.enabled () then
    Some (Array.map (fun x -> tid_of_point point x) lane_xs)
  else None

(* Full index of a spatial point in a possibly folded grid. *)
let full_index (g : Grid.t) ~slot point =
  match g.decl.fold with
  | Some _ -> Array.append [| slot |] point
  | None -> point

(* [Grid.offset] of the full index, which raises its own diagnostic *)
let[@inline never] flat_invalid (g : Grid.t) ~slot point =
  Grid.offset g (full_index g ~slot point)

(* Allocation-free on the valid path. *)
let flat (g : Grid.t) ~slot point =
  let j0 = match g.decl.fold with Some _ -> 1 | None -> 0 in
  let nd = Array.length g.dims in
  if nd <> Array.length point + j0 || (j0 = 1 && (slot < 0 || slot >= g.dims.(0))) then
    flat_invalid g ~slot point
  else begin
    let off = ref (if j0 = 1 then slot else 0) in
    for d = j0 to nd - 1 do
      let x = point.(d - j0) in
      if x < 0 || x >= g.dims.(d) then ignore (flat_invalid g ~slot point);
      off := (!off * g.dims.(d)) + x
    done;
    !off
  end

let iter_box_rows box ~f =
  if not (box_is_empty box) then begin
    let dims = Array.length box.blo in
    let point = Array.copy box.blo in
    let rec go d =
      if d = dims - 1 then f point
      else
        for x = box.blo.(d) to box.bhi.(d) do
          point.(d) <- x;
          go (d + 1)
        done
    in
    go 0
  end

(* Per-block dense value stores for the overlapped schemes: a block that
   recomputes a halo must not publish its intermediate values to the
   grids other blocks of the launch read, so it computes into private
   copies of the (array, slot) storages it touches, each over a box
   around its tile. Rows then run through the statement's tape with the
   overlay arrays as sources and destination, exactly as over the grids;
   only the flat bases differ. *)
module Overlay = struct
  type entry = {
    egrid : Grid.t;
    eslot : int;
    data : float array;
    eblo : int array;
    ebhi : int array;
    stride : int array;  (** per spatial dim; x (innermost) is 1 *)
  }

  type t = { mutable entries : entry list }

  let create () = { entries = [] }

  let rec find_in grid slot = function
    | [] -> None
    | e :: tl -> if e.egrid == grid && e.eslot = slot then Some e else find_in grid slot tl

  let find t ~grid ~slot = find_in grid slot t.entries

  (* flat offset of an in-box spatial point *)
  let local e (p : int array) =
    let off = ref 0 in
    Array.iteri (fun d x -> off := !off + ((x - e.eblo.(d)) * e.stride.(d))) p;
    !off

  let add t ~(grid : Grid.t) ~slot ~box ~src =
    let dims = Array.length box.blo in
    let nd = Array.length grid.dims in
    let box =
      box_inter box
        { blo = Array.make dims 0; bhi = Array.init dims (fun d -> grid.dims.(nd - dims + d) - 1) }
    in
    if (not (box_is_empty box)) && find t ~grid ~slot = None then begin
      let stride = Array.make dims 1 in
      for d = dims - 2 downto 0 do
        stride.(d) <- stride.(d + 1) * (box.bhi.(d + 1) - box.blo.(d + 1) + 1)
      done;
      let e =
        {
          egrid = grid;
          eslot = slot;
          data = Array.make (box_count box) 0.0;
          eblo = box.blo;
          ebhi = box.bhi;
          stride;
        }
      in
      let nx = box.bhi.(dims - 1) - box.blo.(dims - 1) + 1 in
      iter_box_rows box ~f:(fun row ->
          Array.blit src (flat grid ~slot row) e.data (local e row) nx);
      t.entries <- e :: t.entries
    end

  let[@inline never] outside e d c =
    invalid_arg
      (Fmt.str "overlay access to %s slot %d out of its box (dim %d: %d)" e.egrid.decl.aname
         e.eslot d
         c)

  (* flat offset of [point + a.offsets]; raises outside the box *)
  let index e (a : Stencil.access) (point : int array) =
    let off = ref 0 in
    for d = 0 to Array.length e.eblo - 1 do
      let c = point.(d) + a.offsets.(d) in
      if c < e.eblo.(d) || c > e.ebhi.(d) then outside e d c;
      off := !off + ((c - e.eblo.(d)) * e.stride.(d))
    done;
    !off

  let resolve t (r : src) ~tstep =
    let slot = Grid.slot r.sgrid (tstep + r.sacc.time_off) in
    match find t ~grid:r.sgrid ~slot with
    | Some e -> e
    | None -> invalid_arg (Fmt.str "no overlay for %s slot %d" r.sacc.array slot)

  let write_back t ~(grid : Grid.t) ~slot ~box =
    if not (box_is_empty box) then begin
      let e =
        match find t ~grid ~slot with
        | Some e -> e
        | None -> invalid_arg (Fmt.str "no overlay for %s slot %d" grid.decl.aname slot)
      in
      Array.iteri
        (fun d l ->
          if l < e.eblo.(d) then outside e d l;
          if box.bhi.(d) > e.ebhi.(d) then outside e d box.bhi.(d))
        box.blo;
      let nx = box.bhi.(Array.length box.blo - 1) - box.blo.(Array.length box.blo - 1) + 1 in
      iter_box_rows box ~f:(fun row ->
          Array.blit e.data (local e row) grid.data (flat grid ~slot row) nx)
    end
end

let chunks_of xs f =
  let n = Array.length xs in
  let i = ref 0 in
  while !i < n do
    let len = min warp_size (n - !i) in
    f (Array.sub xs !i len);
    i := !i + len
  done

(* Per-domain tape register file, grown on demand. Compiled statements
   (and their tapes) are shared read-only across domains, so the mutable
   scratch lives in domain-local storage instead. *)
let scratch_key : float array Domain.DLS.key = Domain.DLS.new_key (fun () -> [||])

let get_scratch words =
  let b = Domain.DLS.get scratch_key in
  if Array.length b >= words then b
  else begin
    let nb = Array.make words 0.0 in
    Domain.DLS.set scratch_key nb;
    nb
  end

(* [sim.tape_instrs] of one row of [n] lanes: the tape's instructions
   once per warp chunk. *)
let tape_instrs c n = Tape.length c.tape * ((n + Tape.lanes - 1) / Tape.lanes)

(* Pre-resolved compute rows for replayed and derived class members: the
   per-row tape/grid/base lookups are paid once per tile class, and
   adjacent recorded rows that continue each other in memory are
   coalesced into long runs executed through the statement's fused
   [Tape.plan] — replaying a member block is a handful of bulk
   [Tape.exec_plan] calls at a word offset, one scratch fetch and one
   atomic per block.

   Coalescing is restricted to rows of one (statement, tstep): rows of
   one statement at one time step write distinct cells and (by
   [Stencil.validate]'s envelope) never read another instance's write
   slot, so any execution order within the pair is exact. The recorded
   stream interleaves x-windows of different classical tiles, so contiguous
   stores are far apart in stream order; [compile_rows] therefore sorts
   the rows by (tstep, statement, write address) before merging. The
   sort is a safe schedule: groups run in ascending u = k·tstep + si
   order, which keeps every producer group before its consumers, and a
   write from a later group that precedes a read of the same address in
   stream order cannot exist in a correct execution (the read would have
   observed a future value), so moving later groups after earlier ones
   changes no read's value. A sorted row whose write or any source does
   not continue the previous row exactly (a gapped or non-ascending
   store pattern, e.g. clipped boundary rows) starts a fresh run — the
   exact per-row fallback. *)
type crow = {
  cplan : Tape.plan;
  cdatas : float array array;
  cout : float array;
  cwflat : int;
  csrcs : int array;
  cn : int;
  cmerged : int;  (** recorded rows coalesced into this run *)
}

type crows = {
  crows : crow array;
  cregs : int;  (** max register-file words across the rows *)
  cpoints : int;  (** Σ n: statement instances per replay *)
  cinstrs : int;  (** tape instructions per replay, for [sim.tape_instrs] *)
  cblit : int;
      (** recorded rows retired through multi-row coalesced runs per
          replay, for [sim.analytic_blit_rows] *)
}

type pending_run = {
  mutable pstmt : int;
  mutable ptstep : int;
  mutable pwflat : int;
  mutable psrcs : int array;
  mutable pn : int;
  mutable pmerged : int;
  mutable pplan : Tape.plan;
  mutable pdatas : float array array;
  mutable pout : float array;
}

let compile_rows ctx rows =
  let rows = Array.of_list rows in
  (* ascending (tstep, statement) = ascending u: dependency-safe group
     order; within a group, ascending write address exposes the
     contiguous runs. Keys are strict (one write per cell per group), so
     the sort is a total order. *)
  Array.sort
    (fun (s1, t1, w1, _, _) (s2, t2, w2, _, _) ->
      let c = compare t1 t2 in
      if c <> 0 then c
      else
        let c = compare s1 s2 in
        if c <> 0 then c else compare w1 w2)
    rows;
  let points = ref 0 and instrs = ref 0 and regs = ref 0 and blit = ref 0 in
  let acc = ref [] in
  let pending : pending_run option ref = ref None in
  let close () =
    match !pending with
    | None -> ()
    | Some p ->
        if p.pmerged > 1 then blit := !blit + p.pmerged;
        acc :=
          {
            cplan = p.pplan;
            cdatas = p.pdatas;
            cout = p.pout;
            cwflat = p.pwflat;
            csrcs = p.psrcs;
            cn = p.pn;
            cmerged = p.pmerged;
          }
          :: !acc;
        pending := None
  in
  Array.iter
    (fun (stmt_idx, tstep, wflat, srcs, n) ->
      let c = ctx.compiled.(stmt_idx) in
      points := !points + n;
      instrs := !instrs + tape_instrs c n;
      regs := max !regs (Tape.plan_scratch_words c.tplan);
      let continues =
        match !pending with
        | Some p ->
            p.pstmt = stmt_idx && p.ptstep = tstep
            && wflat = p.pwflat + p.pn
            && Array.length srcs = Array.length p.psrcs
            && (let ok = ref true in
                Array.iteri
                  (fun i s -> if s <> p.psrcs.(i) + p.pn then ok := false)
                  srcs;
                !ok)
        | None -> false
      in
      if continues then begin
        let p = Option.get !pending in
        p.pn <- p.pn + n;
        p.pmerged <- p.pmerged + 1
      end
      else begin
        close ();
        pending :=
          Some
            {
              pstmt = stmt_idx;
              ptstep = tstep;
              pwflat = wflat;
              psrcs = srcs;
              pn = n;
              pmerged = 1;
              pplan = c.tplan;
              pdatas = c.tdatas;
              pout = c.cwrite.sgrid.data;
            }
      end)
    rows;
  close ();
  {
    crows = Array.of_list (List.rev !acc);
    cregs = !regs;
    cpoints = !points;
    cinstrs = !instrs;
    cblit = !blit;
  }

let exec_rows (ctx : ctx) { crows; cregs; cpoints; cinstrs; cblit } ~off =
  let regs = get_scratch cregs in
  Array.iter
    (fun r ->
      Tape.exec_plan r.cplan regs ~datas:r.cdatas ~bases:r.csrcs ~dx:off
        ~n:r.cn ~out:r.cout ~out_base:(r.cwflat + off))
    crows;
  Obs.incr ~by:cinstrs "sim.tape_instrs";
  ignore (Atomic.fetch_and_add ctx.updates cpoints);
  if cblit > 0 then begin
    Obs.incr ~by:cblit "sim.blit_rows";
    ignore (Atomic.fetch_and_add ctx.sim.Sim.analytic_blit_rows cblit)
  end

let points c = c.cpoints

let rows_stats { crows; cblit; _ } =
  (Array.length crows, Array.fold_left (fun a r -> a + r.cmerged) 0 crows, cblit)

(* Per-domain per-source integer bases of the row being executed: the
   loads' global byte (or shared word) addresses during accounting, then
   the tape sources' flat word bases ([Tape.exec_plan] reads the first
   [nsrcs] entries). *)
let ibases_key : int array Domain.DLS.key = Domain.DLS.new_key (fun () -> [||])

let get_ibases n =
  let b = Domain.DLS.get ibases_key in
  if Array.length b >= n then b
  else begin
    let nb = Array.make n 0 in
    Domain.DLS.set ibases_key nb;
    nb
  end

(* Shared-memory word address of [r] at [point] (x at the row start):
   0 without a layout or an entry, as an unaccounted access. *)
let shared_addr layout (r : src) ~tstep point =
  match layout with
  | None -> 0
  | Some lay -> (
      let slot = Grid.slot r.sgrid (tstep + r.sacc.time_off) in
      match Layout.find lay ~grid:r.sgrid ~slot with
      | None -> 0
      | Some e -> Layout.addr e point r.sacc.offsets)

(* Resolve a word base at the row start after validating the other
   endpoint: x is the innermost storage dimension (stride 1), so
   per-dimension validity at both row endpoints covers the whole
   contiguous lane range. *)
let grid_row_base (r : src) ~tstep point ~xdim ~x0 ~xlast =
  point.(xdim) <- xlast;
  ignore (r.sflat tstep point);
  point.(xdim) <- x0;
  r.sflat tstep point

let overlay_row_base e (a : Stencil.access) point ~xdim ~x0 ~xlast =
  point.(xdim) <- xlast;
  ignore (Overlay.index e a point);
  point.(xdim) <- x0;
  Overlay.index e a point

let src_of c (a : Stencil.access) =
  Option.get (Array.find_opt (fun (s : src) -> s.sacc = a) c.creads)

(* Per-lane functional execution of the instance at a point: the
   compiled evaluator over the grids, or the same closure compiler over
   the overlay's entries. *)
let lane_exec ctx c ~overlay ~tstep =
  match overlay with
  | None ->
      let w = c.cwrite in
      fun point -> w.sgrid.data.(w.sflat tstep point) <- c.ceval tstep point
  | Some ov ->
      let eval =
        compile_eval
          (fun a ->
            let e = Overlay.resolve ov (src_of c a) ~tstep in
            fun _ p -> e.data.(Overlay.index e a p))
          ctx.stmts.(c.cidx).rhs
      in
      let we = Overlay.resolve ov c.cwrite ~tstep in
      let wa = c.cwrite.sacc in
      fun point -> we.data.(Overlay.index we wa point) <- eval tstep point

(* Functional execution of a contiguous row through the statement's
   plan, with sources and destination in the grids or in the block's
   overlay. [ib] is scratch for the source bases. Only the hybrid
   scheme records, and it never computes into overlays, so a recorded
   row's bases are always grid bases. *)
let exec_tape_lanes ctx c ~overlay ~tstep ~point ~x0 ~xlast ib =
  let n = xlast - x0 + 1 in
  let xdim = ctx.dims - 1 in
  let nsrc = Array.length c.creads in
  let datas, out, wflat =
    match overlay with
    | None ->
        for k = 0 to nsrc - 1 do
          ib.(k) <- grid_row_base c.creads.(k) ~tstep point ~xdim ~x0 ~xlast
        done;
        let wflat = grid_row_base c.cwrite ~tstep point ~xdim ~x0 ~xlast in
        (c.tdatas, c.cwrite.sgrid.data, wflat)
    | Some ov ->
        let datas =
          Array.init nsrc (fun k ->
              let r = c.creads.(k) in
              let e = Overlay.resolve ov r ~tstep in
              ib.(k) <- overlay_row_base e r.sacc point ~xdim ~x0 ~xlast;
              e.data)
        in
        let we = Overlay.resolve ov c.cwrite ~tstep in
        (datas, we.data, overlay_row_base we c.cwrite.sacc point ~xdim ~x0 ~xlast)
  in
  let regs = get_scratch (Tape.plan_scratch_words c.tplan) in
  Tape.exec_plan c.tplan regs ~datas ~bases:ib ~dx:0 ~n ~out ~out_base:wflat;
  Obs.incr ~by:(tape_instrs c n) "sim.tape_instrs";
  if Sim.recording_active ctx.sim then begin
    assert (Option.is_none overlay);
    Sim.record_compute ctx.sim ~stmt:c.cidx ~tstep ~wflat ~srcs:(Array.sub ib 0 nsrc) ~n
  end

let exec_stmt_row ctx ~stmt_idx ~tstep ~point ~xs ?overlay ?layout ?(count = true)
    ?loads_subset ~global_reads ~shared_replay ~interleave_store ~use_shared () =
  let n = Array.length xs in
  if n > 0 then begin
    let c = ctx.compiled.(stmt_idx) in
    let loads = match loads_subset with Some l -> l | None -> c.creads in
    let nloads = Array.length loads in
    let xdim = ctx.dims - 1 in
    let x0 = xs.(0) in
    point.(xdim) <- x0;
    let global_store = interleave_store || not use_shared in
    let wbase_global =
      if global_store then Addrmap.base c.cwrite.saddr + (4 * c.cwrite.sflat tstep point)
      else 0
    in
    let replay = Some shared_replay in
    (* The tape engine needs contiguous lanes (all executors pass
       contiguous xs; the check makes the fallback airtight) and cannot
       carry the sanitizer's per-lane thread identities. *)
    let batched =
      ctx.engine = Tape && (not (Sanitize.enabled ())) && xs.(n - 1) - x0 = n - 1
    in
    (* Per-row load bases; lanes advance with stride 1 along x (the
       innermost storage dimension). Shared addresses do not enter the
       batched run forms, so only the per-lane path materializes them. *)
    let ib = get_ibases (Int.max nloads (Array.length c.creads)) in
    for k = 0 to nloads - 1 do
      let r = loads.(k) in
      if global_reads then ib.(k) <- Addrmap.base r.saddr + (4 * r.sflat tstep point)
      else if not batched then ib.(k) <- shared_addr layout r ~tstep point
    done;
    if batched then begin
      (* Batched accounting: one event per warp chunk, same event
         sequence (and counters) as the per-lane path below. *)
      let i = ref 0 in
      while !i < n do
        let nl = Int.min warp_size (n - !i) in
        let dx0 = !i in
        if global_reads then
          for k = 0 to nloads - 1 do
            Sim.global_load_run ctx.sim ~addr:(ib.(k) + (4 * dx0)) ~n:nl
          done
        else
          for _ = 1 to nloads do
            Sim.shared_load_run ?replay ctx.sim ~n:nl
          done;
        Sim.flops_warp ctx.sim ~active:nl ~per_lane:c.cflops;
        if use_shared then Sim.shared_store_run ?replay ctx.sim ~n:nl;
        if global_store then
          Sim.global_store_run ctx.sim ~addr:(wbase_global + (4 * dx0)) ~n:nl;
        i := !i + nl
      done;
      (* Functional execution. *)
      exec_tape_lanes ctx c ~overlay ~tstep ~point ~x0 ~xlast:xs.(n - 1) ib;
      if count then ignore (Atomic.fetch_and_add ctx.updates n)
    end
    else begin
      let wbase_shared =
        if use_shared then shared_addr layout c.cwrite ~tstep point else 0
      in
      let exec = lane_exec ctx c ~overlay ~tstep in
      chunks_of xs (fun lane_xs ->
          let nlanes = Array.length lane_xs in
          let dx0 = lane_xs.(0) - x0 in
          let tids = lane_tids point lane_xs in
          (* loads *)
          for k = 0 to nloads - 1 do
            let base = ib.(k) in
            if global_reads then
              Sim.global_load_warp ctx.sim
                (Array.init nlanes (fun i -> Some (base + (4 * (dx0 + i)))))
            else
              Sim.shared_load_warp ?replay ?tids ctx.sim
                (Array.init nlanes (fun i -> Some (base + dx0 + i)))
          done;
          (* arithmetic *)
          Sim.flops_warp ctx.sim ~active:nlanes ~per_lane:c.cflops;
          (* store accounting *)
          if use_shared then
            Sim.shared_store_warp ?replay ?tids ctx.sim
              (Array.init nlanes (fun i -> Some (wbase_shared + dx0 + i)));
          if global_store then
            Sim.global_store_warp ctx.sim
              (Array.init nlanes (fun i -> Some (wbase_global + (4 * (dx0 + i)))));
          (* functional execution *)
          Array.iter
            (fun x ->
              point.(xdim) <- x;
              exec point)
            lane_xs;
          if count then ignore (Atomic.fetch_and_add ctx.updates nlanes))
    end
  end

let batched_engine ctx = ctx.engine = Tape && not (Sanitize.enabled ())

let strictly_ascending a =
  let ok = ref true in
  for i = 1 to Array.length a - 1 do
    if a.(i) <= a.(i - 1) then ok := false
  done;
  !ok

(* Warp chunks of the x's of [xlo, xhi] outside the skip interval, in
   ascending order: [f ~x0 ~nl ~x_of] gets each chunk's first x, its
   lane count and the x of its i-th kept element (chunks may straddle
   the skip gap). *)
let iter_kept_chunks ~xlo ~xhi ~skip f =
  let n1, rstart =
    match skip with
    | Some (a, b) when a <= b ->
        (Int.max 0 (Int.min xhi (a - 1) - xlo + 1), Int.max xlo (b + 1))
    | _ -> (xhi - xlo + 1, xhi + 1)
  in
  let total = n1 + Int.max 0 (xhi - rstart + 1) in
  let x_of i = if i < n1 then xlo + i else rstart + (i - n1) in
  let i = ref 0 in
  while !i < total do
    let nl = Int.min warp_size (total - !i) in
    f ~first:!i ~nl ~x_of;
    i := !i + nl
  done

let load_box_rows ctx (e : Layout.entry) ?skip_x () =
  let grid = e.lgrid and slot = e.lslot and box = e.lbox in
  let h = Addrmap.resolve ctx.sim.addr grid in
  let batched = batched_engine ctx in
  let xdim = Array.length box.blo - 1 in
  let xlo = box.blo.(xdim) and xhi = box.bhi.(xdim) in
  let zero = Array.make (xdim + 1) 0 in
  iter_box_rows box ~f:(fun row ->
      let skip = match skip_x with None -> None | Some f -> f row in
      row.(xdim) <- xlo;
      let gbase = ref 0 and sbase = ref 0 in
      iter_kept_chunks ~xlo ~xhi ~skip (fun ~first ~nl ~x_of ->
          if first = 0 then begin
            gbase := Addrmap.addr h (flat grid ~slot row);
            sbase := Layout.addr e row zero
          end;
          let gbase = !gbase and sbase = !sbase in
          if batched then begin
            let xa = x_of first in
            if x_of (first + nl - 1) - xa = nl - 1 then begin
              Sim.global_load_run ctx.sim ~addr:(gbase + (4 * (xa - xlo))) ~n:nl;
              Sim.shared_store_run ctx.sim ~n:nl
            end
            else begin
              (* this warp straddles the reuse gap *)
              Sim.global_load_lanes ctx.sim
                (Array.init nl (fun i -> gbase + (4 * (x_of (first + i) - xlo))));
              Sim.shared_store_lanes ctx.sim
                (Array.init nl (fun i -> sbase + x_of (first + i) - xlo))
            end
          end
          else begin
            let lane_xs = Array.init nl (fun i -> x_of (first + i)) in
            let tids = lane_tids row lane_xs in
            Sim.global_load_warp ctx.sim
              (Array.map (fun x -> Some (gbase + (4 * (x - xlo)))) lane_xs);
            Sim.shared_store_warp ?tids ctx.sim
              (Array.map (fun x -> Some (sbase + x - xlo)) lane_xs)
          end))

let shared_copy_rows ctx (e : Layout.entry) ~box =
  let batched = batched_engine ctx in
  let xdim = Array.length box.blo - 1 in
  let xlo = box.blo.(xdim) and xhi = box.bhi.(xdim) in
  let zero = Array.make (xdim + 1) 0 in
  iter_box_rows box ~f:(fun row ->
      row.(xdim) <- xlo;
      let sbase = Layout.addr e row zero in
      iter_kept_chunks ~xlo ~xhi ~skip:None (fun ~first ~nl ~x_of:_ ->
          if batched then begin
            Sim.shared_load_run ctx.sim ~n:nl;
            Sim.shared_store_run ctx.sim ~n:nl
          end
          else begin
            (* one lane moves one word: load and store share identities *)
            let lane_xs = Array.init nl (fun i -> xlo + first + i) in
            let tids = lane_tids row lane_xs in
            let saddrs = Array.map (fun x -> Some (sbase + x - xlo)) lane_xs in
            Sim.shared_load_warp ?tids ctx.sim saddrs;
            Sim.shared_store_warp ?tids ctx.sim saddrs
          end))

let store_cells ctx ~grid ~cells ~via_shared =
  let batched = batched_engine ctx in
  let h = Addrmap.resolve ctx.sim.addr grid in
  let arr = Array.of_list cells in
  chunks_of arr (fun lane_cells ->
      if batched && strictly_ascending lane_cells then begin
        if via_shared then Sim.shared_load_lanes ctx.sim lane_cells;
        Sim.global_store_lanes ~serial:true ctx.sim
          (Array.map (fun c -> Addrmap.addr h c) lane_cells)
      end
      else begin
        if via_shared then
          Sim.shared_load_warp
            ?tids:(if Sanitize.enabled () then Some lane_cells else None)
            ctx.sim
            (Array.map (fun c -> Some c) lane_cells);
        Sim.global_store_warp ~serial:true ctx.sim
          (Array.map (fun c -> Some (Addrmap.addr h c)) lane_cells)
      end)

let snapshot (ctx : ctx) =
  let tbl = Hashtbl.create 8 in
  Hashtbl.iter (fun name (g : Grid.t) -> Hashtbl.replace tbl name (Array.copy g.data)) ctx.grids;
  tbl
