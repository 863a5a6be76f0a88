let domain_bounds (s : Stencil.stmt) env =
  ( Array.map (fun e -> Affp.eval e env) s.lo,
    Array.map (fun e -> Affp.eval e env) s.hi )

(* One access of a compiled statement: its grid, and the flat index of
   the current row's first instance, set once per row. *)
type src = {
  acc : Stencil.access;
  grid : Grid.t;
  idx : int array;  (** full index scratch: [slot :: spatial] or spatial *)
  mutable base : int;
}

let make_src grids (a : Stencil.access) =
  let grid = Grid.find grids a.array in
  { acc = a; grid; idx = Array.make (Array.length grid.dims) 0; base = 0 }

(* Point the access at the row [point] (x = innermost coordinate set to
   the row's first instance) at time [t]. Both row endpoints go through
   [Grid.offset]'s bounds check; x is the innermost, stride-1 storage
   dimension, so that covers every instance of the row. *)
let set_row s ~t (point : int array) ~nx =
  let lead = Array.length s.idx - Array.length point in
  if lead = 1 then s.idx.(0) <- Grid.slot s.grid (t + s.acc.time_off);
  Array.iteri (fun d x -> s.idx.(lead + d) <- x + s.acc.offsets.(d)) point;
  s.base <- Grid.offset s.grid s.idx;
  let xi = Array.length s.idx - 1 in
  s.idx.(xi) <- s.idx.(xi) + nx - 1;
  ignore (Grid.offset s.grid s.idx)

(* The right-hand side as a closure of the lane offset [dx] from the
   row's first instance. Each node performs the same float operation on
   the same operands as a tree walk of the expression. *)
let rec compile_rhs srcs (e : Stencil.fexpr) : int -> float =
  match e with
  | Read a ->
      let s = List.find (fun s -> s.acc = a) srcs in
      let data = s.grid.data in
      fun dx -> data.(s.base + dx)
  | Fconst f -> fun _ -> f
  | Neg e ->
      let c = compile_rhs srcs e in
      fun dx -> -.c dx
  | Bin (op, l, r) -> (
      let cl = compile_rhs srcs l and cr = compile_rhs srcs r in
      match op with
      | Add -> fun dx -> cl dx +. cr dx
      | Sub -> fun dx -> cl dx -. cr dx
      | Mul -> fun dx -> cl dx *. cr dx
      | Div -> fun dx -> cl dx /. cr dx)

(* Run every instance of [s] at time [t], row by row in row-major order.
   Instances are still evaluated and written one at a time, so an
   in-place statement reads exactly the values a per-instance loop
   would. *)
let exec_stmt grids env (s : Stencil.stmt) =
  let lo, hi = domain_bounds s env in
  let srcs = List.map (make_src grids) (Stencil.distinct_reads s) in
  let w = make_src grids s.write in
  let eval = compile_rhs srcs s.rhs in
  let dims = Array.length lo in
  let xd = dims - 1 in
  let nx = hi.(xd) - lo.(xd) + 1 in
  let point = Array.copy lo in
  fun ~t ->
    let rec rows d =
      if d = xd then begin
        point.(xd) <- lo.(xd);
        List.iter (fun src -> set_row src ~t point ~nx) srcs;
        set_row w ~t point ~nx;
        let out = w.grid.data and wbase = w.base in
        for dx = 0 to nx - 1 do
          out.(wbase + dx) <- eval dx
        done
      end
      else
        for x = lo.(d) to hi.(d) do
          point.(d) <- x;
          rows (d + 1)
        done
    in
    if nx > 0 then rows 0

let run (prog : Stencil.t) env =
  (* Out-of-domain accesses are a program error, rejected up front by the
     shared convention check so the interpreter and the scheme executors
     (Common.make_ctx) agree exactly on which programs execute at all. *)
  (match Analysis.bounds_check prog env with
  | Ok () -> ()
  | Error m -> invalid_arg ("Interp.run: " ^ m));
  let tbl = Grid.alloc prog env in
  let steps = Affp.eval prog.steps env in
  let stmts = List.map (exec_stmt tbl env) prog.stmts in
  for t = 0 to steps - 1 do
    List.iter (fun exec -> exec ~t) stmts
  done;
  tbl

let stencil_updates (prog : Stencil.t) env =
  let steps = Affp.eval prog.steps env in
  let per_step =
    List.fold_left
      (fun acc (s : Stencil.stmt) ->
        let lo, hi = domain_bounds s env in
        let size = ref 1 in
        Array.iteri (fun i l -> size := !size * max 0 (hi.(i) - l + 1)) lo;
        acc + !size)
      0 prog.stmts
  in
  steps * per_step
