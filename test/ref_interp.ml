(* The per-instance tree-walking interpreter: the oracle for the
   row-compiled [Interp.run]. Every instance looks each read up by array
   name, builds its full index and bounds-checks it through [Grid.get];
   slow, and obviously the textual semantics. *)

open Hextile_ir

let full_index (g : Grid.t) (a : Stencil.access) ~t ~point =
  let spatial = Array.mapi (fun i o -> point.(i) + o) a.offsets in
  match g.decl.fold with
  | Some _ -> Array.append [| Grid.slot g (t + a.time_off) |] spatial
  | None -> spatial

let rec eval_fexpr tbl (e : Stencil.fexpr) ~t ~point =
  match e with
  | Read a ->
      let g = Grid.find tbl a.array in
      Grid.get g (full_index g a ~t ~point)
  | Fconst f -> f
  | Neg e -> -.eval_fexpr tbl e ~t ~point
  | Bin (op, l, r) -> (
      let a = eval_fexpr tbl l ~t ~point and b = eval_fexpr tbl r ~t ~point in
      match op with
      | Add -> a +. b
      | Sub -> a -. b
      | Mul -> a *. b
      | Div -> a /. b)

let exec_instance tbl (s : Stencil.stmt) ~t ~point =
  let v = eval_fexpr tbl s.rhs ~t ~point in
  let g = Grid.find tbl s.write.array in
  Grid.set g (full_index g s.write ~t ~point) v

(* Iterate a box domain in row-major order. *)
let iter_box lo hi f =
  let n = Array.length lo in
  let point = Array.make n 0 in
  let rec go d =
    if d = n then f point
    else
      for x = lo.(d) to hi.(d) do
        point.(d) <- x;
        go (d + 1)
      done
  in
  go 0

let run (prog : Stencil.t) env =
  (match Analysis.bounds_check prog env with
  | Ok () -> ()
  | Error m -> invalid_arg ("Ref_interp.run: " ^ m));
  let tbl = Grid.alloc prog env in
  let steps = Affp.eval prog.steps env in
  for t = 0 to steps - 1 do
    List.iter
      (fun (s : Stencil.stmt) ->
        let lo = Array.map (fun e -> Affp.eval e env) s.lo
        and hi = Array.map (fun e -> Affp.eval e env) s.hi in
        iter_box lo hi (fun point -> exec_instance tbl s ~t ~point))
      prog.stmts
  done;
  tbl
