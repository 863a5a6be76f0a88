open Hextile_ir
open Hextile_tiling
open Hextile_poly

let iter_names = [| "i"; "j"; "k"; "l"; "m" |]

(* C expression for an access, reading/writing the staged shared copy.
   Local coordinates: spatial iterators relative to the shared box base. *)
let access_expr (prog : Stencil.t) (a : Stencil.access) =
  let decl = Stencil.array_decl prog a.array in
  let idx d o =
    let v = iter_names.(d) in
    if o = 0 then v else if o > 0 then Printf.sprintf "%s+%d" v o
    else Printf.sprintf "%s-%d" v (-o)
  in
  let spatial =
    String.concat ""
      (Array.to_list (Array.mapi (fun d o -> Printf.sprintf "[%s]" (idx d o)) a.offsets))
  in
  match decl.fold with
  | Some m ->
      let t =
        if a.time_off = 0 then "t" else Printf.sprintf "(t+%d)" a.time_off
      in
      Printf.sprintf "shm_%s[%s%%%d]%s" a.array t m spatial
  | None -> Printf.sprintf "shm_%s%s" a.array spatial

let rec fexpr_str prog (e : Stencil.fexpr) =
  match e with
  | Read a -> access_expr prog a
  | Fconst f -> Printf.sprintf "%gf" f
  | Neg e -> Printf.sprintf "(-%s)" (fexpr_str prog e)
  | Bin (op, l, r) ->
      let s = match op with Add -> "+" | Sub -> "-" | Mul -> "*" | Div -> "/" in
      Printf.sprintf "(%s %s %s)" (fexpr_str prog l) s (fexpr_str prog r)

(* Hexagon membership guards in local coordinates (tp, b). *)
let guards (t : Hybrid.t) =
  List.filter_map
    (fun (c : Constr.t) ->
      let ca = Constr.coeff c 0 and cb = Constr.coeff c 1 in
      let term k v = match k with
        | 0 -> None
        | 1 -> Some v
        | -1 -> Some ("-" ^ v)
        | k -> Some (Printf.sprintf "%d*%s" k v)
      in
      let parts = List.filter_map Fun.id [ term ca "tp"; term cb "b" ] in
      if parts = [] then None
      else
        let lhs = String.concat " + " parts in
        let lhs = if c.const = 0 then lhs else Printf.sprintf "%s + %d" lhs c.const in
        Some (Printf.sprintf "%s >= 0" lhs))
    (Polyhedron.constraints (Hexagon.poly t.hex))

let param_args (prog : Stencil.t) =
  String.concat ", " (List.map (fun p -> "int " ^ p) prog.params)

let array_args (prog : Stencil.t) =
  String.concat ", "
    (List.map (fun (a : Stencil.array_decl) -> "float *g_" ^ a.aname) prog.arrays)

let kernel (t : Hybrid.t) (prog : Stencil.t) ~phase =
  let b = Buffer.create 2048 in
  let pf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  let h = t.h in
  let height = (2 * h) + 2 in
  let hex = t.hex in
  let u_shift = if phase = 0 then h + 1 else 0 in
  let s_shift = if phase = 0 then hex.fl0 + hex.w0 + 1 else 0 in
  let drift = hex.fl1 - hex.fl0 in
  pf "__global__ void %s_phase%d(%s, %s, int TT)\n{\n" prog.name phase
    (array_args prog) (param_args prog);
  List.iter
    (fun (a : Stencil.array_decl) ->
      match a.fold with
      | Some m -> pf "  __shared__ float shm_%s[%d][SHM_Y_%s][SHM_X_%s];\n" a.aname m a.aname a.aname
      | None -> pf "  __shared__ float shm_%s[SHM_Y_%s][SHM_X_%s];\n" a.aname a.aname a.aname)
    prog.arrays;
  pf "  const int S0 = blockIdx.x + S0_FIRST(TT);\n";
  pf "  const int u0 = TT*%d - %d;               // tile origin, time\n" height u_shift;
  pf "  const int s00 = S0*%d - %d - TT*%d;      // tile origin, hex dim\n"
    hex.width s_shift drift;
  let n = t.dims in
  for d = 1 to n - 1 do
    pf "  for (int S%d = S%d_FIRST; S%d <= S%d_LAST; ++S%d) {   // classical tiles: sequential\n"
      d d d d d
  done;
  pf "    /* copy-in: rectangular over-approximation, full warp rows;\n"
  ;
  pf "       with inter-tile reuse only the fresh w-wide strip is loaded */\n";
  List.iter
    (fun (a : Stencil.array_decl) ->
      pf "    COPY_IN(shm_%s, g_%s);\n" a.aname a.aname)
    prog.arrays;
  pf "    __syncthreads();\n";
  pf "    for (int tp = 0; tp < %d; ++tp) {      // intra-tile time t'\n" height;
  pf "      const int u = u0 + tp;\n";
  pf "      if (u >= 0 && u < %d*%s) {\n" t.k (Affp.to_string prog.steps);
  pf "        const int t = u / %d;\n" t.k;
  List.iteri
    (fun si (s : Stencil.stmt) ->
      let cond = if t.k = 1 then "" else Printf.sprintf "if (u %% %d == %d) " t.k si in
      pf "        %s{ // %s\n" cond s.sname;
      pf "          if (IS_FULL_TILE) {\n";
      pf "            // specialized straight-line code: no guards, no divergence\n";
      pf "            #pragma unroll\n";
      pf "            for (int b = threadIdx.y; b < ROW_WIDTH(tp); b += blockDim.y) {\n";
      pf "              const int %s = s00 + ROW_LO(tp) + b;\n" iter_names.(0);
      for d = 1 to n - 1 do
        pf "              const int %s = S%d*%d - SKEW%d(tp) + threadIdx.%s;\n"
          iter_names.(d) d t.w.(d) d
          (if d = n - 1 then "x" else "z")
      done;
      pf "              %s = %s;\n" (access_expr prog s.write) (fexpr_str prog s.rhs);
      pf "              g_%s[GIDX] = %s;   // interleaved copy-out\n" s.write.array
        (access_expr prog s.write);
      pf "            }\n";
      pf "          } else {\n";
      pf "            // generic code for partial tiles: hexagon guards\n";
      pf "            for (int b = threadIdx.y; b < %d; b += blockDim.y) {\n" hex.width;
      pf "              if (%s\n                  && IN_DOMAIN) {\n"
        (String.concat "\n                  && " (guards t));
      pf "                /* as above */\n";
      pf "              }\n            }\n";
      pf "          }\n        }\n")
    prog.stmts;
  pf "      }\n      __syncthreads();\n    }\n";
  for _ = 1 to n - 1 do
    pf "  }\n"
  done;
  pf "}\n";
  Buffer.contents b

let host_and_kernels (t : Hybrid.t) (prog : Stencil.t) =
  let b = Buffer.create 4096 in
  let pf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  let height = (2 * t.h) + 1 + 1 in
  pf "// Hybrid hexagonal/classical tiling for %s\n" prog.name;
  pf "// h = %d (%d time steps per tile), w = (%s), %a\n" t.h height
    (String.concat ", " (List.map string_of_int (Array.to_list t.w)))
    (fun () c -> Fmt.str "%a" Hextile_deps.Cone.pp c) t.cone;
  pf "\n%s\n%s\n" (kernel t prog ~phase:0) (kernel t prog ~phase:1);
  pf "void %s_host(%s, %s)\n{\n" prog.name (array_args prog) (param_args prog);
  pf "  for (int TT = T_FIRST; TT <= T_LAST; ++TT) {\n";
  pf "    %s_phase0<<<GRID0(TT), BLOCK>>>(%s, %s, TT);\n" prog.name
    (String.concat ", " (List.map (fun (a : Stencil.array_decl) -> "g_" ^ a.aname) prog.arrays))
    (String.concat ", " prog.params);
  pf "    %s_phase1<<<GRID1(TT), BLOCK>>>(...);\n" prog.name;
  pf "  }\n}\n";
  Buffer.contents b
