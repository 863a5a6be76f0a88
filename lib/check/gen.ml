open Hextile_ir

(* ---- generation ------------------------------------------------------- *)

let gen_offset rng =
  (* weighted toward the small neighbourhoods real stencils use *)
  let u = Rng.int rng 10 in
  if u < 4 then 0
  else if u < 6 then 1
  else if u < 8 then -1
  else if u < 9 then 2
  else -2

let gen_offsets rng ~dims = Array.init dims (fun _ -> gen_offset rng)

(* Build a random expression tree over the given leaves, each used once. *)
let rec build_expr rng (leaves : Stencil.fexpr list) =
  match leaves with
  | [] -> assert false
  | [ e ] -> if Rng.chance rng 0.15 then Stencil.Neg e else e
  | _ ->
      let n = List.length leaves in
      let cut = 1 + Rng.int rng (n - 1) in
      let l = List.filteri (fun i _ -> i < cut) leaves in
      let r = List.filteri (fun i _ -> i >= cut) leaves in
      let op = Rng.pick rng Stencil.[ Add; Add; Add; Sub; Sub; Mul ] in
      Stencil.Bin (op, build_expr rng l, build_expr rng r)

let generate rng =
  let dims = Rng.pick rng [ 1; 1; 2; 2; 2; 3 ] in
  let k = Rng.pick rng [ 1; 1; 2; 2; 3 ] in
  let extents = Array.init dims (fun _ -> Affp.param "N") in
  let written =
    List.init k (fun i ->
        let fold =
          match Rng.int rng 4 with 0 -> Some 2 | 1 -> Some 3 | _ -> None
        in
        { Stencil.aname = Fmt.str "A%d" i; extents; fold })
  in
  let coeff =
    if Rng.chance rng 0.3 then
      [ { Stencil.aname = "C"; extents; fold = None } ]
    else []
  in
  let arrays = written @ coeff in
  let decl name = List.find (fun (a : Stencil.array_decl) -> a.aname = name) arrays in
  let stmts =
    List.init k (fun i ->
        let own = Fmt.str "A%d" i in
        let wfold = (decl own).fold in
        let write =
          {
            Stencil.array = own;
            time_off = (match wfold with Some m -> m - 1 | None -> 0);
            offsets = Array.make dims 0;
          }
        in
        let nreads = if Rng.chance rng 0.08 then 0 else 1 + Rng.int rng 3 in
        let sources =
          own :: List.filter_map
                   (fun (a : Stencil.array_decl) ->
                     if a.aname = own then None else Some a.aname)
                   arrays
        in
        let reads =
          List.init nreads (fun _ ->
              let src = Rng.pick rng sources in
              if src = own then
                match wfold with
                | None ->
                    (* in-place self-read: must be the written cell *)
                    { Stencil.array = own; time_off = 0; offsets = Array.make dims 0 }
                | Some m ->
                    (* any slot except the one being written this step *)
                    {
                      Stencil.array = own;
                      time_off = Rng.int rng (m - 1);
                      offsets = gen_offsets rng ~dims;
                    }
              else
                let time_off =
                  match (decl src).fold with
                  | None -> 0
                  | Some m -> Rng.int rng m
                in
                { Stencil.array = src; time_off; offsets = gen_offsets rng ~dims })
        in
        let consts =
          List.init
            (if reads = [] then 1 else Rng.int rng 2)
            (fun _ -> Stencil.Fconst (Rng.float rng 2.0))
        in
        let leaves = List.map (fun a -> Stencil.Read a) reads @ consts in
        let rhs0 = build_expr rng leaves in
        let rhs =
          if Rng.chance rng 0.2 then
            Stencil.Bin (Div, rhs0, Fconst (Rng.pick rng [ 2.0; 4.0; 1.5 ]))
          else rhs0
        in
        (* symmetric margin covering this statement's largest |offset| per
           dimension, so domains stay in bounds for every N — including
           after an offset flip *)
        let margin d =
          List.fold_left
            (fun m (a : Stencil.access) -> max m (abs a.offsets.(d)))
            0 (write :: reads)
        in
        let lo =
          Array.init dims (fun d ->
              Affp.const (margin d + if Rng.chance rng 0.2 then 1 else 0))
        in
        let hi =
          Array.init dims (fun d ->
              Affp.add_const (Affp.param "N")
                (-(1 + margin d + if Rng.chance rng 0.2 then 1 else 0)))
        in
        { Stencil.sname = Fmt.str "S%d" i; lo; hi; write; rhs })
  in
  let prog =
    {
      Stencil.name = "fuzz";
      params = [ "N"; "T" ];
      steps = Affp.param "T";
      arrays;
      stmts;
    }
  in
  let n =
    let degenerate = Rng.chance rng 0.15 in
    match dims with
    | 1 -> if degenerate then Rng.in_range rng 1 5 else Rng.in_range rng 8 40
    | 2 -> if degenerate then Rng.in_range rng 1 4 else Rng.in_range rng 6 20
    | _ -> if degenerate then Rng.in_range rng 1 4 else Rng.in_range rng 5 10
  in
  let t = Rng.pick rng [ 1; 1; 2; 2; 3; 3; 4; 5; 6; 8 ] in
  (prog, [ ("N", n); ("T", t) ])

(* ---- mutation --------------------------------------------------------- *)

let flip_offset (p : Stencil.t) =
  let flipped = ref false in
  let flip_access (a : Stencil.access) =
    if !flipped then a
    else
      match Array.find_index (fun o -> o <> 0) a.offsets with
      | None -> a
      | Some d ->
          flipped := true;
          let offsets = Array.copy a.offsets in
          offsets.(d) <- -offsets.(d);
          { a with offsets }
  in
  let rec flip_fexpr (e : Stencil.fexpr) =
    match e with
    | Read a -> Stencil.Read (flip_access a)
    | Fconst _ -> e
    | Neg e -> Stencil.Neg (flip_fexpr e)
    | Bin (op, l, r) ->
        let l = flip_fexpr l in
        let r = flip_fexpr r in
        Stencil.Bin (op, l, r)
  in
  let stmts =
    List.map (fun (s : Stencil.stmt) -> { s with rhs = flip_fexpr s.rhs }) p.stmts
  in
  if !flipped then Some { p with stmts } else None

(* Statement [i] writes the cell shifted by [write_shift ~dims i]: one
   dimension, innermost first, by +1, -1 or +2 in turn. *)
let write_shift ~dims i =
  let d = dims - 1 - (i mod dims) in
  let by = [| 1; -1; 2 |].(i mod 3) in
  Array.init dims (fun d' -> if d' = d then by else 0)

let translate_writes (p : Stencil.t) =
  let dims = Stencil.spatial_dims p in
  let stmts =
    List.mapi
      (fun i (s : Stencil.stmt) ->
        let w = s.write in
        let sh = write_shift ~dims i in
        let shifted = Array.map2 ( + ) w.offsets sh in
        let m =
          match (Stencil.array_decl p w.array).fold with Some m -> m | None -> 1
        in
        (* reads of the write slot must stay the written cell *)
        let rec move (e : Stencil.fexpr) =
          match e with
          | Read a
            when String.equal a.array w.array
                 && (a.time_off - w.time_off) mod m = 0
                 && a.offsets = w.offsets ->
              Stencil.Read { a with offsets = shifted }
          | Read _ | Fconst _ -> e
          | Neg e -> Stencil.Neg (move e)
          | Bin (op, l, r) ->
              let l = move l in
              Stencil.Bin (op, l, move r)
        in
        (* the written cells must stay inside the array *)
        let lo =
          Array.mapi (fun d l -> if sh.(d) < 0 then Affp.add_const l (-sh.(d)) else l) s.lo
        in
        let hi =
          Array.mapi (fun d h -> if sh.(d) > 0 then Affp.add_const h (-sh.(d)) else h) s.hi
        in
        { s with lo; hi; write = { w with offsets = shifted }; rhs = move s.rhs })
      p.stmts
  in
  { p with stmts }
