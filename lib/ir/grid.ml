open Hextile_util

type t = { decl : Stencil.array_decl; dims : int array; data : float array }

(* SplitMix-style hash for deterministic initial grid contents. *)
let hash_init seed i =
  let z = ref (Int64.of_int ((seed * 0x9E3779B1) + (i * 0x85EBCA77))) in
  z := Int64.mul !z 0xBF58476D1CE4E5B9L;
  z := Int64.logxor !z (Int64.shift_right_logical !z 31);
  z := Int64.mul !z 0x94D049BB133111EBL;
  let v = Int64.to_int (Int64.logand !z 0xFFFFFFL) in
  float_of_int v /. float_of_int 0x1000000

let alloc (prog : Stencil.t) env =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (decl : Stencil.array_decl) ->
      let spatial = Array.map (fun e -> Affp.eval e env) decl.extents in
      let dims =
        match decl.fold with
        | Some m -> Array.append [| m |] spatial
        | None -> spatial
      in
      let size = Array.fold_left ( * ) 1 dims in
      let seed = Hashtbl.hash decl.aname in
      let data = Array.init size (hash_init seed) in
      Hashtbl.replace tbl decl.aname { decl; dims; data })
    prog.arrays;
  tbl

let offset g idx =
  if Array.length idx <> Array.length g.dims then
    invalid_arg
      (Fmt.str "Grid.offset: %s expects %d indices, got %d" g.decl.aname
         (Array.length g.dims) (Array.length idx));
  let off = ref 0 in
  Array.iteri
    (fun i x ->
      if x < 0 || x >= g.dims.(i) then
        invalid_arg
          (Fmt.str "Grid.offset: %s index %d out of bounds (dim %d, extent %d)"
             g.decl.aname x i g.dims.(i));
      off := (!off * g.dims.(i)) + x)
    idx;
  !off

let get g idx = g.data.(offset g idx)
let set g idx v = g.data.(offset g idx) <- v

let slot g tau = match g.decl.fold with Some m -> Intutil.fmod tau m | None -> 0

let find tbl name =
  match Hashtbl.find_opt tbl name with
  | Some g -> g
  | None -> invalid_arg ("Grid.find: unknown array " ^ name)

let checksum g = Array.fold_left ( +. ) 0.0 g.data

let equal a b =
  Array.length a.data = Array.length b.data
  && a.dims = b.dims
  &&
  (* bit for bit, short-circuiting on the first mismatch *)
  let n = Array.length a.data in
  let rec go i =
    i >= n
    || Int64.equal (Int64.bits_of_float a.data.(i)) (Int64.bits_of_float b.data.(i))
       && go (i + 1)
  in
  go 0
