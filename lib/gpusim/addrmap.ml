open Hextile_ir

type handle = { hbase : int; mutable hoffset : int  (** bytes *) }
type t = { mutable next : int; tbl : (string, handle) Hashtbl.t }

let create () = { next = 256; tbl = Hashtbl.create 8 }

let align_up n a = (n + a - 1) / a * a

let resolve t (g : Grid.t) =
  match Hashtbl.find_opt t.tbl g.decl.aname with
  | Some h -> h
  | None ->
      let bytes = 4 * Array.length g.data in
      let hbase = align_up t.next 256 in
      t.next <- hbase + bytes + 1024;
      let h = { hbase; hoffset = 0 } in
      Hashtbl.replace t.tbl g.decl.aname h;
      h

(* Re-registering keeps the existing base (addresses stay stable across
   per-phase offset updates, e.g. the aligned-loads knob) and only
   refreshes the translation offset — in the handle itself, so handles
   resolved before the update see it. *)
let register t g ~offset_floats = (resolve t g).hoffset <- 4 * offset_floats

let base h = h.hbase + h.hoffset
let addr h idx = base h + (4 * idx)
