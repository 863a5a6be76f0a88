(* The one comparator for two runs of one program: the tests and the
   bench's gates decide "same result" through [difference]. *)

open Hextile_gpusim
module Common = Hextile_schemes.Common
module Grid = Hextile_ir.Grid

let dram_keys = [ "dram_read_transactions"; "dram_write_transactions" ]

(* What differs between two sets of arrays, if anything: the set of
   names or an array's contents, bit for bit ({!Grid.equal}). *)
let grids_difference a b =
  if Hashtbl.length a <> Hashtbl.length b then Some "array set"
  else
    Hashtbl.fold
      (fun name g acc ->
        match (acc, Hashtbl.find_opt b name) with
        | Some _, _ -> acc
        | None, Some g' when Grid.equal g g' -> None
        | None, _ -> Some ("grid " ^ name))
      a None

(* What differs between two runs of one program, if anything: a counter
   (except those in [except]), the update or block count, or the
   arrays. *)
let difference ?(except = []) (a : Common.result) (b : Common.result) =
  let counters (r : Common.result) =
    List.filter (fun (k, _) -> not (List.mem k except)) (Counters.to_assoc r.counters)
  in
  match
    List.find_opt (fun ((_, x), (_, y)) -> x <> y) (List.combine (counters a) (counters b))
  with
  | Some ((k, x), (_, y)) -> Some (Fmt.str "counter %s (%d vs %d)" k x y)
  | None when a.updates <> b.updates -> Some "updates"
  | None when a.blocks <> b.blocks -> Some "blocks"
  | None -> grids_difference a.grids b.grids

let check_same what ?except a b =
  Option.iter (fun d -> failwith (Fmt.str "%s: %s differs" what d)) (difference ?except a b)

(* [|approx - exact| / max 1 exact] of one counter *)
let rel_error key ~(exact : Common.result) ~(approx : Common.result) =
  let get (r : Common.result) = List.assoc key (Counters.to_assoc r.counters) in
  float_of_int (abs (get approx - get exact)) /. float_of_int (max 1 (get exact))
