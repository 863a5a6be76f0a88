(* References for [Tile_size]: the per-instance tile accounting and the
   frozen exhaustive search, Section 3.7's definition of the choice as
   written (every candidate costed exactly, the feasible one with the
   smallest load-to-compute ratio wins). The staged search must return
   the same choice on every program and candidate grid. *)

open Hextile_ir
open Hextile_deps
open Hextile_tiling
module Par = Hextile_par.Par

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

(* The reference accounting: hashtables keyed by cell identities, one
   statement instance and one access at a time. [Tile_size.tile_stats]
   must agree on every field. *)
let tile_stats (t : Hybrid.t) : Tile_size.stats =
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
    Tile_size.iterations = !iterations;
    loads = !loads;
    stores = Hashtbl.length written;
    footprint_box;
    ratio = float_of_int !loads /. float_of_int !iterations;
  }

let rec cartesian = function
  | [] -> [ [] ]
  | choices :: rest ->
      let tails = cartesian rest in
      List.concat_map (fun c -> List.map (fun t -> c :: t) tails) choices

(* The frozen pre-staging search: enumerate every candidate eagerly,
   evaluate all of them with the reference accounting, fold. The
   baseline `bench tilesearch` times. *)
let select_exhaustive ?pool prog ~h_candidates ~w0_candidates ~wi_candidates
    ~shared_mem_floats ?require_multiple () : Tile_size.choice option =
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
    (h, w, tile_stats t)
  in
  let evaluated =
    match pool with
    | Some p -> Par.map p eval candidates
    | None -> Array.map eval candidates
  in
  let best = ref None in
  Array.iter
    (fun (h, w, (stats : Tile_size.stats)) ->
      if stats.footprint_box <= shared_mem_floats then
        match !best with
        | None -> best := Some { Tile_size.h; w; stats }
        | Some b ->
            if
              stats.ratio < b.stats.ratio -. 1e-12
              || (Float.abs (stats.ratio -. b.stats.ratio) <= 1e-12
                 && stats.iterations > b.stats.iterations)
            then best := Some { h; w; stats })
    evaluated;
  !best

(* What differs between two choices, if anything; the ratio is compared
   bit for bit. *)
let choice_difference (a : Tile_size.choice option) (b : Tile_size.choice option) =
  let same (x : Tile_size.choice) (y : Tile_size.choice) =
    x.h = y.h && x.w = y.w
    && { x.stats with ratio = 0.0 } = { y.stats with ratio = 0.0 }
    && Int64.equal (Int64.bits_of_float x.stats.ratio) (Int64.bits_of_float y.stats.ratio)
  in
  match (a, b) with
  | None, None -> None
  | Some x, Some y when same x y -> None
  | _ ->
      let pp = Fmt.(option ~none:(any "none") Tile_size.pp_choice) in
      Some (Fmt.str "choice %a vs %a" pp a pp b)
