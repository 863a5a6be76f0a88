open Hextile_util
module Obs = Hextile_obs.Obs

type t = { space : Space.t; cs : Constr.t list }

exception Unbounded of string

let make space cs = { space; cs = List.map Constr.normalize cs }
let space t = t.space
let constraints t = t.cs
let dim t = Space.dim t.space

let add_constraints t cs =
  { t with cs = List.rev_append (List.map Constr.normalize cs) t.cs }

let contains t x = List.for_all (fun c -> Constr.holds c x) t.cs

let sign n = compare n 0

(* Fourier-Motzkin elimination of variable [j], preferring an equality
   pivot: an equality [e] with a nonzero coefficient at [j] lets every
   other constraint be rewritten without the pair-combination blowup.
   Returns the new constraint list and whether an equality pivot was
   used (for exact Obs counter replay on cache hits). *)
let eliminate_cs cs j =
  let open Constr in
  let has_j c = coeff c j <> 0 in
  match List.find_opt (fun c -> c.kind = Eq && has_j c) cs with
  | Some e ->
      let ej = coeff e j in
      let cs' =
        List.filter_map
          (fun c ->
            if c == e then None
            else if not (has_j c) then Some c
            else
              let cj = coeff c j in
              let c' = combine (abs ej) c (-sign ej * cj) e in
              if is_trivial c' then None else Some (normalize c'))
          cs
      in
      (cs', true)
  | None ->
      let pos, neg, zero =
        List.fold_left
          (fun (p, n, z) c ->
            let cj = coeff c j in
            if cj > 0 then (c :: p, n, z)
            else if cj < 0 then (p, c :: n, z)
            else (p, n, c :: z))
          ([], [], []) cs
      in
      let combos =
        List.concat_map
          (fun p ->
            List.filter_map
              (fun n ->
                let c' = combine (-coeff n j) p (coeff p j) n in
                if is_trivial c' then None else Some (normalize c'))
              neg)
          pos
      in
      (List.rev_append combos zero, false)

(* Projection cache. The same small systems (hexagon shapes, tile
   polyhedra) are eliminated over and over during tile-size search and
   bound queries; results live in a process-shared publish-once table
   (lock-free, one elimination per distinct system across every domain)
   keyed by the canonicalized (sorted, already-normalized) constraint
   list plus the eliminated variable. Obs counters are replayed on hits
   — [poly.fm_eliminations] counts requests and [poly.fm_eq_pivots] is
   bumped from the cached pivot flag — so counter totals are
   bit-identical on hits and misses, on every domain, at every --jobs
   value. Hit/miss stats are process-wide atomics. *)
module Oncemap = Hextile_par.Oncemap

let fm_cache : (Constr.t list * int, Constr.t list * bool) Oncemap.t =
  Oncemap.create ~bits:12 ~name:"poly.fm_projection" ()

let fm_cache_stats () = Oncemap.stats fm_cache
let fm_cache_clear () = Oncemap.clear fm_cache

let eliminate_keep t j =
  Obs.incr "poly.fm_eliminations";
  let finish (cs, eq_pivot) =
    if eq_pivot then Obs.incr "poly.fm_eq_pivots";
    { t with cs }
  in
  let key = (List.sort compare t.cs, j) in
  match Oncemap.find fm_cache key with
  | Some r -> finish r
  | None -> finish (Oncemap.publish fm_cache key (eliminate_cs t.cs j))

let project_prefix t k =
  let rec go t j = if j < k then t else go (eliminate_keep t j) (j - 1) in
  go t (dim t - 1)

(* Constraints touching no variable at all: consistency is decidable by
   inspection. FM yields an exact rational emptiness test. *)
let is_empty_rational t =
  let p0 = project_prefix t 0 in
  List.exists Constr.is_absurd p0.cs

(* [projections t] returns [projs] with [projs.(k)] involving only
   variables [< k]; [projs.(n) == t]. *)
let projections t =
  let n = dim t in
  let projs = Array.make (n + 1) t in
  for k = n - 1 downto 0 do
    projs.(k) <- eliminate_keep projs.(k + 1) k
  done;
  projs

(* Bounds on variable [k] given values [env.(0..k-1)], from constraints
   mentioning only variables [<= k]. Returns [None] when a var-free
   constraint is violated at this partial point. *)
let level_bounds proj_k1 k env =
  let lo = ref None and hi = ref None and ok = ref true in
  let tighten_lo v = match !lo with None -> lo := Some v | Some l -> if v > l then lo := Some v in
  let tighten_hi v = match !hi with None -> hi := Some v | Some h -> if v < h then hi := Some v in
  List.iter
    (fun (c : Constr.t) ->
      if !ok then begin
        let a = Constr.coeff c k in
        let v = ref c.const in
        for i = 0 to k - 1 do
          v := !v + (Constr.coeff c i * env.(i))
        done;
        let v = !v in
        if a = 0 then begin
          match c.kind with
          | Ge -> if v < 0 then ok := false
          | Eq -> if v <> 0 then ok := false
        end
        else begin
          (* a * x_k + v >= 0 (or = 0) *)
          (match c.kind with
          | Ge -> if a > 0 then tighten_lo (Intutil.cdiv (-v) a) else tighten_hi (Intutil.fdiv v (-a))
          | Eq ->
              tighten_lo (Intutil.cdiv (-v) a);
              tighten_hi (Intutil.fdiv (-v) a))
        end
      end)
    proj_k1.cs;
  if !ok then Some (!lo, !hi) else None

let fold_points t ~init ~f =
  let n = dim t in
  let projs = projections t in
  if List.exists Constr.is_absurd projs.(0).cs then init
  else begin
    let env = Array.make (max n 1) 0 in
    let rec go k acc =
      if k = n then begin
        Obs.incr "poly.points_enumerated";
        f acc (Array.sub env 0 n)
      end
      else
        match level_bounds projs.(k + 1) k env with
        | None -> acc
        | Some (lo, hi) ->
            let lo =
              match lo with
              | Some l -> l
              | None -> raise (Unbounded (Space.name t.space k))
            and hi =
              match hi with
              | Some h -> h
              | None -> raise (Unbounded (Space.name t.space k))
            in
            let acc = ref acc in
            for x = lo to hi do
              env.(k) <- x;
              acc := go (k + 1) !acc
            done;
            !acc
    in
    go 0 init
  end

let iter_points t ~f = fold_points t ~init:() ~f:(fun () x -> f x)
let enumerate t = List.rev (fold_points t ~init:[] ~f:(fun acc x -> x :: acc))
let count t = fold_points t ~init:0 ~f:(fun n _ -> n + 1)

exception Found of int array

let sample t =
  match iter_points t ~f:(fun x -> raise (Found x)) with
  | () -> None
  | exception Found x -> Some x

let exists_point t = Option.is_some (sample t)

(* Rational bounds of one coordinate, via FM elimination of all others. *)
let var_bounds t i =
  if is_empty_rational t then None
  else begin
    let p = ref t in
    for j = dim t - 1 downto 0 do
      if j <> i then p := eliminate_keep !p j
    done;
    let lo = ref None and hi = ref None in
    List.iter
      (fun (c : Constr.t) ->
        let a = Constr.coeff c i in
        if a <> 0 then begin
          let b = Rat.make (-c.const) a in
          (* a*x + const >= 0: x >= -const/a if a>0, x <= -const/a if a<0 *)
          let tighten_lo v =
            match !lo with None -> lo := Some v | Some l -> if Rat.(v > l) then lo := Some v
          and tighten_hi v =
            match !hi with None -> hi := Some v | Some h -> if Rat.(v < h) then hi := Some v
          in
          match c.kind with
          | Constr.Ge -> if a > 0 then tighten_lo b else tighten_hi b
          | Constr.Eq ->
              tighten_lo b;
              tighten_hi b
        end)
      (!p).cs;
    Some (!lo, !hi)
  end

let pp ppf t =
  Fmt.pf ppf "{ %a : %a }" Space.pp t.space
    Fmt.(list ~sep:(any " and ") (Constr.pp t.space))
    t.cs
