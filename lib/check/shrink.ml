open Hextile_ir

let valid (p : Stencil.t) env =
  let envf name =
    match List.assoc_opt name env with Some v -> v | None -> 0
  in
  match Stencil.validate p with
  | Error _ -> false
  | Ok () -> (
      match Analysis.bounds_check p envf with
      | Error _ -> false
      | Ok () -> true)

(* ---- candidate enumeration -------------------------------------------- *)

(* Replace the [n]-th Read leaf (in expression order, matching
   [Stencil.reads]) using [f]. *)
let map_nth_read rhs n f =
  let cnt = ref (-1) in
  let rec go (e : Stencil.fexpr) =
    match e with
    | Read a ->
        incr cnt;
        if !cnt = n then Stencil.Read (f a) else e
    | Fconst _ -> e
    | Neg x -> Stencil.Neg (go x)
    | Bin (op, l, r) ->
        let l = go l in
        let r = go r in
        Stencil.Bin (op, l, r)
  in
  go rhs

(* Every way to replace one interior node by one of its children. *)
let rec rhs_variants (e : Stencil.fexpr) : Stencil.fexpr list =
  match e with
  | Read _ | Fconst _ -> []
  | Neg x -> x :: List.map (fun v -> Stencil.Neg v) (rhs_variants x)
  | Bin (op, l, r) ->
      (l :: r :: List.map (fun v -> Stencil.Bin (op, v, r)) (rhs_variants l))
      @ List.map (fun v -> Stencil.Bin (op, l, v)) (rhs_variants r)

let with_stmt p i s' =
  {
    p with
    Stencil.stmts = List.mapi (fun j s -> if j = i then s' else s) p.Stencil.stmts;
  }

let drop_stmts (p : Stencil.t) =
  let k = List.length p.stmts in
  if k <= 1 then []
  else
    List.init k (fun i ->
        { p with stmts = List.filteri (fun j _ -> j <> i) p.stmts })

let drop_unused_arrays (p : Stencil.t) =
  let used = Hashtbl.create 8 in
  List.iter
    (fun (s : Stencil.stmt) ->
      List.iter
        (fun (a : Stencil.access) -> Hashtbl.replace used a.array ())
        (s.write :: Stencil.reads s))
    p.stmts;
  let arrays =
    List.filter (fun (a : Stencil.array_decl) -> Hashtbl.mem used a.aname) p.arrays
  in
  if List.length arrays < List.length p.arrays then [ { p with arrays } ]
  else []

let shrink_env env =
  List.concat_map
    (fun (name, v) ->
      let set v' = List.map (fun (n, x) -> (n, if n = name then v' else x)) env in
      if v >= 2 then
        let halved = set (v / 2) in
        let dec = set (v - 1) in
        if v / 2 = v - 1 then [ halved ] else [ halved; dec ]
      else [])
    env

let shrink_rhs (p : Stencil.t) =
  List.concat
    (List.mapi
       (fun i (s : Stencil.stmt) ->
         List.map (fun rhs -> with_stmt p i { s with rhs }) (rhs_variants s.rhs))
       p.stmts)

let shrink_offsets (p : Stencil.t) =
  List.concat
    (List.mapi
       (fun i (s : Stencil.stmt) ->
         let reads = Stencil.reads s in
         List.concat
           (List.mapi
              (fun j (r : Stencil.access) ->
                List.filter_map
                  (fun d ->
                    if r.offsets.(d) = 0 then None
                    else
                      let toward_zero o = if o > 0 then o - 1 else o + 1 in
                      let rhs =
                        map_nth_read s.rhs j (fun a ->
                            let offsets = Array.copy a.offsets in
                            offsets.(d) <- toward_zero offsets.(d);
                            { a with offsets })
                      in
                      Some (with_stmt p i { s with rhs }))
                  (List.init (Array.length r.offsets) Fun.id))
              reads))
       p.stmts)

let candidates (p : Stencil.t) env =
  let keep_env p' = (p', env) in
  List.map keep_env (drop_stmts p)
  @ List.map (fun env' -> (p, env')) (shrink_env env)
  @ List.map keep_env (drop_unused_arrays p)
  @ List.map keep_env (shrink_rhs p)
  @ List.map keep_env (shrink_offsets p)

(* ---- greedy fixpoint -------------------------------------------------- *)

let shrink ?(max_checks = 200) ~still_fails prog env =
  let budget = ref max_checks in
  let rec first = function
    | [] -> None
    | (p, e) :: rest ->
        if !budget <= 0 then None
        else if
          valid p e
          && (decr budget;
              still_fails p e)
        then Some (p, e)
        else first rest
  in
  let rec fix (p, e) =
    if !budget <= 0 then (p, e)
    else
      match first (candidates p e) with
      | Some better -> fix better
      | None -> (p, e)
  in
  fix (prog, env)
