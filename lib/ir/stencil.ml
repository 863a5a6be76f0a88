type access = { array : string; time_off : int; offsets : int array }

type binop = Add | Sub | Mul | Div

type fexpr =
  | Read of access
  | Fconst of float
  | Bin of binop * fexpr * fexpr
  | Neg of fexpr

type array_decl = { aname : string; extents : Affp.t array; fold : int option }

type stmt = {
  sname : string;
  lo : Affp.t array;
  hi : Affp.t array;
  write : access;
  rhs : fexpr;
}

type t = {
  name : string;
  params : string list;
  steps : Affp.t;
  arrays : array_decl list;
  stmts : stmt list;
}

let reads stmt =
  let rec go acc = function
    | Read a -> a :: acc
    | Fconst _ -> acc
    | Bin (_, l, r) -> go (go acc l) r
    | Neg e -> go acc e
  in
  List.rev (go [] stmt.rhs)

let distinct_reads stmt =
  let seen = Hashtbl.create 8 in
  List.filter
    (fun a ->
      if Hashtbl.mem seen a then false
      else begin
        Hashtbl.replace seen a ();
        true
      end)
    (reads stmt)

let flops stmt =
  let ops = Hashtbl.create 16 in
  let rec go = function
    | Read _ | Fconst _ -> ()
    | Bin (_, l, r) as e ->
        Hashtbl.replace ops e ();
        go l;
        go r
    | Neg e' as e ->
        Hashtbl.replace ops e ();
        go e'
  in
  go stmt.rhs;
  Hashtbl.length ops

let array_decl t name = List.find (fun a -> String.equal a.aname name) t.arrays

let spatial_dims t =
  match t.stmts with [] -> 0 | s :: _ -> Array.length s.lo

let validate t =
  let ( let* ) = Result.bind in
  let fail fmt = Fmt.kstr (fun m -> Error m) fmt in
  let* () = if t.stmts = [] then fail "program %s has no statements" t.name else Ok () in
  let n = spatial_dims t in
  let* () =
    List.fold_left
      (fun acc s ->
        let* () = acc in
        if Array.length s.lo <> n || Array.length s.hi <> n then
          fail "statement %s: inconsistent dimensionality" s.sname
        else Ok ())
      (Ok ()) t.stmts
  in
  let check_access sname (a : access) =
    match array_decl t a.array with
    | exception Not_found -> fail "statement %s: unknown array %s" sname a.array
    | decl ->
        if Array.length a.offsets <> Array.length decl.extents then
          fail "statement %s: access to %s has wrong arity" sname a.array
        else if decl.fold = None && a.time_off <> 0 then
          fail "statement %s: non-folded array %s accessed with time offset %d"
            sname a.array a.time_off
        else Ok ()
  in
  let* () =
    List.fold_left
      (fun acc s ->
        let* () = acc in
        let* () = check_access s.sname s.write in
        List.fold_left
          (fun acc a ->
            let* () = acc in
            check_access s.sname a)
          (Ok ()) (reads s))
      (Ok ()) t.stmts
  in
  let writers =
    List.concat_map (fun s -> [ (s.write.array, s.sname) ]) t.stmts
  in
  let* () =
    List.fold_left
      (fun acc (arr, _) ->
        let* () = acc in
        match List.filter (fun (a, _) -> String.equal a arr) writers with
        | [ _ ] -> Ok ()
        | ws when List.length ws > 1 ->
            fail "array %s written by multiple statements (%s)" arr
              (String.concat ", " (List.map snd ws))
        | _ -> Ok ())
      (Ok ()) writers
  in
  let names = List.map (fun s -> s.sname) t.stmts in
  let* () =
    if List.length (List.sort_uniq String.compare names) <> List.length names then
      fail "duplicate statement names in %s" t.name
    else Ok ()
  in
  (* The input envelope: a statement reads its own write slot only at the
     written cell, so its instances at one time step are independent. *)
  List.fold_left
    (fun acc s ->
      let* () = acc in
      let w = s.write in
      let m = Option.value (array_decl t w.array).fold ~default:1 in
      match
        List.find_opt
          (fun (r : access) ->
            String.equal r.array w.array
            && (r.time_off - w.time_off) mod m = 0
            && r.offsets <> w.offsets)
          (reads s)
      with
      | None -> Ok ()
      | Some r ->
          fail
            "statement %s reads its write slot of %s at offsets (%a), not at the \
             written cell (%a): instances of one time step would not be \
             independent (in-place sweeps are outside the input envelope)"
            s.sname w.array
            Fmt.(array ~sep:(any ",") int)
            r.offsets
            Fmt.(array ~sep:(any ",") int)
            w.offsets)
    (Ok ()) t.stmts

let pp_access ppf a =
  let off ppf o = if o >= 0 then Fmt.pf ppf "+%d" o else Fmt.int ppf o in
  let time ppf c = if c = 0 then Fmt.string ppf "t" else Fmt.pf ppf "t%a" off c in
  if a.time_off = 0 && Array.for_all (fun o -> o = 0) a.offsets then
    Fmt.pf ppf "%s⟨t⟩[s]" a.array
  else
    Fmt.pf ppf "%s⟨%a⟩[%a]" a.array time a.time_off
      Fmt.(array ~sep:(any ", ") off)
      a.offsets

let rec pp_fexpr ppf = function
  | Read a -> pp_access ppf a
  | Fconst f -> Fmt.float ppf f
  | Bin (op, l, r) ->
      let s = match op with Add -> "+" | Sub -> "-" | Mul -> "*" | Div -> "/" in
      Fmt.pf ppf "(%a %s %a)" pp_fexpr l s pp_fexpr r
  | Neg e -> Fmt.pf ppf "(-%a)" pp_fexpr e

let pp ppf t =
  Fmt.pf ppf "@[<v>stencil %s(%a) steps=%a@," t.name
    Fmt.(list ~sep:(any ", ") string)
    t.params Affp.pp t.steps;
  List.iter
    (fun (a : array_decl) ->
      Fmt.pf ppf "  array %s[%a]%a@," a.aname
        Fmt.(array ~sep:(any "][") Affp.pp)
        a.extents
        Fmt.(option (fun ppf m -> Fmt.pf ppf " fold %d" m))
        a.fold)
    t.arrays;
  List.iter
    (fun (s : stmt) ->
      Fmt.pf ppf "  %s: for (%a..%a): %a = %a@," s.sname
        Fmt.(array ~sep:(any ", ") Affp.pp)
        s.lo
        Fmt.(array ~sep:(any ", ") Affp.pp)
        s.hi pp_access s.write pp_fexpr s.rhs)
    t.stmts;
  Fmt.pf ppf "@]"
