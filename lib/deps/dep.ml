open Hextile_ir
open Hextile_util

type kind = Flow | Anti | Output

type t = {
  src : int;
  dst : int;
  kind : kind;
  array : string;
  dist : int array;
}

(* One entry per access of the program: statement index, the access, and
   whether it is the statement's write. *)
let accesses_of (p : Stencil.t) =
  List.concat
    (List.mapi
       (fun i (s : Stencil.stmt) ->
         (i, s.write, true) :: List.map (fun a -> (i, a, false)) (Stencil.reads s))
       p.stmts)

(* Minimal Δu >= 1 with Δu = k·Δt + di where Δt ≡ dc (mod m).
   Δu = k·(dc + j·m) + di over j ∈ Z; step k·m > 0, so a minimal value
   exists. *)
let minimal_du ~k ~m ~dc ~di =
  let step = k * m in
  let base = (k * dc) + di in
  (* smallest base + j*step >= 1 *)
  base + (step * Intutil.cdiv (1 - base) step)

let analyze (p : Stencil.t) =
  (match Stencil.validate p with
  | Ok () -> ()
  | Error m -> invalid_arg ("Dep.analyze: " ^ m));
  let k = List.length p.stmts in
  let n = Stencil.spatial_dims p in
  let accs = accesses_of p in
  let deps = ref [] in
  List.iter
    (fun (i1, (a1 : Stencil.access), w1) ->
      List.iter
        (fun (i2, (a2 : Stencil.access), w2) ->
          if String.equal a1.array a2.array && (w1 || w2) then begin
            let decl = Stencil.array_decl p a1.array in
            let m = match decl.fold with Some m -> m | None -> 1 in
            (* Same cell: slot(t1+c1) = slot(t2+c2) and x1+o1 = x2+o2. *)
            let dc = a1.time_off - a2.time_off in
            let du = minimal_du ~k ~m ~dc ~di:(i2 - i1) in
            let dist =
              Array.init (n + 1) (fun d ->
                  if d = 0 then du else a1.offsets.(d - 1) - a2.offsets.(d - 1))
            in
            let kind =
              match (w1, w2) with
              | true, true -> Output
              | true, false -> Flow
              | false, true -> Anti
              | false, false -> assert false
            in
            (* A statement instance reading a cell it also writes (same u)
               is not a dependence; minimal_du already enforces Δu >= 1,
               so every recorded distance is a real ordering constraint. *)
            deps := { src = i1; dst = i2; kind; array = a1.array; dist } :: !deps
          end)
        accs)
    accs;
  (* Deduplicate identical records (several reads can induce the same
     distance). *)
  List.sort_uniq compare !deps

let analyze_uncached = analyze

let distance_vectors deps = List.sort_uniq compare (List.map (fun d -> d.dist) deps)

let pp_kind ppf = function
  | Flow -> Fmt.string ppf "flow"
  | Anti -> Fmt.string ppf "anti"
  | Output -> Fmt.string ppf "output"

let pp ppf d =
  Fmt.pf ppf "%a S%d -> S%d on %s: (%a)" pp_kind d.kind d.src d.dst d.array
    Fmt.(array ~sep:(any ", ") int)
    d.dist
