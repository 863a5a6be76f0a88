open Hextile_util

type t =
  | Const of int
  | Var of int
  | Add of t * t
  | Sub of t * t
  | Scale of int * t
  | Fdiv of t * int
  | Fmod of t * int

let const n = Const n
let var i = Var i
let add a b = Add (a, b)
let sub a b = Sub (a, b)
let scale k e = Scale (k, e)

let fdiv e d =
  if d <= 0 then invalid_arg "Qaff.fdiv: divisor must be positive";
  Fdiv (e, d)

let fmod e d =
  if d <= 0 then invalid_arg "Qaff.fmod: divisor must be positive";
  Fmod (e, d)

let ( + ) = add
let ( - ) = sub

let rec eval e env =
  match e with
  | Const n -> n
  | Var i -> env.(i)
  | Add (a, b) -> Stdlib.( + ) (eval a env) (eval b env)
  | Sub (a, b) -> Stdlib.( - ) (eval a env) (eval b env)
  | Scale (k, a) -> Stdlib.( * ) k (eval a env)
  | Fdiv (a, d) -> Intutil.fdiv (eval a env) d
  | Fmod (a, d) -> Intutil.fmod (eval a env) d

let rec simplify e =
  match e with
  | Const _ | Var _ -> e
  | Add (a, b) -> (
      match (simplify a, simplify b) with
      | Const x, Const y -> Const (Stdlib.( + ) x y)
      | Const 0, b -> b
      | a, Const 0 -> a
      | a, b -> Add (a, b))
  | Sub (a, b) -> (
      match (simplify a, simplify b) with
      | Const x, Const y -> Const (Stdlib.( - ) x y)
      | a, Const 0 -> a
      | a, b -> Sub (a, b))
  | Scale (k, a) -> (
      match (k, simplify a) with
      | 0, _ -> Const 0
      | 1, a -> a
      | k, Const x -> Const (Stdlib.( * ) k x)
      | k, a -> Scale (k, a))
  | Fdiv (a, d) -> (
      match (simplify a, d) with
      | a, 1 -> a
      | Const x, d -> Const (Intutil.fdiv x d)
      | a, d -> Fdiv (a, d))
  | Fmod (a, d) -> (
      match (simplify a, d) with
      | _, 1 -> Const 0
      | Const x, d -> Const (Intutil.fmod x d)
      | a, d -> Fmod (a, d))

let max_var e =
  let rec go e =
    match e with
    | Const _ -> -1
    | Var i -> i
    | Add (a, b) | Sub (a, b) -> Stdlib.max (go a) (go b)
    | Scale (_, a) | Fdiv (a, _) | Fmod (a, _) -> go a
  in
  go e

let to_affine_in ~dim e =
  let coeffs = Array.make dim 0 and const = ref 0 in
  let exception Nonaffine in
  let rec go k e =
    match e with
    | Const n -> const := Stdlib.( + ) !const (Stdlib.( * ) k n)
    | Var i -> coeffs.(i) <- Stdlib.( + ) coeffs.(i) k
    | Add (a, b) ->
        go k a;
        go k b
    | Sub (a, b) ->
        go k a;
        go (-k) b
    | Scale (c, a) -> go (Stdlib.( * ) k c) a
    | Fdiv _ | Fmod _ -> raise Nonaffine
  in
  match go 1 e with () -> Some (coeffs, !const) | exception Nonaffine -> None

let rec pp_gen name ppf e =
  let pp = pp_gen name in
  match e with
  | Const n -> Fmt.int ppf n
  | Var i -> Fmt.string ppf (name i)
  | Add (a, b) -> Fmt.pf ppf "(%a + %a)" pp a pp b
  | Sub (a, b) -> Fmt.pf ppf "(%a - %a)" pp a pp b
  | Scale (k, a) -> Fmt.pf ppf "%d*%a" k pp a
  | Fdiv (a, d) -> Fmt.pf ppf "floor(%a / %d)" pp a d
  | Fmod (a, d) -> Fmt.pf ppf "(%a mod %d)" pp a d

let pp space = pp_gen (Space.name space)
