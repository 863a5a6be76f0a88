open Ast

exception Error of Lexer.pos * string

let fail lx fmt = Fmt.kstr (fun m -> raise (Error (Lexer.pos lx, m))) fmt

let expect lx tok =
  let got = Lexer.next lx in
  if got <> tok then
    fail lx "expected %a but found %a" Lexer.pp_token tok Lexer.pp_token got

let expect_ident lx =
  match Lexer.next lx with
  | Lexer.Ident s -> s
  | got -> fail lx "expected an identifier but found %a" Lexer.pp_token got

(* --- integer expressions ------------------------------------------- *)

(*  iexpr   := iterm (('+'|'-') iterm)*
    iterm   := ifactor (('*'|'%') ifactor)*
    ifactor := INT | IDENT | '-' ifactor | '(' iexpr ')'            *)

let rec iexpr lx =
  let left = ref (iterm lx) in
  let rec go () =
    match Lexer.peek lx with
    | Lexer.Plus ->
        ignore (Lexer.next lx);
        left := IAdd (!left, iterm lx);
        go ()
    | Lexer.Minus ->
        ignore (Lexer.next lx);
        left := ISub (!left, iterm lx);
        go ()
    | _ -> ()
  in
  go ();
  !left

and iterm lx =
  let left = ref (ifactor lx) in
  let rec go () =
    match Lexer.peek lx with
    | Lexer.Star ->
        ignore (Lexer.next lx);
        left := IMul (!left, ifactor lx);
        go ()
    | Lexer.Percent ->
        ignore (Lexer.next lx);
        left := IMod (!left, ifactor lx);
        go ()
    | _ -> ()
  in
  go ();
  !left

and ifactor lx =
  match Lexer.next lx with
  | Lexer.Int n -> IConst n
  | Lexer.Ident v -> IVar v
  | Lexer.Minus -> INeg (ifactor lx)
  | Lexer.LParen ->
      let e = iexpr lx in
      expect lx Lexer.RParen;
      e
  | got -> fail lx "expected an index expression but found %a" Lexer.pp_token got

(* --- float expressions --------------------------------------------- *)

let indices lx =
  let rec go acc =
    match Lexer.peek lx with
    | Lexer.LBracket ->
        ignore (Lexer.next lx);
        let e = iexpr lx in
        expect lx Lexer.RBracket;
        go (e :: acc)
    | _ -> List.rev acc
  in
  go []

let rec fexpr lx =
  let left = ref (fterm lx) in
  let rec go () =
    match Lexer.peek lx with
    | Lexer.Plus ->
        ignore (Lexer.next lx);
        left := FBin (Hextile_ir.Stencil.Add, !left, fterm lx);
        go ()
    | Lexer.Minus ->
        ignore (Lexer.next lx);
        left := FBin (Hextile_ir.Stencil.Sub, !left, fterm lx);
        go ()
    | _ -> ()
  in
  go ();
  !left

and fterm lx =
  let left = ref (ffactor lx) in
  let rec go () =
    match Lexer.peek lx with
    | Lexer.Star ->
        ignore (Lexer.next lx);
        left := FBin (Hextile_ir.Stencil.Mul, !left, ffactor lx);
        go ()
    | Lexer.Slash ->
        ignore (Lexer.next lx);
        left := FBin (Hextile_ir.Stencil.Div, !left, ffactor lx);
        go ()
    | _ -> ()
  in
  go ();
  !left

and ffactor lx =
  let pos = Lexer.pos lx in
  match Lexer.next lx with
  | Lexer.Float f -> FConst f
  | Lexer.Int n -> FConst (float_of_int n)
  | Lexer.Minus -> FNeg (ffactor lx)
  | Lexer.LParen ->
      let e = fexpr lx in
      expect lx Lexer.RParen;
      e
  | Lexer.Ident a -> (
      match indices lx with
      | [] -> fail lx "scalar variable %s not supported (array reference expected)" a
      | idx -> FRef (a, idx, pos))
  | got -> fail lx "expected an expression but found %a" Lexer.pp_token got

(* --- statements and loops ------------------------------------------ *)

let rec item lx =
  match Lexer.peek lx with
  | Lexer.Kw_for -> For (floop lx)
  | Lexer.Ident _ -> (
      let pos = Lexer.pos lx in
      let array = expect_ident lx in
      let idx = indices lx in
      match Lexer.next lx with
      | Lexer.Assign ->
          let rhs = fexpr lx in
          expect lx Lexer.Semi;
          Assign { array; indices = idx; rhs; apos = pos }
      | Lexer.PlusAssign ->
          fail lx "compound assignment '+=' is not supported; write x = x + ..."
      | got -> fail lx "expected '=' but found %a" Lexer.pp_token got)
  | got -> fail lx "expected a for loop or an assignment but found %a" Lexer.pp_token got

and body lx =
  match Lexer.peek lx with
  | Lexer.LBrace ->
      ignore (Lexer.next lx);
      let rec go acc =
        match Lexer.peek lx with
        | Lexer.RBrace ->
            ignore (Lexer.next lx);
            List.rev acc
        | _ -> go (item lx :: acc)
      in
      go []
  | _ -> [ item lx ]

and floop lx =
  let pos = Lexer.pos lx in
  expect lx Lexer.Kw_for;
  expect lx Lexer.LParen;
  let var = expect_ident lx in
  expect lx Lexer.Assign;
  let lo = iexpr lx in
  expect lx Lexer.Semi;
  let var2 = expect_ident lx in
  if not (String.equal var var2) then
    fail lx "loop condition tests %s but the loop variable is %s" var2 var;
  let hi =
    match Lexer.next lx with
    | Lexer.Lt -> Lt (iexpr lx)
    | Lexer.Le -> Le (iexpr lx)
    | got -> fail lx "expected '<' or '<=' but found %a" Lexer.pp_token got
  in
  expect lx Lexer.Semi;
  let var3 = expect_ident lx in
  if not (String.equal var var3) then
    fail lx "loop increments %s but the loop variable is %s" var3 var;
  expect lx Lexer.PlusPlus;
  expect lx Lexer.RParen;
  { var; lo; hi; body = body lx; pos }

let decl lx =
  let dpos = Lexer.pos lx in
  expect lx Lexer.Kw_float;
  let dname = expect_ident lx in
  let dims = indices lx in
  if dims = [] then fail lx "array declaration %s needs at least one dimension" dname;
  expect lx Lexer.Semi;
  { dname; dims; dpos }

let program src =
  let lx = Lexer.of_string src in
  let rec decls acc =
    match Lexer.peek lx with
    | Lexer.Kw_float -> decls (decl lx :: acc)
    | _ -> List.rev acc
  in
  let decls = decls [] in
  let loop = floop lx in
  (match Lexer.peek lx with
  | Lexer.Eof -> ()
  | got -> fail lx "trailing input after the time loop: %a" Lexer.pp_token got);
  { decls; loop }
