(** Recursive-descent parser for the stencil C subset (menhir is
    deliberately not used — the grammar is small and LL(1)-friendly).

    Accepted form: optional [float A[e]...[e];] declarations followed by a
    single outer time loop whose body is one or more perfect spatial loop
    nests ending in array assignments, as in the paper's Figure 1. *)

exception Error of Lexer.pos * string

val program : string -> Ast.program
(** Parse a full source string. Raises [Error] (or [Lexer.Error]) with a
    position on malformed input. *)
