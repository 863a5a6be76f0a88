(** Greedy counterexample shrinking.

    Starting from a failing (program, valuation) pair, repeatedly try
    smaller candidates — fewer statements, halved/decremented parameter
    values, unused arrays dropped, right-hand-side subtrees hoisted,
    offsets moved toward zero — and keep the first candidate that is
    still valid ({!valid}) and still fails the caller's predicate. Stops
    at a fixed point or after [max_checks] predicate evaluations (each
    evaluation typically re-runs the differential oracle, so the bound
    caps total work). *)

open Hextile_ir

val valid : Stencil.t -> (string * int) list -> bool
(** [Stencil.validate] (the input envelope included) and
    [Analysis.bounds_check] under the valuation: the programs on which
    the oracle's verdict is meaningful. *)

val candidates :
  Stencil.t -> (string * int) list -> (Stencil.t * (string * int) list) list
(** One round of strictly-smaller variants, biggest reductions first.
    Not filtered for validity. *)

val shrink :
  ?max_checks:int ->
  still_fails:(Stencil.t -> (string * int) list -> bool) ->
  Stencil.t ->
  (string * int) list ->
  Stencil.t * (string * int) list
(** Greedy fixpoint; [max_checks] defaults to 200. The result satisfies
    [still_fails] (the input is returned unchanged if no candidate
    does). *)
