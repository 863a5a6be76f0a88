(** Flat register-machine tapes for batched statement evaluation.

    The closure-tree evaluator of [Schemes.Common.compile_stmt] pays a
    closure call per expression node per lane. A tape is the same
    expression flattened once into an array of register-to-register
    instructions whose per-lane order matches the closure interpreter's
    post-order walk exactly; it runs as a fused {!plan} over whole rows,
    so results are bit-identical.

    Tapes are built by [Schemes.Common] (which knows the statement) via
    {!make}; this module only defines the ISA, the planner and the plan
    evaluator. *)

type instr =
  | Const of { dst : int; v : float }
  | Neg of { dst : int; a : int }
  | Add of { dst : int; a : int; b : int }
  | Sub of { dst : int; a : int; b : int }
  | Mul of { dst : int; a : int; b : int }
  | Div of { dst : int; a : int; b : int }

type t = private {
  nsrcs : int;  (** registers [0..nsrcs-1] are load destinations *)
  nregs : int;
  result : int;  (** register holding the statement value *)
  instrs : instr array;
}

val lanes : int
(** Warp width (32): [sim.tape_instrs] counts a row's instructions once
    per warp chunk of this many lanes. *)

val make : nsrcs:int -> nregs:int -> result:int -> instrs:instr array -> t
(** Validates that every register index is in [0, nregs). *)

val length : t -> int
(** Instruction count (for the [sim.tape_instrs] counter). *)

(** {2 Fused run plans}

    Every statement row runs through a plan: live rows, replayed class
    members, and the analytic epilogue's derived blocks (billions of
    lanes on the paper's full-size instances). A {!plan} is the tape
    peephole-compiled into fused superinstructions (left-assoc sum
    windows, constant-factor multiplies, [a - k*b], [k1*a + k2*b]) that
    read sources directly from the grids, keep single-use intermediates
    in scratch-free fusion, and write the result straight to the output
    grid.

    Plans are bit-exact: each superinstruction performs exactly the
    float operations of the instruction subsequence it replaces, on the
    same operands in the same per-lane order — fusion removes memory
    materializations, never arithmetic — so [exec_plan] produces the
    IEEE doubles of evaluating the tape instruction by instruction. *)

type plan

val strip : int
(** Lane width of one fused pass (256): plans chunk a run internally, so
    callers pass whole rows of any length. *)

val plan : t -> plan

val pp_plan : plan Fmt.t
(** One [dst <- kind(operands)] entry per fused pass, [;]-separated:
    destinations are plan registers [rN] or [out]; operands are sources
    [sN], plan registers and [%h] constants. Kinds: [const], [copy],
    [neg], [add], [sub], [mul], [div], [sum3], [sum4], [kmul] ([k*a]),
    [mulk] ([a*k]), [axpby], [submulc]. *)

val plan_scratch_words : plan -> int
(** Scratch floats [exec_plan] needs: materialized registers × {!strip}. *)

val exec_plan :
  plan ->
  float array ->
  datas:float array array ->
  bases:int array ->
  dx:int ->
  n:int ->
  out:float array ->
  out_base:int ->
  unit
(** Evaluate [n] consecutive lanes (any [n >= 0]) with the given scratch
    (at least {!plan_scratch_words} floats; one per domain, never
    shared): lane [j] reads source [s] at
    [datas.(s).(bases.(s) + dx + j)] and stores the result to
    [out.(out_base + j)]. [out] may be a source array at that source's
    own base (an in-place self-read); any other overlap of [out] with a
    source is unsupported. Row endpoints of every source the plan reads
    and of the output are bounds-checked once up front; the fused loops
    then run unchecked, and the call allocates nothing. *)
