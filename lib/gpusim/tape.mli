(** Flat register-machine tapes for warp-batched statement evaluation.

    The closure-tree evaluator of [Schemes.Common.compile_stmt] pays a
    closure call per expression node per lane. A tape is the same
    expression flattened once into an array of register-to-register
    instructions evaluated over structure-of-arrays 32-lane buffers: one
    {!exec} call blits the statement's distinct reads into source
    registers, runs each instruction as a tight loop over the active
    lanes, and blits the result register back into the output grid.
    Per-lane evaluation order matches the closure interpreter's
    post-order walk exactly, so results are bit-identical.

    Tapes are built by [Schemes.Common] (which knows the statement and
    grid shapes) via {!make}; this module only defines the ISA and the
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
(** Warp width (32): the lane capacity of every register. *)

val make : nsrcs:int -> nregs:int -> result:int -> instrs:instr array -> t
(** Validates that every register index is in [0, nregs), so {!exec} can
    run without per-access bounds checks. *)

val length : t -> int
(** Instruction count (for the [sim.tape_instrs] counter). *)

type scratch = float array
(** Register file: [nregs * lanes] floats, register-major. Reused across
    rows; one per domain (never shared — see [Schemes.Common]). *)

val scratch : t -> scratch
val scratch_fits : t -> scratch -> bool

val exec :
  t ->
  scratch ->
  datas:float array array ->
  bases:int array ->
  dx:int ->
  n:int ->
  out:float array ->
  out_base:int ->
  unit
(** Evaluate [n <= lanes] consecutive lanes: source register [s] is
    loaded from [datas.(s).(bases.(s) + dx + j)] for lane [j], and the
    result register is stored to [out.(out_base + j)]. The caller
    guarantees (by validating the row's endpoints) that every
    [bases.(s) + dx .. bases.(s) + dx + n - 1] and
    [out_base .. out_base + n - 1] range is in bounds; [Array.blit]'s own
    checks backstop that invariant. *)

(** {2 Fused run plans}

    The analytic epilogue replays compute rows once per derived block —
    billions of lanes on the paper's full-size instances — so the
    per-lane constant of {!exec} (a scratch pass per source blit, per
    instruction and per result blit) is the simulation's dominant cost.
    A {!plan} is the tape peephole-compiled into fused superinstructions
    (left-assoc sum windows, constant-factor multiplies, [a - k*b],
    [k1*a + k2*b]) that read sources directly from the grids, keep
    single-use intermediates in scratch-free fusion, and write the
    result straight to the output grid.

    Plans are bit-exact: each superinstruction performs exactly the
    float operations of the instruction subsequence it replaces, on the
    same operands in the same per-lane order — fusion removes memory
    materializations, never arithmetic — so [exec_plan] and a {!exec}
    loop over the same lanes produce identical IEEE doubles. *)

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
  scratch ->
  datas:float array array ->
  bases:int array ->
  dx:int ->
  n:int ->
  out:float array ->
  out_base:int ->
  unit
(** Evaluate [n] consecutive lanes (any [n >= 0]): lane [j] reads source
    [s] at [datas.(s).(bases.(s) + dx + j)] and stores the result to
    [out.(out_base + j)] — the same addressing contract as {!exec}, but
    over a whole run instead of one warp. Row endpoints of every source
    the plan reads and of the output are bounds-checked once up front;
    the fused loops then run unchecked. *)
