(* [exec] is the tape evaluated instruction by instruction over 32-lane
   structure-of-arrays registers: every source is blitted into scratch
   before any instruction runs, and the result register is blitted to
   the output last. It is the reference [Tape.exec_plan]'s fused plans
   must match bit for bit. *)

open Hextile_gpusim

let scratch (t : Tape.t) = Array.make (max 1 (t.nregs * Tape.lanes)) 0.0

let exec (t : Tape.t) regs ~(datas : float array array) ~(bases : int array) ~dx ~n
    ~(out : float array) ~out_base =
  let lanes = Tape.lanes in
  if n < 0 || n > lanes then invalid_arg "exec: n out of [0, 32]";
  if Array.length regs < t.nregs * lanes then invalid_arg "exec: scratch too small";
  for s = 0 to t.nsrcs - 1 do
    Array.blit datas.(s) (bases.(s) + dx) regs (s * lanes) n
  done;
  let bin dst a b f =
    for j = 0 to n - 1 do
      regs.((dst * lanes) + j) <- f regs.((a * lanes) + j) regs.((b * lanes) + j)
    done
  in
  Array.iter
    (function
      | Tape.Const { dst; v } -> Array.fill regs (dst * lanes) n v
      | Neg { dst; a } ->
          for j = 0 to n - 1 do
            regs.((dst * lanes) + j) <- -.regs.((a * lanes) + j)
          done
      | Add { dst; a; b } -> bin dst a b ( +. )
      | Sub { dst; a; b } -> bin dst a b ( -. )
      | Mul { dst; a; b } -> bin dst a b ( *. )
      | Div { dst; a; b } -> bin dst a b ( /. ))
    t.instrs;
  Array.blit regs (t.result * lanes) out out_base n

(* [exec] over [n] lanes in 32-lane chunks *)
let exec_chunked tape ~datas ~bases ~dx ~n ~out ~out_base =
  let regs = scratch tape in
  let c = ref 0 in
  while !c < n do
    let m = min Tape.lanes (n - !c) in
    exec tape regs ~datas ~bases ~dx:(dx + !c) ~n:m ~out ~out_base:(out_base + !c);
    c := !c + m
  done
