(* Flat register-machine tapes: the batched statement evaluator.

   A tape is the closure-free form of one statement's right-hand side in
   SSA register form: registers 0..nsrcs-1 are the statement's distinct
   reads, the rest hold intermediate results, and instruction order per
   lane is exactly the closure interpreter's post-order walk. Tapes are
   executed only as fused run plans (below), which keep that per-lane
   operation order, so results are bit-identical IEEE doubles. *)

type instr =
  | Const of { dst : int; v : float }
  | Neg of { dst : int; a : int }
  | Add of { dst : int; a : int; b : int }
  | Sub of { dst : int; a : int; b : int }
  | Mul of { dst : int; a : int; b : int }
  | Div of { dst : int; a : int; b : int }

type t = { nsrcs : int; nregs : int; result : int; instrs : instr array }

let lanes = 32

let make ~nsrcs ~nregs ~result ~instrs =
  let check_reg what r =
    if r < 0 || r >= nregs then
      invalid_arg (Fmt.str "Tape.make: %s register %d out of [0, %d)" what r nregs)
  in
  if nsrcs < 0 || nsrcs > nregs then invalid_arg "Tape.make: nsrcs out of range";
  check_reg "result" result;
  Array.iter
    (function
      | Const { dst; _ } -> check_reg "dst" dst
      | Neg { dst; a } ->
          check_reg "dst" dst;
          check_reg "src" a
      | Add { dst; a; b } | Sub { dst; a; b } | Mul { dst; a; b } | Div { dst; a; b }
        ->
          check_reg "dst" dst;
          check_reg "src" a;
          check_reg "src" b)
    instrs;
  { nsrcs; nregs; result; instrs }

let length t = Array.length t.instrs

(* ---- fused run plans -------------------------------------------------

   Every statement row — live, replayed or derived by the analytic
   epilogue (billions of statement instances on the full-size paper
   grids) — runs through a plan: the tape peephole-compiled into fused
   superinstructions that read sources in place from the grids, keep
   single-use intermediates out of scratch entirely, and store the
   result straight into the output grid.

   Bit-exactness: every superinstruction evaluates exactly the float
   operations of the scalar instruction sequence it replaces, on the
   same operands in the same per-lane order — fusion only eliminates
   materializations of single-use intermediates (a memory round-trip,
   not an arithmetic op), and multiplications keep their original
   operand order, so plan execution is IEEE-identical to evaluating the
   tape instruction by instruction (the test suite keeps that
   evaluator as the reference).

   Aliasing: only the final pass writes the output, and lane j reads
   every source at lane j before storing it, so [out] may be a source
   array at the same base (the in-place self-read, [A[x] = f(A[x], ..)]).
   A source at another base of [out] would race; [Stencil.validate]
   rejects the statements that need one. *)

type pop = Psrc of int | Preg of int
type pdst = Dreg of int | Dout
type pbinop = Badd | Bsub | Bmul | Bdiv

type pinstr =
  | P_const of { dst : pdst; v : float }
  | P_copy of { dst : pdst; a : pop }
  | P_neg of { dst : pdst; a : pop }
  | P_bin of { op : pbinop; dst : pdst; a : pop; b : pop }
  | P_sum3 of { dst : pdst; a : pop; b : pop; c : pop }
      (** [(a + b) + c] *)
  | P_sum4 of { dst : pdst; a : pop; b : pop; c : pop; d : pop }
      (** [((a + b) + c) + d] *)
  | P_mulc of { dst : pdst; k : float; a : pop; kleft : bool }
      (** [k *. a] when [kleft], else [a *. k] *)
  | P_axpby of { dst : pdst; ka : float; a : pop; kb : float; b : pop }
      (** [(ka *. a) +. (kb *. b)], both constants left operands *)
  | P_submulc of { dst : pdst; a : pop; k : float; b : pop }
      (** [a -. (k *. b)] *)

type plan = {
  pinstrs : pinstr array;
  pregs : int;  (** materialized plan registers (scratch is pregs*strip) *)
  psrcs : int array;  (** distinct source registers the plan reads *)
}

(* Strip width of plan execution: wide enough to amortize pass setup,
   small enough that the whole register file stays in L1
   (pregs * 256 * 8 bytes). Re-measured with the unrolled kernels on
   laplacian2d's plan over a hot 640^2 grid: 64 and 128 cost 10-25% more
   per point than 256, and 512..2048 stay within the run-to-run noise of
   256. *)
let strip = 256

(* pending value descriptions during planning: what a (single-use) tape
   register holds before anything is materialized for it *)
type pdesc =
  | Atom of pop
  | Kconst of float
  | Sum of pop list  (** left-assoc chain, reversed (head = last term) *)
  | Mulc of { k : float; a : pop; kleft : bool }

let plan (t : t) =
  (* operand use counts, plus one use of [result] for the final store *)
  let uses = Array.make t.nregs 0 in
  let use r = uses.(r) <- uses.(r) + 1 in
  Array.iter
    (function
      | Const _ -> ()
      | Neg { a; _ } -> use a
      | Add { a; b; _ } | Sub { a; b; _ } | Mul { a; b; _ } | Div { a; b; _ }
        ->
          use a;
          use b)
    t.instrs;
  use t.result;
  let desc : pdesc option array = Array.make (max 1 t.nregs) None in
  for s = 0 to t.nsrcs - 1 do
    desc.(s) <- Some (Atom (Psrc s))
  done;
  let out = ref [] and nout = ref 0 in
  let emit p =
    out := p :: !out;
    incr nout
  in
  let nreg = ref 0 in
  let fresh () =
    let r = !nreg in
    incr nreg;
    r
  in
  (* materialize a description into [dst] as fused passes; sums chunk
     into sum4/sum3 windows, accumulating in place (reading and writing
     the same plan register within a pass is per-lane safe) *)
  let emit_desc d ~(dst : pdst) =
    match d with
    | Atom a -> emit (P_copy { dst; a })
    | Kconst v -> emit (P_const { dst; v })
    | Mulc { k; a; kleft } -> emit (P_mulc { dst; k; a; kleft })
    | Sum rev_terms ->
        let ts = Array.of_list (List.rev rev_terms) in
        let n = Array.length ts in
        let acc = lazy (fresh ()) in
        let target rem = if rem = 0 then dst else Dreg (Lazy.force acc) in
        (* first window: 2..4 leading terms *)
        let take0 = min 4 n in
        (match take0 with
        | 2 -> emit (P_bin { op = Badd; dst = target (n - 2); a = ts.(0); b = ts.(1) })
        | 3 ->
            emit (P_sum3 { dst = target (n - 3); a = ts.(0); b = ts.(1); c = ts.(2) })
        | _ ->
            emit
              (P_sum4
                 { dst = target (n - 4); a = ts.(0); b = ts.(1); c = ts.(2); d = ts.(3) }));
        let i = ref take0 in
        while !i < n do
          let a = Preg (Lazy.force acc) in
          let take = min 3 (n - !i) in
          let rem = n - !i - take in
          (match take with
          | 1 -> emit (P_bin { op = Badd; dst = target rem; a; b = ts.(!i) })
          | 2 -> emit (P_sum3 { dst = target rem; a; b = ts.(!i); c = ts.(!i + 1) })
          | _ ->
              emit
                (P_sum4
                   { dst = target rem; a; b = ts.(!i); c = ts.(!i + 1); d = ts.(!i + 2) }));
          i := !i + take
        done
  in
  (* resolve a tape register to an atomic operand, materializing any
     pending multi-use description exactly once *)
  let atomize r =
    match desc.(r) with
    | Some (Atom a) -> a
    | Some d ->
        let pr = fresh () in
        emit_desc d ~dst:(Dreg pr);
        let a = Preg pr in
        desc.(r) <- Some (Atom a);
        a
    | None -> invalid_arg "Tape.plan: operand read before definition"
  in
  (* a defined value stays pending only while its sole consumer can fuse
     it; multi-use values materialize at definition *)
  let define dst d =
    if uses.(dst) <= 1 then desc.(dst) <- Some d
    else begin
      let pr = fresh () in
      emit_desc d ~dst:(Dreg pr);
      desc.(dst) <- Some (Atom (Preg pr))
    end
  in
  (* single-use pending description of [r], if any (consumable by a
     fusing pattern); multi-use registers always go through [atomize] *)
  let pending r =
    if uses.(r) > 1 then None
    else
      match desc.(r) with
      | Some (Atom _) | None -> None
      | Some d -> Some d
  in
  Array.iter
    (fun ins ->
      match ins with
      | Const { dst; v } -> define dst (Kconst v)
      | Neg { dst; a } ->
          let pa = atomize a in
          let pr = fresh () in
          emit (P_neg { dst = Dreg pr; a = pa });
          desc.(dst) <- Some (Atom (Preg pr))
      | Add { dst; a; b } -> (
          match (pending a, pending b) with
          | Some (Mulc { k = ka; a = xa; kleft = true }), Some (Mulc { k = kb; a = xb; kleft = true }) ->
              (* (ka*x) + (kb*y) in one pass *)
              let pr = fresh () in
              emit (P_axpby { dst = Dreg pr; ka; a = xa; kb; b = xb });
              desc.(a) <- None;
              desc.(b) <- None;
              desc.(dst) <- Some (Atom (Preg pr))
          | pa, _ ->
              (* grow (or start) a left-assoc sum chain *)
              let terms =
                match pa with
                | Some (Sum ts) ->
                    desc.(a) <- None;
                    ts
                | _ -> [ atomize a ]
              in
              let pb = atomize b in
              define dst (Sum (pb :: terms)))
      | Sub { dst; a; b } -> (
          match pending b with
          | Some (Mulc { k; a = x; kleft = true }) ->
              let pa = atomize a in
              desc.(b) <- None;
              let pr = fresh () in
              emit (P_submulc { dst = Dreg pr; a = pa; k; b = x });
              desc.(dst) <- Some (Atom (Preg pr))
          | _ ->
              let pa = atomize a in
              let pb = atomize b in
              let pr = fresh () in
              emit (P_bin { op = Bsub; dst = Dreg pr; a = pa; b = pb });
              desc.(dst) <- Some (Atom (Preg pr)))
      | Mul { dst; a; b } -> (
          match (pending a, pending b) with
          | Some (Kconst k), _ ->
              desc.(a) <- None;
              let pb = atomize b in
              define dst (Mulc { k; a = pb; kleft = true })
          | _, Some (Kconst k) ->
              let pa = atomize a in
              desc.(b) <- None;
              define dst (Mulc { k; a = pa; kleft = false })
          | _ ->
              let pa = atomize a in
              let pb = atomize b in
              let pr = fresh () in
              emit (P_bin { op = Bmul; dst = Dreg pr; a = pa; b = pb });
              desc.(dst) <- Some (Atom (Preg pr)))
      | Div { dst; a; b } ->
          let pa = atomize a in
          let pb = atomize b in
          let pr = fresh () in
          emit (P_bin { op = Bdiv; dst = Dreg pr; a = pa; b = pb });
          desc.(dst) <- Some (Atom (Preg pr)))
    t.instrs;
  (* the result value's last pass targets the output grid directly: a
     still-pending description materializes to [Dout]; an atom either
     rewrites its defining pass's destination (when nothing else reads
     that register) or copies *)
  let instrs =
    match desc.(t.result) with
    | Some (Atom (Preg r)) ->
        let body = Array.of_list (List.rev !out) in
        let reads_r p =
          let opr = function Preg r' -> r' = r | Psrc _ -> false in
          match p with
          | P_const _ -> false
          | P_copy { a; _ } | P_neg { a; _ } | P_mulc { a; _ } -> opr a
          | P_bin { a; b; _ } | P_axpby { a; b; _ } | P_submulc { a; b; _ } ->
              opr a || opr b
          | P_sum3 { a; b; c; _ } -> opr a || opr b || opr c
          | P_sum4 { a; b; c; d; _ } -> opr a || opr b || opr c || opr d
        in
        let redst p =
          match p with
          | P_const c -> P_const { c with dst = Dout }
          | P_copy c -> P_copy { c with dst = Dout }
          | P_neg c -> P_neg { c with dst = Dout }
          | P_bin c -> P_bin { c with dst = Dout }
          | P_sum3 c -> P_sum3 { c with dst = Dout }
          | P_sum4 c -> P_sum4 { c with dst = Dout }
          | P_mulc c -> P_mulc { c with dst = Dout }
          | P_axpby c -> P_axpby { c with dst = Dout }
          | P_submulc c -> P_submulc { c with dst = Dout }
        in
        (* the defining pass is the last writing Dreg r; rewrite it iff
           it is the final pass and no pass reads r (a sum accumulator
           both reads and writes r mid-chain, which must stay in regs) *)
        let n = Array.length body in
        let dst_is_r p =
          let d =
            match p with
            | P_const { dst; _ } | P_copy { dst; _ } | P_neg { dst; _ }
            | P_bin { dst; _ } | P_sum3 { dst; _ } | P_sum4 { dst; _ }
            | P_mulc { dst; _ } | P_axpby { dst; _ } | P_submulc { dst; _ } ->
                dst
          in
          match d with Dreg r' -> r' = r | Dout -> false
        in
        if n > 0 && dst_is_r body.(n - 1) && not (Array.exists reads_r body)
        then begin
          body.(n - 1) <- redst body.(n - 1);
          body
        end
        else Array.append body [| P_copy { dst = Dout; a = Preg r } |]
    | Some d ->
        emit_desc d ~dst:Dout;
        Array.of_list (List.rev !out)
    | None -> invalid_arg "Tape.plan: result register never defined"
  in
  let srcs = Array.make t.nsrcs false in
  let mark = function Psrc s -> srcs.(s) <- true | Preg _ -> () in
  Array.iter
    (function
      | P_const _ -> ()
      | P_copy { a; _ } | P_neg { a; _ } | P_mulc { a; _ } -> mark a
      | P_bin { a; b; _ } | P_axpby { a; b; _ } | P_submulc { a; b; _ } ->
          mark a;
          mark b
      | P_sum3 { a; b; c; _ } ->
          mark a;
          mark b;
          mark c
      | P_sum4 { a; b; c; d; _ } ->
          mark a;
          mark b;
          mark c;
          mark d)
    instrs;
  let psrcs = ref [] in
  for s = t.nsrcs - 1 downto 0 do
    if srcs.(s) then psrcs := s :: !psrcs
  done;
  {
    pinstrs = instrs;
    pregs = !nreg;
    psrcs = Array.of_list !psrcs;
  }

let plan_scratch_words p = max 1 (p.pregs * strip)

(* Unchecked float-array access for the strip kernels below. Declared
   as externals at the concrete float type so every use compiles to an
   inline unboxed load or store, exactly like [Array.unsafe_get]/
   [Array.unsafe_set] on a [float array]. *)
external ( .!() ) : float array -> int -> float = "%array_unsafe_get"
external ( .!()<- ) : float array -> int -> float -> unit = "%array_unsafe_set"

(* Operand and destination resolution, applied once per pass of a
   strip. Top-level and fully applied, so the per-call setup of
   [exec_plan] allocates nothing (local closures over the row's arrays
   would be allocated on every call and strip). *)
let arr_of datas regs = function Psrc s -> datas.(s) | Preg _ -> regs
let off_of bases at = function Psrc s -> bases.(s) + at | Preg r -> r * strip
let darr_of regs out = function Dreg _ -> regs | Dout -> out
let doff_of at = function Dreg r -> r * strip | Dout -> at

(* Every strip kernel is a main loop of 4 written-out element statements
   followed by a scalar tail. Without flambda, a one-element loop reloads
   its spilled operand bases and polls once per element; unrolled x4,
   laplacian2d's two-pass plan costs ~2.5 instead of ~6 ns per point
   (hot-cache microbenchmark; DESIGN.md has the numbers). The statements
   are spelled out on purpose: reading through a local helper (say
   [let g v o k = v.!(o + k)]) is not inlined, and doing so in the sum4
   kernel alone made the whole plan 1.4-2x slower. Each element
   statement reads its operands and stores its result before the next
   element starts, and keeps the scalar operation order, so results (and
   the in-place accumulator passes, whose destination is their first
   operand) are bit-identical to the one-element loops. *)
let exec_plan p (regs : float array) ~(datas : float array array)
    ~(bases : int array) ~dx ~n ~(out : float array) ~out_base =
  if n < 0 then invalid_arg "Tape.exec_plan: negative n";
  (* one bounds pass over the whole run backstops the callers' row
     validation; the strip loops below then run unchecked *)
  let psrcs = p.psrcs in
  for k = 0 to Array.length psrcs - 1 do
    let s = psrcs.(k) in
    let b = bases.(s) + dx in
    if b < 0 || b + n > Array.length datas.(s) then
      invalid_arg "Tape.exec_plan: source row out of bounds"
  done;
  if out_base < 0 || out_base + n > Array.length out then
    invalid_arg "Tape.exec_plan: output row out of bounds";
  if Array.length regs < p.pregs * strip then
    invalid_arg "Tape.exec_plan: scratch too small";
  let i = ref 0 in
  while !i < n do
    let i0 = !i in
    let nl = min strip (n - i0) in
    (* first lane of the scalar tail *)
    let nq = nl land lnot 3 in
    let at = dx + i0 and dat = out_base + i0 in
    let pi = p.pinstrs in
    for k = 0 to Array.length pi - 1 do
      match Array.unsafe_get pi k with
      | P_const { dst; v } -> Array.fill (darr_of regs out dst) (doff_of dat dst) nl v
      | P_copy { dst; a } ->
          Array.blit (arr_of datas regs a) (off_of bases at a) (darr_of regs out dst)
            (doff_of dat dst) nl
      | P_neg { dst; a } ->
          let av = arr_of datas regs a and ao = off_of bases at a in
          let ev = darr_of regs out dst and eo = doff_of dat dst in
          for q = 0 to (nl lsr 2) - 1 do
            let j = q lsl 2 in
            let ao = ao + j and eo = eo + j in
            ev.!(eo) <- -.av.!(ao);
            ev.!(eo + 1) <- -.av.!(ao + 1);
            ev.!(eo + 2) <- -.av.!(ao + 2);
            ev.!(eo + 3) <- -.av.!(ao + 3)
          done;
          for j = nq to nl - 1 do
            ev.!(eo + j) <- -.av.!(ao + j)
          done
      | P_bin { op; dst; a; b } -> (
          let av = arr_of datas regs a and ao = off_of bases at a in
          let bv = arr_of datas regs b and bo = off_of bases at b in
          let ev = darr_of regs out dst and eo = doff_of dat dst in
          match op with
          | Badd ->
              for q = 0 to (nl lsr 2) - 1 do
                let j = q lsl 2 in
                let ao = ao + j and bo = bo + j and eo = eo + j in
                ev.!(eo) <- av.!(ao) +. bv.!(bo);
                ev.!(eo + 1) <- av.!(ao + 1) +. bv.!(bo + 1);
                ev.!(eo + 2) <- av.!(ao + 2) +. bv.!(bo + 2);
                ev.!(eo + 3) <- av.!(ao + 3) +. bv.!(bo + 3)
              done;
              for j = nq to nl - 1 do
                ev.!(eo + j) <- av.!(ao + j) +. bv.!(bo + j)
              done
          | Bsub ->
              for q = 0 to (nl lsr 2) - 1 do
                let j = q lsl 2 in
                let ao = ao + j and bo = bo + j and eo = eo + j in
                ev.!(eo) <- av.!(ao) -. bv.!(bo);
                ev.!(eo + 1) <- av.!(ao + 1) -. bv.!(bo + 1);
                ev.!(eo + 2) <- av.!(ao + 2) -. bv.!(bo + 2);
                ev.!(eo + 3) <- av.!(ao + 3) -. bv.!(bo + 3)
              done;
              for j = nq to nl - 1 do
                ev.!(eo + j) <- av.!(ao + j) -. bv.!(bo + j)
              done
          | Bmul ->
              for q = 0 to (nl lsr 2) - 1 do
                let j = q lsl 2 in
                let ao = ao + j and bo = bo + j and eo = eo + j in
                ev.!(eo) <- av.!(ao) *. bv.!(bo);
                ev.!(eo + 1) <- av.!(ao + 1) *. bv.!(bo + 1);
                ev.!(eo + 2) <- av.!(ao + 2) *. bv.!(bo + 2);
                ev.!(eo + 3) <- av.!(ao + 3) *. bv.!(bo + 3)
              done;
              for j = nq to nl - 1 do
                ev.!(eo + j) <- av.!(ao + j) *. bv.!(bo + j)
              done
          | Bdiv ->
              for q = 0 to (nl lsr 2) - 1 do
                let j = q lsl 2 in
                let ao = ao + j and bo = bo + j and eo = eo + j in
                ev.!(eo) <- av.!(ao) /. bv.!(bo);
                ev.!(eo + 1) <- av.!(ao + 1) /. bv.!(bo + 1);
                ev.!(eo + 2) <- av.!(ao + 2) /. bv.!(bo + 2);
                ev.!(eo + 3) <- av.!(ao + 3) /. bv.!(bo + 3)
              done;
              for j = nq to nl - 1 do
                ev.!(eo + j) <- av.!(ao + j) /. bv.!(bo + j)
              done)
      | P_sum3 { dst; a; b; c } ->
          let av = arr_of datas regs a and ao = off_of bases at a in
          let bv = arr_of datas regs b and bo = off_of bases at b in
          let cv = arr_of datas regs c and co = off_of bases at c in
          let ev = darr_of regs out dst and eo = doff_of dat dst in
          for q = 0 to (nl lsr 2) - 1 do
            let j = q lsl 2 in
            let ao = ao + j and bo = bo + j and co = co + j and eo = eo + j in
            ev.!(eo) <- av.!(ao) +. bv.!(bo) +. cv.!(co);
            ev.!(eo + 1) <- av.!(ao + 1) +. bv.!(bo + 1) +. cv.!(co + 1);
            ev.!(eo + 2) <- av.!(ao + 2) +. bv.!(bo + 2) +. cv.!(co + 2);
            ev.!(eo + 3) <- av.!(ao + 3) +. bv.!(bo + 3) +. cv.!(co + 3)
          done;
          for j = nq to nl - 1 do
            ev.!(eo + j) <- av.!(ao + j) +. bv.!(bo + j) +. cv.!(co + j)
          done
      | P_sum4 { dst; a; b; c; d } ->
          let av = arr_of datas regs a and ao = off_of bases at a in
          let bv = arr_of datas regs b and bo = off_of bases at b in
          let cv = arr_of datas regs c and co = off_of bases at c in
          let dv = arr_of datas regs d and d_o = off_of bases at d in
          let ev = darr_of regs out dst and eo = doff_of dat dst in
          for q = 0 to (nl lsr 2) - 1 do
            let j = q lsl 2 in
            let ao = ao + j and bo = bo + j and co = co + j and d_o = d_o + j and eo = eo + j in
            ev.!(eo) <- av.!(ao) +. bv.!(bo) +. cv.!(co) +. dv.!(d_o);
            ev.!(eo + 1) <- av.!(ao + 1) +. bv.!(bo + 1) +. cv.!(co + 1) +. dv.!(d_o + 1);
            ev.!(eo + 2) <- av.!(ao + 2) +. bv.!(bo + 2) +. cv.!(co + 2) +. dv.!(d_o + 2);
            ev.!(eo + 3) <- av.!(ao + 3) +. bv.!(bo + 3) +. cv.!(co + 3) +. dv.!(d_o + 3)
          done;
          for j = nq to nl - 1 do
            ev.!(eo + j) <- av.!(ao + j) +. bv.!(bo + j) +. cv.!(co + j) +. dv.!(d_o + j)
          done
      | P_mulc { dst; k; a; kleft } ->
          let av = arr_of datas regs a and ao = off_of bases at a in
          let ev = darr_of regs out dst and eo = doff_of dat dst in
          if kleft then begin
            for q = 0 to (nl lsr 2) - 1 do
              let j = q lsl 2 in
              let ao = ao + j and eo = eo + j in
              ev.!(eo) <- k *. av.!(ao);
              ev.!(eo + 1) <- k *. av.!(ao + 1);
              ev.!(eo + 2) <- k *. av.!(ao + 2);
              ev.!(eo + 3) <- k *. av.!(ao + 3)
            done;
            for j = nq to nl - 1 do
              ev.!(eo + j) <- k *. av.!(ao + j)
            done
          end
          else begin
            for q = 0 to (nl lsr 2) - 1 do
              let j = q lsl 2 in
              let ao = ao + j and eo = eo + j in
              ev.!(eo) <- av.!(ao) *. k;
              ev.!(eo + 1) <- av.!(ao + 1) *. k;
              ev.!(eo + 2) <- av.!(ao + 2) *. k;
              ev.!(eo + 3) <- av.!(ao + 3) *. k
            done;
            for j = nq to nl - 1 do
              ev.!(eo + j) <- av.!(ao + j) *. k
            done
          end
      | P_axpby { dst; ka; a; kb; b } ->
          let av = arr_of datas regs a and ao = off_of bases at a in
          let bv = arr_of datas regs b and bo = off_of bases at b in
          let ev = darr_of regs out dst and eo = doff_of dat dst in
          for q = 0 to (nl lsr 2) - 1 do
            let j = q lsl 2 in
            let ao = ao + j and bo = bo + j and eo = eo + j in
            ev.!(eo) <- (ka *. av.!(ao)) +. (kb *. bv.!(bo));
            ev.!(eo + 1) <- (ka *. av.!(ao + 1)) +. (kb *. bv.!(bo + 1));
            ev.!(eo + 2) <- (ka *. av.!(ao + 2)) +. (kb *. bv.!(bo + 2));
            ev.!(eo + 3) <- (ka *. av.!(ao + 3)) +. (kb *. bv.!(bo + 3))
          done;
          for j = nq to nl - 1 do
            ev.!(eo + j) <- (ka *. av.!(ao + j)) +. (kb *. bv.!(bo + j))
          done
      | P_submulc { dst; a; k; b } ->
          let av = arr_of datas regs a and ao = off_of bases at a in
          let bv = arr_of datas regs b and bo = off_of bases at b in
          let ev = darr_of regs out dst and eo = doff_of dat dst in
          for q = 0 to (nl lsr 2) - 1 do
            let j = q lsl 2 in
            let ao = ao + j and bo = bo + j and eo = eo + j in
            ev.!(eo) <- av.!(ao) -. (k *. bv.!(bo));
            ev.!(eo + 1) <- av.!(ao + 1) -. (k *. bv.!(bo + 1));
            ev.!(eo + 2) <- av.!(ao + 2) -. (k *. bv.!(bo + 2));
            ev.!(eo + 3) <- av.!(ao + 3) -. (k *. bv.!(bo + 3))
          done;
          for j = nq to nl - 1 do
            ev.!(eo + j) <- av.!(ao + j) -. (k *. bv.!(bo + j))
          done
    done;
    i := i0 + nl
  done

let pp_plan ppf p =
  let op ppf = function
    | Psrc s -> Fmt.pf ppf "s%d" s
    | Preg r -> Fmt.pf ppf "r%d" r
  in
  let pass ppf pi =
    let dst, name, args =
      match pi with
      | P_const { dst; v } -> (dst, "const", Fmt.str "%h" v)
      | P_copy { dst; a } -> (dst, "copy", Fmt.str "%a" op a)
      | P_neg { dst; a } -> (dst, "neg", Fmt.str "%a" op a)
      | P_bin { op = o; dst; a; b } ->
          let name =
            match o with Badd -> "add" | Bsub -> "sub" | Bmul -> "mul" | Bdiv -> "div"
          in
          (dst, name, Fmt.str "%a, %a" op a op b)
      | P_sum3 { dst; a; b; c } -> (dst, "sum3", Fmt.str "%a, %a, %a" op a op b op c)
      | P_sum4 { dst; a; b; c; d } ->
          (dst, "sum4", Fmt.str "%a, %a, %a, %a" op a op b op c op d)
      | P_mulc { dst; k; a; kleft = true } -> (dst, "kmul", Fmt.str "%h, %a" k op a)
      | P_mulc { dst; k; a; kleft = false } -> (dst, "mulk", Fmt.str "%a, %h" op a k)
      | P_axpby { dst; ka; a; kb; b } ->
          (dst, "axpby", Fmt.str "%h, %a, %h, %a" ka op a kb op b)
      | P_submulc { dst; a; k; b } ->
          (dst, "submulc", Fmt.str "%a, %h, %a" op a k op b)
    in
    (match dst with Dreg r -> Fmt.pf ppf "r%d" r | Dout -> Fmt.string ppf "out");
    Fmt.pf ppf " <- %s(%s)" name args
  in
  Fmt.(array ~sep:semi pass) ppf p.pinstrs
