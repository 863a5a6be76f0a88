(* Property test for the analytic epilogue's bulk grid reconstruction:
   executing a class's compute rows through [Common.compile_rows] /
   [Common.exec_rows] — which sorts the rows, coalesces contiguous
   same-(statement, tstep) extents into long runs and executes them
   through the statement's fused tape plan — must reproduce, bit for
   bit, the exact per-row replay ([exec_row_ref] below) on randomized
   class extents: randomly segmented rows (adjacent
   segments must merge), randomly gapped and clipped boundary rows (gaps
   break contiguity, so those rows must take the single-row fallback),
   and randomly shuffled within-tstep input order (the internal sort
   must restore a dependency-safe schedule). *)

module Common = Hextile_schemes.Common
module Grid = Hextile_ir.Grid
module Stencil = Hextile_ir.Stencil
module Suite = Hextile_stencils.Suite
module Device = Hextile_gpusim.Device

let n_env = 32

(* The reference: each row evaluated lane by lane straight from the
   statement's right-hand side, source [i] being the [i]-th of
   [Stencil.distinct_reads] (the tape's register order) at flat word
   [src_flats.(i)], counting the instances toward [ctx.updates]. *)
let exec_row_ref (ctx : Common.ctx) ~stmt_idx ~wflat ~src_flats ~n =
  let s = ctx.Common.stmts.(stmt_idx) in
  let reads = Array.of_list (Stencil.distinct_reads s) in
  let data (a : Stencil.access) = (Grid.find ctx.Common.grids a.array).Grid.data in
  let src a =
    let i = ref 0 in
    while reads.(!i) <> a do
      incr i
    done;
    (data a, src_flats.(!i))
  in
  let out = data s.write in
  for j = 0 to n - 1 do
    let rec eval : Stencil.fexpr -> float = function
      | Read a ->
          let d, base = src a in
          d.(base + j)
      | Fconst v -> v
      | Neg e -> -.eval e
      | Bin (op, l, r) -> (
          let a = eval l in
          let b = eval r in
          match op with
          | Add -> a +. b
          | Sub -> a -. b
          | Mul -> a *. b
          | Div -> a /. b)
    in
    out.(wflat + j) <- eval s.rhs
  done;
  ignore (Atomic.fetch_and_add ctx.Common.updates n)

let env p = List.assoc p [ ("N", n_env); ("T", 8) ]

(* Randomized rows over laplacian2d's folded array A (fold 2): per
   tstep, writes target one fold plane and every source reads the other,
   so rows of one tstep have disjoint writes and never read a cell
   another row of the same tstep writes — exactly the invariant the
   executor's recorded streams satisfy and the blit reorder relies on. *)
type case = {
  rows : (int * int * int * int array * int) list;
  segments : int;  (** total generated segments *)
  mergeable : int;  (** adjacent same-y segment pairs (must coalesce) *)
  gaps : int;  (** dropped/clipped segments forcing the fallback *)
}

let gen_case rand =
  let prog = Suite.laplacian2d in
  let stmt = List.hd prog.Stencil.stmts in
  let nsrc = List.length (Stencil.distinct_reads stmt) in
  (* probe grid geometry through a throwaway ctx *)
  let ctx = Common.make_ctx prog env Device.gtx470 in
  let g = Grid.find ctx.Common.grids stmt.Stencil.write.Stencil.array in
  let nd = Array.length g.Grid.dims in
  let w = g.Grid.dims.(nd - 1) in
  let h = g.Grid.dims.(nd - 2) in
  let plane = w * h in
  let rows = ref [] and segments = ref 0 and mergeable = ref 0 and gaps = ref 0 in
  let ntsteps = 1 + QCheck.Gen.int_bound 2 rand in
  for tstep = 0 to ntsteps - 1 do
    let wbase = (tstep + 1) mod 2 * plane and rbase = tstep mod 2 * plane in
    let trows = ref [] in
    let ny = QCheck.Gen.int_bound 3 rand + 1 in
    (* distinct rows only: duplicate y would overlap writes within a
       tstep, which recorded streams never do (and reorder would not be
       exact there) *)
    let used = Hashtbl.create 8 in
    for _ = 1 to ny do
      let y = ref (1 + QCheck.Gen.int_bound (h - 3) rand) in
      while Hashtbl.mem used !y do
        y := 1 + (!y mod (h - 2))
      done;
      Hashtbl.add used !y ();
      let y = !y in
      (* random segmentation of the row interior [1, w-2-nsrc] *)
      let x = ref 1 and prev_kept = ref false in
      while !x <= w - 2 - nsrc do
        let len = 1 + QCheck.Gen.int_bound 6 rand in
        let len = min len (w - 1 - nsrc - !x) in
        if len > 0 then begin
          (* clip/drop ~1 in 4 segments: the gap breaks contiguity and
             the neighbours must fall back to single-row runs *)
          if QCheck.Gen.int_bound 3 rand = 0 then begin
            incr gaps;
            prev_kept := false
          end
          else begin
            let wflat = wbase + (y * w) + !x in
            let srcs = Array.init nsrc (fun i -> rbase + (y * w) + !x + i) in
            trows := (0, tstep, wflat, srcs, len) :: !trows;
            incr segments;
            if !prev_kept then incr mergeable;
            prev_kept := true
          end
        end;
        x := !x + max len 1
      done
    done;
    (* shuffle within the tstep: input order must not matter *)
    let arr = Array.of_list !trows in
    for i = Array.length arr - 1 downto 1 do
      let j = QCheck.Gen.int_bound i rand in
      let t = arr.(i) in
      arr.(i) <- arr.(j);
      arr.(j) <- t
    done;
    (* keep tsteps ascending, as recorded streams do *)
    rows := !rows @ Array.to_list arr
  done;
  { rows = !rows; segments = !segments; mergeable = !mergeable; gaps = !gaps }

let arb_case =
  QCheck.make
    ~print:(fun c ->
      Printf.sprintf "%d rows (%d mergeable pairs, %d gaps)"
        (List.length c.rows) c.mergeable c.gaps)
    gen_case

(* cross-case witnesses that the generator exercised both regimes *)
let saw_merge = ref false
let saw_fallback = ref false

let prop_blit_equals_row_replay =
  QCheck.Test.make ~name:"blit reconstruction = per-row tape replay" ~count:60
    arb_case (fun { rows; segments; mergeable; gaps = _ } ->
      if rows = [] then true
      else begin
        let prog = Suite.laplacian2d in
        let dev = Device.gtx470 in
        (* reference: exact per-row replay, in input (stream) order *)
        let ctx_ref = Common.make_ctx prog env dev in
        List.iter
          (fun (stmt_idx, _tstep, wflat, srcs, n) ->
            exec_row_ref ctx_ref ~stmt_idx ~wflat ~src_flats:srcs ~n)
          rows;
        (* blit path: sort + coalesce + fused-plan runs *)
        let ctx_blit = Common.make_ctx prog env dev in
        let crows = Common.compile_rows ctx_blit rows in
        Common.exec_rows ctx_blit crows ~off:0;
        let nruns, nrows, blit = Common.rows_stats crows in
        if nrows <> segments then
          QCheck.Test.fail_reportf "rows_stats rows %d <> generated %d" nrows
            segments;
        (* every adjacent kept pair coalesces: runs = rows - merged pairs *)
        if nruns <> segments - mergeable then
          QCheck.Test.fail_reportf
            "expected %d runs (%d rows - %d mergeable pairs), got %d"
            (segments - mergeable) segments mergeable nruns;
        (* blit counts rows retired through multi-row runs; the rest
           stayed single-row fallback runs *)
        if blit > 0 then saw_merge := true;
        if nrows > blit then saw_fallback := true;
        (* grids bit-identical *)
        Hashtbl.iter
          (fun name g ->
            let g' = Grid.find ctx_blit.Common.grids name in
            if not (Grid.equal g g') then
              QCheck.Test.fail_reportf "grid %s diverges" name)
          ctx_ref.Common.grids;
        (* instance counter bit-identical *)
        if Atomic.get ctx_ref.Common.updates <> Atomic.get ctx_blit.Common.updates
        then
          QCheck.Test.fail_reportf "updates diverge: %d vs %d"
            (Atomic.get ctx_ref.Common.updates)
            (Atomic.get ctx_blit.Common.updates);
        true
      end)

let test_generator_covered_both_regimes () =
  Alcotest.(check bool) "some case coalesced rows into blits" true !saw_merge;
  Alcotest.(check bool) "some case took the single-row fallback" true
    !saw_fallback

let suite =
  [
    QCheck_alcotest.to_alcotest prop_blit_equals_row_replay;
    Alcotest.test_case "generator covered merge and fallback regimes" `Quick
      test_generator_covered_both_regimes;
  ]
