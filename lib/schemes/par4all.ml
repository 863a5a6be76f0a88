open Hextile_ir
open Hextile_gpusim

type config = { threads_per_block : int }

let default_config = { threads_per_block = 256 }

let run ?pool ?engine ?(config = default_config) prog env dev =
  let ctx = Common.make_ctx ?engine prog env dev in
  let tpb = config.threads_per_block in
  for tstep = 0 to ctx.steps - 1 do
    Array.iteri
      (fun si stmt ->
        let lo = ctx.lo.(si) and hi = ctx.hi.(si) in
        let xdim = ctx.dims - 1 in
        let row_len = hi.(xdim) - lo.(xdim) + 1 in
        if row_len > 0 then begin
          (* rows = all prefix-coordinate combinations *)
          let nrows = ref 1 in
          for d = 0 to xdim - 1 do
            nrows := !nrows * max 0 (hi.(d) - lo.(d) + 1)
          done;
          let nrows = !nrows in
          let points = nrows * row_len in
          let blocks = (points + tpb - 1) / tpb in
          let row_point r =
            (* decode row index into prefix coordinates *)
            let p = Array.copy lo in
            let rest = ref r in
            for d = xdim - 1 downto 0 do
              let ext = hi.(d) - lo.(d) + 1 in
              p.(d) <- lo.(d) + (!rest mod ext);
              rest := !rest / ext
            done;
            p
          in
          Sim.launch ?pool ctx.sim
            ~name:(Fmt.str "par4all_%s_t%d" stmt.Stencil.sname tstep)
            ~blocks ~threads:tpb ~shared_bytes:0
            ~f:(fun b ->
              let start = b * tpb in
              let stop = min points (start + tpb) in
              (* walk the row fragments covered by this block *)
              let i = ref start in
              while !i < stop do
                let row = !i / row_len and off = !i mod row_len in
                let frag = min (row_len - off) (stop - !i) in
                let point = row_point row in
                let xs = Array.init frag (fun j -> lo.(xdim) + off + j) in
                Common.exec_stmt_row ctx ~stmt_idx:si ~tstep ~point ~xs
                  ~global_reads:true ~shared_replay:1 ~interleave_store:false
                  ~use_shared:false ();
                i := !i + frag
              done)
        end)
      ctx.stmts
  done;
  Common.finish ctx ~scheme:"par4all"
