(* Recorded per-block event streams for tile-class memoization.

   The hybrid scheme's tiles are translation-invariant: two blocks of one
   launch whose hexagons are clipped identically against the statement
   domains issue the same warp event sequence, with every global word
   index shifted by one offset (the S0 translation times the row stride
   all arrays share). A stream records only what that translation moves:
   one representative block's global memory events, at their byte
   addresses, and its compute rows, at their flat word indices. Replaying
   the memory events with the offset added through [Sim] reproduces
   another block's accounting exactly — line ranges and coalescing are
   recomputed from the translated addresses, never copied. Shared-memory
   accesses, flops and barriers are not recorded: their counts do not
   change under translation (a uniform shift of shared addresses rotates
   the bank assignment without changing the conflict count), so replay
   adds them once from the representative's counter delta. *)

type ev =
  | Gload_run of { addr : int; n : int }
      (** coalesced load of [n] consecutive words at byte [addr] *)
  | Gstore_run of { addr : int; n : int; serial : bool }
  | Gload_lanes of { addrs : int array }
      (** ascending per-lane byte addresses (gapped copy-in rows) *)
  | Gstore_lanes of { addrs : int array; serial : bool }
  | Compute of {
      stmt : int;  (** statement index in the program *)
      tstep : int;
      wflat : int;  (** flat word index of the row's first written cell *)
      srcs : int array;  (** flat word index of each source's first cell *)
      n : int;  (** lanes (row width) *)
    }
      (** functional execution of one statement row through its tape *)

type stream = { mutable evs : ev array; mutable len : int }

let dummy = Gload_lanes { addrs = [||] }
let create () = { evs = Array.make 64 dummy; len = 0 }

let push s ev =
  if s.len = Array.length s.evs then begin
    let nb = Array.make (2 * s.len) dummy in
    Array.blit s.evs 0 nb 0 s.len;
    s.evs <- nb
  end;
  s.evs.(s.len) <- ev;
  s.len <- s.len + 1

let mem_events s =
  let n = ref 0 in
  for i = 0 to s.len - 1 do
    match s.evs.(i) with Compute _ -> () | _ -> incr n
  done;
  !n

let iter s ~f =
  for i = 0 to s.len - 1 do
    f s.evs.(i)
  done

let rows s =
  let acc = ref [] in
  for i = s.len - 1 downto 0 do
    match s.evs.(i) with
    | Compute { stmt; tstep; wflat; srcs; n } ->
        acc := (stmt, tstep, wflat, srcs, n) :: !acc
    | _ -> ()
  done;
  !acc
