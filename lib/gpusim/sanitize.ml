module Obs = Hextile_obs.Obs

type race = {
  r_launch : string;
  r_block : int;
  r_word : int;
  r_kind : [ `Write_write | `Write_read ];
  r_tid1 : int;
  r_tid2 : int;
}

type divergence = {
  d_launch : string;
  d_block : int;
  d_syncs : int;
  d_expected : int;
}

type finding = Race of race | Divergence of divergence

(* Per shared word, within the current barrier interval: the last writer
   and up to two distinct reader identities. Two reader slots suffice to
   answer "does a reader other than [tid] exist?" — if the first recorded
   reader is [tid] itself, any second distinct reader cannot be. *)
type word_state = {
  mutable wtid : int;  (** -1: no write yet this interval *)
  mutable rtid1 : int;
  mutable rtid2 : int;
}

let max_recorded = 64

type state = {
  mutable on : bool;
  mutable found : finding list;  (** newest first *)
  mutable nfound : int;
  mutable launch_name : string;
  mutable block : int;
  mutable in_block : bool;
  mutable syncs : int;  (** barriers of the current block *)
  mutable expected_syncs : int;  (** -1 until the launch's first block ends *)
  mutable fresh_tid : int;  (** synthetic identities, negative, per block *)
  words : (int, word_state) Hashtbl.t;
}

(* One state per domain. The main domain's state is the long-lived one
   drivers enable/reset/query; worker domains only ever use theirs inside
   [capture_block], so parallel fuzz iterations (which toggle the
   sanitizer per runner) and parallel block execution cannot race. *)
let key : state Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      {
        on = false;
        found = [];
        nfound = 0;
        launch_name = "";
        block = -1;
        in_block = false;
        syncs = 0;
        expected_syncs = -1;
        fresh_tid = -2;
        words = Hashtbl.create 1024;
      })

let st () = Domain.DLS.get key
let enabled () = (st ()).on

let reset_launch_state s =
  s.launch_name <- "";
  s.block <- -1;
  s.in_block <- false;
  s.syncs <- 0;
  s.expected_syncs <- -1;
  Hashtbl.reset s.words

let reset () =
  let s = st () in
  s.found <- [];
  s.nfound <- 0;
  s.fresh_tid <- -2;
  reset_launch_state s

let enable () =
  (st ()).on <- true;
  reset ()

let disable () =
  (st ()).on <- false;
  reset ()

let findings () = List.rev (st ()).found
let dropped () = max 0 ((st ()).nfound - max_recorded)

let pp_finding ppf = function
  | Race r ->
      Fmt.pf ppf "%s race in %s block %d: shared word %d, threads %d and %d"
        (match r.r_kind with
        | `Write_write -> "write/write"
        | `Write_read -> "write/read")
        r.r_launch r.r_block r.r_word r.r_tid1 r.r_tid2
  | Divergence d ->
      Fmt.pf ppf
        "barrier divergence in %s: block %d ran %d barriers, the launch's \
         first-executed block ran %d"
        d.d_launch d.d_block d.d_syncs d.d_expected

let record s f =
  s.nfound <- s.nfound + 1;
  if s.nfound <= max_recorded then s.found <- f :: s.found;
  Obs.incr
    (match f with
    | Race _ -> "sanitize.races"
    | Divergence _ -> "sanitize.divergences")

let launch_begin ~name =
  let s = st () in
  if s.on then begin
    reset_launch_state s;
    s.launch_name <- name
  end

let block_begin b =
  let s = st () in
  if s.on then begin
    s.block <- b;
    s.in_block <- true;
    s.syncs <- 0;
    (* synthetic identities restart per block so findings do not depend
       on how many lanes earlier blocks touched (or on which domain ran
       the block): uniqueness only matters within one barrier interval *)
    s.fresh_tid <- -2;
    Hashtbl.reset s.words
  end

let divergence_check s =
  if s.expected_syncs < 0 then s.expected_syncs <- s.syncs
  else if s.syncs <> s.expected_syncs then
    record s
      (Divergence
         {
           d_launch = s.launch_name;
           d_block = s.block;
           d_syncs = s.syncs;
           d_expected = s.expected_syncs;
         })

let launch_end () =
  let s = st () in
  if s.on then reset_launch_state s

let barrier () =
  let s = st () in
  if s.on && s.in_block then begin
    s.syncs <- s.syncs + 1;
    Hashtbl.reset s.words
  end

let race_at s word kind tid other =
  record s
    (Race
       {
         r_launch = s.launch_name;
         r_block = s.block;
         r_word = word;
         r_kind = kind;
         r_tid1 = other;
         r_tid2 = tid;
       })

(* [none] marks an empty identity slot; real identities are caller tids
   (any int except [none]) or fresh negative synthetics. *)
let none = min_int

let word_state s w =
  match Hashtbl.find_opt s.words w with
  | Some ws -> ws
  | None ->
      let ws = { wtid = none; rtid1 = none; rtid2 = none } in
      Hashtbl.replace s.words w ws;
      ws

let access ~write ?tids addrs =
  let s = st () in
  if s.on && s.in_block then
    Array.iteri
      (fun i a ->
        match a with
        | None -> ()
        | Some w ->
            let tid =
              match tids with
              | Some t when i < Array.length t -> t.(i)
              | _ ->
                  s.fresh_tid <- s.fresh_tid - 1;
                  s.fresh_tid
            in
            let ws = word_state s w in
            if write then begin
              if ws.wtid <> none && ws.wtid <> tid then
                race_at s w `Write_write tid ws.wtid;
              (if ws.rtid1 <> none then
                 if ws.rtid1 <> tid then race_at s w `Write_read tid ws.rtid1
                 else if ws.rtid2 <> none then
                   race_at s w `Write_read tid ws.rtid2);
              ws.wtid <- tid
            end
            else begin
              if ws.wtid <> none && ws.wtid <> tid then
                race_at s w `Write_read tid ws.wtid;
              if ws.rtid1 = none then ws.rtid1 <- tid
              else if ws.rtid1 <> tid && ws.rtid2 = none then ws.rtid2 <- tid
            end)
      addrs

(* ---- block capture ----------------------------------------------------- *)

type block_report = {
  br_block : int;
  br_syncs : int;
  br_found : finding list;  (** detection order, capped at [max_recorded] *)
  br_nfound : int;  (** total detected, including beyond the cap *)
}

let capture_block ~name ~block f =
  (* the caller's own domain may run a chunk too, so save and restore the
     enclosing sanitizer state (its findings accumulate across launches) *)
  let s = st () in
  let saved_on = s.on
  and saved_found = s.found
  and saved_nfound = s.nfound
  and saved_name = s.launch_name
  and saved_block = s.block
  and saved_in_block = s.in_block
  and saved_syncs = s.syncs
  and saved_expected = s.expected_syncs
  and saved_fresh = s.fresh_tid in
  s.on <- true;
  s.found <- [];
  s.nfound <- 0;
  s.launch_name <- name;
  s.expected_syncs <- -1;
  Fun.protect
    ~finally:(fun () ->
      s.on <- saved_on;
      s.found <- saved_found;
      s.nfound <- saved_nfound;
      s.launch_name <- saved_name;
      s.block <- saved_block;
      s.in_block <- saved_in_block;
      s.syncs <- saved_syncs;
      s.expected_syncs <- saved_expected;
      s.fresh_tid <- saved_fresh;
      Hashtbl.reset s.words)
    (fun () ->
      block_begin block;
      f ();
      {
        br_block = block;
        br_syncs = s.syncs;
        br_found = List.rev s.found;
        br_nfound = s.nfound;
      })

let absorb_block_reports reports =
  let s = st () in
  if s.on then
    Array.iter
      (fun r ->
        (* race findings were already counted in Obs on the worker (and
           absorbed with its fork), so only re-record them here *)
        List.iter
          (fun f ->
            s.nfound <- s.nfound + 1;
            if s.nfound <= max_recorded then s.found <- f :: s.found)
          r.br_found;
        s.nfound <- s.nfound + (r.br_nfound - List.length r.br_found);
        s.block <- r.br_block;
        s.syncs <- r.br_syncs;
        divergence_check s)
      reports
