(* One counter table per domain: the process table serves the main
   domain; pool workers (and the caller while it executes a region task)
   write into a detached fork installed via domain-local storage, which
   the region absorbs at join ({!fork_begin} / {!absorb}). *)
type fork = (string, int ref) Hashtbl.t

let main_tally : fork = Hashtbl.create 32
let local : fork option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)
let cur () = match Domain.DLS.get local with Some r -> r | None -> main_tally
let on = ref false

let enabled () = !on
let enable () = on := true
let disable () = on := false
let reset () = Hashtbl.reset (cur ())

let incr ?(by = 1) name =
  if !on then
    let tally = cur () in
    match Hashtbl.find_opt tally name with
    | Some r -> r := !r + by
    | None -> Hashtbl.replace tally name (ref by)

let counter name =
  match Hashtbl.find_opt (cur ()) name with Some r -> !r | None -> 0

let counters () =
  Hashtbl.fold (fun k r acc -> (k, !r) :: acc) (cur ()) []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* ---- domain-local forks ------------------------------------------------- *)

let fork_begin () = Domain.DLS.set local (Some (Hashtbl.create 32))

let fork_end () =
  match Domain.DLS.get local with
  | Some r ->
      Domain.DLS.set local None;
      r
  | None -> invalid_arg "Obs.fork_end: no fork is active on this domain"

let absorb (f : fork) =
  let tally = cur () in
  Hashtbl.iter
    (fun k v ->
      match Hashtbl.find_opt tally k with
      | Some dst -> dst := !dst + !v
      | None -> Hashtbl.replace tally k (ref !v))
    f

(* ---- sinks ------------------------------------------------------------- *)

let to_json () =
  Json.Obj
    [
      ("trace_version", Json.Int 2);
      ( "counters",
        Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) (counters ())) );
    ]

let write_json path =
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc (Json.to_string (to_json ()));
      Out_channel.output_char oc '\n')
