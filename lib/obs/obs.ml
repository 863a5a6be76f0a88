type value = Bool of bool | Int of int | Float of float | Str of string

type node = {
  name : string;
  nstart : float;  (** absolute, Unix.gettimeofday *)
  mutable ndur : float;  (** -1.0 while open *)
  mutable nattrs : (string * value) list;  (** reversed *)
  mutable nevents : evt list;  (** reversed *)
  mutable nchildren : node list;  (** reversed *)
}

and evt = { ename : string; etime : float; eattrs : (string * value) list }

let now () = Unix.gettimeofday ()

let fresh_root () =
  {
    name = "<root>";
    nstart = now ();
    ndur = -1.0;
    nattrs = [];
    nevents = [];
    nchildren = [];
  }

(* One registry per domain: the process registry serves the main domain;
   pool workers (and the caller while it executes a region task) write
   into a detached fork installed via domain-local storage, which the
   region absorbs at join ({!fork_begin} / {!absorb}). *)
type reg = {
  mutable root : node;
  mutable stack : node list;
  tally : (string, int ref) Hashtbl.t;
}

let fresh_reg () = { root = fresh_root (); stack = []; tally = Hashtbl.create 32 }
let main_reg = fresh_reg ()
let local : reg option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)
let cur () = match Domain.DLS.get local with Some r -> r | None -> main_reg
let on = ref false

let enabled () = !on
let enable () = on := true
let disable () = on := false

let reset () =
  let r = cur () in
  r.root <- fresh_root ();
  r.stack <- [];
  Hashtbl.reset r.tally

let top r = match r.stack with n :: _ -> n | [] -> r.root

let start name =
  if !on then begin
    let n =
      {
        name;
        nstart = now ();
        ndur = -1.0;
        nattrs = [];
        nevents = [];
        nchildren = [];
      }
    in
    let r = cur () in
    let parent = top r in
    parent.nchildren <- n :: parent.nchildren;
    r.stack <- n :: r.stack
  end

let stop name =
  if !on then
    let r = cur () in
    match r.stack with
    | [] -> invalid_arg (Fmt.str "Obs.stop %s: no span is open" name)
    | n :: rest ->
        if not (String.equal n.name name) then
          invalid_arg
            (Fmt.str "Obs.stop %s: innermost open span is %s (LIFO order)" name
               n.name);
        n.ndur <- now () -. n.nstart;
        r.stack <- rest

let span name f =
  if not !on then f ()
  else begin
    start name;
    Fun.protect ~finally:(fun () -> stop name) f
  end

let annot key v =
  if !on then begin
    let n = top (cur ()) in
    n.nattrs <- (key, v) :: List.remove_assoc key n.nattrs
  end

let event name attrs =
  if !on then begin
    let n = top (cur ()) in
    n.nevents <- { ename = name; etime = now (); eattrs = attrs } :: n.nevents
  end

let incr ?(by = 1) name =
  if !on then
    let tally = (cur ()).tally in
    match Hashtbl.find_opt tally name with
    | Some r -> r := !r + by
    | None -> Hashtbl.replace tally name (ref by)

let counter name =
  match Hashtbl.find_opt (cur ()).tally name with Some r -> !r | None -> 0

let counters () =
  Hashtbl.fold (fun k r acc -> (k, !r) :: acc) (cur ()).tally []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* ---- domain-local forks ------------------------------------------------- *)

type fork = reg

let fork_begin () = Domain.DLS.set local (Some (fresh_reg ()))

let fork_end () =
  match Domain.DLS.get local with
  | Some r ->
      Domain.DLS.set local None;
      r
  | None -> invalid_arg "Obs.fork_end: no fork is active on this domain"

let fork_resume (f : fork) = Domain.DLS.set local (Some f)

let absorb (f : fork) =
  let r = cur () in
  let parent = top r in
  (* both child lists are newest-first, so plain concatenation keeps the
     fork's entries ordered after the parent's existing ones *)
  parent.nchildren <- f.root.nchildren @ parent.nchildren;
  parent.nevents <- f.root.nevents @ parent.nevents;
  List.iter
    (fun (k, v) -> parent.nattrs <- (k, v) :: List.remove_assoc k parent.nattrs)
    (List.rev f.root.nattrs);
  Hashtbl.iter
    (fun k v ->
      match Hashtbl.find_opt r.tally k with
      | Some dst -> dst := !dst + !v
      | None -> Hashtbl.replace r.tally k (ref !v))
    f.tally

(* ---- inspection -------------------------------------------------------- *)

type span_tree = {
  sname : string;
  start_s : float;
  dur_s : float;
  attrs : (string * value) list;
  events : (string * float * (string * value) list) list;
  children : span_tree list;
}

let rec tree_of epoch (n : node) =
  {
    sname = n.name;
    start_s = n.nstart -. epoch;
    dur_s = n.ndur;
    attrs = List.rev n.nattrs;
    events =
      List.rev_map (fun e -> (e.ename, e.etime -. epoch, e.eattrs)) n.nevents;
    children = List.rev_map (tree_of epoch) n.nchildren;
  }

let roots () =
  let r = (cur ()).root in
  List.rev_map (tree_of r.nstart) r.nchildren

let open_spans () = List.map (fun n -> n.name) (cur ()).stack

(* ---- sinks ------------------------------------------------------------- *)

let json_of_value = function
  | Bool b -> Json.Bool b
  | Int i -> Json.Int i
  | Float f -> Json.Float f
  | Str s -> Json.Str s

let json_of_attrs attrs =
  Json.Obj (List.map (fun (k, v) -> (k, json_of_value v)) attrs)

let json_of_event (name, t, attrs) =
  Json.Obj
    (("name", Json.Str name)
    :: ("t_s", Json.Float t)
    ::
    (match attrs with [] -> [] | l -> [ ("attrs", json_of_attrs l) ]))

let rec json_of_tree (t : span_tree) =
  Json.Obj
    (List.concat
       [
         [ ("name", Json.Str t.sname); ("start_s", Json.Float t.start_s) ];
         (if t.dur_s >= 0.0 then [ ("dur_s", Json.Float t.dur_s) ]
          else [ ("open", Json.Bool true) ]);
         (match t.attrs with [] -> [] | l -> [ ("attrs", json_of_attrs l) ]);
         (match t.events with
         | [] -> []
         | l -> [ ("events", Json.List (List.map json_of_event l)) ]);
         (match t.children with
         | [] -> []
         | l -> [ ("children", Json.List (List.map json_of_tree l)) ]);
       ])

let to_json () =
  let r = (cur ()).root in
  let rt = tree_of r.nstart r in
  Json.Obj
    [
      ("trace_version", Json.Int 1);
      ( "counters",
        Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) (counters ())) );
      ("spans", Json.List (List.map json_of_tree (List.rev_map (tree_of r.nstart) r.nchildren)));
      ("events", Json.List (List.map json_of_event rt.events));
    ]

let pp_value ppf = function
  | Bool b -> Fmt.bool ppf b
  | Int i -> Fmt.int ppf i
  | Float f -> Fmt.pf ppf "%g" f
  | Str s -> Fmt.string ppf s

let pp_attrs ppf = function
  | [] -> ()
  | attrs ->
      Fmt.pf ppf " [%a]"
        Fmt.(list ~sep:(any " ") (pair ~sep:(any "=") string pp_value))
        attrs

let pp_text ppf () =
  let rec pp_tree indent (t : span_tree) =
    Fmt.pf ppf "%s%-30s %s%a@."
      (String.make indent ' ')
      t.sname
      (if t.dur_s >= 0.0 then Fmt.str "%8.3f ms" (1e3 *. t.dur_s) else "   (open)")
      pp_attrs t.attrs;
    List.iter
      (fun (name, t_s, attrs) ->
        Fmt.pf ppf "%s* %s @ %.3f ms%a@."
          (String.make (indent + 2) ' ')
          name (1e3 *. t_s) pp_attrs attrs)
      t.events;
    List.iter (pp_tree (indent + 2)) t.children
  in
  List.iter (pp_tree 0) (roots ());
  match counters () with
  | [] -> ()
  | cs ->
      Fmt.pf ppf "counters:@.";
      List.iter (fun (k, v) -> Fmt.pf ppf "  %-34s %d@." k v) cs

let write_json path =
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc (Json.to_string (to_json ()));
      Out_channel.output_char oc '\n')
