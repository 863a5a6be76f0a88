module Obs = Hextile_obs.Obs
module Tl = Hextile_obs.Timeline

type pool = {
  jobs : int;
  mu : Mutex.t;
  cond : Condition.t;  (** task available / region complete / shutdown *)
  tasks : (unit -> unit) Queue.t;
  mutable stop : bool;
  mutable workers : unit Domain.t array;
}

let in_region_key = Domain.DLS.new_key (fun () -> false)
let in_region () = Domain.DLS.get in_region_key
let recommended_jobs () = Domain.recommended_domain_count ()
let jobs p = p.jobs

let rec worker_loop p =
  Mutex.lock p.mu;
  let rec next () =
    match Queue.take_opt p.tasks with
    | Some t -> Some t
    | None ->
        if p.stop then None
        else begin
          (* empty queue: this wait is the worker's idle gap *)
          Tl.instant "par.steal_miss";
          Tl.begin_ "par.idle";
          Condition.wait p.cond p.mu;
          Tl.end_ ();
          next ()
        end
  in
  match next () with
  | None -> Mutex.unlock p.mu
  | Some task ->
      Mutex.unlock p.mu;
      Tl.begin_ "par.steal";
      task ();
      Tl.end_ ();
      worker_loop p

let create ~jobs =
  let jobs = max 1 jobs in
  let p =
    {
      jobs;
      mu = Mutex.create ();
      cond = Condition.create ();
      tasks = Queue.create ();
      stop = false;
      workers = [||];
    }
  in
  p.workers <-
    Array.init (jobs - 1) (fun i ->
        Domain.spawn (fun () ->
            Tl.label (Fmt.str "worker-%d" (i + 1));
            worker_loop p));
  p

let shutdown p =
  Mutex.lock p.mu;
  p.stop <- true;
  Condition.broadcast p.cond;
  Mutex.unlock p.mu;
  Array.iter Domain.join p.workers;
  p.workers <- [||]

let with_pool ~jobs f =
  let p = create ~jobs in
  Fun.protect ~finally:(fun () -> shutdown p) (fun () -> f p)

(* One parallel region at a time: [run] is only ever entered from the
   caller's domain (tasks re-entering degrade to the sequential loop), so
   the queue holds tasks of at most one region and the caller may safely
   help drain it. *)
let run p (thunks : (unit -> unit) array) =
  let n = Array.length thunks in
  if n = 0 then ()
  else if p.jobs = 1 || in_region () || n = 1 then
    Array.iter (fun f -> f ()) thunks
  else begin
    Tl.begin_ ~arg:(float_of_int n) "par.region";
    Fun.protect ~finally:Tl.end_ @@ fun () ->
    let remaining = ref n in
    let errs : (exn * Printexc.raw_backtrace) option array = Array.make n None in
    let forks = Array.make n None in
    (* flow arrows pair each enqueue (on the caller's track) with the
       start of execution (on whichever domain dequeued it); task 0 runs
       inline so it gets no arrow *)
    let fids =
      if Tl.enabled () then Array.init n (fun _ -> Tl.flow_id ()) else [||]
    in
    let exec i =
      let saved = Domain.DLS.get in_region_key in
      Domain.DLS.set in_region_key true;
      Fun.protect
        ~finally:(fun () -> Domain.DLS.set in_region_key saved)
        (fun () ->
          if i > 0 && Array.length fids > 0 then Tl.flow_f fids.(i);
          Tl.begin_ ~arg:(float_of_int i) "par.task";
          Obs.fork_begin ();
          (try thunks.(i) ()
           with e -> errs.(i) <- Some (e, Printexc.get_raw_backtrace ()));
          forks.(i) <- Some (Obs.fork_end ());
          Tl.end_ ())
    in
    let finished () =
      Mutex.lock p.mu;
      decr remaining;
      if !remaining = 0 then Condition.broadcast p.cond;
      Mutex.unlock p.mu
    in
    Mutex.lock p.mu;
    for i = 1 to n - 1 do
      if Array.length fids > 0 then Tl.flow_s fids.(i);
      Queue.add
        (fun () ->
          exec i;
          finished ())
        p.tasks
    done;
    Condition.broadcast p.cond;
    Mutex.unlock p.mu;
    exec 0;
    finished ();
    (* help with not-yet-claimed tasks, then wait for the stragglers *)
    let rec help () =
      Mutex.lock p.mu;
      match Queue.take_opt p.tasks with
      | Some task ->
          Mutex.unlock p.mu;
          Tl.begin_ "par.steal";
          task ();
          Tl.end_ ();
          help ()
      | None ->
          while !remaining > 0 do
            Tl.begin_ "par.idle";
            Condition.wait p.cond p.mu;
            Tl.end_ ()
          done;
          Mutex.unlock p.mu
    in
    help ();
    (* add the per-task Obs counter tables into the caller's *)
    Tl.begin_ ~arg:(float_of_int n) "par.absorb";
    Array.iter (function Some fk -> Obs.absorb fk | None -> ()) forks;
    Tl.end_ ();
    match Array.find_map Fun.id errs with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> ()
  end

(* Hybrid static/dynamic schedule (after Jin et al.): each task owns a
   contiguous static shard of the index space and drains it through a
   per-shard atomic cursor; once its own shard is dry it makes one
   round-robin pass over the other shards and helps drain any that still
   have work. Contiguous shards keep each domain's accesses local (and
   cut the cross-domain cache traffic of a single shared counter); the
   per-shard cursors keep the schedule work-conserving when shards are
   imbalanced. [fetch_and_add] uniqueness guarantees every index is
   claimed exactly once no matter how many helpers race on a shard, and
   the shard owner never exits before its cursor passes [hi], so
   completeness does not depend on stealing at all. *)
let map p f (xs : 'a array) : 'b array =
  let n = Array.length xs in
  if n = 0 then [||]
  else if p.jobs = 1 || in_region () || n = 1 then Array.map f xs
  else begin
    let out = Array.make n None in
    let errs : (exn * Printexc.raw_backtrace) option array = Array.make n None in
    let ntasks = min p.jobs n in
    let lo s = s * n / ntasks in
    let hi s = (s + 1) * n / ntasks in
    let cursors = Array.init ntasks (fun s -> Atomic.make (lo s)) in
    let apply i =
      try out.(i) <- Some (f xs.(i))
      with e -> errs.(i) <- Some (e, Printexc.get_raw_backtrace ())
    in
    let drain s =
      let h = hi s in
      let rec loop () =
        let i = Atomic.fetch_and_add cursors.(s) 1 in
        if i < h then begin
          apply i;
          loop ()
        end
      in
      loop ()
    in
    run p
      (Array.init ntasks (fun s () ->
           drain s;
           (* cursors only grow, so a shard seen dry stays dry: one
              round-robin pass suffices *)
           for k = 1 to ntasks - 1 do
             let v = (s + k) mod ntasks in
             if Atomic.get cursors.(v) < hi v then begin
               Tl.instant "par.shard_steal";
               drain v
             end
           done));
    (match Array.find_map Fun.id errs with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> ());
    Array.map (function Some v -> v | None -> assert false) out
  end

let iter p f xs =
  if p.jobs = 1 || in_region () || Array.length xs <= 1 then Array.iter f xs
  else ignore (map p f xs : unit array)

let map_reduce p ~map:fm ~merge init xs =
  Array.fold_left merge init (map p fm xs)
