(* Lock-free publish-once map for shared memo tables.

   A fixed-capacity open-addressed table of [Atomic] slots: a key is
   published at most once per slot by a compare-and-set race, and every
   later reader of that slot observes the winning value. The map is a
   cache, not a store — on a full probe window [publish] publishes
   nothing and says so, so callers must treat the computed value and the
   cached value as interchangeable (true for pure functions, which is
   the only supported use).

   Determinism: with pure computations every candidate value for a key
   is structurally identical, so which domain wins the publish race is
   unobservable in results. Sequentially, the winner's value is also the
   physically shared one (a second [find] returns the published value by
   identity).

   Stats: every [find] bumps a per-table hit or miss atomic. The counts
   are scheduling-dependent (two domains racing on a cold key both
   miss), so they are observability data, never inputs to any computed
   result — the determinism contract covers results, not stats. Tables
   created with [?name] register in a process-global list so drivers
   can snapshot every named table at once ([stats_all]). *)

type ('k, 'v) slot = Empty | Entry of 'k * 'v

type ('k, 'v) t = {
  slots : ('k, 'v) slot Atomic.t array;
  mask : int;
  probe : int;  (** [max_probe], or the table size when smaller *)
  hits : int Atomic.t;
  misses : int Atomic.t;
}

(* Process-global registry of named tables, for stats snapshots.
   Registration happens at [create] time, so the list stays tiny. *)
type reg = Reg : string * ('k, 'v) t -> reg

let registry : reg list Atomic.t = Atomic.make []

let rec register r =
  let l = Atomic.get registry in
  if not (Atomic.compare_and_set registry l (r :: l)) then register r

(* Linear-probe window before a lookup or publish gives up. *)
let max_probe = 32

let create ?(bits = 10) ?name () =
  let size = 1 lsl bits in
  let t =
    {
      slots = Array.init size (fun _ -> Atomic.make Empty);
      mask = size - 1;
      probe = min max_probe size;
      hits = Atomic.make 0;
      misses = Atomic.make 0;
    }
  in
  Option.iter (fun n -> register (Reg (n, t))) name;
  t

let stats_all () =
  List.rev_map (fun (Reg (n, t)) -> (n, Atomic.get t.hits, Atomic.get t.misses))
    (Atomic.get registry)

let find t k =
  let h = Hashtbl.hash k land t.mask in
  let rec go i n =
    if n >= t.probe then begin
      Atomic.incr t.misses;
      None
    end
    else
      match Atomic.get t.slots.(i) with
      | Entry (k', v) when k' = k ->
          Atomic.incr t.hits;
          Some v
      | Entry _ -> go ((i + 1) land t.mask) (n + 1)
      | Empty ->
          Atomic.incr t.misses;
          None
  in
  go h 0

let publish t k v =
  let h = Hashtbl.hash k land t.mask in
  let rec go i n =
    if n >= t.probe then None (* window full: nothing published *)
    else
      let s = t.slots.(i) in
      match Atomic.get s with
      | Entry (k', v') when k' = k -> Some v' (* lost the race: adopt the winner *)
      | Entry _ -> go ((i + 1) land t.mask) (n + 1)
      | Empty ->
          if Atomic.compare_and_set s Empty (Entry (k, v)) then Some v
          else begin
            (* someone published into this slot between the read and the
               CAS; re-examine it (it may even be our key) *)
            match Atomic.get s with
            | Entry (k', v') when k' = k -> Some v'
            | _ -> go ((i + 1) land t.mask) (n + 1)
          end
  in
  go h 0
