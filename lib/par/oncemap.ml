(* Lock-free publish-once map for process-shared memo tables.

   A fixed-capacity open-addressed table of [Atomic] slots: a key is
   published at most once per slot by a compare-and-set race, and every
   later reader of that slot observes the winning value. The map is a
   cache, not a store — on a full probe window [publish] simply returns
   the caller's value unpublished, so callers must treat the computed
   value and the cached value as interchangeable (true for pure
   functions, which is the only supported use).

   Determinism: with pure computations every candidate value for a key
   is structurally identical, so which domain wins the publish race is
   unobservable in results. Sequentially, the winner's value is also the
   physically shared one (a second [find] returns the published value by
   identity), which the domain-local memo tables this module replaces
   also guaranteed.

   Stats: every [find] bumps a per-table hit or miss atomic, and every
   [publish] that finds its probe window full bumps an uncached atomic
   (the value was handed back unpublished). The counts
   are scheduling-dependent (two domains racing on a cold key both
   miss), so they are observability data, never inputs to any computed
   result — the determinism contract covers results, not stats. Tables
   created with [?name] register in a process-global list so drivers
   can snapshot every named cache at once ([stats_all]) or fold the
   deltas into the [Obs] counter registry ([publish_obs]). *)

module Obs = Hextile_obs.Obs

type ('k, 'v) slot = Empty | Entry of 'k * 'v

type ('k, 'v) t = {
  slots : ('k, 'v) slot Atomic.t array Atomic.t;
      (** swapped wholesale by [clear]; readers snapshot it once per op *)
  mask : int;
  probe : int;  (** max linear-probe window before giving up *)
  hits : int Atomic.t;
  misses : int Atomic.t;
  uncached : int Atomic.t;  (** publishes that found the window full *)
  obs_hits : int Atomic.t;  (** already folded into Obs by [publish_obs] *)
  obs_misses : int Atomic.t;
  obs_uncached : int Atomic.t;
}

(* Process-global registry of named tables, for stats snapshots and Obs
   publication. Registration happens at [create] time (module init or
   an explicit cache-context build), so the list stays tiny. *)
type reg = Reg : string * ('k, 'v) t -> reg

let registry : reg list Atomic.t = Atomic.make []

let rec register r =
  let l = Atomic.get registry in
  if not (Atomic.compare_and_set registry l (r :: l)) then register r

let create ?(bits = 10) ?(probe = 32) ?name () =
  let size = 1 lsl bits in
  let t =
    {
      slots = Atomic.make (Array.init size (fun _ -> Atomic.make Empty));
      mask = size - 1;
      probe = min probe size;
      hits = Atomic.make 0;
      misses = Atomic.make 0;
      uncached = Atomic.make 0;
      obs_hits = Atomic.make 0;
      obs_misses = Atomic.make 0;
      obs_uncached = Atomic.make 0;
    }
  in
  Option.iter (fun n -> register (Reg (n, t))) name;
  t

let clear t =
  let size = t.mask + 1 in
  Atomic.set t.slots (Array.init size (fun _ -> Atomic.make Empty));
  Atomic.set t.hits 0;
  Atomic.set t.misses 0;
  Atomic.set t.uncached 0;
  Atomic.set t.obs_hits 0;
  Atomic.set t.obs_misses 0;
  Atomic.set t.obs_uncached 0

let stats t = (Atomic.get t.hits, Atomic.get t.misses)

let stats_all () =
  List.rev_map (fun (Reg (n, t)) -> (n, Atomic.get t.hits, Atomic.get t.misses))
    (Atomic.get registry)

(* Fold the per-table counts into Obs as
   oncemap.<name>.{hits,misses,uncached}.
   Deltas since the previous publication are added, so a driver may call
   this at several report points without double counting; when Obs is
   disabled nothing is recorded and nothing is consumed. Main-domain
   only, like every other Obs registry operation. *)
let publish_obs () =
  if Obs.enabled () then
    List.iter
      (fun (Reg (n, t)) ->
        let bump counter seen label =
          let cur = Atomic.get counter in
          let old = Atomic.exchange seen cur in
          if cur - old > 0 then
            Obs.incr ~by:(cur - old) ("oncemap." ^ n ^ "." ^ label)
        in
        bump t.hits t.obs_hits "hits";
        bump t.misses t.obs_misses "misses";
        bump t.uncached t.obs_uncached "uncached")
      (Atomic.get registry)

let find t k =
  let arr = Atomic.get t.slots in
  let h = Hashtbl.hash k land t.mask in
  let rec go i n =
    if n >= t.probe then begin
      Atomic.incr t.misses;
      None
    end
    else
      match Atomic.get arr.(i) with
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
  let arr = Atomic.get t.slots in
  let h = Hashtbl.hash k land t.mask in
  let rec go i n =
    if n >= t.probe then begin
      (* window full: hand back unpublished *)
      Atomic.incr t.uncached;
      v
    end
    else
      let s = arr.(i) in
      match Atomic.get s with
      | Entry (k', v') when k' = k -> v' (* lost the race: adopt the winner *)
      | Entry _ -> go ((i + 1) land t.mask) (n + 1)
      | Empty ->
          if Atomic.compare_and_set s Empty (Entry (k, v)) then v
          else begin
            (* someone published into this slot between the read and the
               CAS; re-examine it (it may even be our key) *)
            match Atomic.get s with
            | Entry (k', v') when k' = k -> v'
            | _ -> go ((i + 1) land t.mask) (n + 1)
          end
  in
  go h 0

let find_or_compute t k f =
  match find t k with Some v -> v | None -> publish t k (f ())
