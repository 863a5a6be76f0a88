(** Lock-free publish-once map for shared memo tables.

    A fixed-capacity open-addressed table of [Atomic] slots shared by
    every domain. [publish] installs a (key, value) pair with a single
    compare-and-set — the first publisher of a key wins, later
    publishers adopt the winner's value — and [find] never blocks.

    The map is a {e cache of a pure function}: when the table (or a
    probe window) is full, operations degrade to "compute uncached"
    rather than evicting, so correctness must never depend on a value
    being present. Keys are compared structurally and hashed with
    [Hashtbl.hash].

    Its one user in the libraries is the serve daemon's explicit cache
    context ({!Hextile_serve.Cache}), whose tables live as long as the
    context: one domain pays for a computation, every domain reuses the
    published result, and — the computations being pure — which domain
    wins the race is unobservable in any result. *)

type ('k, 'v) t

val create : ?bits:int -> ?name:string -> unit -> ('k, 'v) t
(** [create ~bits ()] makes a table of [2^bits] slots (default 1024)
    probed linearly over a window of 32 slots (the whole table when it
    is smaller).
    With [?name] the table registers in a process-global list so its
    hit/miss stats appear in {!stats_all}; registered tables are never
    unregistered. *)

val find : ('k, 'v) t -> 'k -> 'v option
(** The published value for this key, if any domain has published one
    within the probe window. Bumps the table's hit or miss count. *)

val publish : ('k, 'v) t -> 'k -> 'v -> 'v option
(** Publish a value for a key and return the value every domain will
    see from now on: the argument if this call won the race, the earlier
    winner's value otherwise. [None] when the probe window was full and
    nothing was published. *)

val stats_all : unit -> (string * int * int) list
(** [(name, hits, misses)] for every table created with [?name], in
    registration order. Counts depend on scheduling — two domains racing
    on a cold key both record a miss — so they are monitoring data and
    are never fed back into computed results. *)
