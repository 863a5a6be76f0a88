(** Tile classes of one kernel launch.

    Blocks whose class keys are equal run event streams that are
    translates of each other along s0 (the blocks of one hexagonal phase
    are translates of each other, Sec. 3.3–3.7 of the paper). A plan
    groups a launch's blocks into classes, in the simulator's canonical
    visiting order ({!Hextile_gpusim.Sim.block_order}): class ids are
    dense and numbered by first appearance in that order, and each
    class's representative is its first block in that order — the first
    of the class to execute at every jobs value. *)

type t = private {
  role : int array;  (** block id -> class id *)
  rep : int array;  (** class id -> representative block id *)
  key : int array array;  (** class id -> class key *)
  members : int list array;
      (** class id -> the class's other blocks, in ascending block id *)
}

val classify : blocks:int -> key:(int -> int array) -> t
(** Classify block ids [0 .. blocks-1] by [key] (compared structurally;
    called once per block). *)

val classes : t -> int

val is_rep : t -> int -> bool
(** Whether a block is its class's representative. *)
