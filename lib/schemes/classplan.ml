open Hextile_gpusim

type t = {
  role : int array;
  rep : int array;
  key : int array array;
  members : int list array;
}

let classify ~blocks ~key =
  let ids : (int array, int) Hashtbl.t = Hashtbl.create 16 in
  let role = Array.make blocks (-1) in
  let reps = ref [] and keys = ref [] in
  Array.iter
    (fun b ->
      let k = key b in
      match Hashtbl.find_opt ids k with
      | Some cid -> role.(b) <- cid
      | None ->
          role.(b) <- Hashtbl.length ids;
          Hashtbl.add ids k role.(b);
          reps := b :: !reps;
          keys := k :: !keys)
    (Sim.block_order ~blocks);
  let rep = Array.of_list (List.rev !reps) in
  let members = Array.make (Array.length rep) [] in
  for b = blocks - 1 downto 0 do
    let cid = role.(b) in
    if rep.(cid) <> b then members.(cid) <- b :: members.(cid)
  done;
  { role; rep; key = Array.of_list (List.rev !keys); members }

let classes p = Array.length p.rep
let is_rep p b = p.rep.(p.role.(b)) = b
