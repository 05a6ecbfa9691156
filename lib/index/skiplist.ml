(* Skip list over ordered keys — the per-key version track of [Provenance]
   (lineage by block height). Deterministic tower heights (seeded xorshift)
   keep runs reproducible. *)

let max_level = 24
let p_num = 1 (* promotion probability 1/4 *)
let p_den = 4

type ('k, 'v) node = {
  key : 'k;
  mutable value : 'v;
  forward : ('k, 'v) node option array; (* length = tower height *)
}

type ('k, 'v) t = {
  compare : 'k -> 'k -> int;
  header : ('k, 'v) node; (* sentinel; key is unused *)
  mutable level : int;    (* highest level in use, >= 1 *)
  mutable cardinal : int;
  mutable rng : int;      (* xorshift state *)
}

let create ?(seed = 0x9e3779b9) compare ~dummy_key ~dummy_value =
  {
    compare;
    header = { key = dummy_key; value = dummy_value; forward = Array.make max_level None };
    level = 1;
    cardinal = 0;
    rng = (if seed = 0 then 1 else seed);
  }

let next_random t =
  let x = t.rng in
  let x = x lxor (x lsl 13) in
  let x = x lxor (x lsr 7) in
  let x = (x lxor (x lsl 17)) land max_int in
  t.rng <- (if x = 0 then 1 else x);
  t.rng

let random_level t =
  let rec go lvl =
    if lvl < max_level && next_random t mod p_den < p_num then go (lvl + 1) else lvl
  in
  go 1

let cardinal t = t.cardinal

(* The rightmost node at each level whose key < key (the "update path"). *)
let find_path t key =
  let update = Array.make max_level t.header in
  let x = ref t.header in
  for i = t.level - 1 downto 0 do
    let continue = ref true in
    while !continue do
      match !x.forward.(i) with
      | Some node when t.compare node.key key < 0 -> x := node
      | _ -> continue := false
    done;
    update.(i) <- !x
  done;
  update

let get t key =
  let update = find_path t key in
  match update.(0).forward.(0) with
  | Some node when t.compare node.key key = 0 -> Some node.value
  | _ -> None

let mem t key = get t key <> None

let insert t key value =
  let update = find_path t key in
  match update.(0).forward.(0) with
  | Some node when t.compare node.key key = 0 -> node.value <- value
  | _ ->
    let lvl = random_level t in
    if lvl > t.level then begin
      for i = t.level to lvl - 1 do
        update.(i) <- t.header
      done;
      t.level <- lvl
    end;
    let node = { key; value; forward = Array.make lvl None } in
    for i = 0 to lvl - 1 do
      node.forward.(i) <- update.(i).forward.(i);
      update.(i).forward.(i) <- Some node
    done;
    t.cardinal <- t.cardinal + 1

let fold_range t ~lo ~hi f init =
  let update = find_path t lo in
  let rec go node acc =
    match node with
    | Some n when t.compare n.key hi <= 0 -> go n.forward.(0) (f n.key n.value acc)
    | _ -> acc
  in
  go update.(0).forward.(0) init

let range t ~lo ~hi = List.rev (fold_range t ~lo ~hi (fun k v acc -> (k, v) :: acc) [])

let iter t f =
  let rec go = function
    | Some n -> f n.key n.value; go n.forward.(0)
    | None -> ()
  in
  go t.header.forward.(0)
