(* Byte-wise radix (Patricia) tree — the inverted-list structure Spitz uses
   for string cell values, chosen in the paper for its space efficiency on
   shared prefixes. *)

type 'a t =
  | Empty
  | Node of 'a node

and 'a node = {
  prefix : string;            (* compressed edge label leading here *)
  value : 'a option;          (* value if a key ends exactly here *)
  children : (char * 'a node) list; (* sorted by branch character *)
}

let empty = Empty

let common_prefix_len a b =
  let n = min (String.length a) (String.length b) in
  let rec go i = if i < n && a.[i] = b.[i] then go (i + 1) else i in
  go 0

let drop s n = String.sub s n (String.length s - n)

let rec insert_node node key value =
  let p = common_prefix_len node.prefix key in
  if p = String.length node.prefix then begin
    let rest = drop key p in
    if String.length rest = 0 then { node with value = Some value }
    else begin
      let c = rest.[0] in
      let rec place = function
        | [] -> [ (c, { prefix = rest; value = Some value; children = [] }) ]
        | (bc, child) :: others as all ->
          if Char.compare c bc < 0 then (c, { prefix = rest; value = Some value; children = [] }) :: all
          else if Char.equal c bc then (bc, insert_node child rest value) :: others
          else (bc, child) :: place others
      in
      { node with children = place node.children }
    end
  end
  else begin
    (* split this node's edge at p *)
    let shared = String.sub node.prefix 0 p in
    let old_rest = drop node.prefix p in
    let old_child = { node with prefix = old_rest } in
    let branches = [ (old_rest.[0], old_child) ] in
    let rest = drop key p in
    if String.length rest = 0 then { prefix = shared; value = Some value; children = branches }
    else begin
      let new_child = { prefix = rest; value = Some value; children = [] } in
      let branches =
        if Char.compare rest.[0] old_rest.[0] < 0 then (rest.[0], new_child) :: branches
        else branches @ [ (rest.[0], new_child) ]
      in
      { prefix = shared; value = None; children = branches }
    end
  end

let insert t key value =
  match t with
  | Empty -> Node { prefix = key; value = Some value; children = [] }
  | Node node -> Node (insert_node node key value)

let rec get_node node key =
  let p = common_prefix_len node.prefix key in
  if p < String.length node.prefix then None
  else begin
    let rest = drop key p in
    if String.length rest = 0 then node.value
    else begin
      match List.assoc_opt rest.[0] node.children with
      | None -> None
      | Some child -> get_node child rest
    end
  end

let get t key =
  match t with
  | Empty -> None
  | Node node -> get_node node key

let mem t key = get t key <> None

let fold t f init =
  let rec go node prefix acc =
    let full = prefix ^ node.prefix in
    let acc = match node.value with Some v -> f full v acc | None -> acc in
    List.fold_left (fun acc (_, child) -> go child full acc) acc node.children
  in
  match t with
  | Empty -> init
  | Node node -> go node "" init

let iter t f = fold t (fun k v () -> f k v) ()

let cardinal t = fold t (fun _ _ n -> n + 1) 0
