open Spitz_crypto
open Spitz_storage
open Kv_node

(* Merkle-augmented B+-tree: a persistent B+-tree whose nodes are
   content-addressed, so (a) the root hash commits to the whole contents and
   (b) successive versions share every untouched node. Proofs are the
   serialized nodes the query traversal itself visits, which is why Spitz
   gets proofs "for free" during query processing (paper section 6.2.1). *)

let name = "merkle-bptree"

let max_entries = 16 (* per node; split when exceeded *)

type t = {
  store : Object_store.t;
  root : Hash.t option;
  count : int;
}

let create store = { store; root = None; count = 0 }

let at_root store root ~count =
  if Hash.is_null root then { store; root = None; count = 0 }
  else { store; root = Some root; count }
let store t = t.store
let root_digest t = match t.root with Some h -> h | None -> Hash.null
let cardinal t = t.count

(* Insert into the entries of a leaf, replacing an equal key. Returns the new
   list and whether the cardinality grew. *)
let rec insert_entry key value = function
  | [] -> ([ (key, value) ], true)
  | (k, v) :: rest as all ->
    let c = String.compare key k in
    if c < 0 then ((key, value) :: all, true)
    else if c = 0 then ((key, value) :: rest, false)
    else begin
      let rest', grew = insert_entry key value rest in
      ((k, v) :: rest', grew)
    end

let split_list l =
  let n = List.length l in
  let rec take i = function
    | [] -> ([], [])
    | x :: rest ->
      if i = 0 then ([], x :: rest)
      else begin
        let left, right = take (i - 1) rest in
        (x :: left, right)
      end
  in
  take (n / 2) l

(* Batched insert with deferred sealing. The batch is folded over an
   unhashed, path-copied tree in which a child is either the address of a
   stored node the batch has not touched, or a dirty node held in memory. A
   stored child is loaded only when a key descends into it. The fold applies
   the single-key rules ([insert_entry], [split_list], [child_index],
   min-key separators) one key at a time, so the resulting shape — and with
   it every digest and proof — is exactly that of inserting the keys one by
   one. Only the sealing differs: each dirty node is encoded, hashed and
   stored once, bottom-up, instead of once per key that passed through it,
   so the store receives no node the new root cannot reach. *)
type child = Stored of Hash.t | Dirty of dirty
and dirty = D_leaf of (string * string) list | D_internal of (string * child) list

let expand store h =
  match load store h with
  | Leaf entries -> D_leaf entries
  | Internal children -> D_internal (List.map (fun (k, h) -> (k, Stored h)) children)

(* One or two (min_key, dirty node) links replacing a modified node whose
   new contents are [items]. *)
let relink make items =
  let link items = (fst (List.hd items), Dirty (make items)) in
  if List.length items <= max_entries then [ link items ]
  else begin
    let left, right = split_list items in
    [ link left; link right ]
  end

let rec insert_dirty store node key value =
  match node with
  | D_leaf entries ->
    let entries', grew = insert_entry key value entries in
    (relink (fun l -> D_leaf l) entries', grew)
  | D_internal children ->
    let idx = child_index children key in
    let child =
      match List.nth children idx with _, Stored h -> expand store h | _, Dirty n -> n
    in
    let replacements, grew = insert_dirty store child key value in
    let children' =
      List.concat
        (List.mapi (fun i link -> if i = idx then replacements else [ link ]) children)
    in
    (relink (fun l -> D_internal l) children', grew)

(* [buf] is the batch's one encode buffer: each node is encoded, stored and
   done with before its parent's encode begins. *)
let rec seal buf store = function
  | D_leaf entries -> save ~buf store (Leaf entries)
  | D_internal children ->
    save ~buf store
      (Internal
         (List.map
            (fun (k, c) -> (k, match c with Stored h -> h | Dirty n -> seal buf store n))
            children))

let insert_batch t = function
  | [] -> t
  | kvs ->
    let step (root, count) (key, value) =
      match root with
      | None -> (Some (D_leaf [ (key, value) ]), 1)
      | Some node ->
        let links, grew = insert_dirty t.store node key value in
        let node = match links with [ (_, Dirty n) ] -> n | links -> D_internal links in
        (Some node, if grew then count + 1 else count)
    in
    let root, count = List.fold_left step (Option.map (expand t.store) t.root, t.count) kvs in
    let buf = Wire.writer ~size:4096 () in
    { t with root = Option.map (seal buf t.store) root; count }

let insert t key value = insert_batch t [ (key, value) ]

let get t key = Kv_node.get t.store t.root key
let prove_batch t keys = Kv_node.prove_batch t.store t.root keys
let get_with_proof = Siri.get_with_proof_of prove_batch
let range t ~lo ~hi = Kv_node.range t.store t.root ~lo ~hi
let range_with_proof t ~lo ~hi = Kv_node.range_with_proof t.store t.root ~lo ~hi
let split_points t ~lo ~hi ~parts = Kv_node.split_points t.store t.root ~lo ~hi ~parts
let iter t f = Kv_node.iter t.store t.root f

let verify_get_batch = Kv_node.verify_get_batch
let verify_get = Siri.verify_get_of verify_get_batch
let verify_range = Kv_node.verify_range
let extract_range = Kv_node.extract_range
let iter_nodes = Kv_node.iter_nodes
