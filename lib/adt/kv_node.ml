open Spitz_crypto
open Spitz_storage

(* Node layout, codec, navigation, and proof verification shared by the
   key-ordered SIRI instances (Merkle B+-tree and POS-tree): a leaf holds
   sorted (key, value) entries; an internal node holds (separator, child)
   links where child i covers keys in [sep_i, sep_{i+1}). *)

type node =
  | Leaf of (string * string) list
  | Internal of (string * Hash.t) list

let encode_into buf node =
  match node with
  | Leaf entries ->
    Wire.write_byte buf 'L';
    Wire.write_list buf
      (fun buf (k, v) -> Wire.write_string buf k; Wire.write_string buf v)
      entries
  | Internal children ->
    Wire.write_byte buf 'I';
    Wire.write_list buf
      (fun buf (k, h) -> Wire.write_string buf k; Wire.write_hash buf h)
      children

let encode node =
  let buf = Wire.writer () in
  encode_into buf node;
  Wire.contents buf

let decode data =
  let r = Wire.reader data in
  match Wire.read_byte r with
  | 'L' ->
    Leaf (Wire.read_list r (fun r ->
        let k = Wire.read_string r in
        let v = Wire.read_string r in
        (k, v)))
  | 'I' ->
    Internal (Wire.read_list r (fun r ->
        let k = Wire.read_string r in
        let h = Wire.read_hash r in
        (k, h)))
  | c -> raise (Wire.Malformed (Printf.sprintf "Kv_node: bad node tag %C" c))

(* Decoded nodes are cached across all stores by content address: the same
   hash always denotes the same bytes, so a cached decode is valid for any
   store that holds the object. Store membership is still checked on every
   access so that swept (compacted) or released nodes keep raising
   [Not_found] exactly as the uncached path did. Nodes are built from
   immutable lists and are never mutated in place, which makes sharing one
   decoded value across traversals (and domains) safe. *)
let cache : node Node_cache.t = Node_cache.create ~capacity:65536 ()

(* Memoized decode when the serialized bytes are already at hand (proof
   assembly): the store hit has been paid, only the decode is saved. *)
let decode_cached h bytes =
  Node_cache.find_or_add cache h ~load:(fun () -> decode bytes)

let load store h =
  match Node_cache.find cache h with
  | Some node when Object_store.mem store h -> node
  | _ ->
    let node = decode (Object_store.get_exn store h) in
    Node_cache.add cache h node;
    node

(* Encode into [buf] (cleared first, so one writer serves a whole batch of
   seals; a fresh one by default) and store straight from its buffer: the
   identity hash is computed in place, and a dedup hit (shared subtree node)
   never materializes the encoding as a string at all. The node just sealed
   goes into the decoded-node cache under its address — it is exactly what
   [decode] of the stored bytes would build, and it shares the caller's key
   and value strings instead of copies the next load would decode. *)
let save ?(buf = Wire.writer ()) store node =
  Wire.clear buf;
  encode_into buf node;
  let h = Object_store.put_writer store buf in
  Node_cache.add cache h node;
  h

(* Index of the child to follow for [key]: the last separator <= key, or the
   first child when the key sorts before everything. *)
let child_index children key =
  let rec go i best = function
    | [] -> best
    | (sep, _) :: rest -> if String.compare sep key <= 0 then go (i + 1) i rest else best
  in
  go 0 0 children

let min_key = function
  | Leaf ((k, _) :: _) -> k
  | Internal ((k, _) :: _) -> k
  | Leaf [] | Internal [] -> invalid_arg "Kv_node.min_key: empty node"

let get store root key =
  match root with
  | None -> None
  | Some h ->
    let rec go h =
      match load store h with
      | Leaf entries -> List.assoc_opt key entries
      | Internal children ->
        let _, child = List.nth children (child_index children key) in
        go child
    in
    go h

(* Batched lookup: one traversal for the whole (sorted, deduplicated) key
   set. [child_index] is monotone in the key, so the sorted keys split into
   contiguous runs per child and every shared upper node is visited — and its
   bytes recorded — exactly once, which is what makes the batched proof
   smaller than the union of per-key paths. *)
let prove_batch store root keys =
  match root with
  | None -> (List.map (fun _ -> None) keys, { Siri.nodes = [] })
  | Some root_hash ->
    let recorded = Hash.Table.create 64 in
    let nodes = ref [] in
    let results = Hashtbl.create (List.length keys) in
    let rec go h keys =
      let bytes = Object_store.get_exn store h in
      if not (Hash.Table.mem recorded h) then begin
        Hash.Table.replace recorded h ();
        nodes := bytes :: !nodes
      end;
      match decode_cached h bytes with
      | Leaf entries ->
        List.iter (fun k -> Hashtbl.replace results k (List.assoc_opt k entries)) keys
      | Internal children ->
        let rec runs = function
          | [] -> ()
          | k :: _ as ks ->
            let i = child_index children k in
            let rec take acc = function
              | k' :: rest when child_index children k' = i -> take (k' :: acc) rest
              | rest -> (List.rev acc, rest)
            in
            let mine, rest = take [] ks in
            go (snd (List.nth children i)) mine;
            runs rest
        in
        runs keys
    in
    go root_hash (List.sort_uniq String.compare keys);
    (List.map (fun k -> Hashtbl.find results k) keys, { Siri.nodes = List.rev !nodes })

(* Child i covers [sep_i, sep_{i+1}); visit children overlapping [lo, hi]. *)
let children_overlapping children ~lo ~hi =
  let n = List.length children in
  List.filteri
    (fun i (sep, _) ->
       let next = if i + 1 < n then Some (fst (List.nth children (i + 1))) else None in
       let starts_before_hi = String.compare sep hi <= 0 in
       let ends_after_lo = match next with None -> true | Some nk -> String.compare nk lo > 0 in
       starts_before_hi && ends_after_lo)
    children

(* [decode_node] lets the store-backed paths decode through the cache while
   client-side proof verification keeps a plain, storeless decode. *)
let range_visit ?(decode_node = fun _ bytes -> decode bytes) ~load_bytes root ~lo ~hi ~record =
  let acc = ref [] in
  let rec go h =
    match load_bytes h with
    | None -> raise Not_found
    | Some bytes ->
      record bytes;
      (match decode_node h bytes with
       | Leaf entries ->
         List.iter
           (fun (k, v) ->
              if String.compare lo k <= 0 && String.compare k hi <= 0 then acc := (k, v) :: !acc)
           entries
       | Internal children ->
         List.iter (fun (_, ch) -> go ch) (children_overlapping children ~lo ~hi))
  in
  (match root with None -> () | Some h -> go h);
  List.rev !acc

let range store root ~lo ~hi =
  range_visit ~decode_node:decode_cached ~load_bytes:(Object_store.get store) root ~lo ~hi
    ~record:(fun _ -> ())

let range_with_proof store root ~lo ~hi =
  (* each distinct node once, even if the walk reaches it from two places *)
  let recorded = Hashtbl.create 64 in
  let nodes = ref [] in
  let entries =
    range_visit ~decode_node:decode_cached ~load_bytes:(Object_store.get store) root ~lo ~hi
      ~record:(fun bytes ->
          if not (Hashtbl.mem recorded bytes) then begin
            Hashtbl.replace recorded bytes ();
            nodes := bytes :: !nodes
          end)
  in
  (entries, { Siri.nodes = List.rev !nodes })

let iter store root f =
  match root with
  | None -> ()
  | Some h ->
    let rec go h =
      match load store h with
      | Leaf entries -> List.iter (fun (k, v) -> f k v) entries
      | Internal children -> List.iter (fun (_, ch) -> go ch) children
    in
    go h

(* Cut points for a parallel scan of [lo, hi]: separator keys strictly
   inside (lo, hi], ascending, at most [parts - 1] of them. Separators are
   subtree minimum keys, so cutting at them aligns the caller's subranges
   [lo, p1) [p1, p2) ... [pk, hi] with node boundaries — parallel sub-scans
   descend into disjoint subtrees. Descends only while a level offers fewer
   than [parts] overlapping children, so cost is one root-to-depth walk, not
   a range scan. *)
let split_points store root ~lo ~hi ~parts =
  if parts <= 1 then []
  else
    match root with
    | None -> []
    | Some h ->
      let rec gather h =
        match load store h with
        | Leaf _ -> []
        | Internal children ->
          let ov = children_overlapping children ~lo ~hi in
          if List.length ov >= parts then List.map fst ov
          else
            (* not enough fan-out here: each child contributes its own
               separator plus whatever its level below offers *)
            List.concat_map
              (fun (sep, ch) -> match gather ch with [] -> [ sep ] | deeper -> sep :: deeper)
              ov
      in
      (* a separator can equal its subtree's first grandchild separator
         (both are the leftmost minimum); the list is ascending, so adjacent
         dedup suffices *)
      let rec dedup = function
        | a :: (b :: _ as rest) when String.equal a b -> dedup rest
        | a :: rest -> a :: dedup rest
        | [] -> []
      in
      let inside =
        List.filter
          (fun s -> String.compare s lo > 0 && String.compare s hi <= 0)
          (dedup (gather h))
      in
      let n = List.length inside in
      if n <= parts - 1 then inside
      else begin
        let arr = Array.of_list inside in
        List.init (parts - 1) (fun i -> arr.((i + 1) * n / parts))
      end

(* --- Client-side verification: no store access, only proof bytes. --- *)

(* Batched verification: the proof index is built (each node hashed) once and
   each node decoded at most once for the whole batch; the per-key work is
   then a pure walk over decoded nodes. *)
let verify_get_batch ~digest ~items proof =
  if Hash.is_null digest then
    List.for_all (fun (_, v) -> v = None) items && proof.Siri.nodes = []
  else begin
    let index = Siri.proof_index proof in
    let decoded = Hash.Table.create 64 in
    let node_of h =
      match Hash.Table.find_opt decoded h with
      | Some _ as n -> n
      | None ->
        (match Hash.Map.find_opt h index with
         | None -> None
         | Some bytes ->
           (match decode bytes with
            | node ->
              Hash.Table.replace decoded h node;
              Some node
            | exception Wire.Malformed _ -> None))
    in
    let check (key, value) =
      let rec go h =
        match node_of h with
        | None -> None
        | Some (Leaf entries) -> Some (List.assoc_opt key entries)
        | Some (Internal []) -> None
        | Some (Internal children) ->
          let _, child = List.nth children (child_index children key) in
          go child
      in
      go digest = Some value
    in
    List.for_all check items
  end

let extract_range ~digest ~lo ~hi proof =
  if Hash.is_null digest then (if proof.Siri.nodes = [] then Some [] else None)
  else begin
    let index = Siri.proof_index proof in
    match
      range_visit
        ~load_bytes:(fun h -> Hash.Map.find_opt h index)
        (Some digest) ~lo ~hi ~record:(fun _ -> ())
    with
    | found -> Some found
    | exception (Not_found | Wire.Malformed _) -> None
  end

let verify_range ~digest ~lo ~hi ~entries proof =
  extract_range ~digest ~lo ~hi proof = Some entries

(* Visit every node reachable from a root (compaction mark phase). Shared
   subtrees are visited once. *)
let iter_nodes store root visit =
  let seen = Hash.Table.create 256 in
  let rec go h =
    if not (Hash.is_null h) && not (Hash.Table.mem seen h) then begin
      Hash.Table.replace seen h ();
      visit h;
      match load store h with
      | Leaf _ -> ()
      | Internal children -> List.iter (fun (_, ch) -> go ch) children
    end
  in
  go root
