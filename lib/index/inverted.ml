(* Inverted index: cell value -> posting list of universal keys (paper
   section 5). Every value is indexed as its stored bytes in a radix tree
   (prefix compression); the paper's skip list for numeric values has no
   counterpart here. Postings are kept sorted and deduplicated. *)

type posting = string list (* sorted universal keys *)

type t = { mutable postings : posting Radix_tree.t }

let create () = { postings = Radix_tree.empty }

let rec add_sorted key = function
  | [] -> [ key ]
  | k :: rest as all ->
    let c = String.compare key k in
    if c < 0 then key :: all
    else if c = 0 then all
    else k :: add_sorted key rest

let add t value ukey =
  let current = Option.value ~default:[] (Radix_tree.get t.postings value) in
  t.postings <- Radix_tree.insert t.postings value (add_sorted ukey current)

let lookup t value = Option.value ~default:[] (Radix_tree.get t.postings value)
