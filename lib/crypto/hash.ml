type t = string (* 32 raw bytes *)

let size = 32

let of_string s = Sha256.digest_string s

let of_strings parts = Sha256.digest_strings parts

let of_bytes_sub b ~pos ~len = Sha256.digest_bytes b pos len

let null = String.make size '\000'

let is_null t = String.equal t null

let equal = String.equal
let compare = String.compare

let to_raw t = t

let of_raw s =
  if String.length s <> size then
    invalid_arg (Printf.sprintf "Hash.of_raw: expected %d bytes, got %d" size (String.length s));
  s

let hex_digits = "0123456789abcdef"

let to_hex t =
  let b = Bytes.create (size * 2) in
  for i = 0 to size - 1 do
    let c = Char.code t.[i] in
    Bytes.set b (2 * i) hex_digits.[c lsr 4];
    Bytes.set b ((2 * i) + 1) hex_digits.[c land 15]
  done;
  Bytes.unsafe_to_string b

(* Lowercase only, so each digest has exactly one hex spelling: keys that
   embed one (Universal_key) then decode one way. *)
let nibble s i =
  match s.[i] with
  | '0' .. '9' as c -> Char.code c - Char.code '0'
  | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
  | _ -> invalid_arg "Hash.of_hex: not lowercase hex"

let of_hex s =
  if String.length s <> size * 2 then invalid_arg "Hash.of_hex: wrong length";
  String.init size (fun i -> Char.chr ((nibble s (2 * i) lsl 4) lor nibble s ((2 * i) + 1)))

let short_hex t = String.sub (to_hex t) 0 8

(* Domain-separated combiners: leaves and interior nodes must hash into
   disjoint domains, otherwise an interior node could be replayed as a leaf
   (second-preimage attack on Merkle trees, RFC 6962 section 2.1). *)
let leaf data = Sha256.digest_strings [ "\x00"; data ]

(* [leaf] over a byte range: same domain prefix, same digest, no
   intermediate string for the leaf bytes. *)
let leaf_bytes b ~pos ~len =
  let ctx = Sha256.init () in
  Sha256.feed_string ctx "\x00";
  Sha256.feed_bytes ctx b pos len;
  Sha256.finalize ctx

let node left right = Sha256.digest_strings [ "\x01"; left; right ]

let node_list children = Sha256.digest_strings ("\x02" :: children)

let pp fmt t = Format.pp_print_string fmt (short_hex t)

let hash t = Stdlib.Hashtbl.hash t

module Map = Map.Make (String)
module Set = Set.Make (String)
module Table = Hashtbl.Make (struct
  type nonrec t = t
  let equal = equal
  let hash = hash
end)
