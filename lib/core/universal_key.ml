open Spitz_crypto

(* The universal key of the virtual cell store (paper section 5): every cell
   is addressed by (column id, primary key, timestamp, value hash). The
   encoding is order-preserving on (column, pk, ts), so one B+-tree serves
   point lookups, per-record version scans, and per-column range scans. *)

type t = {
  column : string;
  pk : string;
  ts : int;
  vhash : Hash.t;
}

let sep = '\x00'

let make ~column ~pk ~ts ~vhash =
  if String.contains column sep then invalid_arg "Universal_key: column contains NUL";
  if String.contains pk sep then invalid_arg "Universal_key: pk contains NUL";
  { column; pk; ts; vhash }

(* column \0 pk \0 ts(12 digits) \0 vhash-hex *)
let encode t =
  Printf.sprintf "%s%c%s%c%012d%c%s" t.column sep t.pk sep t.ts sep (Hash.to_hex t.vhash)

let decode s =
  match String.split_on_char sep s with
  | [ column; pk; ts; hex ] ->
    (try Some { column; pk; ts = int_of_string ts; vhash = Hash.of_hex hex }
     with _ -> None)
  | _ -> None

(* Range bounds covering every version of one cell. *)
let sep_str = String.make 1 sep

let cell_prefix ~column ~pk = String.concat sep_str [ column; pk; "" ]

(* The timestamp field of an encoded key, without a full decode: it sits
   right after the cell prefix as 12 digits. *)
let ts_of_encoded ~prefix_len ekey = int_of_string (String.sub ekey prefix_len 12)

let cell_bounds ~column ~pk =
  let p = cell_prefix ~column ~pk in
  (p, p ^ "\xff")

(* Range bounds covering all cells of a column whose pk lies in [lo, hi]. *)
let column_bounds ~column ~pk_lo ~pk_hi =
  ( Printf.sprintf "%s%c%s%c" column sep pk_lo sep,
    Printf.sprintf "%s%c%s%c\xff" column sep pk_hi sep )

let compare a b = String.compare (encode a) (encode b)

let pp fmt t =
  Format.fprintf fmt "%s/%s@%d#%s" t.column t.pk t.ts (Hash.short_hex t.vhash)

(* The ledger key of a cell. A column-qualified key [column ^ "\x1f" ^ pk]
   names cell (column, pk); every other key — no separator, or qualified by
   the default column itself — is a pk of the default column, whole. The
   rule is injective, so distinct ledger keys never share a cell, and the
   live write path, recovery and every read resolve keys through it. *)
let column_sep = '\x1f'

let ledger_key ~column ~pk = Printf.sprintf "%s%c%s" column column_sep pk

let split ~default key =
  match String.index_opt key column_sep with
  | Some i when not (String.equal (String.sub key 0 i) default) ->
    (String.sub key 0 i, String.sub key (i + 1) (String.length key - i - 1))
  | _ -> (default, key)
