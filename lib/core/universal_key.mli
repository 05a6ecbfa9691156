(** Universal keys of the virtual cell store: every cell is addressed by
    (column id, primary key, timestamp, value hash), encoded so that
    lexicographic order is (column, pk, ts) order — one B+-tree then serves
    point lookups, version scans, and column ranges. *)

open Spitz_crypto

type t = {
  column : string;
  pk : string;
  ts : int;
  vhash : Hash.t;
}

val make : column:string -> pk:string -> ts:int -> vhash:Hash.t -> t
(** Raises [Invalid_argument] if [column] or [pk] contains NUL. *)

val encode : t -> string
(** Order-preserving canonical encoding. *)

val decode : string -> t option

val cell_prefix : column:string -> pk:string -> string
(** Common prefix of every version of one cell. *)

val cell_bounds : column:string -> pk:string -> string * string
(** Range bounds covering every version of one cell. *)

val column_bounds : column:string -> pk_lo:string -> pk_hi:string -> string * string
(** Range bounds covering the latest-through-oldest versions of all cells of
    a column whose pk lies in [pk_lo, pk_hi]. *)

val ts_of_encoded : prefix_len:int -> string -> int
(** Fast timestamp extraction from an encoded key, given the cell-prefix
    length (hot read path). *)

val compare : t -> t -> int
val pp : Format.formatter -> t -> unit

val ledger_key : column:string -> pk:string -> string
(** The ledger key naming cell ([column], [pk]): the two joined by [0x1f]. *)

val split : default:string -> string -> string * string
(** The cell (column, pk) a ledger key names: a key qualified by a column
    other than [default] splits at its first [0x1f]; any other key is a pk
    of [default], whole. Injective, and the inverse of {!ledger_key} for
    every column but [default]. *)
