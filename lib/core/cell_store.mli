(** The virtual cell store (paper section 5): immutable, content-addressed
    cells keyed by universal key, indexed by one B+-tree over the encoded
    keys. *)

open Spitz_storage

type t

val create : ?store:Object_store.t -> unit -> t

val write_cell :
  t -> column:string -> pk:string -> ts:int -> Object_store.value -> Universal_key.t
(** Append one immutable cell version; the value is content-addressed into
    the object store under the hash it already carries. *)

val delete_cell : t -> column:string -> pk:string -> ts:int -> unit
(** Append a tombstone version: the cell reads as absent from this timestamp
    on, while older versions stay reachable by [ts]. *)

val read_value : ?ts:int -> t -> column:string -> pk:string -> string option
(** Newest value at or below [ts] (default: latest); absent includes "newest
    version is a tombstone". *)

val versions : t -> column:string -> pk:string -> (Universal_key.t * string) list
(** Every version of one cell, oldest first. *)

val range_latest_values : t -> column:string -> pk_lo:string -> pk_hi:string -> (string * string) list
(** Latest value of each cell of [column] with pk in the range, as (pk,
    value), in pk order. *)

val cell_count : t -> int
(** Total stored cell versions. *)

val iter_cells : t -> (string -> Spitz_crypto.Hash.t -> unit) -> unit
(** Every (encoded universal key, value address) pair. *)
