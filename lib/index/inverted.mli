(** Inverted index from cell values to posting lists of universal keys.

    Values are indexed as their stored bytes in a radix tree (prefix
    compression). The paper's section 5 also puts numeric values in a skip
    list; here every cell is indexed as bytes, so there is no numeric side. *)

type t

val create : unit -> t

val add : t -> string -> string -> unit
(** [add t value ukey] records that the cell addressed by [ukey] holds
    [value]. Idempotent. *)

val lookup : t -> string -> string list
(** Universal keys of all cells holding exactly [value], sorted. *)
