(** Byte-wise radix (Patricia) tree — the inverted-list structure Spitz uses
    for string cell values, compressing shared prefixes. Persistent. *)

type 'a t

val empty : 'a t

val insert : 'a t -> string -> 'a -> 'a t
(** Insert or overwrite. *)

val get : 'a t -> string -> 'a option
val mem : 'a t -> string -> bool

val cardinal : 'a t -> int

val iter : 'a t -> (string -> 'a -> unit) -> unit

val fold : 'a t -> (string -> 'a -> 'b -> 'b) -> 'b -> 'b
