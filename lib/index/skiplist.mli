(** Skip list over ordered keys — the per-key version track of
    [Provenance]. Tower heights come from a seeded deterministic
    generator, so runs are reproducible. *)

type ('k, 'v) t

val create : ?seed:int -> ('k -> 'k -> int) -> dummy_key:'k -> dummy_value:'v -> ('k, 'v) t
(** [create compare ~dummy_key ~dummy_value] builds an empty list. The dummy
    key/value populate the header sentinel and are never observable. *)

val cardinal : ('k, 'v) t -> int

val insert : ('k, 'v) t -> 'k -> 'v -> unit
(** Insert or overwrite. *)

val get : ('k, 'v) t -> 'k -> 'v option
val mem : ('k, 'v) t -> 'k -> bool

val range : ('k, 'v) t -> lo:'k -> hi:'k -> ('k * 'v) list
(** Entries with [lo <= key <= hi], in key order. *)

val fold_range : ('k, 'v) t -> lo:'k -> hi:'k -> ('k -> 'v -> 'b -> 'b) -> 'b -> 'b

val iter : ('k, 'v) t -> ('k -> 'v -> unit) -> unit
