(** A hash-partitioned cluster (paper section 5.2): per-shard ledgers, and
    cross-shard transactions committed atomically by two-phase commit. *)

type t

val create : ?shards:int -> unit -> t
(** Independent per-shard ledgers; keys hash to shards. *)

val shard_count : t -> int
val shard_of : t -> string -> int
val shard : t -> int -> Db.t

val get : t -> string -> string option

val get_verified : t -> string -> (string option * Db.L.read_proof option) * Spitz_ledger.Journal.digest
(** Routed to the owning shard; returns that shard's digest for
    verification. *)

val put_all : t -> (string * string) list -> (int * (int * int) list, string) result
(** Cross-shard atomic commit via 2PC: [Ok (commit_ts, (shard, height)
    list)], or [Error reason] with no shard changed when any participant
    votes no ({!Db.validate} refuses its writes). Participating blocks share
    a statement tag correlating them for auditors. *)

val stats : t -> int * int
(** (commits, aborts). *)

val audit : t -> bool
(** Every shard's journal must audit clean. *)
