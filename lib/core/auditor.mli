(** The auditor of a database (paper section 5): the component through
    which every proof comes back. Data changes reach the ledger through
    {!Db.commit} alone. *)

open Spitz_ledger

module L : module type of struct include Ledger.Default end

type t

val create : ?pool:Spitz_exec.Pool.t -> Spitz_storage.Object_store.t -> t
(** With [pool], ledger commits hash write values and entry leaves in
    parallel (see {!Ledger.Make.create}). *)

val of_ledger : L.t -> t

val ledger : t -> L.t
val height : t -> int
val digest : t -> Journal.digest

val receipts : t -> height:int -> L.write_receipt list
(** Write receipts for every entry of a committed block. *)

val consistency : t -> old_size:int -> Spitz_adt.Merkle.consistency_proof

val audit : t -> bool
(** Full audit: every chain link intact, and every block's entries verified
    against its header through one Merkle multiproof, anchored in the
    journal by one inclusion proof. *)
