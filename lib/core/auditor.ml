open Spitz_ledger

(* The auditor (paper section 5, control layer): the component through which
   every proof comes back. Wraps the SIRI-backed ledger; one auditor per
   database. Data changes reach the ledger through [Db.commit] alone. *)

module L = Ledger.Default

type t = { ledger : L.t }

let create ?pool store = { ledger = L.create ?pool store }

let of_ledger ledger = { ledger }

let ledger t = t.ledger

let height t = L.height t.ledger
let digest t = L.digest t.ledger

(* Write receipts for the write path (section 5.1, write step 2). *)
let receipts t ~height = L.write_receipts t.ledger ~height

let consistency t ~old_size = Journal.prove_consistency (L.journal t.ledger) ~old_size

(* Full audit: every chain link, plus every block's entries re-verified
   against its header through one multiproof per block (instead of
   entry_count separate receipt checks). *)
let audit t =
  L.audit t.ledger
  &&
  let n = L.height t.ledger in
  let rec go h = h >= n || (L.audit_block t.ledger ~height:h && go (h + 1)) in
  go 0
