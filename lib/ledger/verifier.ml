open Spitz_adt

(* Client-side verification state (paper section 5.3). The client pins the
   journal digest locally; every proof is checked against it. Digest
   advancement requires a consistency proof, so a server that rewrites
   history is caught even across digest updates.

   Two timing modes: [Online] checks each proof as it arrives (commit only
   after verification succeeds); [Deferred n] queues proofs and checks them
   in batches of [n], trading detection latency for throughput — the mode
   Spitz uses to improve verification throughput. *)

module Make (Index : Siri.S) = struct
  module L = Ledger.Make (Index)

  type mode = Online | Deferred of int

  type check =
    | Read of (string * string option) list * L.read_proof
    | Range of string * string * (string * string) list * L.read_proof
    | Write of L.write_receipt

  type t = {
    mode : mode;
    pool : Spitz_exec.Pool.t option; (* parallel flush; None = serial *)
    mutable digest : Journal.digest option; (* trusted pin; None before first sync *)
    trusted : (Spitz_crypto.Hash.t * int, unit) Hashtbl.t;
    (* every digest the pin has passed through, each proven an append-only
       extension of the previous one — a proof anchored in any of them is
       anchored in the same history the client trusts *)
    anchors : (Spitz_crypto.Hash.t * int * int * Spitz_crypto.Hash.t, unit) Hashtbl.t;
    (* journal anchors already proven: (digest root, digest size, height,
       header id). Anchoring is a fact about the unit, not about one proof's
       bytes, so a proven unit never needs re-proving. *)
    verified : (Spitz_crypto.Hash.t * string * string option, unit) Hashtbl.t;
    (* read claims already proven: (index root, key, value). A claim proven
       under a root holds regardless of which proof bytes carried it. *)
    mutable pending : check list;
    mutable pending_count : int;
    mutable checked : int;
    mutable failures : int;
  }

  let create ?(mode = Online) ?pool () =
    { mode; pool; digest = None; trusted = Hashtbl.create 64;
      anchors = Hashtbl.create 64; verified = Hashtbl.create 256;
      pending = []; pending_count = 0; checked = 0; failures = 0 }

  let digest t = t.digest
  let checked t = t.checked
  let failures t = t.failures

  let trust t (d : Journal.digest) = Hashtbl.replace t.trusted (d.Journal.root, d.Journal.size) ()

  let is_trusted t (d : Journal.digest) = Hashtbl.mem t.trusted (d.Journal.root, d.Journal.size)

  (* Pin the first digest, or advance the pin with an append-only proof. *)
  let sync t ~digest:new_digest ~consistency =
    match t.digest with
    | None ->
      t.digest <- Some new_digest;
      trust t new_digest;
      true
    | Some old_digest ->
      if Journal.verify_consistency ~old_digest ~new_digest consistency then begin
        t.digest <- Some new_digest;
        trust t new_digest;
        true
      end
      else begin
        t.failures <- t.failures + 1;
        false
      end

  (* Proofs anchor in the digest current when they were produced. In deferred
     mode the pin may have advanced since, so a proof is accepted iff its
     anchoring digest is one the pin has passed through (hence proven
     consistent with the current pin). *)
  let run_check t check =
    let ok =
      match t.digest with
      | None -> false
      | Some _ ->
        (match check with
         | Read (items, proof) ->
           is_trusted t proof.L.rp_digest
           && L.verify_batch_read ~digest:proof.L.rp_digest ~items proof
         | Range (lo, hi, entries, proof) ->
           is_trusted t proof.L.rp_digest
           && L.verify_range ~digest:proof.L.rp_digest ~lo ~hi ~entries proof
         | Write receipt ->
           is_trusted t receipt.L.wr_digest
           && L.verify_write ~digest:receipt.L.wr_digest receipt)
    in
    t.checked <- t.checked + 1;
    if not ok then t.failures <- t.failures + 1;
    ok

  let read_anchor_key (proof : L.read_proof) =
    ( proof.L.rp_digest.Journal.root, proof.L.rp_digest.Journal.size,
      proof.L.rp_height, Block.hash_header proof.L.rp_header )

  let write_anchor_key (receipt : L.write_receipt) =
    ( receipt.L.wr_digest.Journal.root, receipt.L.wr_digest.Journal.size,
      receipt.L.wr_height, Block.hash_header receipt.L.wr_header )

  (* Batched flush. The queued checks are coalesced into unique verification
     jobs before anything is evaluated:

     - the journal-inclusion anchor is proven once per distinct
       (digest, height, header) unit — many reads against one block share a
       single anchor check instead of paying one each;
     - read claims whose (index root, key, value) triple an earlier flush
       proved are skipped entirely via the persistent verified-set cache; a
       read's remaining claims are checked together, as one job against its
       one proof, shared by every read of this flush that claims the same
       set;
     - the remaining jobs are pure functions of their proofs, so with a pool
       attached they run in parallel; counters and caches are then settled
       serially in submission order, making the outcome — decisions and
       counter values — identical at any pool size.

     Identical logical units share one job, so within a flush a unit is
     judged by the first proof bytes queued for it; honest servers emit
     identical bytes for identical units, making the distinction
     unobservable except under tampering (where the flush fails anyway). *)
  let flush t =
    let checks = List.rev t.pending in
    t.pending <- [];
    t.pending_count <- 0;
    let jobs = ref [] and n_jobs = ref 0 in
    let add_job f =
      let i = !n_jobs in
      incr n_jobs;
      jobs := f :: !jobs;
      i
    in
    let anchor_jobs = Hashtbl.create 16 in
    let claim_jobs = Hashtbl.create 64 in
    (* One job per distinct key; a later check with the same key waits on it. *)
    let job_for table key thunk =
      match Hashtbl.find_opt table key with
      | Some i -> i
      | None ->
        let i = add_job thunk in
        Hashtbl.replace table key i;
        i
    in
    (* [None] = already proven (cache hit); [Some i] = wait for job [i]. *)
    let shared_job table cache key thunk =
      if Hashtbl.mem cache key then None else Some (job_for table key thunk)
    in
    (* Per check: (digest trusted, job indices that must all succeed). *)
    let plan check =
      match t.digest with
      | None -> (false, [])
      | Some _ ->
        (match check with
         | Read (items, proof) ->
           if not (is_trusted t proof.L.rp_digest) then (false, [])
           else begin
             let digest = proof.L.rp_digest in
             let a =
               shared_job anchor_jobs t.anchors (read_anchor_key proof)
                 (fun () -> L.verify_read_anchor ~digest proof)
             in
             let root = proof.L.rp_header.Block.index_root in
             (* claims proven earlier are skipped; the rest are one job,
                shared by every read of this flush that claims the same set *)
             let c =
               match
                 List.filter (fun (k, v) -> not (Hashtbl.mem t.verified (root, k, v))) items
               with
               | [] -> None
               | fresh ->
                 Some
                   (job_for claim_jobs (root, fresh) (fun () ->
                        L.verify_batch_at_root ~items:fresh proof))
             in
             (true, List.filter_map Fun.id [ a; c ])
           end
         | Range (lo, hi, entries, proof) ->
           if not (is_trusted t proof.L.rp_digest) then (false, [])
           else begin
             let digest = proof.L.rp_digest in
             let a =
               shared_job anchor_jobs t.anchors (read_anchor_key proof)
                 (fun () -> L.verify_read_anchor ~digest proof)
             in
             let r = add_job (fun () -> L.verify_range_at_root ~lo ~hi ~entries proof) in
             (true, r :: Option.to_list a)
           end
         | Write receipt ->
           if not (is_trusted t receipt.L.wr_digest) then (false, [])
           else begin
             let digest = receipt.L.wr_digest in
             let a =
               shared_job anchor_jobs t.anchors (write_anchor_key receipt)
                 (fun () -> L.verify_write_anchor ~digest receipt)
             in
             let e = add_job (fun () -> L.verify_write_entry receipt) in
             (true, e :: Option.to_list a)
           end)
    in
    let plans = List.map plan checks in
    let job_list = List.rev !jobs in
    let eval f = f () in
    let results =
      match t.pool with
      | Some pool when Spitz_exec.Pool.size pool > 1 && !n_jobs > 1 ->
        Array.of_list (Spitz_exec.Pool.map_list pool eval job_list)
      | _ -> Array.of_list (List.map eval job_list)
    in
    (* Serial stage: promote proven units into the persistent caches, then
       settle counters in submission order. *)
    Hashtbl.iter (fun k i -> if results.(i) then Hashtbl.replace t.anchors k ()) anchor_jobs;
    Hashtbl.iter
      (fun (root, claims) i ->
         if results.(i) then
           List.iter (fun (k, v) -> Hashtbl.replace t.verified (root, k, v) ()) claims)
      claim_jobs;
    List.fold_left
      (fun acc (trusted, requires) ->
         let ok = trusted && List.for_all (fun i -> results.(i)) requires in
         t.checked <- t.checked + 1;
         if not ok then t.failures <- t.failures + 1;
         ok && acc)
      true plans

  (* Submit a proof for verification. Returns [Some ok] when verified now
     (online mode, or a deferred batch just filled), [None] when queued. *)
  let submit t check =
    match t.mode with
    | Online -> Some (run_check t check)
    | Deferred batch ->
      t.pending <- check :: t.pending;
      t.pending_count <- t.pending_count + 1;
      if t.pending_count >= batch then Some (flush t) else None

  let submit_read t ~key ~value proof = submit t (Read ([ (key, value) ], proof))
  let submit_batch t ~items proof = submit t (Read (items, proof))
  let submit_range t ~lo ~hi ~entries proof = submit t (Range (lo, hi, entries, proof))
  let submit_write t receipt = submit t (Write receipt)
end

module Default = Make (Merkle_bptree)
