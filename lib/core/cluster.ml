open Spitz_ledger

(* A hash-partitioned cluster: the key space is split across per-shard
   ledgers, and cross-shard transactions run two-phase commit so that a
   commit stays atomic across shards (section 5.2). Requests reach a single
   database through [Server.serve]; this is the multi-ledger deployment. *)

type t = {
  shards : Db.t array;
  oracle : Spitz_txn.Timestamp.t;
  mutable next_txn : int;
  mutable commits : int;
  mutable aborts : int;
}

let create ?(shards = 3) () =
  if shards < 1 then invalid_arg "Cluster.create: need at least one shard";
  {
    shards = Array.init shards (fun _ -> Db.open_db ());
    oracle = Spitz_txn.Timestamp.create ();
    next_txn = 0;
    commits = 0;
    aborts = 0;
  }

let shard_count t = Array.length t.shards

let shard_of t key = Hashtbl.hash key mod Array.length t.shards

let shard t i = t.shards.(i)

let get t key = Db.get t.shards.(shard_of t key) key

let get_verified t key =
  let db = t.shards.(shard_of t key) in
  (Db.get_verified db key, Db.digest db)

(* Cross-shard atomic commit: 2PC, the system's one. Phase 1 asks every
   participant to vote on its writes with [Db.validate], the rule its
   [Db.commit] applies; one no aborts the transaction before any shard
   moves. Phase 2 commits one ledger block per participant, all tagged with
   the same global transaction statement, so an auditor can correlate the
   per-shard blocks of one transaction. Prepare writes no log record: the
   shards are in-memory databases, so there is no log to make it durable
   in. *)
let put_all t kvs =
  let txn = t.next_txn in
  t.next_txn <- txn + 1;
  let writes = Array.make (Array.length t.shards) [] in
  List.iter
    (fun (k, v) ->
       let si = shard_of t k in
       writes.(si) <- Ledger.Put (k, v) :: writes.(si))
    (List.rev kvs);
  let participants =
    List.filter (fun si -> writes.(si) <> []) (List.init (Array.length t.shards) Fun.id)
  in
  (* phase 1: every participant votes *)
  let veto si = match Db.validate writes.(si) with Ok () -> None | Error why -> Some why in
  match List.find_map veto participants with
  | Some why ->
    t.aborts <- t.aborts + 1;
    Error ("prepare failed: " ^ why)
  | None ->
    (* phase 2: one block per shard, same statement tag *)
    let commit_ts = Spitz_txn.Timestamp.next t.oracle in
    let statement = Printf.sprintf "GLOBAL-TXN %d @%d" txn commit_ts in
    let heights =
      List.map (fun si -> (si, Db.commit t.shards.(si) ~statements:[ statement ] writes.(si)))
        participants
    in
    t.commits <- t.commits + 1;
    Ok (commit_ts, heights)

let stats t = (t.commits, t.aborts)

(* Every shard's ledger must audit clean for the cluster to audit clean. *)
let audit t = Array.for_all Db.audit t.shards
