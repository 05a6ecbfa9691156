open Spitz_txn

(* The distributed control layer (paper Figure 5): multiple processor nodes
   consume from a global message queue; coordination and resource management
   sit with a master node. Two deployments:

   - [shared]: every processor serves the same storage layer (the paper's
     default: the storage layer is the distributed system; processors are
     stateless request handlers). The master round-robins the queue.

   - [partitioned]: the key space is hash-partitioned across per-node ledgers,
     and cross-partition transactions run two-phase commit so that commits
     remain atomic across nodes (section 5.2). *)

type t = {
  processors : Processor.t array;
  master_queue : (Processor.request * (Processor.response -> unit)) Queue.t;
  mutable dispatched : int;
  oracle : Timestamp.t;
}

let create ?(nodes = 3) db =
  if nodes < 1 then invalid_arg "Cluster.create: need at least one node";
  {
    processors = Array.init nodes (fun node_id -> Processor.create ~node_id db);
    master_queue = Queue.create ();
    dispatched = 0;
    oracle = Timestamp.create ();
  }

let nodes t = Array.length t.processors
let processor t i = t.processors.(i)

(* The master: move requests from the global queue to processors,
   round-robin, then let every processor drain. *)
let submit t request callback = Queue.add (request, callback) t.master_queue

let dispatch t =
  while not (Queue.is_empty t.master_queue) do
    let request, callback = Queue.pop t.master_queue in
    let node = t.dispatched mod Array.length t.processors in
    t.dispatched <- t.dispatched + 1;
    Processor.submit t.processors.(node) request callback
  done;
  Array.fold_left (fun acc p -> acc + Processor.run p) 0 t.processors

let call t request =
  let slot = ref (Processor.Rejected "not processed") in
  submit t request (fun r -> slot := r);
  ignore (dispatch t);
  !slot

(* --- partitioned deployment --- *)

module Partitioned = struct
  type shard = { db : Db.t; locks : Lock_manager.t }

  type t = {
    shards : shard array;
    oracle : Timestamp.t;
    mutable next_txn : int;
    mutable commits : int;
    mutable aborts : int;
  }

  let create ?(shards = 3) () =
    if shards < 1 then invalid_arg "Cluster.Partitioned.create: need at least one shard";
    {
      shards = Array.init shards (fun _ -> { db = Db.open_db (); locks = Lock_manager.create () });
      oracle = Timestamp.create ();
      next_txn = 0;
      commits = 0;
      aborts = 0;
    }

  let shard_count t = Array.length t.shards

  let shard_of t key = Hashtbl.hash key mod Array.length t.shards

  let shard t i = t.shards.(i).db

  let get t key = Db.get t.shards.(shard_of t key).db key

  let get_verified t key =
    let s = t.shards.(shard_of t key) in
    (Db.get_verified s.db key, Db.digest s.db)

  (* Cross-shard atomic commit: 2PC. Prepare takes exclusive locks on every
     shard a key lives on; any failed lock aborts the whole transaction. The
     commit applies one ledger block per participating shard, all tagged with
     the same global transaction statement, so an auditor can correlate the
     per-shard blocks of one transaction. This is the system's one 2PC.
     Prepare writes no log record: the shards are in-memory databases, so
     there is no log to make it durable in. *)
  let put_all t kvs =
    let txn = t.next_txn in
    t.next_txn <- txn + 1;
    let routed = List.map (fun (k, v) -> (shard_of t k, k, v)) kvs in
    let participants = List.sort_uniq Int.compare (List.map (fun (s, _, _) -> s) routed) in
    (* phase 1: lock everything *)
    let locked_ok =
      List.for_all
        (fun (si, k, _) ->
           match Lock_manager.acquire t.shards.(si).locks ~txn ~mode:Lock_manager.Exclusive k with
           | Lock_manager.Granted -> true
           | Lock_manager.Must_wait | Lock_manager.Must_abort -> false)
        routed
    in
    if not locked_ok then begin
      List.iter (fun si -> Lock_manager.release_all t.shards.(si).locks ~txn) participants;
      t.aborts <- t.aborts + 1;
      Error "prepare failed: write conflict"
    end
    else begin
      (* phase 2: one block per shard, same statement tag *)
      let commit_ts = Timestamp.next t.oracle in
      let statement = Printf.sprintf "GLOBAL-TXN %d @%d" txn commit_ts in
      let heights =
        List.map
          (fun si ->
             let mine = List.filter_map (fun (s, k, v) -> if s = si then Some (k, v) else None) routed in
             (si, Db.put_batch t.shards.(si).db ~statements:[ statement ] mine))
          participants
      in
      List.iter (fun si -> Lock_manager.release_all t.shards.(si).locks ~txn) participants;
      t.commits <- t.commits + 1;
      Ok (commit_ts, heights)
    end

  let stats t = (t.commits, t.aborts)

  (* Every shard's ledger must audit clean for the cluster to audit clean. *)
  let audit t = Array.for_all (fun s -> Db.audit s.db) t.shards
end
