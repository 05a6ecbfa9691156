open Spitz_storage
open Spitz_ledger

(* The Spitz database facade: the store, ledger, cell store and inverted
   index of one database, behind the section 5.1 pipeline.

   A write arrives at the request handler ([Server.serve]) and enters
   [commit], the one write path: [L.prepare] hashes its values, then
   [L.commit_prepared] appends one ledger block and the shared [apply]
   writes its cells, the same function recovery replays. A read answers
   from the cell store; when verification is requested, the proof comes
   from the ledger's unified index — the same traversal that located the
   data, which is the efficiency argument of section 6.2.1. *)

module L = Ledger.Default
module V = Verifier.Default

(* A durable database's write-ahead log, as [commit] sees it: the log
   itself, and the store objects added since the last record (newest first),
   captured by the store observer. *)
type log = {
  wal : Wal.t;
  mutable captured : string list;
}

type t = {
  store : Object_store.t;
  cells : Cell_store.t;
  auditor : Auditor.t;
  column : string;               (* column id for the KV surface *)
  inverted : Spitz_index.Inverted.t option;
  commit_lock : Mutex.t;
  (* serializes the ledger/cell-store mutation section of [commit]; value
     hashing before it and the WAL durability wait after it run outside the
     lock, so concurrent committers overlap CPU and I/O *)
  mutable log : log option;      (* set while a durable handle is open *)
}

let create ~store ~auditor ~column ~with_inverted =
  {
    store;
    cells = Cell_store.create ~store ();
    auditor;
    column;
    inverted = (if with_inverted then Some (Spitz_index.Inverted.create ()) else None);
    commit_lock = Mutex.create ();
    log = None;
  }

let open_db ?store ?pool ?(column = "v") ?(with_inverted = false) () =
  let store = match store with Some s -> s | None -> Object_store.create () in
  create ~store ~auditor:(Auditor.create ?pool store) ~column ~with_inverted

let store t = t.store
let auditor t = t.auditor
let cells t = t.cells
let inverted_index t = t.inverted

let cell_count t = Cell_store.cell_count t.cells
(* total cell versions, not distinct keys *)

let ledger t = Auditor.ledger t.auditor

let with_commit_lock t f =
  Mutex.lock t.commit_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.commit_lock) f

(* --- Writes --- *)

(* A write-ahead log record: one committed block's height, the content
   address of its encoded body, and the store objects it added — written
   straight into the log's frame ([Wal.submit_with]), never as a string. *)
let write_wal_record ~height ~body objects buf =
  Wire.write_varint buf height;
  Wire.write_hash buf body;
  Wire.write_list buf Wire.write_string objects

(* The cell a ledger key names. [apply] writes by this rule and every read
   resolves by it, so the cell-store reads agree with the verified reads for
   every key. *)
let cell_of t key = Universal_key.split ~default:t.column key

(* What one write of a block leaves in the cell store. [Lost] is a put whose
   value recovery cannot find (its index instance and raw blob were both
   compacted away): that version is skipped. *)
type cell = Value of Object_store.value | Tombstone | Lost

(* The cell store and the inverted index are a function of the journal, and
   this is the function: the one apply that both [commit] and recovery run
   over a block's writes, given as (ledger key, w) in batch order with
   [cell] resolving [w].

   One block is one state transition: when a batch writes the same key more
   than once, the block's final state for that key is the last write (the
   ledger index folds the batch in order). Only that write may land in the
   cell store — the universal-key encoding orders same-timestamp versions by
   value hash, not write order, so asking it to break the tie reads back an
   arbitrary write of the batch. Every stored value is indexed, as its bytes,
   when the database keeps an inverted index. *)
let apply t ~height writes ~cell =
  let seen = Hashtbl.create 16 in
  let last =
    List.fold_left
      (fun acc ((key, _) as w) ->
         if Hashtbl.mem seen key then acc
         else begin
           Hashtbl.add seen key ();
           w :: acc
         end)
      [] (List.rev writes)
  in
  List.iter
    (fun (key, w) ->
       let column, pk = cell_of t key in
       match cell w with
       | Lost -> ()
       | Tombstone -> Cell_store.delete_cell t.cells ~column ~pk ~ts:height
       | Value v ->
         let ukey = Cell_store.write_cell t.cells ~column ~pk ~ts:height v in
         Option.iter
           (fun inv ->
              Spitz_index.Inverted.add inv v.Object_store.bytes (Universal_key.encode ukey))
           t.inverted)
    last

let live_cell = function Some v -> Value v | None -> Tombstone

(* One log record per block, submitted in the serial section so records land
   in height order: block N's record carries exactly the objects block N
   added — index nodes, the encoded block, cell values. *)
let submit_log t log ~height =
  Fault.hit "commit.before_wal";
  let objects = List.rev log.captured in
  log.captured <- [];
  let body = Journal.body_hash (L.journal (ledger t)) height in
  let ticket = Wal.submit_with log.wal (write_wal_record ~height ~body objects) in
  Fault.hit "commit.after_submit";
  (log.wal, ticket)

(* The keys [commit] accepts: a key the cell store cannot encode (one
   containing NUL) must fail before the ledger moves. This is the one owner
   of the rule; a cross-shard prepare votes with it. *)
let validate writes =
  if List.exists (fun (Ledger.Put (key, _) | Ledger.Delete key) -> String.contains key '\000') writes
  then Error "key contains NUL"
  else Ok ()

(* The one write path: every mutation of a database — KV puts and deletes,
   schema rows, the SQL catalog — is one batch committed here as one ledger
   block. Deletes land as tombstones in both the ledger index and the cell
   store, so the verifiable surface and the query surface agree on absence.

   Thread-safe: any number of domains may commit concurrently. The pipeline
   has three stages per commit — (1) value hashing ([L.prepare]), pure and
   lock-free, so it overlaps with anything, including the WAL write of an
   earlier commit; (2) the serial section under [commit_lock]: txn-id
   assignment, SIRI index update, block assembly, journal append, cell-store
   apply, and (when a WAL is attached) a non-blocking [Wal.submit]; (3) the
   durability wait, after the lock is released — committer B enters its
   serial section while committer A is still fsyncing, and A's WAL leader
   coalesces every record submitted meanwhile. Blocks enter the ledger in
   the order the lock is acquired, so digests, proofs and audits are
   byte-identical to that serial order. *)
let commit t ?statements writes =
  (match validate writes with Ok () -> () | Error why -> invalid_arg ("Db.commit: " ^ why));
  let prepared = L.prepare (ledger t) ?statements writes in
  let height, pending =
    with_commit_lock t (fun () ->
        let height = L.commit_prepared (ledger t) prepared in
        apply t ~height (L.prepared_values prepared) ~cell:live_cell;
        (height, Option.map (submit_log t ~height) t.log))
  in
  Option.iter
    (fun (wal, ticket) ->
       Wal.wait wal ticket;
       Fault.hit "commit.acked")
    pending;
  height

let put_batch t ?statements kvs =
  commit t ?statements (List.map (fun (k, v) -> Ledger.Put (k, v)) kvs)

let put t key value = put_batch t [ (key, value) ]

let delete t key = commit t [ Ledger.Delete key ]

let put_verified t key value =
  let height = put t key value in
  match Auditor.receipts t.auditor ~height with
  | [ receipt ] -> (height, receipt)
  | receipts -> (height, List.hd receipts)

(* --- Reads --- *)

let get t key =
  let column, pk = cell_of t key in
  Cell_store.read_value t.cells ~column ~pk

let get_at t ~height key =
  let column, pk = cell_of t key in
  Cell_store.read_value ~ts:height t.cells ~column ~pk

(* unified index: values and one proof from one ledger traversal; a point
   read is a batch of one key *)
let get_verified t key = L.get_with_proof (ledger t) key
let get_batch_verified t keys = L.get_batch_with_proof (ledger t) keys

(* from the head's index, like [range_verified]: every ledger key in range,
   whatever column [Universal_key.split] files it under *)
let range t ~lo ~hi = L.range (ledger t) ~lo ~hi

let range_verified t ~lo ~hi = L.range_with_proof (ledger t) ~lo ~hi

let history t key =
  let column, pk = cell_of t key in
  List.map (fun (uk, v) -> (uk.Universal_key.ts, v)) (Cell_store.versions t.cells ~column ~pk)

let search_value t value =
  match t.inverted with
  | None -> []
  | Some inv ->
    List.filter_map Universal_key.decode (Spitz_index.Inverted.lookup inv value)

(* --- Snapshot reads: the concurrent read path ---

   A snapshot pins one committed block state — the ledger's atomically
   published head view plus the object-store deletion generation at pin
   time. Everything below runs without [commit_lock]: the ledger part is an
   immutable record, and the store/cache layers are domain-safe, so any
   number of reader domains serve verified gets and scans while committers
   append blocks. *)

type snapshot = {
  snap : L.snapshot;
  snap_store : Object_store.t;
  snap_gen : int; (* store deletion generation at pin time *)
}

let snapshot ?height t =
  let pin ls =
    { snap = ls; snap_store = t.store; snap_gen = Object_store.generation t.store }
  in
  match height with
  | None -> Option.map pin (L.snapshot (ledger t))
  | Some height ->
    (* pinning an older block walks the journal's mutable tree — serialize
       against commits; the returned snapshot is then lock-free to read *)
    with_commit_lock t (fun () -> Some (pin (L.snapshot_at (ledger t) ~height)))

module Snapshot = struct
  let height s = L.snapshot_height s.snap
  let digest s = L.snapshot_digest s.snap
  let index_root s = L.snapshot_root s.snap

  let valid s = Object_store.generation s.snap_store = s.snap_gen

  let get s key = L.snap_get s.snap key
  let get_verified s key = L.snap_get_with_proof s.snap key
  let get_batch_verified s keys = L.snap_get_batch_with_proof s.snap keys
  let range_verified s ~lo ~hi = L.snap_range_with_proof s.snap ~lo ~hi

  (* Keys per pool task below which the handoff costs more than it saves. *)
  let parallel_threshold = 16

  let get_batch ?pool s keys =
    match pool with
    | Some pool
      when Spitz_exec.Pool.size pool > 1 && List.length keys >= parallel_threshold ->
      Spitz_exec.Pool.map_list pool (L.snap_get s.snap) keys
    | _ -> List.map (L.snap_get s.snap) keys

  (* Parallel scan: cut [lo, hi] at index-structure-aligned points and scan
     the pieces on the pool. Piece [a, b) is an inclusive scan of [a, b]
     minus the boundary key [b] (owned by the next piece), so the
     concatenation — [map_list] keeps input order — is exactly the serial
     scan. Falls back to serial when the index cannot cut (MBT) or no pool
     is given. *)
  let range ?pool s ~lo ~hi =
    match pool with
    | Some pool when Spitz_exec.Pool.size pool > 1 ->
      (match
         L.snap_split_points s.snap ~lo ~hi ~parts:(2 * Spitz_exec.Pool.size pool)
       with
       | [] -> L.snap_range s.snap ~lo ~hi
       | points ->
         let rec pieces a = function
           | [] -> [ (a, hi, None) ]
           | p :: rest -> (a, p, Some p) :: pieces p rest
         in
         let scan (a, b, boundary) =
           let entries = L.snap_range s.snap ~lo:a ~hi:b in
           match boundary with
           | None -> entries
           | Some x -> List.filter (fun (k, _) -> not (String.equal k x)) entries
         in
         List.concat (Spitz_exec.Pool.map_list pool scan (pieces lo points)))
    | _ -> L.snap_range s.snap ~lo ~hi
end

let proof_cache_stats () = L.proof_cache_stats ()
let reset_proof_cache_stats () = L.reset_proof_cache_stats ()

(* --- Verification surface --- *)

let digest t = Auditor.digest t.auditor

(* The journal is appended before the new head is published, and its
   Merkle tree is mutable: a proof computed beside a commit could reach a
   size no reader has seen yet, or walk a half-updated tree. Under the commit
   lock the journal and the head agree, so the digest and the proof below
   always describe the same published head. *)
let anchor t ~old_size =
  with_commit_lock t (fun () -> (digest t, Auditor.consistency t.auditor ~old_size))

let consistency t ~old_size = snd (anchor t ~old_size)

let verify_read ~digest ~key ~value proof = L.verify_read ~digest ~key ~value proof
let verify_batch_read ~digest ~items proof = L.verify_batch_read ~digest ~items proof
let verify_range ~digest ~lo ~hi ~entries proof = L.verify_range ~digest ~lo ~hi ~entries proof
let verify_write ~digest receipt = L.verify_write ~digest receipt

let audit t = Auditor.audit t.auditor

(* --- compaction ---

   Immutability means the store only grows (the paper's first challenge,
   section 3.1). Compaction bounds it: keep the journal (the audit trail),
   the most recent [keep_instances] ledger index versions, and every cell
   value the cell-store index references; sweep everything else — chiefly
   the interior nodes of ledger index versions older than the horizon.
   Verified reads against pruned historical instances become unavailable;
   current proofs, the full value history, and the chain audit are
   untouched. Returns (objects deleted, bytes reclaimed). *)

let compact ?(keep_instances = 16) t =
  let live = Spitz_crypto.Hash.Table.create 4096 in
  let visit h = Spitz_crypto.Hash.Table.replace live h () in
  (* the ledger: journal bodies + retained index instances *)
  L.mark_live (Auditor.ledger t.auditor) ~keep_instances visit;
  (* the cell store: every referenced value blob, including chunked ones *)
  Cell_store.iter_cells t.cells (fun _ vhash ->
      visit vhash;
      List.iter visit (Object_store.blob_parts t.store vhash));
  let before = (Object_store.stats t.store).Object_store.physical_bytes in
  let deleted = Object_store.sweep t.store ~live in
  let after = (Object_store.stats t.store).Object_store.physical_bytes in
  (deleted, before - after)

(* --- persistence: everything lives in the content-addressed store, so a
   database file is the object stream plus the journal's block addresses.
   Restore re-validates the hash chain and replays the journal to rebuild
   the cell store and inverted index. --- *)

exception Corrupt = Object_store.Corrupt
(* One error surface for every corruption mode of the persisted formats. *)

let magic = "SPITZDB1"

(* [save_with_bodies] snapshots a *pinned* block-address list rather than
   the live one: a background checkpoint pins the journal under the commit
   lock, then writes the file outside it while commits proceed. The store
   dump may then include objects of blocks newer than the pinned list —
   harmless, because content addressing makes the replay's re-puts
   idempotent and [rebuild] walks only the listed bodies. *)
let save_with_bodies t bodies path =
  (* write to a temporary sibling and rename over the target: a crash
     mid-save leaves the previous database file untouched, and rename is
     atomic on POSIX filesystems *)
  let tmp = path ^ ".tmp" in
  (try
     let oc = open_out_bin tmp in
     Fun.protect
       ~finally:(fun () -> close_out oc)
       (fun () ->
          output_string oc magic;
          let buf = Wire.writer () in
          Wire.write_string buf t.column;
          Wire.write_byte buf (if t.inverted = None then '\000' else '\001');
          Wire.write_list buf Wire.write_hash bodies;
          let header = Wire.contents buf in
          output_binary_int oc (String.length header);
          output_string oc header;
          Object_store.dump t.store oc;
          flush oc;
          Unix.fsync (Unix.descr_of_out_channel oc))
   with e ->
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  Fault.hit "save.before_rename";
  Sys.rename tmp path

let save t path = save_with_bodies t (L.body_hashes (Auditor.ledger t.auditor)) path

(* Rebuild a database around a restored object store: reopen the ledger from
   the block addresses (the hash chain is re-validated on every append),
   then replay the journal into the cell store and inverted index. *)
let rebuild ?pool ~store ~column ~with_inverted bodies =
  let ledger = L.restore ?pool store bodies in
  let t = create ~store ~auditor:(Auditor.of_ledger ledger) ~column ~with_inverted in
  let journal = L.journal ledger in
  for height = 0 to Journal.length journal - 1 do
    (* a put's value comes from the index instance of its block; if that
       instance was compacted away, small raw values are still found by
       their content address *)
    let cell (e : Block.entry) =
      match e.op with
      | Block.Delete -> Tombstone
      | Block.Insert | Block.Update ->
        (match
           match L.get_at ledger ~height e.key with
           | v -> v
           | exception Not_found -> Object_store.get store e.value_hash
         with
         | Some v -> Value (Object_store.value v)
         | None -> Lost)
    in
    apply t ~height
      (List.map (fun (e : Block.entry) -> (e.key, e)) (Journal.block journal height).entries)
      ~cell
  done;
  t

(* Restoration paths leak a zoo of exceptions — truncated channels, bad
   shifts, missing objects, broken chain links. Collapse them all into
   [Corrupt]: a reader of a damaged file needs one catchable error, not an
   exhaustive list of internals. *)
let corrupt_guard name f =
  try f () with
  | End_of_file -> raise (Corrupt (name ^ ": truncated file"))
  | Invalid_argument msg -> raise (Corrupt (name ^ ": " ^ msg))
  | Not_found -> raise (Corrupt (name ^ ": referenced object missing"))
  | Wire.Malformed msg -> raise (Corrupt (name ^ ": " ^ msg))
  | Wal.Corrupt msg -> raise (Corrupt (name ^ ": " ^ msg))

(* Snapshot header: magic, column id, inverted flag, block addresses. *)
let read_snapshot_header ic =
  let m = really_input_string ic (String.length magic) in
  if not (String.equal m magic) then raise (Corrupt "Db.load: not a spitz database file");
  let header_len = input_binary_int ic in
  if header_len < 0 || header_len > in_channel_length ic - pos_in ic then
    raise (Corrupt "Db.load: header length out of range");
  let header = really_input_string ic header_len in
  let r = Wire.reader header in
  let column = Wire.read_string r in
  let with_inverted = Wire.read_byte r = '\001' in
  let bodies = Wire.read_list r Wire.read_hash in
  (column, with_inverted, bodies)

let load path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
       corrupt_guard "Db.load" (fun () ->
           let column, with_inverted, bodies = read_snapshot_header ic in
           let store = Object_store.create () in
           Object_store.restore store ic;
           rebuild ~store ~column ~with_inverted bodies))

(* --- durable database: snapshot + write-ahead object log ---

   The snapshot is a point-in-time [save]; the write-ahead log fills the gap
   since. Every ledger commit appends one log record carrying the objects
   the commit added to the store (index nodes, the encoded block, value
   blobs) plus the block's content address. Recovery is replay: restore the
   snapshot, re-put each logged record's objects, and re-append its block —
   the journal hash chain re-validates every link, so a record that decodes
   but does not extend the chain is rejected as corrupt, while a torn tail
   (CRC failure mid-record) is truncated and forgiven. *)

type checkpoint_policy =
  | Manual
  | Every_n_bytes of int
  | Every_n_records of int

type checkpoint_stats = {
  checkpoints : int;
  auto_checkpoints : int;
  failures : int;
  retired_segments : int;
  last_error : string option;
}

type durable = {
  db : t;
  dir : string;
  log : log;
  mutable closed : bool;
  (* checkpointing: [ckpt_lock] serializes checkpoint runs (manual callers
     against the background thread); the counters are atomics so
     [checkpoint_stats] never blocks behind a checkpoint in progress *)
  ckpt_lock : Mutex.t;
  mutable ckpt_policy : checkpoint_policy;
  mutable ckpt_domain : unit Domain.t option;
  ckpt_stop : bool Atomic.t;
  ckpt_n : int Atomic.t;
  ckpt_auto : int Atomic.t;
  ckpt_failures : int Atomic.t;
  ckpt_retired : int Atomic.t;
  ckpt_last_error : string option Atomic.t;
  ckpt_base_records : int Atomic.t; (* WAL record count at the last checkpoint *)
}

let snapshot_file dir = Filename.concat dir "snapshot"
let wal_file dir = Filename.concat dir "wal"
let meta_file dir = Filename.concat dir "meta"

(* The database identity (column id, inverted flag) is written once at
   creation, so a reopen before the first checkpoint — when no snapshot
   exists yet — still knows what it is reopening. *)
let write_meta dir ~column ~with_inverted =
  let tmp = meta_file dir ^ ".tmp" in
  let oc = open_out_bin tmp in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
       output_string oc magic;
       let buf = Wire.writer () in
       Wire.write_string buf column;
       Wire.write_byte buf (if with_inverted then '\001' else '\000');
       output_string oc (Wire.contents buf));
  Sys.rename tmp (meta_file dir)

let read_meta dir =
  let ic = open_in_bin (meta_file dir) in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
       corrupt_guard "Db.open_durable(meta)" (fun () ->
           let m = really_input_string ic (String.length magic) in
           if not (String.equal m magic) then
             raise (Corrupt "Db.open_durable: meta file is not a spitz meta file");
           let rest = really_input_string ic (in_channel_length ic - pos_in ic) in
           let r = Wire.reader rest in
           let column = Wire.read_string r in
           let with_inverted = Wire.read_byte r = '\001' in
           (column, with_inverted)))

let decode_wal_record data =
  let r = Wire.reader data in
  let height = Wire.read_varint r in
  let body = Wire.read_hash r in
  let objects = Wire.read_list r Wire.read_string in
  if not (Wire.at_end r) then raise (Corrupt "wal record: trailing bytes");
  (height, body, objects)

let durable_db d = d.db
let wal_size d = Wal.size d.log.wal
let wal_stats d = Wal.stats d.log.wal

let check_open d op = if d.closed then invalid_arg ("Db." ^ op ^ ": durable handle is closed")

(* Wire the log into the commit path: the store observer captures every new
   object, and [commit] drains the capture into one log record per block. *)
let attach_wal db wal =
  let log = { wal; captured = [] } in
  Object_store.set_observer db.store (Some (fun _h data -> log.captured <- data :: log.captured));
  db.log <- Some log;
  log

let open_durable ?(sync = Wal.Always) ?(repair = true) ?pool ?(column = "v")
    ?(with_inverted = false) dir =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  if not (Sys.is_directory dir) then
    invalid_arg ("Db.open_durable: not a directory: " ^ dir);
  let snap = snapshot_file dir in
  (* a checkpoint that died before its rename leaves a stray temp file;
     removed in *both* repair modes — the temps are checkpoint debris, not
     part of the log, so even a strict (repair:false) open must not leave
     them to shadow a later checkpoint's temp or leak per crash *)
  (try Sys.remove (snap ^ ".tmp") with Sys_error _ -> ());
  (try Sys.remove (meta_file dir ^ ".tmp") with Sys_error _ -> ());
  (* the identity recorded at creation wins over the caller's defaults *)
  let column, with_inverted =
    if Sys.file_exists (meta_file dir) then read_meta dir else (column, with_inverted)
  in
  if not (Sys.file_exists (meta_file dir)) then write_meta dir ~column ~with_inverted;
  (* 1. the last checkpoint, if any *)
  let store, column, with_inverted, bodies =
    if Sys.file_exists snap then begin
      let ic = open_in_bin snap in
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
           corrupt_guard "Db.open_durable(snapshot)" (fun () ->
               let column, with_inverted, bodies = read_snapshot_header ic in
               let store = Object_store.create () in
               Object_store.restore store ic;
               (store, column, with_inverted, bodies)))
    end
    else (Object_store.create (), column, with_inverted, [])
  in
  (* 2. replay the log after the checkpoint. With [repair] (the default) a
     torn tail of the final segment is truncated in place by [Wal.replay];
     without it the log is left untouched and a tear is an error — strict
     mode surfaces damage instead of silently fixing it (and the handle
     must not append after a tear it did not repair). Damage in a sealed
     (non-final) segment raises [Wal.Corrupt] in either mode. *)
  let replayed = corrupt_guard "Db.open_durable(wal)" (fun () -> Wal.replay ~repair (wal_file dir)) in
  if (not repair) && replayed.Wal.torn_bytes > 0 then
    raise
      (Corrupt
         (Printf.sprintf "Db.open_durable: wal tail is torn (%d bytes) and repair is off"
            replayed.Wal.torn_bytes));
  let base = List.length bodies in
  let extra =
    corrupt_guard "Db.open_durable(wal)" (fun () ->
        let next = ref base in
        List.filter_map
          (fun record ->
             let height, body, objects = decode_wal_record record in
             if height < base then None
               (* a checkpoint made this record redundant before the log was
                  truncated — the crash window between rename and reset *)
             else begin
               if height <> !next then
                 raise
                   (Corrupt
                      (Printf.sprintf "wal: block height %d where %d expected" height !next));
               incr next;
               List.iter (fun data -> ignore (Object_store.put store data)) objects;
               if not (Object_store.mem store body) then
                 raise (Corrupt "wal: record does not contain its block body");
               Some body
             end)
          replayed.Wal.records)
  in
  (* 3. rebuild; [Journal.append] inside re-validates every chain link *)
  let db =
    corrupt_guard "Db.open_durable" (fun () ->
        rebuild ?pool ~store ~column ~with_inverted (bodies @ extra))
  in
  (* 4. belt and braces: re-walk the whole journal hash chain before serving *)
  if not (L.audit (Auditor.ledger db.auditor)) then
    raise (Corrupt "Db.open_durable: journal hash chain does not verify");
  let wal = Wal.open_log ~sync (wal_file dir) in
  {
    db;
    dir;
    log = attach_wal db wal;
    closed = false;
    ckpt_lock = Mutex.create ();
    ckpt_policy = Manual;
    ckpt_domain = None;
    ckpt_stop = Atomic.make false;
    ckpt_n = Atomic.make 0;
    ckpt_auto = Atomic.make 0;
    ckpt_failures = Atomic.make 0;
    ckpt_retired = Atomic.make 0;
    ckpt_last_error = Atomic.make None;
    ckpt_base_records = Atomic.make (Wal.stats wal).Wal.records;
  }

(* Checkpoint = claim, then persist.

   Under the commit lock (microseconds): pin the journal's block-address
   list and rotate the WAL. That pairs the pinned list with the sealed
   segments exactly — every record in them has height below the pin, every
   commit after the lock releases lands in the fresh segment at or above it.

   Outside the lock (the long part): write the snapshot of the pinned list
   (atomic temp+rename inside [save_with_bodies]), fsync the directory so
   the rename survives power loss, then retire the sealed segments their
   records now being snapshot-covered. Committers run concurrently with all
   of it. Crash anywhere and recovery still works: the snapshot rename is
   atomic, replay skips records below the snapshot's base height, and
   retirement deletes oldest-first so a half-retired tail is a plain suffix
   of snapshot-covered segments. *)
let checkpoint_locked ?(auto = false) d =
  match
    let bodies =
      with_commit_lock d.db (fun () ->
           Fault.hit "checkpoint.begin";
           let bodies = L.body_hashes (Auditor.ledger d.db.auditor) in
           ignore (Wal.rotate d.log.wal);
           Atomic.set d.ckpt_base_records (Wal.stats d.log.wal).Wal.records;
           (* commits drain the capture under this same lock; anything left
              belongs to a commit that failed before logging, and the pinned
              bodies cover it *)
           d.log.captured <- [];
           bodies)
    in
    save_with_bodies d.db bodies (snapshot_file d.dir);
    Fault.hit "checkpoint.save_done";
    Wal.fsync_dir d.dir;
    Fault.hit "checkpoint.after_rename";
    Wal.retire d.log.wal
  with
  | retired ->
    Atomic.incr d.ckpt_n;
    if auto then Atomic.incr d.ckpt_auto;
    ignore (Atomic.fetch_and_add d.ckpt_retired retired)
  | exception e ->
    Atomic.incr d.ckpt_failures;
    Atomic.set d.ckpt_last_error (Some (Printexc.to_string e));
    raise e

let checkpoint d =
  check_open d "checkpoint";
  (* serialize whole checkpoint runs — a manual caller against the
     background thread — without touching the commit lock *)
  Mutex.lock d.ckpt_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock d.ckpt_lock)
    (fun () -> checkpoint_locked d)

let checkpoint_stats d =
  {
    checkpoints = Atomic.get d.ckpt_n;
    auto_checkpoints = Atomic.get d.ckpt_auto;
    failures = Atomic.get d.ckpt_failures;
    retired_segments = Atomic.get d.ckpt_retired;
    last_error = Atomic.get d.ckpt_last_error;
  }

let checkpoint_due d =
  match d.ckpt_policy with
  | Manual -> false
  | Every_n_bytes n -> Wal.size d.log.wal >= max 1 n
  | Every_n_records n ->
    (Wal.stats d.log.wal).Wal.records - Atomic.get d.ckpt_base_records >= max 1 n

(* The background checkpointer is a domain, not a systhread: a systhread
   would contend for the runtime lock with committer threads for the whole
   CPU-bound snapshot serialization, inflating commit tail latency — the
   very thing background checkpoints exist to avoid. A failed attempt
   backs off exponentially (capped) so a persistent error — disk full,
   injected crash — cannot spin the loop. *)
let ckpt_loop d =
  let min_backoff = 0.002 in
  let backoff = ref min_backoff in
  let retry = ref false in
  while not (Atomic.get d.ckpt_stop) do
    if !retry || checkpoint_due d then begin
      Mutex.lock d.ckpt_lock;
      match
        Fun.protect
          ~finally:(fun () -> Mutex.unlock d.ckpt_lock)
          (fun () -> if not (Atomic.get d.ckpt_stop) then checkpoint_locked ~auto:true d)
      with
      | () ->
        backoff := min_backoff;
        retry := false
      | exception _ ->
        (* counted in [ckpt_failures]/[last_error] by [checkpoint_locked].
           A failed attempt may already have rotated the log and reset the
           policy counters in phase 1, so [checkpoint_due] alone would never
           re-fire on a quiet database: always retry after the backoff *)
        retry := true;
        Unix.sleepf !backoff;
        backoff := Float.min (!backoff *. 2.) 0.2
    end
    else Unix.sleepf 0.001
  done

let stop_checkpointer d =
  match d.ckpt_domain with
  | None -> ()
  | Some dom ->
    Atomic.set d.ckpt_stop true;
    Domain.join dom;
    d.ckpt_domain <- None;
    Atomic.set d.ckpt_stop false

let set_checkpoint_policy d policy =
  check_open d "set_checkpoint_policy";
  d.ckpt_policy <- policy;
  match policy with
  | Manual -> stop_checkpointer d
  | Every_n_bytes _ | Every_n_records _ ->
    if d.ckpt_domain = None then d.ckpt_domain <- Some (Domain.spawn (fun () -> ckpt_loop d))

let sync_durable d =
  check_open d "sync_durable";
  Wal.sync d.log.wal

let close_durable d =
  if not d.closed then begin
    (* stop the background checkpointer before tearing anything down: it
       may be mid-checkpoint, and joining it is the only safe ordering *)
    stop_checkpointer d;
    (* under the lock, so no commit logs a record with half its objects *)
    with_commit_lock d.db (fun () ->
        d.db.log <- None;
        Object_store.set_observer d.db.store None);
    d.closed <- true;
    (* last: drain + fsync + close the log, *surfacing* failures — a close
       that could not flush the pending group-commit batch must not look
       clean, or acknowledged records silently evaporate. [Wal.close]
       closes the descriptor even when the drain raises, and the log is
       already detached, so the handle is fully shut either way. *)
    Wal.close d.log.wal
  end
