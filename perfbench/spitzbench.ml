(* The Spitz benchmark: verifying clients against an in-process loopback
   server, one workload per process.

     spitzbench --workload ingest|read|mixed --seed N --seconds S --trace 0|1
                [--dir DIR]

   Clients are real Spitz_server.Session values (the synchronous verifying
   client the CLI uses) in a closed loop against a Spitz_server.Server on
   127.0.0.1. Every op stream is generated up front from --seed; the program
   under test only ever sees the generated inputs. The stream length is
   fixed by --seconds and a per-workload op rate (the seed-state rate on a
   2-core box), so both sides of a comparison do exactly the same work.

   --trace 0 prints the end-to-end metrics; --trace 1 replays the same op
   stream in-process around the public Db calls the server and session make
   and prints per-layer spans and counters. The last stdout line is a JSON
   object {correct, attempted, failed, metrics}; a failed correctness gate
   exits 1. See README.md in this directory for the metric map. *)

open Spitz_workload
module Db = Spitz.Db
module Server = Spitz_server.Server
module Session = Spitz_server.Session
module Frame = Spitz_server.Frame
module Hash = Spitz_crypto.Hash
module Journal = Spitz_ledger.Journal
module Block = Spitz_ledger.Block
module Ledger = Spitz_ledger.Ledger
module Wal = Spitz_storage.Wal
module Object_store = Spitz_storage.Object_store
module NC = Spitz_storage.Node_cache

let pr fmt = Printf.printf fmt

(* ---------- clock and samples ---------- *)

let now () = Monotonic_clock.now ()
let since_us t0 = Int64.to_float (Int64.sub (now ()) t0) /. 1e3
let since_s t0 = since_us t0 /. 1e6

(* A growable float buffer: one per (client, span) so recording never
   shares memory between threads. *)
module Samples = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 256 0.; n = 0 }

  let add b x =
    if b.n = Array.length b.a then begin
      let a = Array.make (2 * b.n) 0. in
      Array.blit b.a 0 a 0 b.n;
      b.a <- a
    end;
    b.a.(b.n) <- x;
    b.n <- b.n + 1

  (* every sample of [bs], sorted *)
  let merge bs =
    let a = Array.concat (List.map (fun b -> Array.sub b.a 0 b.n) bs) in
    Array.sort Float.compare a;
    a
end

(* Nearest-rank percentile, reported only when at least ten samples lie
   beyond it. *)
let percentile sorted q =
  let n = Array.length sorted in
  let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
  if n = 0 || n - rank < 10 then None else Some sorted.(max 0 (rank - 1))

let median sorted = percentile sorted 0.5

let median_of xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a.(Array.length a / 2)

(* ---------- metric output ---------- *)

(* Metrics for the final JSON line; with [recording] off a metric is only
   printed (the per-kind client metrics of a --trace 0 run). *)
let metrics : (string * float * string) list ref = ref []
let recording = ref true

let record name value unit = if !recording then metrics := (name, value, unit) :: !metrics

let report name value unit =
  record name value unit;
  pr "metric %-30s %14.4f %s\n%!" name value unit

(* An op kind the workload never issues (or an in-memory workload's disk
   metric): recorded as 0, printed as absent. *)
let absent name unit why =
  record name 0. unit;
  pr "metric %-30s %14s %s (%s)\n" name "-" unit why

(* A timing: the median, then the p99 — or with [~tail] the highest of
   p99/p95/p90 that has ten samples beyond it — with the sample count. *)
let report_timing ?(tail = false) name sorted =
  let n = Array.length sorted in
  let prefix = if name = "" then "" else name ^ "_" in
  (match median sorted with
   | Some v ->
     record (prefix ^ "p50_us") v "us";
     pr "metric %-30s %14.4f us (n=%d)\n" (prefix ^ "p50_us") v n
   | None -> absent (prefix ^ "p50_us") "us" (Printf.sprintf "n=%d, too few samples" n));
  let high = prefix ^ if tail then "tail_us" else "p99_us" in
  let found =
    List.find_map
      (fun (label, q) -> Option.map (fun v -> (label, v)) (percentile sorted q))
      [ ("p99", 0.99); ("p95", 0.95); ("p90", 0.90) ]
  in
  match found with
  | Some (label, v) when tail || label = "p99" ->
    record high v "us";
    pr "metric %-30s %14.4f us (%s, n=%d)\n" high v label n
  | Some (label, v) -> absent high "us" (Printf.sprintf "n=%d; %s = %.1f us" n label v)
  | None -> absent high "us" (Printf.sprintf "n=%d, too few samples" n)

let ratio a b = if b = 0. then 0. else a /. b

(* ---------- filesystem ---------- *)

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path

let rec dir_bytes path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.fold_left
      (fun acc f -> acc + dir_bytes (Filename.concat path f))
      0 (Sys.readdir path)
  | st -> st.Unix.st_size

(* ---------- workloads ---------- *)

type op =
  | Get of string
  | Range of { lo : string; hi : string; count : int }
  | Write of (string * string) list

(* op kinds, indexing every per-kind array below *)
let k_read = 0
let k_range = 1
let k_write = 2
let kind_names = [| "read"; "range"; "write" |]
let kind_of = function Get _ -> k_read | Range _ -> k_range | Write _ -> k_write

type spec = {
  name : string;
  durable : bool;
  checkpoint_bytes : int option; (* background Every_n_bytes checkpoints *)
  rows : (string * string) array; (* the initial database *)
  streams : op array array;       (* one closed-loop client each *)
  written : (string * string, unit) Hashtbl.t; (* every (key, value) ever written *)
}

let group_sync = Wal.Group { max_batch = 64; max_delay_us = 200 }
let load_chunk = 1_000

(* Seed-state op rates on a 2-core box: a stream holds rate * seconds ops,
   so a run measures about --seconds on the seed and the same work on any
   later commit. *)
let read_rows = 30_000
let read_rate = 4_500
let range_keys = read_rows / 1_000 (* Fig 7's 0.1% selectivity *)
let ingest_rows = 10_000
let ingest_batch = 64
let ingest_rate = 45
let mixed_rows = 10_000
let mixed_rate = 2_000
let mixed_checkpoint_bytes = 4 lsl 20
let value_bytes = 200

let value_of_rng r = String.init value_bytes (fun _ -> Char.chr (33 + Keygen.int r 94))

(* A spec with its table of every (key, value) the inputs write. *)
let make_spec ~name ~durable ?checkpoint_bytes rows streams =
  let written = Hashtbl.create (2 * Array.length rows) in
  Array.iter (fun kv -> Hashtbl.replace written kv ()) rows;
  Array.iter
    (Array.iter (function
      | Write kvs -> List.iter (fun kv -> Hashtbl.replace written kv ()) kvs
      | Get _ | Range _ -> ()))
    streams;
  { name; durable; checkpoint_bytes; rows; streams; written }

(* Zipf(theta) over ranks [0, n): inverse-CDF sampling on a precomputed
   table. Ranks map to keys through a seeded permutation so the hot set is
   scattered across the index rather than packed into its first leaves. *)
let zipf_sampler r ~n ~theta =
  let cdf = Array.make n 0. in
  let acc = ref 0. in
  for i = 0 to n - 1 do
    acc := !acc +. (1. /. (float_of_int (i + 1) ** theta));
    cdf.(i) <- !acc
  done;
  Array.iteri (fun i c -> cdf.(i) <- c /. !acc) cdf;
  let perm = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Keygen.int r (i + 1) in
    let t = perm.(i) in
    perm.(i) <- perm.(j);
    perm.(j) <- t
  done;
  fun r ->
    let u = Keygen.float r in
    let lo = ref 0 and hi = ref (n - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if cdf.(mid) < u then lo := mid + 1 else hi := mid
    done;
    perm.(!lo)

let gen_read ~seed ~seconds =
  let rows = Array.init read_rows (fun i -> let k = Keygen.key_of i in (k, Keygen.value_of k)) in
  let root = Keygen.rng seed in
  let per_client = read_rate * seconds / 2 in
  let stream () =
    let r = Keygen.split root in
    Array.init per_client (fun _ ->
        (* about 9 verified gets per verified range *)
        if Keygen.int r 10 = 0 then begin
          let lo = Keygen.int r (read_rows - range_keys) in
          let hi = lo + range_keys - 1 in
          let lo, hi = Keygen.range_bounds ~lo ~hi in
          Range { lo; hi; count = range_keys }
        end
        else Get (Keygen.key_of (Keygen.int r read_rows)))
  in
  make_spec ~name:"read" ~durable:false rows (Array.init 2 (fun _ -> stream ()))

let gen_ingest ~seed ~seconds =
  let r = Keygen.rng seed in
  let used = Hashtbl.create 100_000 in
  (* keys at seeded random positions of the 36^5 keyspace *)
  let rec fresh_key () =
    let i = Keygen.int r 60_000_000 in
    if Hashtbl.mem used i then fresh_key ()
    else begin
      Hashtbl.add used i ();
      Keygen.key_of i
    end
  in
  let row () =
    let k = fresh_key () in
    (k, value_of_rng r)
  in
  let rows = Array.init ingest_rows (fun _ -> row ()) in
  let batches =
    Array.init (ingest_rate * seconds) (fun _ -> Write (List.init ingest_batch (fun _ -> row ())))
  in
  make_spec ~name:"ingest" ~durable:true rows [| batches |]

let gen_mixed ~seed ~seconds =
  let r = Keygen.rng seed in
  let rows = Array.init mixed_rows (fun i -> (Keygen.key_of i, value_of_rng r)) in
  let pick = zipf_sampler r ~n:mixed_rows ~theta:0.99 in
  let per_client = mixed_rate * seconds / 2 in
  let stream () =
    let r = Keygen.split r in
    Array.init per_client (fun _ ->
        let k = Keygen.key_of (pick r) in
        (* about 3 verified gets per single-row overwrite *)
        if Keygen.int r 4 = 0 then Write [ (k, value_of_rng r) ] else Get k)
  in
  make_spec ~name:"mixed" ~durable:true ~checkpoint_bytes:mixed_checkpoint_bytes rows
    (Array.init 2 (fun _ -> stream ()))

let user_bytes kvs = List.fold_left (fun acc (k, v) -> acc + String.length k + String.length v) 0 kvs

let stream_user_bytes spec =
  Array.fold_left
    (Array.fold_left (fun acc -> function Write kvs -> acc + user_bytes kvs | _ -> acc))
    0 spec.streams

let setup_user_bytes spec = user_bytes (Array.to_list spec.rows)

(* ---------- setup ---------- *)

type live = { db : Db.t; durable : Db.durable option; dir : string }

(* Every setup starts from cold module-global caches, as a fresh process
   would: the decoded-node cache and the proof cache are shared by every
   Db in the process. *)
let clear_caches () =
  NC.clear Spitz_adt.Kv_node.cache;
  Db.L.clear_proof_cache ()

let load_rows (spec : spec) db =
  let n = Array.length spec.rows in
  let rec go i =
    if i < n then begin
      let len = min load_chunk (n - i) in
      ignore (Db.put_batch db (Array.to_list (Array.sub spec.rows i len)));
      go (i + len)
    end
  in
  go 0

let setup (spec : spec) ~dir =
  clear_caches ();
  if spec.durable then rm_rf dir;
  Gc.compact ();
  let t0 = now () in
  let live =
    if spec.durable then begin
      let d = Db.open_durable ~sync:group_sync dir in
      let db = Db.durable_db d in
      load_rows spec db;
      Db.checkpoint d;
      Option.iter (fun b -> Db.set_checkpoint_policy d (Db.Every_n_bytes b)) spec.checkpoint_bytes;
      { db; durable = Some d; dir }
    end
    else begin
      let db = Db.open_db () in
      load_rows spec db;
      { db; durable = None; dir }
    end
  in
  (live, since_s t0)

(* Stop logging and remove the directory; the database stays usable in
   memory. *)
let teardown live =
  Option.iter
    (fun d ->
      Db.close_durable d;
      rm_rf live.dir)
    live.durable

(* ---------- correctness gates ---------- *)

let gate_failures = ref []

let gate name ok =
  pr "gate   %-30s %s\n%!" name (if ok then "ok" else "FAILED");
  if not ok then gate_failures := name :: !gate_failures

let value_ok spec k = function
  | Some v -> Hashtbl.mem spec.written (k, v)
  | None -> false

let height db = Db.L.height (Spitz.Auditor.ledger (Db.auditor db))

(* The blocks committed at heights [from..] in journal order, as the writes
   that produced them: values are recovered from the generated inputs by
   their hashes, so a value no client wrote fails the gate. *)
let committed_blocks spec db ~from =
  let by_hash = Hashtbl.create (Hashtbl.length spec.written) in
  Hashtbl.iter
    (fun (_, v) () -> Hashtbl.replace by_hash (Hash.to_raw (Hash.of_string v)) v)
    spec.written;
  let journal = Db.L.journal (Spitz.Auditor.ledger (Db.auditor db)) in
  let known = ref true in
  let blocks =
    List.init (height db - from) (fun i ->
        let block = Journal.block journal (from + i) in
        let writes =
          List.map
            (fun (e : Block.entry) ->
              match e.Block.op with
              | Block.Delete -> Ledger.Delete e.Block.key
              | Block.Insert | Block.Update -> (
                match Hashtbl.find_opt by_hash (Hash.to_raw e.Block.value_hash) with
                | Some v -> Ledger.Put (e.Block.key, v)
                | None ->
                  known := false;
                  Ledger.Put (e.Block.key, "")))
            block.Block.entries
        in
        (block.Block.statements, writes))
  in
  gate "committed_values_known" !known;
  blocks

(* Serial equivalence: committing the measured phase's blocks one at a time,
   in journal order, onto a database at the setup state must reproduce the
   measured database's digest bit for bit. *)
let replay_gate base blocks ~digest =
  List.iter (fun (statements, writes) -> ignore (Db.commit base ~statements writes)) blocks;
  gate "journal_replay_digest_equal" (Db.digest base = digest)

(* Close the durable dir, then time reopening it (log replay plus chain
   re-walk) and require the full audit to pass with an equal digest. *)
let close_and_recover spec live =
  match live.durable with
  | None -> None
  | Some d ->
    let digest = Db.digest live.db in
    Db.close_durable d;
    let disk = dir_bytes live.dir in
    let t0 = now () in
    let d' = Db.open_durable ~sync:group_sync live.dir in
    let recovery = since_s t0 in
    let db' = Db.durable_db d' in
    gate "reopen_audit" (Db.audit db');
    gate "reopen_digest_equal" (Db.digest db' = digest);
    Db.close_durable d';
    rm_rf live.dir;
    let user = setup_user_bytes spec + stream_user_bytes spec in
    Some (float_of_int disk /. float_of_int user, recovery)

(* ---------- counters ---------- *)

type counters = {
  store : Object_store.stats;
  wal : Wal.stats option;
  ckpt : Db.checkpoint_stats option;
  gc : Gc.stat;
}

let counters live =
  {
    store = Object_store.stats (Db.store live.db);
    wal = Option.map Db.wal_stats live.durable;
    ckpt = Option.map Db.checkpoint_stats live.durable;
    gc = Gc.quick_stat ();
  }

let reset_cache_counters () =
  NC.reset_stats Spitz_adt.Kv_node.cache;
  Db.reset_proof_cache_stats ()

(* ---------- the measured phase: Sessions over loopback ---------- *)

type phase = {
  lat : float array array; (* per op kind, sorted; successful ops only *)
  wall : float;
  attempted : int;
  failed : int;
  mismatched : int;
  checked : int;
  vfailures : int;
  min_final_checked : int;
  errors : string list;
  before : counters;
  after : counters;
  server : Server.stats;
  node_cache : NC.stats;
  proof_cache : NC.stats;
}

let max_errors_shown = 5

(* One accept domain: with the client threads' domain that makes two
   domains on a two-core box. With two accept domains the connection ->
   domain placement is a per-run coin flip, and run-to-run spread tripled. *)
let server_config = { Server.default_config with Server.accept_domains = 1 }

let session_phase spec live =
  let server = Server.start ~config:server_config live.db in
  let port = Server.port server in
  let n_clients = Array.length spec.streams in
  let lats = Array.init n_clients (fun _ -> Array.init 3 (fun _ -> Samples.create ())) in
  let failed = Array.make n_clients 0 in
  let mismatched = Array.make n_clients 0 in
  let checked = Array.make n_clients 0 in
  let vfailures = Array.make n_clients 0 in
  let final_checked = Array.make n_clients 0 in
  let errors = Array.make n_clients [] in
  let client c () =
    let sess = ref (Session.connect ~port ()) in
    let retire () =
      checked.(c) <- checked.(c) + Session.checked !sess;
      vfailures.(c) <- vfailures.(c) + Session.failures !sess;
      Session.close !sess
    in
    let fail msg =
      failed.(c) <- failed.(c) + 1;
      if List.length errors.(c) < max_errors_shown then errors.(c) <- msg :: errors.(c);
      retire ();
      sess := Session.connect ~port ()
    in
    Array.iter
      (fun op ->
        let t0 = now () in
        match
          match op with
          | Get k -> `Value (k, Session.get_verified !sess k)
          | Range { lo; hi; _ } -> `Entries (Session.range_verified !sess ~lo ~hi)
          | Write [ (k, v) ] -> `Height (Session.put !sess k v)
          | Write kvs -> `Height (Session.put_batch !sess kvs)
        with
        | result ->
          Samples.add lats.(c).(kind_of op) (since_us t0);
          let ok =
            match (result, op) with
            | `Value (k, v), _ -> value_ok spec k v
            | `Entries es, Range { count; _ } ->
              List.length es = count && List.for_all (fun (k, v) -> value_ok spec k (Some v)) es
            | `Entries _, _ -> false
            | `Height _, _ -> true
          in
          if not ok then mismatched.(c) <- mismatched.(c) + 1
        | exception Session.Verification_failed m -> fail ("verification failed: " ^ m)
        | exception Session.Server_error m -> fail ("server error: " ^ m)
        | exception (Unix.Unix_error _ | Frame.Closed | End_of_file) -> fail "connection lost")
      spec.streams.(c);
    (* untimed: one more proof-checked read, so every final session has
       verified at least one proof even on a write-only stream *)
    let k, _ = spec.rows.(c) in
    (match Session.get_verified !sess k with
     | v -> if not (value_ok spec k v) then mismatched.(c) <- mismatched.(c) + 1
     | exception (Session.Verification_failed _ | Session.Server_error _) -> ());
    final_checked.(c) <- Session.checked !sess;
    retire ()
  in
  let before = counters live in
  let server_before = Server.stats server in
  reset_cache_counters ();
  let t0 = now () in
  let threads = List.init n_clients (fun c -> Thread.create (client c) ()) in
  List.iter Thread.join threads;
  let wall = since_s t0 in
  let node_cache = NC.stats Spitz_adt.Kv_node.cache in
  let proof_cache = Db.proof_cache_stats () in
  let after = counters live in
  let server_after = Server.stats server in
  Server.stop server;
  let sum a = Array.fold_left ( + ) 0 a in
  {
    lat = Array.init 3 (fun k -> Samples.merge (Array.to_list (Array.map (fun l -> l.(k)) lats)));
    wall;
    attempted = Array.fold_left (fun acc s -> acc + Array.length s) 0 spec.streams;
    failed = sum failed;
    mismatched = sum mismatched;
    checked = sum checked;
    vfailures = sum vfailures;
    min_final_checked = Array.fold_left min max_int final_checked;
    errors = List.concat (Array.to_list errors);
    before;
    after;
    server =
      {
        server_after with
        Server.requests = server_after.Server.requests - server_before.Server.requests;
        bytes_in = server_after.Server.bytes_in - server_before.Server.bytes_in;
        bytes_out = server_after.Server.bytes_out - server_before.Server.bytes_out;
      };
    node_cache;
    proof_cache;
  }

(* The client-visible timings and the metrics that exist only on some
   workloads. Host CPU speed swings these timings by 10-30% from run to
   run, so they carry no regression bound: --trace 0 prints them, --trace 1
   puts them in its result. *)
let report_client_metrics spec p ~recovery =
  report "ops_per_s" (float_of_int (p.attempted - p.failed) /. p.wall) "ops/s";
  let all = Array.concat (Array.to_list p.lat) in
  Array.sort Float.compare all;
  report_timing ~tail:true "" all;
  let has k = Array.exists (Array.exists (fun op -> kind_of op = k)) spec.streams in
  List.iter
    (fun k ->
      let name = kind_names.(k) in
      if has k then report_timing name p.lat.(k)
      else
        List.iter
          (fun s -> absent (name ^ s) "us" ("no " ^ name ^ " ops on this workload"))
          [ "_p50_us"; "_p99_us" ])
    [ k_read; k_range; k_write ];
  report "failed_ratio" (ratio (float_of_int p.failed) (float_of_int p.attempted)) "ratio";
  match recovery with
  | Some (disk, rec_s) ->
    report "disk_bytes_per_user_byte" disk "ratio";
    report "recovery_s" rec_s "s"
  | None ->
    absent "disk_bytes_per_user_byte" "ratio" "in-memory workload";
    absent "recovery_s" "s" "in-memory workload"

(* ---------- the traced replay: the same stream, in-process ---------- *)

(* Spans, timed around the public call the server or session makes. *)
let span_names =
  [|
    "core.pin"; (* Db.snapshot ~height *)
    "ledger.prove"; (* Db.Snapshot.get_verified / range_verified *)
    "ledger.proof_encode"; (* Db.L.encode_read_proof *)
    "ledger.proof_decode"; (* Db.L.decode_read_proof *)
    "verifier.read"; (* Db.V.submit_read / submit_range *)
    "core.commit"; (* Db.commit ~statements *)
    "core.anchor"; (* Db.digest + Db.consistency *)
    "verifier.sync"; (* Db.V.sync *)
  |]

let s_pin = 0
let s_prove = 1
let s_encode = 2
let s_decode = 3
let s_vread = 4
let s_commit = 5
let s_anchor = 6
let s_vsync = 7

type replay = {
  r_lat : Samples.t array array; (* client -> op kind *)
  r_spans : Samples.t array array; (* client -> span *)
  r_wall : float;
  r_rejected_anchors : int;
  r_rejected_proofs : int;
}

let replay_phase spec live ~traced =
  let db = live.db in
  let n_clients = Array.length spec.streams in
  let client c =
    let lat = Array.init 3 (fun _ -> Samples.create ()) in
    let spans = Array.init (Array.length span_names) (fun _ -> Samples.create ()) in
    let rejected_anchors = ref 0 and rejected_proofs = ref 0 in
    let v = ref (Db.V.create ()) in
    let seq = ref 0 in
    (* [span s t0] records since t0 when traced and returns the new t0 *)
    let span s t0 =
      if traced then begin
        let t1 = now () in
        Samples.add spans.(s) (Int64.to_float (Int64.sub t1 t0) /. 1e3);
        t1
      end
      else t0
    in
    let tick () = if traced then now () else 0L in
    (* Server.anchor + Session.sync: the published digest with a
       consistency proof from the pin, retried while the head moves *)
    let anchor () =
      let known = match Db.V.digest !v with None -> 0 | Some d -> d.Journal.size in
      let t0 = tick () in
      let rec go attempt =
        let d = Db.digest db in
        let consistency = Db.consistency db ~old_size:known in
        let d' = Db.digest db in
        if d'.Journal.size = d.Journal.size || attempt > 8 then (d, consistency) else go (attempt + 1)
      in
      let digest, consistency = go 0 in
      let t0 = span s_anchor t0 in
      let ok = Db.V.sync !v ~digest ~consistency in
      ignore (span s_vsync t0);
      if not ok then begin
        incr rejected_anchors;
        v := Db.V.create ()
      end
    in
    let pin () =
      (match Db.V.digest !v with None -> anchor () | Some _ -> ());
      match Db.V.digest !v with Some d -> d.Journal.size - 1 | None -> 0
    in
    Array.iter
      (fun op ->
        let t_op = now () in
        (match op with
         | Get k ->
           let height = pin () in
           let t0 = tick () in
           let snap = Option.get (Db.snapshot ~height db) in
           let t0 = span s_pin t0 in
           let value, proof = Db.Snapshot.get_verified snap k in
           let t0 = span s_prove t0 in
           let bytes = Db.L.encode_read_proof proof in
           let t0 = span s_encode t0 in
           let proof = Db.L.decode_read_proof bytes in
           let t0 = span s_decode t0 in
           let ok = Db.V.submit_read !v ~key:k ~value proof in
           ignore (span s_vread t0);
           if ok <> Some true then incr rejected_proofs
         | Range { lo; hi; _ } ->
           let height = pin () in
           let t0 = tick () in
           let snap = Option.get (Db.snapshot ~height db) in
           let t0 = span s_pin t0 in
           let entries, proof = Db.Snapshot.range_verified snap ~lo ~hi in
           let t0 = span s_prove t0 in
           let bytes = Db.L.encode_read_proof proof in
           let t0 = span s_encode t0 in
           let proof = Db.L.decode_read_proof bytes in
           let t0 = span s_decode t0 in
           let ok = Db.V.submit_range !v ~lo ~hi ~entries proof in
           ignore (span s_vread t0);
           if ok <> Some true then incr rejected_proofs
         | Write kvs ->
           let writes = List.map (fun (k, v) -> Ledger.Put (k, v)) kvs in
           incr seq;
           let t0 = tick () in
           ignore (Db.commit db ~statements:[ Printf.sprintf "tx:replay.%d.%d" c !seq ] writes);
           ignore (span s_commit t0);
           anchor ());
        Samples.add lat.(kind_of op) (since_us t_op))
      spec.streams.(c);
    (lat, spans, (!rejected_anchors, !rejected_proofs))
  in
  let t0 = now () in
  let results =
    if n_clients = 1 then [ client 0 ]
    else List.map Domain.join (List.init n_clients (fun c -> Domain.spawn (fun () -> client c)))
  in
  let wall = since_s t0 in
  {
    r_lat = Array.of_list (List.map (fun (l, _, _) -> l) results);
    r_spans = Array.of_list (List.map (fun (_, s, _) -> s) results);
    r_wall = wall;
    r_rejected_anchors = List.fold_left (fun acc (_, _, (a, _)) -> acc + a) 0 results;
    r_rejected_proofs = List.fold_left (fun acc (_, _, (_, p)) -> acc + p) 0 results;
  }

(* ---------- runs ---------- *)

let setups_per_run = 3

let print_result ~attempted ~failed =
  let correct = !gate_failures = [] in
  let body =
    String.concat ", "
      (List.rev_map
         (fun (name, value, unit) ->
           Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name value unit)
         !metrics)
  in
  pr "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!" correct
    attempted failed body;
  if not correct then exit 1

(* Request plus response payload bytes on the socket per client op: what
   a verifying client transfers, proofs included. *)
let wire_bytes_per_op p =
  float_of_int (p.server.Server.bytes_in + p.server.Server.bytes_out) /. float_of_int p.attempted

(* The measured run shared by both modes: set up, run the Session phase,
   gate it, then close and reopen a durable database. The live database is
   returned only for the in-memory workload, whose replays reuse it. *)
type measured = {
  p : phase;
  setup_s : float;
  setup_digest : Journal.digest;
  final_digest : Journal.digest;
  blocks : (string list * Ledger.write list) list;
  recovery : (float * float) option;
  heap_words : int;
}

let measure spec ~dir =
  let live, setup_s = setup spec ~dir in
  let setup_digest = Db.digest live.db and from = height live.db in
  let p = session_phase spec live in
  let heap_words = (Gc.quick_stat ()).Gc.top_heap_words in
  gate "no_wrong_values" (p.mismatched = 0);
  gate "verifier_checked_every_session" (p.min_final_checked > 0);
  List.iter (fun e -> pr "failure: %s\n" e) p.errors;
  pr "ops attempted=%d failed=%d (verifier checked=%d failures=%d)\n%!" p.attempted p.failed
    p.checked p.vfailures;
  let blocks = committed_blocks spec live.db ~from in
  let final_digest = Db.digest live.db in
  let recovery = close_and_recover spec live in
  ( { p; setup_s; setup_digest; final_digest; blocks; recovery; heap_words },
    if spec.durable then None else Some live )

(* --trace 0: the measured run, then [setups_per_run - 1] more setups for
   the setup_s median; the last one is the base of the serial replay. *)
let end_to_end spec ~dir =
  let m, _ = measure spec ~dir in
  let rec more i times =
    let live, s = setup spec ~dir in
    gate "setup_digest_equal" (Db.digest live.db = m.setup_digest);
    teardown live;
    if i + 1 < setups_per_run then more (i + 1) (s :: times)
    else begin
      replay_gate live.db m.blocks ~digest:m.final_digest;
      s :: times
    end
  in
  let setup_times = m.setup_s :: List.rev (more 1 []) in
  pr "setup  %s: %d rows, setups %s s\n%!" spec.name (Array.length spec.rows)
    (String.concat " " (List.map (Printf.sprintf "%.3f") setup_times));
  let p = m.p in
  recording := false;
  report_client_metrics spec p ~recovery:m.recovery;
  recording := true;
  report "setup_s" (median_of setup_times) "s";
  report "wire_bytes_per_op" (wire_bytes_per_op p) "B";
  report "peak_heap_mb" (float_of_int (m.heap_words * (Sys.word_size / 8)) /. 1e6) "MB";
  print_result ~attempted:p.attempted ~failed:p.failed

(* Counters over the measured phase, as deltas of the public stats. *)
let report_counters spec p =
  let ops = float_of_int p.attempted in
  let user = float_of_int (stream_user_bytes spec) in
  let writes =
    Array.fold_left
      (Array.fold_left (fun n op -> if kind_of op = k_write then n + 1 else n))
      0 spec.streams
  in
  let b = p.before and a = p.after in
  let store f = float_of_int (f a.store - f b.store) in
  let puts = store (fun s -> s.Object_store.puts) in
  report "store.puts_per_op" (puts /. ops) "count";
  report "store.put_bytes_per_op" (store (fun s -> s.Object_store.logical_bytes) /. ops) "B";
  report "store.dedup_hit_ratio" (ratio (store (fun s -> s.Object_store.dedup_hits)) puts) "ratio";
  report "store.bytes_per_user_byte"
    (ratio (store (fun s -> s.Object_store.physical_bytes)) user) "ratio";
  (match (b.wal, a.wal) with
   | Some wb, Some wa ->
     let wal f = float_of_int (f wa - f wb) in
     let fsyncs = wal (fun w -> w.Wal.fsyncs) in
     report "wal.records_per_fsync" (ratio (wal (fun w -> w.Wal.records)) fsyncs) "ratio";
     report "wal.fsyncs_per_write" (ratio fsyncs (float_of_int writes)) "ratio";
     (* log growth, defined only while no checkpoint retired a segment *)
     if wa.Wal.rotations = wb.Wal.rotations then
       report "wal.bytes_per_user_byte"
         (ratio (wal (fun w -> w.Wal.disk_bytes + w.Wal.pending_bytes)) user) "ratio"
     else absent "wal.bytes_per_user_byte" "ratio" "checkpoints retired log segments"
   | _ ->
     List.iter
       (fun n -> absent n "ratio" "in-memory workload")
       [ "wal.records_per_fsync"; "wal.fsyncs_per_write"; "wal.bytes_per_user_byte" ]);
  let hit_ratio (s : NC.stats) =
    ratio (float_of_int s.NC.hits) (float_of_int (s.NC.hits + s.NC.misses))
  in
  report "node_cache.hit_ratio" (hit_ratio p.node_cache) "ratio";
  report "node_cache.evictions_per_op" (float_of_int p.node_cache.NC.evictions /. ops) "count";
  report "proof_cache.hit_ratio" (hit_ratio p.proof_cache) "ratio";
  let reqs = float_of_int p.server.Server.requests in
  report "server.bytes_out_per_req" (ratio (float_of_int p.server.Server.bytes_out) reqs) "B";
  report "server.bytes_in_per_req" (ratio (float_of_int p.server.Server.bytes_in) reqs) "B";
  report "verifier.checked" (float_of_int p.checked) "count";
  report "verifier.failures" (float_of_int p.vfailures) "count";
  let ckpt f =
    match (b.ckpt, a.ckpt) with Some cb, Some ca -> float_of_int (f ca - f cb) | _ -> 0.
  in
  report "checkpoint.count" (ckpt (fun c -> c.Db.checkpoints)) "count";
  report "checkpoint.failures" (ckpt (fun c -> c.Db.failures)) "count";
  let alloc (g : Gc.stat) = g.Gc.minor_words +. g.Gc.major_words -. g.Gc.promoted_words in
  report "gc.alloc_bytes_per_op"
    ((alloc a.gc -. alloc b.gc) *. float_of_int (Sys.word_size / 8) /. ops) "B";
  report "gc.major_per_kop"
    (float_of_int (a.gc.Gc.major_collections - b.gc.Gc.major_collections) *. 1e3 /. ops) "count"

(* --trace 1: the Session phase for counters and client latencies, then an
   untraced and a traced in-process replay of the same stream, each from a
   fresh setup (the read workload never writes, so it reuses its database). *)
let per_layer spec ~dir =
  let m, kept = measure spec ~dir in
  let p = m.p in
  report_counters spec p;
  report_client_metrics spec p ~recovery:m.recovery;
  (match kept with
   | Some live -> gate "journal_replay_digest_equal" (m.blocks = [] && Db.digest live.db = m.final_digest)
   | None ->
     let base = Db.open_db () in
     load_rows spec base;
     replay_gate base m.blocks ~digest:m.final_digest);
  let replay ~traced =
    let l =
      match kept with
      | Some live ->
        Db.L.clear_proof_cache ();
        live
      | None -> fst (setup spec ~dir)
    in
    let r = replay_phase spec l ~traced in
    teardown l;
    r
  in
  (* untraced, traced, untraced: the traced run is compared with the mean
     of the two around it, so drift during the run does not read as
     tracing overhead *)
  let before = replay ~traced:false in
  let traced = replay ~traced:true in
  let after = replay ~traced:false in
  let replays = [ ("untraced", before); ("traced", traced); ("untraced", after) ] in
  List.iter
    (fun (name, r) ->
      pr "replay %-8s %.3f s; rejected anchors %d, rejected proofs %d\n" name r.r_wall
        r.r_rejected_anchors r.r_rejected_proofs)
    replays;
  Array.iteri
    (fun s name ->
      report_timing name
        (Samples.merge (Array.to_list (Array.map (fun spans -> spans.(s)) traced.r_spans))))
    span_names;
  (* server hop: Session median minus untraced-replay median per op kind,
     weighted by the kind's op count *)
  let hop = ref 0. and hop_n = ref 0 in
  for k = 0 to 2 do
    let session = p.lat.(k) in
    let replayed =
      Samples.merge (List.concat_map (fun r -> Array.to_list (Array.map (fun l -> l.(k)) r.r_lat)) [ before; after ])
    in
    match (median session, median replayed) with
    | Some s, Some r ->
      pr "hop    %-6s session p50 %.1f us, replay p50 %.1f us\n" kind_names.(k) s r;
      hop := !hop +. ((s -. r) *. float_of_int (Array.length session));
      hop_n := !hop_n + Array.length session
    | _ -> ()
  done;
  report "server.hop_us" (ratio !hop (float_of_int !hop_n)) "us";
  report "trace.overhead_pct"
    (100. *. ((2. *. traced.r_wall /. (before.r_wall +. after.r_wall)) -. 1.)) "%";
  (* the anchor race of README.md "Known defect", seen without the server *)
  report "replay.rejected_anchors"
    (float_of_int (List.fold_left (fun n (_, r) -> n + r.r_rejected_anchors) 0 replays)) "count";
  gate "replay_proofs_verified"
    (List.for_all (fun (_, r) -> r.r_rejected_proofs = 0) replays);
  print_result ~attempted:p.attempted ~failed:p.failed

(* ---------- main ---------- *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let dir = ref ".perfbench_work" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "ingest|read|mixed");
      ("--seed", Arg.Set_int seed, "N  op-stream seed");
      ("--seconds", Arg.Set_int seconds, "S  stream length in seconds of seed-state load");
      ("--trace", Arg.Set_int trace, "0|1  end-to-end (0) or per-layer (1) metrics");
      ("--dir", Arg.Set_string dir, "DIR  scratch directory for durable databases");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "spitzbench --workload W --seed N --seconds S --trace 0|1";
  let gen =
    match !workload with
    | "ingest" -> gen_ingest
    | "read" -> gen_read
    | "mixed" -> gen_mixed
    | w ->
      prerr_endline ("unknown workload: " ^ w);
      exit 2
  in
  if !seconds < 1 || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline "--seconds must be >= 1 and --trace 0 or 1";
    exit 2
  end;
  let spec = gen ~seed:!seed ~seconds:!seconds in
  let rec mkdir_p d =
    if not (Sys.file_exists d) then begin
      mkdir_p (Filename.dirname d);
      Unix.mkdir d 0o755
    end
  in
  mkdir_p !dir;
  let db_dir = Filename.concat !dir spec.name in
  pr "workload %s seed %d seconds %d trace %d: %d clients, %d ops\n%!" spec.name !seed !seconds
    !trace (Array.length spec.streams)
    (Array.fold_left (fun n s -> n + Array.length s) 0 spec.streams);
  if !trace = 0 then end_to_end spec ~dir:db_dir else per_layer spec ~dir:db_dir
