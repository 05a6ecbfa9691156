open Spitz_crypto

let check_hex msg input expected =
  Alcotest.(check string) msg expected (Hash.to_hex (Hash.of_string input))

(* FIPS 180-4 known-answer vectors *)
let test_vectors () =
  check_hex "empty" "" "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855";
  check_hex "abc" "abc" "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad";
  check_hex "two blocks" "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
    "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1";
  check_hex "million a" (String.make 1_000_000 'a')
    "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"

(* exercise the 55/56/64-byte padding boundaries *)
let test_padding_boundaries () =
  List.iter
    (fun n ->
       let s = String.make n 'x' in
       (* streaming one byte at a time must match the one-shot digest *)
       let ctx = Sha256.init () in
       String.iter (fun c -> Sha256.feed_string ctx (String.make 1 c)) s;
       Alcotest.(check string)
         (Printf.sprintf "len %d" n)
         (Hash.to_hex (Hash.of_string s))
         (Hash.to_hex (Hash.of_raw (Sha256.finalize ctx))))
    [ 0; 1; 54; 55; 56; 57; 63; 64; 65; 119; 120; 127; 128; 129 ]

let test_digest_strings () =
  Alcotest.(check string) "split hashing"
    (Hash.to_hex (Hash.of_string "helloworld"))
    (Hash.to_hex (Hash.of_strings [ "hello"; "world" ]));
  Alcotest.(check string) "many parts"
    (Hash.to_hex (Hash.of_string "abcdef"))
    (Hash.to_hex (Hash.of_strings [ "a"; "b"; "c"; "d"; "e"; "f" ]))

let test_hex_roundtrip () =
  let h = Hash.of_string "roundtrip" in
  Alcotest.(check bool) "roundtrip" true (Hash.equal h (Hash.of_hex (Hash.to_hex h)));
  Alcotest.check_raises "bad hex length" (Invalid_argument "Hash.of_hex: wrong length")
    (fun () -> ignore (Hash.of_hex "abcd"));
  (* all 256 byte values, both ways *)
  let spell k = Hash.to_hex (Hash.of_raw (String.init 32 (fun i -> Char.chr ((k * 32) + i)))) in
  for k = 0 to 7 do
    Alcotest.(check string) "byte roundtrip" (spell k) (Hash.to_hex (Hash.of_hex (spell k)))
  done;
  let hex = spell 7 in
  Alcotest.(check string) "lowercase digits"
    "e0e1e2e3e4e5e6e7e8e9eaebecedeeeff0f1f2f3f4f5f6f7f8f9fafbfcfdfeff" hex;
  (* one spelling per digest: uppercase and non-hex digits are refused *)
  let not_hex = Invalid_argument "Hash.of_hex: not lowercase hex" in
  Alcotest.check_raises "uppercase" not_hex (fun () ->
      ignore (Hash.of_hex (String.uppercase_ascii hex)));
  List.iter
    (fun c ->
       let bad = Bytes.of_string hex in
       Bytes.set bad 40 c;
       Alcotest.check_raises (Printf.sprintf "digit %C" c) not_hex (fun () ->
           ignore (Hash.of_hex (Bytes.to_string bad))))
    [ 'F'; 'g'; ' '; '_'; '+'; 'x'; '\000' ]

let test_raw_roundtrip () =
  let h = Hash.of_string "raw" in
  Alcotest.(check bool) "roundtrip" true (Hash.equal h (Hash.of_raw (Hash.to_raw h)));
  Alcotest.check_raises "bad raw length"
    (Invalid_argument "Hash.of_raw: expected 32 bytes, got 3") (fun () ->
        ignore (Hash.of_raw "abc"))

let test_domain_separation () =
  (* leaf data equal to an interior node's concatenated children must not
     produce the same hash: different domains *)
  let a = Hash.of_string "a" and b = Hash.of_string "b" in
  let interior = Hash.node a b in
  let replay = Hash.leaf (Hash.to_raw a ^ Hash.to_raw b) in
  Alcotest.(check bool) "leaf vs node" false (Hash.equal interior replay);
  let nl = Hash.node_list [ a; b ] in
  Alcotest.(check bool) "node vs node_list" false (Hash.equal interior nl)

let test_null () =
  Alcotest.(check bool) "null is null" true (Hash.is_null Hash.null);
  Alcotest.(check bool) "digest is not null" false (Hash.is_null (Hash.of_string ""))

let prop_streaming_equals_oneshot =
  QCheck.Test.make ~name:"streaming feed equals one-shot" ~count:200
    QCheck.(pair (small_list (string_of_size Gen.small_nat)) unit)
    (fun (parts, ()) ->
       let joined = String.concat "" parts in
       Hash.equal (Hash.of_strings parts) (Hash.of_string joined))

let prop_distinct_inputs_distinct_digests =
  QCheck.Test.make ~name:"no collisions on distinct short strings" ~count:500
    QCheck.(pair small_string small_string)
    (fun (a, b) -> String.equal a b || not (Hash.equal (Hash.of_string a) (Hash.of_string b)))

(* FIPS 180-4 padding of [msg]: 0x80, zeros to 56 mod 64, 64-bit bit length. *)
let padded msg =
  let len = String.length msg in
  let n = ((len + 8) / 64) + 1 in
  let b = Bytes.make (n * 64) '\000' in
  Bytes.blit_string msg 0 b 0 len;
  Bytes.set b len '\x80';
  Bytes.set_int64_be b ((n * 64) - 8) (Int64.of_int (len * 8));
  b

let iv = Hash.to_raw (Hash.of_hex "6a09e667bb67ae853c6ef372a54ff53a510e527f9b05688c1f83d9ab5be0cd19")

(* The digest of [msg] from one kernel alone: its padded blocks copied to a
   random offset and compressed in random runs of whole blocks. *)
let kernel_digest rng kernel msg =
  let p = padded msg in
  let shift = Random.State.int rng 64 in
  let b = Bytes.make (shift + Bytes.length p) '\xa5' in
  Bytes.blit p 0 b shift (Bytes.length p);
  let state = Bytes.of_string iv in
  let blocks = Bytes.length p / 64 in
  let pos = ref 0 in
  while !pos < blocks do
    let run = 1 + Random.State.int rng (blocks - !pos) in
    kernel state b (shift + (!pos * 64)) run;
    pos := !pos + run
  done;
  Bytes.to_string state

let random_message rng len = String.init len (fun _ -> Char.chr (Random.State.int rng 256))

let boundary_lengths = [ 0; 1; 54; 55; 56; 57; 63; 64; 65; 119; 120; 127; 128; 129 ]

let fips_messages =
  [ ""; "abc"; "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq";
    String.make 1_000_000 'a' ]

(* Messages every SHA-256 test below runs on: the FIPS 180-4 vectors, the
   padding boundaries, and random lengths 0-4,096. *)
let differential_messages rng =
  fips_messages
  @ List.map (fun n -> random_message rng n) boundary_lengths
  @ List.init 1_000 (fun _ -> random_message rng (Random.State.int rng 4_097))

let check_kernel name kernel () =
  let rng = Random.State.make [| 180; 4 |] in
  List.iter
    (fun msg ->
       Alcotest.(check string)
         (Printf.sprintf "%s, %d bytes" name (String.length msg))
         (Hash.to_hex (Hash.of_raw (Sha256_ref.digest_string msg)))
         (Hash.to_hex (Hash.of_raw (kernel_digest rng kernel msg))))
    (differential_messages rng)

let test_portable_kernel = check_kernel "portable" Sha256.blocks_portable

let test_ni_kernel () =
  if Sha256.has_sha_ni then check_kernel "sha-ni" Sha256.blocks_ni ()
  else begin
    print_endline "CPUID reports no SHA extensions: SHA-NI kernel not tested";
    Alcotest.skip ()
  end

(* The streaming and one-shot entry points, over whichever kernel CPUID
   picked: random feed splits through every feed function, one-shot digests
   of ranges at random offsets, and Hash.leaf_bytes. *)
let test_entry_points () =
  let rng = Random.State.make [| 6962 |] in
  List.iter
    (fun msg ->
       let len = String.length msg in
       let expect = Sha256_ref.digest_string msg in
       let ctx = Sha256.init () in
       let pos = ref 0 in
       while !pos < len do
         let n = min (len - !pos) (Random.State.int rng 200) in
         (match Random.State.int rng 3 with
          | 0 -> Sha256.feed_string ctx (String.sub msg !pos n)
          | 1 -> Sha256.feed_sub ctx msg !pos n
          | _ -> Sha256.feed_bytes ctx (Bytes.of_string msg) !pos n);
         pos := !pos + n
       done;
       let what = Printf.sprintf "%d bytes" len in
       Alcotest.(check string) ("streamed, " ^ what) expect (Sha256.finalize ctx);
       Alcotest.(check string) ("digest_string, " ^ what) expect (Sha256.digest_string msg);
       let pre = random_message rng (Random.State.int rng 70) in
       let framed = pre ^ msg ^ random_message rng (Random.State.int rng 70) in
       let at = String.length pre in
       Alcotest.(check string) ("digest_sub, " ^ what) expect (Sha256.digest_sub framed at len);
       Alcotest.(check string) ("digest_bytes, " ^ what) expect
         (Sha256.digest_bytes (Bytes.of_string framed) at len);
       Alcotest.(check string) ("leaf_bytes, " ^ what)
         (Sha256_ref.digest_string ("\x00" ^ msg))
         (Hash.to_raw (Hash.leaf_bytes (Bytes.of_string framed) ~pos:at ~len)))
    (differential_messages rng)

let test_finalized_ctx () =
  let ctx = Sha256.init () in
  Sha256.feed_string ctx "abc";
  ignore (Sha256.finalize ctx);
  let finalized who = Invalid_argument (who ^ ": context already finalized") in
  Alcotest.check_raises "second finalize" (finalized "Sha256.finalize") (fun () ->
      ignore (Sha256.finalize ctx));
  Alcotest.check_raises "feed_string after finalize" (finalized "Sha256.feed_bytes")
    (fun () -> Sha256.feed_string ctx "d");
  Alcotest.check_raises "feed_sub after finalize" (finalized "Sha256.feed_bytes")
    (fun () -> Sha256.feed_sub ctx "d" 0 1);
  Alcotest.check_raises "feed_bytes out of bounds"
    (Invalid_argument "Sha256.feed_bytes: out of bounds") (fun () ->
        Sha256.feed_bytes (Sha256.init ()) (Bytes.create 4) 2 3)

let suite =
  [
    Alcotest.test_case "FIPS vectors" `Quick test_vectors;
    Alcotest.test_case "padding boundaries" `Quick test_padding_boundaries;
    Alcotest.test_case "digest_strings" `Quick test_digest_strings;
    Alcotest.test_case "hex roundtrip" `Quick test_hex_roundtrip;
    Alcotest.test_case "raw roundtrip" `Quick test_raw_roundtrip;
    Alcotest.test_case "domain separation" `Quick test_domain_separation;
    Alcotest.test_case "null digest" `Quick test_null;
    Alcotest.test_case "portable kernel vs reference" `Quick test_portable_kernel;
    Alcotest.test_case "SHA-NI kernel vs reference" `Quick test_ni_kernel;
    Alcotest.test_case "entry points vs reference" `Quick test_entry_points;
    Alcotest.test_case "finalized context rejected" `Quick test_finalized_ctx;
    QCheck_alcotest.to_alcotest prop_streaming_equals_oneshot;
    QCheck_alcotest.to_alcotest prop_distinct_inputs_distinct_digests;
  ]
