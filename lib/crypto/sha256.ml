(* SHA-256 (FIPS 180-4). Block compression runs in C (sha256_stubs.c): a
   SHA-NI kernel where CPUID reports the SHA extensions, a portable one
   elsewhere, picked once when this module initialises. This module owns
   buffering and padding; the kernel sees whole 64-byte blocks only, every
   whole block of a feed in one call.

   The chaining state is the eight 32-bit words stored big-endian in 32
   bytes, so after the last block it is the digest itself. *)

external select_kernel : unit -> bool = "spitz_sha256_select"

(* [blocks state b off n] compresses the [n] blocks at [b.[off ..]] into
   [state]. Unchecked: callers keep the range inside [b]. *)
external blocks :
  Bytes.t -> Bytes.t -> (int[@untagged]) -> (int[@untagged]) -> unit
  = "spitz_sha256_blocks_byte" "spitz_sha256_blocks"
[@@noalloc]

let has_sha_ni = select_kernel ()

let iv =
  "\x6a\x09\xe6\x67\xbb\x67\xae\x85\x3c\x6e\xf3\x72\xa5\x4f\xf5\x3a\
   \x51\x0e\x52\x7f\x9b\x05\x68\x8c\x1f\x83\xd9\xab\x5b\xe0\xcd\x19"

type ctx = {
  h : Bytes.t;                (* chaining state, 32 bytes *)
  buf : Bytes.t;              (* partial block; 128 bytes so padding fits *)
  mutable buf_len : int;      (* bytes currently in [buf], < 64 *)
  mutable total_len : int;    (* total message length in bytes *)
  mutable finalized : bool;
}

let init () =
  { h = Bytes.of_string iv; buf = Bytes.create 128; buf_len = 0;
    total_len = 0; finalized = false }

let check_range who len off n =
  if off < 0 || n < 0 || off > len - n then invalid_arg (who ^ ": out of bounds")

let check_live who ctx =
  if ctx.finalized then invalid_arg (who ^ ": context already finalized")

(* Pad the [rem] (< 64) trailing message bytes at the start of [tail] —
   0x80, zeros, then the 64-bit big-endian bit length — and compress the
   one or two final blocks into [h]. [tail] holds 128 bytes when
   [rem >= 56]. *)
let close h tail rem total_len =
  let n = if rem < 56 then 1 else 2 in
  let len_at = (n * 64) - 8 in
  Bytes.unsafe_set tail rem '\x80';
  Bytes.unsafe_fill tail (rem + 1) (len_at - rem - 1) '\000';
  Bytes.set_int64_be tail len_at (Int64.of_int (total_len lsl 3));
  blocks h tail 0 n

let feed_bytes ctx b off len =
  check_live "Sha256.feed_bytes" ctx;
  check_range "Sha256.feed_bytes" (Bytes.length b) off len;
  ctx.total_len <- ctx.total_len + len;
  let off = ref off and len = ref len in
  (* Top up a partial buffer first. *)
  if ctx.buf_len > 0 then begin
    let take = min (64 - ctx.buf_len) !len in
    Bytes.unsafe_blit b !off ctx.buf ctx.buf_len take;
    ctx.buf_len <- ctx.buf_len + take;
    off := !off + take;
    len := !len - take;
    if ctx.buf_len = 64 then begin
      blocks ctx.h ctx.buf 0 1;
      ctx.buf_len <- 0
    end
  end;
  let whole = !len lsr 6 in
  if whole > 0 then blocks ctx.h b !off whole;
  let rest = !len land 63 in
  if rest > 0 then begin
    Bytes.unsafe_blit b (!off + !len - rest) ctx.buf 0 rest;
    ctx.buf_len <- rest
  end

let feed_string ctx s = feed_bytes ctx (Bytes.unsafe_of_string s) 0 (String.length s)

let feed_sub ctx s off len =
  check_range "Sha256.feed_sub" (String.length s) off len;
  feed_bytes ctx (Bytes.unsafe_of_string s) off len

let finalize ctx =
  check_live "Sha256.finalize" ctx;
  ctx.finalized <- true;
  close ctx.h ctx.buf ctx.buf_len ctx.total_len;
  (* no write reaches [ctx.h] again: the context is finalized *)
  Bytes.unsafe_to_string ctx.h

(* One-shot digest of an in-bounds range: whole blocks straight from [b],
   then the tail padded in a block or two of its own. No context. *)
let digest_range b off len =
  let h = Bytes.of_string iv in
  blocks h b off (len lsr 6);
  let rem = len land 63 in
  let tail = Bytes.create (if rem < 56 then 64 else 128) in
  Bytes.unsafe_blit b (off + len - rem) tail 0 rem;
  close h tail rem len;
  Bytes.unsafe_to_string h

let digest_string s = digest_range (Bytes.unsafe_of_string s) 0 (String.length s)

let digest_strings parts =
  let ctx = init () in
  List.iter (feed_string ctx) parts;
  finalize ctx

let digest_bytes b off len =
  check_range "Sha256.digest_bytes" (Bytes.length b) off len;
  digest_range b off len

let digest_sub s off len =
  check_range "Sha256.digest_sub" (String.length s) off len;
  digest_range (Bytes.unsafe_of_string s) off len

external blocks_portable_raw : Bytes.t -> Bytes.t -> int -> int -> unit
  = "spitz_sha256_blocks_portable"

external blocks_ni_raw : Bytes.t -> Bytes.t -> int -> int -> unit
  = "spitz_sha256_blocks_ni"

let checked_kernel who raw state b off n =
  if Bytes.length state <> 32 then invalid_arg (who ^ ": state is not 32 bytes");
  if n > Bytes.length b / 64 then invalid_arg (who ^ ": out of bounds");
  check_range who (Bytes.length b) off (n * 64);
  raw state b off n

let blocks_portable = checked_kernel "Sha256.blocks_portable" blocks_portable_raw
let blocks_ni = checked_kernel "Sha256.blocks_ni" blocks_ni_raw
