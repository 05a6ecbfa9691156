(* CRC-32, reflected polynomial 0xEDB88320 (zlib-compatible), computed by
   the slice-by-8 kernel in [crc32_stubs.c].

   Inside the module the CRC is a native int holding the unsigned 32-bit
   value, which crosses into C untagged and unboxed; [Int32] appears only at
   the API boundary. *)

external init : unit -> unit = "spitz_crc32_init"

(* [run crc b off len] extends the finished CRC [crc] by [b.[off .. off+len-1]].
   Unchecked: callers keep the range inside [b]. *)
external run :
  (int[@untagged]) -> Bytes.t -> (int[@untagged]) -> (int[@untagged]) -> (int[@untagged])
  = "spitz_crc32_update_byte" "spitz_crc32_update"
[@@noalloc]

let () = init ()

let mask = 0xFFFFFFFF

let of_int32 crc = Int32.to_int crc land mask
let to_int32 c = Int32.of_int (c land mask)

let update_bytes crc b off len =
  if off < 0 || len < 0 || off > Bytes.length b - len then
    invalid_arg "Crc32.update_bytes: out of bounds";
  to_int32 (run (of_int32 crc) b off len)

let update_sub crc s off len =
  if off < 0 || len < 0 || off > String.length s - len then
    invalid_arg "Crc32.update_sub: out of bounds";
  (* strings are immutable; the kernel only reads the range *)
  to_int32 (run (of_int32 crc) (Bytes.unsafe_of_string s) off len)

let update crc s = update_sub crc s 0 (String.length s)

let digest s = update 0l s

let digest_sub s off len = update_sub 0l s off len
