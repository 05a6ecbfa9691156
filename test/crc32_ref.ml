(* Table-driven CRC-32 in OCaml, one byte per step (reflected polynomial
   0xEDB88320): the reference the test suite checks the C kernel of
   Spitz_storage.Crc32 against. It is the library's former implementation,
   kept out of lib/ so the library has one CRC-32.

   The state is a native int masked to 32 bits, so the loop does not box. *)

let mask = 0xFFFFFFFF

let table =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        if !c land 1 <> 0 then c := 0xEDB88320 lxor (!c lsr 1) else c := !c lsr 1
      done;
      !c)

(* [update crc s off len] extends the finished CRC [crc] (a 32-bit value in
   an int) by [s.[off .. off+len-1]]. *)
let update crc s off len =
  let c = ref (lnot crc land mask) in
  for i = off to off + len - 1 do
    let idx = (!c lxor Char.code (String.unsafe_get s i)) land 0xff in
    c := Array.unsafe_get table idx lxor (!c lsr 8)
  done;
  lnot !c land mask

let digest s = Int32.of_int (update 0 s 0 (String.length s))
