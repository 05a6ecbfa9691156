exception Crash of string

module Points = Map.Make (String)

(* name -> remaining hits to survive before raising. An immutable map swapped
   by compare-and-set, so committing domains can hit points while a test
   arms them, and every hit is counted exactly once. *)
let armed_points : int Points.t Atomic.t = Atomic.make Points.empty

let rec update f =
  let m = Atomic.get armed_points in
  if not (Atomic.compare_and_set armed_points m (f m)) then update f

let rec hit name =
  let m = Atomic.get armed_points in
  if not (Points.is_empty m) then
    match Points.find_opt name m with
    | None -> ()
    | Some n ->
      let m' = if n = 0 then Points.remove name m else Points.add name (n - 1) m in
      if not (Atomic.compare_and_set armed_points m m') then hit name
      else if n = 0 then raise (Crash name)

let arm ?(after = 0) name = update (Points.add name after)
let disarm name = update (Points.remove name)
let reset () = Atomic.set armed_points Points.empty
let armed name = Points.mem name (Atomic.get armed_points)

(* --- file corruption helpers --- *)

let file_size path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> in_channel_length ic)

let truncate_file path n =
  let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
  Fun.protect ~finally:(fun () -> Unix.close fd) (fun () -> Unix.ftruncate fd n)

let with_byte path at f =
  let fd = Unix.openfile path [ Unix.O_RDWR ] 0o644 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
       let b = Bytes.create 1 in
       ignore (Unix.lseek fd at Unix.SEEK_SET);
       if Unix.read fd b 0 1 <> 1 then invalid_arg "Fault: offset past end of file";
       Bytes.set b 0 (f (Bytes.get b 0));
       ignore (Unix.lseek fd at Unix.SEEK_SET);
       ignore (Unix.write fd b 0 1))

let flip_bit path ~byte ~bit =
  with_byte path byte (fun c -> Char.chr (Char.code c lxor (1 lsl (bit land 7))))

let overwrite_byte path ~at c = with_byte path at (fun _ -> c)
