open Spitz_index
module SM = Map.Make (String)

let key_of i = Printf.sprintf "k%05d" i

(* --- B+-tree --- *)

let test_bptree_basic () =
  let t = Bptree.create () in
  Alcotest.(check int) "empty" 0 (Bptree.cardinal t);
  Alcotest.(check (option int)) "missing" None (Bptree.get t "a");
  Bptree.insert t "a" 1;
  Bptree.insert t "b" 2;
  Bptree.insert t "a" 3;
  Alcotest.(check int) "cardinal after overwrite" 2 (Bptree.cardinal t);
  Alcotest.(check (option int)) "overwritten" (Some 3) (Bptree.get t "a");
  Bptree.remove t "a";
  Alcotest.(check (option int)) "removed" None (Bptree.get t "a");
  Alcotest.(check int) "cardinal after remove" 1 (Bptree.cardinal t)

let test_bptree_many () =
  let t = Bptree.create () in
  let n = 10_000 in
  for i = 0 to n - 1 do
    Bptree.insert t (key_of i) i
  done;
  Alcotest.(check int) "cardinal" n (Bptree.cardinal t);
  for i = 0 to n - 1 do
    if i mod 997 = 0 then Alcotest.(check (option int)) (key_of i) (Some i) (Bptree.get t (key_of i))
  done;
  let r = Bptree.range t ~lo:(key_of 5000) ~hi:(key_of 5099) in
  Alcotest.(check int) "range size" 100 (List.length r);
  Alcotest.(check (list string)) "range keys sorted"
    (List.init 100 (fun i -> key_of (5000 + i)))
    (List.map fst r)

let test_bptree_iter_order () =
  let t = Bptree.create () in
  List.iter (fun i -> Bptree.insert t (key_of i) i) [ 5; 3; 9; 1; 7 ];
  let keys = ref [] in
  Bptree.iter t (fun k _ -> keys := k :: !keys);
  Alcotest.(check (list string)) "sorted order"
    (List.map key_of [ 1; 3; 5; 7; 9 ])
    (List.rev !keys)

let prop_bptree_model =
  QCheck.Test.make ~name:"bptree: model-based ops" ~count:50
    QCheck.(small_list (pair (int_bound 300) (option (int_bound 100))))
    (fun ops ->
       let t = Bptree.create () in
       let model =
         List.fold_left
           (fun m (ki, op) ->
              let k = key_of ki in
              match op with
              | Some v ->
                Bptree.insert t k v;
                SM.add k v m
              | None ->
                Bptree.remove t k;
                SM.remove k m)
           SM.empty ops
       in
       SM.for_all (fun k v -> Bptree.get t k = Some v) model
       && Bptree.cardinal t = SM.cardinal model
       && Bptree.range t ~lo:"" ~hi:"~" = SM.bindings model)

(* --- skip list --- *)

let test_skiplist_basic () =
  let t = Skiplist.create String.compare ~dummy_key:"" ~dummy_value:0 in
  Skiplist.insert t "b" 2;
  Skiplist.insert t "a" 1;
  Skiplist.insert t "c" 3;
  Skiplist.insert t "b" 20;
  Alcotest.(check int) "cardinal" 3 (Skiplist.cardinal t);
  Alcotest.(check (option int)) "overwrite" (Some 20) (Skiplist.get t "b");
  Alcotest.(check (list (pair string int))) "range"
    [ ("a", 1); ("b", 20) ]
    (Skiplist.range t ~lo:"a" ~hi:"b")

let test_skiplist_numeric () =
  let t = Skiplist.create Float.compare ~dummy_key:0.0 ~dummy_value:"" in
  List.iter (fun f -> Skiplist.insert t f (string_of_float f)) [ 3.5; 1.25; 9.0; 0.5; 2.0 ];
  Alcotest.(check (list string)) "numeric range order"
    [ "0.5"; "1.25"; "2."; "3.5" ]
    (List.map snd (Skiplist.range t ~lo:0.0 ~hi:4.0))

let prop_skiplist_model =
  QCheck.Test.make ~name:"skiplist: model-based ops" ~count:50
    QCheck.(small_list (pair (int_bound 300) (option (int_bound 100))))
    (fun ops ->
       let t = Skiplist.create String.compare ~dummy_key:"" ~dummy_value:0 in
       (* [None] is a lookup, which must agree with the model at that point *)
       let agrees = ref true in
       let model =
         List.fold_left
           (fun m (ki, op) ->
              let k = key_of ki in
              match op with
              | Some v ->
                Skiplist.insert t k v;
                SM.add k v m
              | None ->
                if Skiplist.get t k <> SM.find_opt k m then agrees := false;
                m)
           SM.empty ops
       in
       !agrees
       && SM.for_all (fun k v -> Skiplist.get t k = Some v) model
       && Skiplist.cardinal t = SM.cardinal model
       && Skiplist.range t ~lo:"" ~hi:"~" = SM.bindings model)

(* --- radix tree --- *)

let test_radix_basic () =
  let t = Radix_tree.empty in
  let t = Radix_tree.insert t "romane" 1 in
  let t = Radix_tree.insert t "romanus" 2 in
  let t = Radix_tree.insert t "romulus" 3 in
  let t = Radix_tree.insert t "rubens" 4 in
  let t = Radix_tree.insert t "ruber" 5 in
  Alcotest.(check int) "cardinal" 5 (Radix_tree.cardinal t);
  Alcotest.(check (option int)) "romane" (Some 1) (Radix_tree.get t "romane");
  Alcotest.(check (option int)) "romanus" (Some 2) (Radix_tree.get t "romanus");
  Alcotest.(check (option int)) "prefix not a key" None (Radix_tree.get t "rom")

let test_radix_key_is_prefix () =
  let t = Radix_tree.insert (Radix_tree.insert Radix_tree.empty "ab" 1) "abc" 2 in
  Alcotest.(check (option int)) "ab" (Some 1) (Radix_tree.get t "ab");
  Alcotest.(check (option int)) "abc" (Some 2) (Radix_tree.get t "abc")

let prop_radix_model =
  QCheck.Test.make ~name:"radix: model-based ops" ~count:50
    QCheck.(small_list (pair (string_gen_of_size (QCheck.Gen.int_range 0 8) QCheck.Gen.printable) (option (int_bound 100))))
    (fun ops ->
       (* [None] is a lookup, which must agree with the model at that point *)
       let agrees = ref true in
       let t, model =
         List.fold_left
           (fun (t, m) (k, op) ->
              match op with
              | Some v -> (Radix_tree.insert t k v, SM.add k v m)
              | None ->
                if Radix_tree.get t k <> SM.find_opt k m then agrees := false;
                (t, m))
           (Radix_tree.empty, SM.empty) ops
       in
       !agrees
       && SM.for_all (fun k v -> Radix_tree.get t k = Some v) model
       && Radix_tree.cardinal t = SM.cardinal model
       && List.sort compare (Radix_tree.fold t (fun k v acc -> (k, v) :: acc) [])
          = SM.bindings model)

(* --- inverted index --- *)

let test_inverted () =
  let inv = Inverted.create () in
  Inverted.add inv "red" "cell1";
  Inverted.add inv "red" "cell2";
  Inverted.add inv "red" "cell1"; (* idempotent *)
  Inverted.add inv "blue" "cell3";
  Alcotest.(check (list string)) "red" [ "cell1"; "cell2" ] (Inverted.lookup inv "red");
  Alcotest.(check (list string)) "blue" [ "cell3" ] (Inverted.lookup inv "blue");
  Alcotest.(check (list string)) "absent" [] (Inverted.lookup inv "green")

let suite =
  [
    Alcotest.test_case "bptree basic" `Quick test_bptree_basic;
    Alcotest.test_case "bptree many" `Quick test_bptree_many;
    Alcotest.test_case "bptree iter order" `Quick test_bptree_iter_order;
    QCheck_alcotest.to_alcotest prop_bptree_model;
    Alcotest.test_case "skiplist basic" `Quick test_skiplist_basic;
    Alcotest.test_case "skiplist numeric" `Quick test_skiplist_numeric;
    QCheck_alcotest.to_alcotest prop_skiplist_model;
    Alcotest.test_case "radix basic" `Quick test_radix_basic;
    Alcotest.test_case "radix key is prefix" `Quick test_radix_key_is_prefix;
    QCheck_alcotest.to_alcotest prop_radix_model;
    Alcotest.test_case "inverted index" `Quick test_inverted;
  ]

(* --- learned index (section 7.1 extension) --- *)

let test_learned_basic () =
  let entries = List.init 5000 (fun i -> (key_of i, i)) in
  let t = Learned_index.build entries in
  Alcotest.(check int) "cardinal" 5000 (Learned_index.cardinal t);
  Alcotest.(check bool) "few segments" true (Learned_index.segments t < 5000);
  List.iter
    (fun (k, v) ->
       if v mod 479 = 0 then Alcotest.(check (option int)) k (Some v) (Learned_index.get t k))
    entries;
  Alcotest.(check (option int)) "absent" None (Learned_index.get t "zzz");
  Alcotest.(check (option int)) "absent before" None (Learned_index.get t "");
  let r = Learned_index.range t ~lo:(key_of 100) ~hi:(key_of 149) in
  Alcotest.(check int) "range" 50 (List.length r)

let test_learned_error_bound () =
  (* the prediction for every indexed key must sit within max_error of its
     true position *)
  let n = 20_000 in
  let entries = List.init n (fun i -> (key_of i, i)) in
  let t = Learned_index.build ~max_error:16 entries in
  List.iteri
    (fun truth (k, _) ->
       let p = Learned_index.predict t k in
       if abs (p - truth) > 16 then
         Alcotest.failf "prediction for %s off by %d (bound 16)" k (abs (p - truth)))
    entries

let test_learned_duplicates_and_empty () =
  let t = Learned_index.build [ ("k", 1); ("k", 2); ("a", 0) ] in
  Alcotest.(check int) "dedup" 2 (Learned_index.cardinal t);
  Alcotest.(check (option int)) "last duplicate wins" (Some 2) (Learned_index.get t "k");
  let e = Learned_index.build ([] : (string * int) list) in
  Alcotest.(check (option int)) "empty" None (Learned_index.get e "k");
  Alcotest.(check (list (pair string int))) "empty range" [] (Learned_index.range e ~lo:"" ~hi:"z")

let prop_learned_model =
  QCheck.Test.make ~name:"learned index: model-based get/range" ~count:40
    QCheck.(pair (small_list (pair (int_bound 1000) (int_bound 50))) (int_range 1 64))
    (fun (pairs, max_error) ->
       let entries = List.map (fun (ki, v) -> (key_of ki, v)) pairs in
       let t = Learned_index.build ~max_error entries in
       let model = List.fold_left (fun m (k, v) -> SM.add k v m) SM.empty entries in
       SM.for_all (fun k v -> Learned_index.get t k = Some v) model
       && Learned_index.cardinal t = SM.cardinal model
       && Learned_index.range t ~lo:"" ~hi:"~" = SM.bindings model)

let suite =
  suite
  @ [
      Alcotest.test_case "learned index basic" `Quick test_learned_basic;
      Alcotest.test_case "learned index error bound" `Quick test_learned_error_bound;
      Alcotest.test_case "learned index duplicates" `Quick test_learned_duplicates_and_empty;
      QCheck_alcotest.to_alcotest prop_learned_model;
    ]

(* adversarially non-linear key distributions must still be correct (the
   model only affects speed, never answers) *)
let test_learned_skewed_distribution () =
  let entries =
    List.init 2000 (fun i ->
        (* exponentially clustered keys *)
        (Printf.sprintf "%020d" ((i * i * i) + i), i))
  in
  let t = Learned_index.build ~max_error:8 entries in
  List.iter
    (fun (k, v) ->
       if v mod 97 = 0 then Alcotest.(check (option int)) k (Some v) (Learned_index.get t k))
    entries;
  Alcotest.(check (option int)) "absent in a gap" None (Learned_index.get t "00000000000000001001")

let test_learned_single_and_two () =
  let one = Learned_index.build [ ("only", 1) ] in
  Alcotest.(check (option int)) "single" (Some 1) (Learned_index.get one "only");
  let two = Learned_index.build [ ("a", 1); ("b", 2) ] in
  Alcotest.(check (option int)) "first" (Some 1) (Learned_index.get two "a");
  Alcotest.(check (option int)) "second" (Some 2) (Learned_index.get two "b")

let suite =
  suite
  @ [
      Alcotest.test_case "learned skewed keys" `Quick test_learned_skewed_distribution;
      Alcotest.test_case "learned tiny inputs" `Quick test_learned_single_and_two;
    ]
