(* Tests for the I-TLB with way-placement bits and the way-hint bit. *)

module Tlb = Wayplace.Tlb.Tlb
module Way_hint = Wayplace.Tlb.Way_hint

let wp_below limit page = page < limit

let test_tlb_create_validation () =
  let invalid f = match f () with (_ : Tlb.t) -> false | exception Invalid_argument _ -> true in
  Alcotest.(check bool) "zero entries" true
    (invalid (fun () -> Tlb.create ~entries:0 ~page_bytes:1024));
  Alcotest.(check bool) "bad page size" true
    (invalid (fun () -> Tlb.create ~entries:4 ~page_bytes:1000))

let test_tlb_miss_then_hit () =
  let t = Tlb.create ~entries:4 ~page_bytes:1024 in
  let first = Tlb.lookup t 0x1234 ~wp_bit_of_page:(wp_below 0x2000) in
  Alcotest.(check bool) "cold miss" false first.Tlb.hit;
  Alcotest.(check bool) "wp bit set by the OS" true first.Tlb.way_placed;
  let second = Tlb.lookup t 0x12FF ~wp_bit_of_page:(wp_below 0x2000) in
  Alcotest.(check bool) "same page hits" true second.Tlb.hit;
  Alcotest.(check bool) "wp bit remembered" true second.Tlb.way_placed;
  Alcotest.(check int) "one entry" 1 (Tlb.valid_entries t)

let test_tlb_wp_bit_false () =
  let t = Tlb.create ~entries:4 ~page_bytes:1024 in
  let r = Tlb.lookup t 0x9000 ~wp_bit_of_page:(wp_below 0x2000) in
  Alcotest.(check bool) "outside the area" false r.Tlb.way_placed

let test_tlb_page_base () =
  let t = Tlb.create ~entries:4 ~page_bytes:1024 in
  Alcotest.(check int) "page base" 0x1400 (Tlb.page_base t 0x17FF)

let test_tlb_round_robin_eviction () =
  let t = Tlb.create ~entries:2 ~page_bytes:1024 in
  let lookup addr = ignore (Tlb.lookup t addr ~wp_bit_of_page:(fun _ -> false)) in
  lookup 0x0000;
  lookup 0x0400;
  (* Third page evicts the first (round robin). *)
  lookup 0x0800;
  let r = Tlb.lookup t 0x0000 ~wp_bit_of_page:(fun _ -> false) in
  Alcotest.(check bool) "first page was evicted" false r.Tlb.hit

let test_tlb_flush () =
  let t = Tlb.create ~entries:4 ~page_bytes:1024 in
  ignore (Tlb.lookup t 0x0 ~wp_bit_of_page:(fun _ -> true));
  Tlb.flush t;
  Alcotest.(check int) "empty" 0 (Tlb.valid_entries t);
  let r = Tlb.lookup t 0x0 ~wp_bit_of_page:(fun _ -> false) in
  Alcotest.(check bool) "stale wp bit gone after flush" false r.Tlb.way_placed

let test_tlb_wp_callback_gets_page_base () =
  let t = Tlb.create ~entries:4 ~page_bytes:1024 in
  let seen = ref (-1) in
  ignore
    (Tlb.lookup t 0x17FF ~wp_bit_of_page:(fun page ->
         seen := page;
         false));
  Alcotest.(check int) "callback argument is the page base" 0x1400 !seen

(* Reference model: entries as an association list from index to
   (page, way-placement bit), filled into the lowest free index, else
   the round-robin cursor. *)
module Model = struct
  type t = { entries : int; mutable slots : (int * (int * bool)) list; mutable cursor : int }

  let create entries = { entries; slots = []; cursor = 0 }

  let lookup t page ~wp =
    match List.find_opt (fun (_, (p, _)) -> p = page) t.slots with
    | Some (_, (_, bit)) -> (true, bit)
    | None ->
        let free = List.init t.entries Fun.id |> List.filter (fun i -> not (List.mem_assoc i t.slots)) in
        let victim =
          match free with
          | i :: _ -> i
          | [] ->
              let i = t.cursor in
              t.cursor <- (i + 1) mod t.entries;
              i
        in
        let bit = wp page in
        t.slots <- (victim, (page, bit)) :: List.remove_assoc victim t.slots;
        (false, bit)

  let flush t =
    t.slots <- [];
    t.cursor <- 0
end

(* Half the pages come from a pool that aliases in the residence memo
   (page numbers [4 * entries] apart, the memo size for these power-of-two
   entry counts), so the memo is constantly overwritten and left stale by
   evictions and flushes; the TLB must still answer as the model does. *)
let prop_tlb_matches_model =
  QCheck.Test.make ~name:"Tlb agrees with a reference model" ~count:100
    QCheck.(triple (int_bound 100_000) (int_range 50 500) (int_range 0 3))
    (fun (seed, steps, log_entries) ->
      let entries = 1 lsl log_entries and page_bytes = 1024 in
      let t = Tlb.create ~entries ~page_bytes in
      let model = Model.create entries in
      let wp page = (page / page_bytes) mod 3 = 0 in
      let rng = Wayplace.Workloads.Rng.create seed in
      let int = Wayplace.Workloads.Rng.int rng in
      let hot = int 64 in
      let ok = ref true in
      for _ = 1 to steps do
        if int 32 = 0 then begin
          Tlb.flush t;
          Model.flush model
        end
        else begin
          let page =
            if int 2 = 0 then hot + (4 * entries * int (3 * entries)) else int 256
          in
          let addr = (page * page_bytes) + (int (page_bytes / 4) * 4) in
          let r = Tlb.lookup t addr ~wp_bit_of_page:wp in
          let hit, bit = Model.lookup model (page * page_bytes) ~wp in
          if r.Tlb.hit <> hit || r.Tlb.way_placed <> bit then ok := false
        end
      done;
      !ok && Tlb.valid_entries t = List.length model.Model.slots)

let fingerprint_of t =
  let words = ref [] in
  Tlb.fingerprint t ~add:(fun w -> words := w :: !words);
  List.rev !words

(* The residence memo is not machine state: TLBs holding the same
   entries, cursor and last hit fingerprint equal however their memos
   were left.  x and y share a memo slot (4 entries, 16 slots), which
   ends up naming x's entry in [a] and y's in [b]; w lies elsewhere. *)
let test_tlb_memo_not_in_fingerprint () =
  let page_bytes = 1024 in
  let x = 0x400 and y = 0x400 + (16 * page_bytes) and w = 0x800 in
  let touch t addr = ignore (Tlb.lookup t addr ~wp_bit_of_page:(fun _ -> false)) in
  let make () =
    let t = Tlb.create ~entries:4 ~page_bytes in
    List.iter (touch t) [ x; y; w ];
    t
  in
  let a = make () and b = make () in
  touch a x;
  touch a w;
  touch b y;
  touch b w;
  Alcotest.(check (list int)) "equal fingerprints" (fingerprint_of a) (fingerprint_of b)

(* --- Way_hint --- *)

let test_hint_initial () =
  let h = Way_hint.create () in
  Alcotest.(check bool) "starts predicting normal" false (Way_hint.predict h)

let test_hint_verdicts () =
  let h = Way_hint.create () in
  (* false -> actual true: missed saving, hint becomes true. *)
  Alcotest.(check bool) "missed saving" true
    (Way_hint.resolve h ~actual:true = Way_hint.Missed_saving);
  Alcotest.(check bool) "hint updated" true (Way_hint.predict h);
  (* true -> actual true: correct way-placed. *)
  Alcotest.(check bool) "correct wp" true
    (Way_hint.resolve h ~actual:true = Way_hint.Correct_way_placed);
  (* true -> actual false: needs re-access. *)
  Alcotest.(check bool) "re-access" true
    (Way_hint.resolve h ~actual:false = Way_hint.Needs_reaccess);
  (* false -> actual false: correct normal. *)
  Alcotest.(check bool) "correct normal" true
    (Way_hint.resolve h ~actual:false = Way_hint.Correct_normal)

let test_hint_reset () =
  let h = Way_hint.create () in
  ignore (Way_hint.resolve h ~actual:true);
  Way_hint.reset h;
  Alcotest.(check bool) "reset to normal" false (Way_hint.predict h)

(* Property: the hint bit is exactly "last actual", so on any sequence
   the number of mispredicts equals the number of transitions. *)
let prop_hint_transitions =
  QCheck.Test.make ~name:"mispredicts = transitions" ~count:200
    QCheck.(list_of_size (QCheck.Gen.int_range 1 50) bool)
    (fun actuals ->
      let h = Way_hint.create () in
      let mispredicts =
        List.fold_left
          (fun acc actual ->
            match Way_hint.resolve h ~actual with
            | Way_hint.Missed_saving | Way_hint.Needs_reaccess -> acc + 1
            | Way_hint.Correct_way_placed | Way_hint.Correct_normal -> acc)
          0 actuals
      in
      let transitions =
        fst
          (List.fold_left
             (fun (acc, prev) actual ->
               ((if actual <> prev then acc + 1 else acc), actual))
             (0, false) actuals)
      in
      mispredicts = transitions)

let () =
  Alcotest.run "tlb"
    [
      ( "tlb",
        [
          Alcotest.test_case "validation" `Quick test_tlb_create_validation;
          Alcotest.test_case "miss then hit" `Quick test_tlb_miss_then_hit;
          Alcotest.test_case "wp bit false" `Quick test_tlb_wp_bit_false;
          Alcotest.test_case "page base" `Quick test_tlb_page_base;
          Alcotest.test_case "round-robin eviction" `Quick test_tlb_round_robin_eviction;
          Alcotest.test_case "flush" `Quick test_tlb_flush;
          Alcotest.test_case "callback argument" `Quick test_tlb_wp_callback_gets_page_base;
          QCheck_alcotest.to_alcotest prop_tlb_matches_model;
          Alcotest.test_case "memo not in fingerprint" `Quick
            test_tlb_memo_not_in_fingerprint;
        ] );
      ( "way_hint",
        [
          Alcotest.test_case "initial state" `Quick test_hint_initial;
          Alcotest.test_case "verdicts" `Quick test_hint_verdicts;
          Alcotest.test_case "reset" `Quick test_hint_reset;
          QCheck_alcotest.to_alcotest prop_hint_transitions;
        ] );
    ]
