(* Unit tests for the support substrate: spans, sources, diagnostics and
   the deterministic PRNG. *)

open Rats

let check = Alcotest.check
let test name f = Alcotest.test_case name `Quick f

(* Substring test, used by a few message assertions. *)
let contains s sub =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

(* --- Span ------------------------------------------------------------------ *)

let span_tests =
  [
    test "v and accessors" (fun () ->
        let s = Span.v ~start_:3 ~stop:7 in
        check Alcotest.int "start" 3 (Span.start s);
        check Alcotest.int "stop" 7 (Span.stop s);
        check Alcotest.int "length" 4 (Span.length s));
    test "rejects negative start" (fun () ->
        Alcotest.check_raises "negative"
          (Invalid_argument "Span.v: negative start") (fun () ->
            ignore (Span.v ~start_:(-1) ~stop:0)));
    test "rejects stop before start" (fun () ->
        Alcotest.check_raises "inverted"
          (Invalid_argument "Span.v: stop before start") (fun () ->
            ignore (Span.v ~start_:5 ~stop:4)));
    test "point is empty" (fun () ->
        check Alcotest.int "len" 0 (Span.length (Span.point 9)));
    test "dummy detection" (fun () ->
        check Alcotest.bool "dummy" true (Span.is_dummy Span.dummy);
        check Alcotest.bool "not dummy" false
          (Span.is_dummy (Span.v ~start_:0 ~stop:1)));
    test "union covers both" (fun () ->
        let u = Span.union (Span.v ~start_:2 ~stop:4) (Span.v ~start_:7 ~stop:9) in
        check Alcotest.int "start" 2 (Span.start u);
        check Alcotest.int "stop" 9 (Span.stop u));
    test "union absorbs dummy" (fun () ->
        let s = Span.v ~start_:2 ~stop:4 in
        check Alcotest.bool "left" true (Span.equal s (Span.union Span.dummy s));
        check Alcotest.bool "right" true (Span.equal s (Span.union s Span.dummy)));
    test "contains is half-open" (fun () ->
        let s = Span.v ~start_:2 ~stop:4 in
        check Alcotest.bool "below" false (Span.contains s 1);
        check Alcotest.bool "start" true (Span.contains s 2);
        check Alcotest.bool "last" true (Span.contains s 3);
        check Alcotest.bool "stop" false (Span.contains s 4));
    test "compare orders by start then stop" (fun () ->
        let a = Span.v ~start_:1 ~stop:5 and b = Span.v ~start_:1 ~stop:6 in
        check Alcotest.bool "lt" true (Span.compare a b < 0);
        check Alcotest.bool "eq" true
          (Span.compare a (Span.v ~start_:1 ~stop:5) = 0));
  ]

(* --- Source ------------------------------------------------------------------ *)

let source_tests =
  let src = Source.of_string ~name:"t.rats" "line one\nline two\r\nline three" in
  [
    test "name and length" (fun () ->
        check Alcotest.string "name" "t.rats" (Source.name src);
        check Alcotest.int "len" 29 (Source.length src));
    test "location at offset 0" (fun () ->
        let { Source.line; col } = Source.location src 0 in
        check Alcotest.int "line" 1 line;
        check Alcotest.int "col" 1 col);
    test "location mid second line" (fun () ->
        (* offset 9 is 'l' of "line two" *)
        let { Source.line; col } = Source.location src 9 in
        check Alcotest.int "line" 2 line;
        check Alcotest.int "col" 1 col);
    test "location clamps past end" (fun () ->
        let { Source.line; _ } = Source.location src 10_000 in
        check Alcotest.int "line" 3 line);
    test "line_text strips newline and CR" (fun () ->
        check Alcotest.string "l1" "line one" (Source.line_text src 1);
        check Alcotest.string "l2" "line two" (Source.line_text src 2);
        check Alcotest.string "l3" "line three" (Source.line_text src 3));
    test "line_text out of range" (fun () ->
        Alcotest.check_raises "zero" (Invalid_argument "Source.line_text")
          (fun () -> ignore (Source.line_text src 0)));
    test "line_count" (fun () ->
        check Alcotest.int "count" 3 (Source.line_count src));
    test "slice clamps" (fun () ->
        check Alcotest.string "inside" "one"
          (Source.slice src (Span.v ~start_:5 ~stop:8));
        check Alcotest.string "overhang" "three"
          (Source.slice src (Span.v ~start_:24 ~stop:99)));
    test "excerpt carries a caret" (fun () ->
        let s = Format.asprintf "%a" (Source.pp_excerpt src) (Span.v ~start_:5 ~stop:8) in
        check Alcotest.bool "caret" true (String.contains s '^');
        check Alcotest.bool "quotes line" true
          (String.length s >= String.length "line one"));
    test "read_file missing" (fun () ->
        match Source.read_file "/nonexistent/xyz" with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "expected error");
    test "empty source has one line" (fun () ->
        let e = Source.of_string "" in
        check Alcotest.int "lines" 1 (Source.line_count e);
        let { Source.line; col } = Source.location e 0 in
        check Alcotest.int "line" 1 line;
        check Alcotest.int "col" 1 col);
    test "excerpt caret on empty source" (fun () ->
        let e = Source.of_string "" in
        let s = Format.asprintf "%a" (Source.pp_excerpt e) (Span.point 0) in
        check Alcotest.bool "caret" true (String.contains s '^'));
    test "location at end of CRLF file without trailing newline" (fun () ->
        let e = Source.of_string "ab\r\ncd" in
        let { Source.line; col } = Source.location e 6 in
        check Alcotest.int "line" 2 line;
        check Alcotest.int "col" 3 col;
        check Alcotest.string "last line" "cd" (Source.line_text e 2));
    test "excerpt caret clamps to the stripped line on CRLF" (fun () ->
        (* Offset 3 is the \n of the CRLF pair: column 4 of a line whose
           displayed text is 2 chars. The caret must sit at the line's
           end (one past the text), not drift into the terminator. *)
        let e = Source.of_string "ab\r\ncd\r\n" in
        let caret_col sp =
          let s = Format.asprintf "%a" (Source.pp_excerpt e) sp in
          match String.split_on_char '\n' s with
          | [ _; carets ] -> String.index carets '^' + 1
          | _ -> Alcotest.fail "expected two excerpt lines"
        in
        check Alcotest.int "on CR" 3 (caret_col (Span.point 2));
        check Alcotest.int "on LF clamped" 3 (caret_col (Span.point 3)));
    test "excerpt caret at EOF without trailing newline" (fun () ->
        let e = Source.of_string "ab" in
        let s = Format.asprintf "%a" (Source.pp_excerpt e) (Span.point 2) in
        check Alcotest.string "caret one past text" "ab\n  ^" s);
    test "pp_location renders line:col across line shapes" (fun () ->
        let e = Source.of_string ~name:"f" "a\r\nbb\nccc" in
        let at off = Format.asprintf "%a" (Source.pp_location e) off in
        check Alcotest.string "line1" "f:1:1" (at 0);
        check Alcotest.string "line2" "f:2:1" (at 3);
        check Alcotest.string "line3 end (no final newline)" "f:3:4" (at 9));
  ]

(* --- Input ----------------------------------------------------------------------- *)

(* Unit coverage for the two-representation input layer; the end-to-end
   string-vs-Bigarray parse equivalence properties live in
   test_props.ml. *)

let big_of_string s =
  let b =
    Bigarray.Array1.create Bigarray.char Bigarray.c_layout (String.length s)
  in
  String.iteri (Bigarray.Array1.set b) s;
  b

let write_temp contents =
  let path = Filename.temp_file "rats_input" ".txt" in
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc contents);
  path

let input_tests =
  [
    test "accessors agree across representations" (fun () ->
        let s = "hello\nworld" in
        let str = Input.of_string s in
        let big = Input.of_bigstring (big_of_string s) in
        check Alcotest.int "length" (String.length s) (Input.length big);
        check Alcotest.bool "str not bigarray" false (Input.is_bigarray str);
        check Alcotest.bool "big is bigarray" true (Input.is_bigarray big);
        check Alcotest.string "to_string" s (Input.to_string big);
        check Alcotest.string "sub_string" "lo\nwo" (Input.sub_string big 3 5);
        for i = 0 to String.length s - 1 do
          check Alcotest.char "get" (Input.get str i) (Input.get big i)
        done);
    test "get is bounds-checked on both representations" (fun () ->
        Alcotest.check_raises "big past end" (Invalid_argument "Input.get")
          (fun () ->
            ignore (Input.get (Input.of_bigstring (big_of_string "ab")) 2));
        Alcotest.check_raises "str negative" (Invalid_argument "Input.get")
          (fun () -> ignore (Input.get (Input.of_string "ab") (-1))));
    test "blit_to_bytes copies out of a bigarray" (fun () ->
        let big = Input.of_bigstring (big_of_string "abcdef") in
        let dst = Bytes.make 4 '.' in
        Input.blit_to_bytes big 2 dst 1 3;
        check Alcotest.string "blit" ".cde" (Bytes.to_string dst);
        Alcotest.check_raises "overrun"
          (Invalid_argument "Input.blit_to_bytes") (fun () ->
            Input.blit_to_bytes big 4 dst 0 3));
    test "equal is byte-wise across representations" (fun () ->
        let big = Input.of_bigstring (big_of_string "abc") in
        check Alcotest.bool "eq" true (Input.equal (Input.of_string "abc") big);
        check Alcotest.bool "neq" false
          (Input.equal (Input.of_string "abd") big);
        check Alcotest.bool "shorter" false
          (Input.equal (Input.of_string "ab") big));
    test "map_file round-trips file bytes as a bigarray" (fun () ->
        let path = write_temp "line one\nline two\n" in
        (match Input.map_file path with
        | Error msg -> Alcotest.fail msg
        | Ok i ->
            check Alcotest.bool "mapped" true (Input.is_bigarray i);
            check Alcotest.string "bytes" "line one\nline two\n"
              (Input.to_string i));
        Sys.remove path);
    test "map_file of an empty file" (fun () ->
        let path = write_temp "" in
        (match Input.map_file path with
        | Error msg -> Alcotest.fail msg
        | Ok i ->
            check Alcotest.bool "still a bigarray" true (Input.is_bigarray i);
            check Alcotest.int "empty" 0 (Input.length i));
        Sys.remove path);
    test "map_file of a missing file is an error, not a raise" (fun () ->
        match Input.map_file "/nonexistent/rats-input" with
        | Error msg ->
            check Alcotest.bool "names the path" true
              (contains msg "/nonexistent/rats-input")
        | Ok _ -> Alcotest.fail "expected error");
  ]

(* --- mapped sources ---------------------------------------------------------------- *)

let mapped_source_tests =
  [
    test "map_file source resolves locations like a string one" (fun () ->
        let path = write_temp "line one\nline two" in
        (match Source.map_file path with
        | Error msg -> Alcotest.fail msg
        | Ok src ->
            check Alcotest.bool "mapped" true (Source.is_mapped src);
            check Alcotest.string "name" path (Source.name src);
            check Alcotest.string "text" "line one\nline two"
              (Source.text src);
            check Alcotest.int "lines" 2 (Source.line_count src);
            let { Source.line; col } = Source.location src 9 in
            check Alcotest.int "line" 2 line;
            check Alcotest.int "col" 1 col;
            check Alcotest.string "line_text" "line two"
              (Source.line_text src 2));
        Sys.remove path);
    test "editing a mapped source copies on write" (fun () ->
        let path = write_temp "1 + 2 * (3 - 4)" in
        (match Source.map_file path with
        | Error msg -> Alcotest.fail msg
        | Ok src ->
            ignore (Source.line_count src) (* force the index *);
            let p =
              Source.apply_edit src ~start:4 ~old_len:1 ~replacement:"42"
            in
            check Alcotest.bool "original still mapped" true
              (Source.is_mapped src);
            check Alcotest.bool "patched is string-backed" false
              (Source.is_mapped p);
            check Alcotest.string "patched text" "1 + 42 * (3 - 4)"
              (Source.text p));
        Sys.remove path);
    test "map_file of a missing file is an error" (fun () ->
        match Source.map_file "/nonexistent/rats-src" with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "expected error");
    test "of_input shares the buffer and default name" (fun () ->
        let i = Input.of_bigstring (big_of_string "abc") in
        let src = Source.of_input i in
        check Alcotest.string "name" "<input>" (Source.name src);
        check Alcotest.bool "same buffer" true (Source.input src == i));
  ]

(* --- Diagnostic ----------------------------------------------------------------- *)

let diagnostic_tests =
  [
    test "errorf formats" (fun () ->
        let d = Diagnostic.errorf "bad %s %d" "thing" 3 in
        check Alcotest.string "msg" "bad thing 3" d.Diagnostic.message;
        check Alcotest.bool "is_error" true (Diagnostic.is_error d));
    test "warning is not error" (fun () ->
        check Alcotest.bool "warn" false
          (Diagnostic.is_error (Diagnostic.warning "w")));
    test "to_string without source" (fun () ->
        let s = Diagnostic.to_string (Diagnostic.error "boom") in
        check Alcotest.string "rendered" "error: boom" s);
    test "to_string with notes" (fun () ->
        let s =
          Diagnostic.to_string (Diagnostic.error ~notes:[ "hint" ] "boom")
        in
        check Alcotest.bool "note shown" true
          (contains s "note: hint"));
    test "to_string with source location" (fun () ->
        let src = Source.of_string ~name:"f" "abc\ndef" in
        let d = Diagnostic.error ~span:(Span.v ~start_:4 ~stop:5) "nope" in
        let s = Diagnostic.to_string ~source:src d in
        check Alcotest.bool "loc" true (contains s "f:2:1"));
    test "fail raises" (fun () ->
        match Diagnostic.fail "x" with
        | exception Diagnostic.Fail d ->
            check Alcotest.string "msg" "x" d.Diagnostic.message
        | _ -> Alcotest.fail "expected Fail");
  ]

(* --- Rng -------------------------------------------------------------------------- *)

let rng_tests =
  [
    test "same seed, same stream" (fun () ->
        let a = Rng.create 7 and b = Rng.create 7 in
        for _ = 1 to 50 do
          check Alcotest.int "step" (Rng.int a 1000) (Rng.int b 1000)
        done);
    test "different seeds differ" (fun () ->
        let a = Rng.create 1 and b = Rng.create 2 in
        let va = List.init 20 (fun _ -> Rng.int a 1_000_000) in
        let vb = List.init 20 (fun _ -> Rng.int b 1_000_000) in
        check Alcotest.bool "differ" true (va <> vb));
    test "int stays in bounds" (fun () ->
        let r = Rng.create 3 in
        for _ = 1 to 1000 do
          let v = Rng.int r 17 in
          if v < 0 || v >= 17 then Alcotest.fail "out of bounds"
        done);
    test "int rejects non-positive bound" (fun () ->
        Alcotest.check_raises "zero"
          (Invalid_argument "Rng.int: bound must be positive") (fun () ->
            ignore (Rng.int (Rng.create 0) 0)));
    test "in_range inclusive" (fun () ->
        let r = Rng.create 4 in
        let seen_lo = ref false and seen_hi = ref false in
        for _ = 1 to 2000 do
          let v = Rng.in_range r 2 4 in
          if v = 2 then seen_lo := true;
          if v = 4 then seen_hi := true;
          if v < 2 || v > 4 then Alcotest.fail "out of range"
        done;
        check Alcotest.bool "lo" true !seen_lo;
        check Alcotest.bool "hi" true !seen_hi);
    test "copy forks the stream" (fun () ->
        let a = Rng.create 9 in
        ignore (Rng.int a 10);
        let b = Rng.copy a in
        check Alcotest.int "same next" (Rng.int a 1000) (Rng.int b 1000));
    test "pick_weighted respects zero weight" (fun () ->
        let r = Rng.create 5 in
        for _ = 1 to 200 do
          match Rng.pick_weighted r [ (0, `A); (5, `B) ] with
          | `A -> Alcotest.fail "picked zero-weight item"
          | `B -> ()
        done);
    test "pick_weighted rejects empty" (fun () ->
        Alcotest.check_raises "empty"
          (Invalid_argument "Rng.pick_weighted: non-positive total") (fun () ->
            ignore (Rng.pick_weighted (Rng.create 0) [])));
    test "bool produces both values" (fun () ->
        let r = Rng.create 11 in
        let t = ref false and f = ref false in
        for _ = 1 to 100 do
          if Rng.bool r then t := true else f := true
        done;
        check Alcotest.bool "both" true (!t && !f));
  ]

(* --- Source.apply_edit ------------------------------------------------------ *)

(* The patched line-start table must be indistinguishable from one
   rebuilt from the spliced text: same starts, same locations at every
   offset. The property drives random edits over random newline-heavy
   texts, forcing the index before the edit so the patch path (not the
   lazy rebuild) is what's exercised. *)

let splice text start old_len replacement =
  String.sub text 0 start
  ^ replacement
  ^ String.sub text (start + old_len) (String.length text - start - old_len)

let check_patched_equals_rebuilt text start old_len replacement =
  let src = Source.of_string text in
  ignore (Source.line_count src) (* force the index *);
  let patched = Source.apply_edit src ~start ~old_len ~replacement in
  let expect = Source.of_string (splice text start old_len replacement) in
  if not (String.equal (Source.text patched) (Source.text expect)) then
    QCheck.Test.fail_reportf "text mismatch: %S vs %S" (Source.text patched)
      (Source.text expect);
  if Source.line_count patched <> Source.line_count expect then
    QCheck.Test.fail_reportf "line_count %d vs %d (text %S)"
      (Source.line_count patched) (Source.line_count expect)
      (Source.text expect);
  for off = 0 to Source.length expect do
    let a = Source.location patched off and b = Source.location expect off in
    if a <> b then
      QCheck.Test.fail_reportf "location@%d: %d:%d vs %d:%d (text %S)" off
        a.Source.line a.Source.col b.Source.line b.Source.col
        (Source.text expect)
  done;
  true

let gen_edit_case =
  QCheck.Gen.(
    let text_gen =
      string_size ~gen:(oneofl [ 'a'; 'b'; '\n'; '\n' ]) (int_bound 40)
    in
    text_gen >>= fun text ->
    int_bound (String.length text) >>= fun start ->
    int_bound (String.length text - start) >>= fun old_len ->
    text_gen >>= fun replacement -> return (text, start, old_len, replacement))

let print_edit_case (text, start, old_len, replacement) =
  Printf.sprintf "%S @%d -%d +%S" text start old_len replacement

let source_edit_props =
  [
    QCheck.Test.make ~name:"patched line starts = rebuilt line starts"
      ~count:500
      (QCheck.make ~print:print_edit_case gen_edit_case)
      (fun (text, start, old_len, replacement) ->
        check_patched_equals_rebuilt text start old_len replacement);
  ]

let source_edit_tests =
  [
    test "edit before a lazy index stays lazy-correct" (fun () ->
        let src = Source.of_string "a\nb\nc" in
        let p = Source.apply_edit src ~start:2 ~old_len:1 ~replacement:"xx\ny" in
        check Alcotest.string "text" "a\nxx\ny\nc" (Source.text p);
        check Alcotest.int "lines" 4 (Source.line_count p));
    test "pure insertion shifts the suffix" (fun () ->
        ignore (check_patched_equals_rebuilt "one\ntwo\nthree" 4 0 "ins\n"));
    test "pure deletion drops starts in the window" (fun () ->
        ignore (check_patched_equals_rebuilt "one\ntwo\nthree" 3 5 ""));
    test "newline at the replacement boundary" (fun () ->
        ignore (check_patched_equals_rebuilt "ab\ncd" 2 1 "\n");
        ignore (check_patched_equals_rebuilt "ab\ncd" 3 0 "x\n"));
    test "whole-buffer replacement" (fun () ->
        ignore (check_patched_equals_rebuilt "a\nb" 0 3 "x\ny\nz"));
    test "out of bounds rejected" (fun () ->
        let src = Source.of_string "abc" in
        Alcotest.check_raises "past end" (Invalid_argument "Source.apply_edit")
          (fun () ->
            ignore (Source.apply_edit src ~start:2 ~old_len:2 ~replacement:"")));
  ]

(* --- Memo_arena ------------------------------------------------------------- *)

(* Low-level checks of the flat chunk store both engines sit on; the
   end-to-end invariants (identical parses across recycling) live in
   test_session.ml. *)

(* Claim a chunk at every third position of a 40-byte input, each with
   one entry that examined [p mod 5 + 1] bytes, apply the edit, and
   check the whole [idx] row against the rule: before [start] a chunk
   survives in place iff its entry examined nothing past [start]; in
   the replaced window it is dropped; after it, it moves by the delta;
   every other position, and every position past the new length up to
   the old, holds no chunk. [fresh] leaves [idx] exactly [len + 1]
   long; otherwise an earlier longer input left it room. *)
let check_edit_survivors ~fresh ~start ~old_len ~new_len =
  let open Memo_arena in
  let len = 40 in
  let a = create ~nslots:2 ~vmap:[| 0; -1 |] in
  if not fresh then reset a ~len:100;
  reset a ~len;
  let claimed =
    List.init ((len / 3) + 1) (fun i ->
        let p = i * 3 in
        let c = alloc a p in
        let ext = (p mod 5) + 1 in
        a.res.{c * 2} <- 1;
        a.exts.{c * 2} <- ext;
        a.cmax.{c} <- ext;
        (p, c, ext))
  in
  let delta = new_len - old_len in
  let n' = len + 1 + delta in
  let expected = Array.make (max n' (len + 1)) (-1) in
  List.iter
    (fun (p, c, ext) ->
      if p < start then (if p + ext <= start then expected.(p) <- c)
      else if p >= start + old_len then expected.(p + delta) <- c)
    claimed;
  let survivors =
    Array.fold_left (fun n c -> if c >= 0 then n + 1 else n) 0 expected
  in
  let moved =
    if delta = 0 then 0
    else
      List.length (List.filter (fun (p, _, _) -> p >= start + old_len) claimed)
  in
  let reused, relocated = edit a ~start ~old_len ~new_len in
  let what = Printf.sprintf "edit %d %d %d" start old_len new_len in
  check Alcotest.int (what ^ ": idx_len") n' a.idx_len;
  check Alcotest.int (what ^ ": reused") survivors reused;
  check Alcotest.int (what ^ ": relocated") moved relocated;
  Array.iteri
    (fun p c ->
      check Alcotest.int (Printf.sprintf "%s: idx %d" what p) c a.idx.{p})
    expected

let memo_arena_tests =
  let open Memo_arena in
  let make () =
    (* two memo slots, slot 0 carries a value, slot 1 is lean *)
    create ~nslots:2 ~vmap:[| 0; -1 |]
  in
  [
    test "create starts cold" (fun () ->
        let a = make () in
        check Alcotest.int "idx_len" (-1) a.idx_len;
        check Alcotest.int "used" 0 a.used);
    test "alloc assigns and indexes chunks" (fun () ->
        let a = make () in
        reset a ~len:10;
        let c0 = alloc a 3 and c1 = alloc a 7 in
        check Alcotest.bool "distinct" true (c0 <> c1);
        check Alcotest.int "idx 3" c0 a.idx.{3};
        check Alcotest.int "idx 7" c1 a.idx.{7};
        check Alcotest.int "unset res" 0 a.res.{(c0 * 2) + 1});
    test "growth preserves rows" (fun () ->
        let a = make () in
        reset a ~len:1000;
        (* 300 claims grow the rows from 64 to 128, 256 and 512 chunks;
           each chunk's cells are written as soon as it is claimed *)
        let chunks =
          List.init 300 (fun i ->
              let p = (i * 3) + 1 in
              let c = alloc a p in
              a.res.{c * 2} <- i + 1;
              a.res.{(c * 2) + 1} <- -1;
              a.vers.{c * 2} <- 7 * i;
              a.exts.{(c * 2) + 1} <- i + 2;
              a.cmax.{c} <- i + 2;
              a.vals.(c) <- Value.Str (string_of_int i);
              (i, p, c))
        in
        check Alcotest.bool "grown" true (a.cap >= 300);
        List.iter
          (fun (i, p, c) ->
            let at what = Printf.sprintf "%s of chunk %d" what i in
            check Alcotest.int (at "idx") c a.idx.{p};
            check Alcotest.int (at "res") (i + 1) a.res.{c * 2};
            check Alcotest.int (at "res 1") (-1) a.res.{(c * 2) + 1};
            check Alcotest.int (at "vers") (7 * i) a.vers.{c * 2};
            check Alcotest.int (at "exts") (i + 2) a.exts.{(c * 2) + 1};
            check Alcotest.int (at "cmax") (i + 2) a.cmax.{c};
            check Alcotest.bool (at "val") true
              (Value.equal a.vals.(c) (Value.Str (string_of_int i))))
          chunks);
    test "free_chunk recycles ids and clears values" (fun () ->
        let a = make () in
        reset a ~len:10;
        let c = alloc a 2 in
        a.vals.(c) <- Value.Chr 'y';
        free_chunk a c;
        check Alcotest.bool "value cleared" true
          (Value.equal a.vals.(c) Value.Unit);
        let c' = alloc a 4 in
        check Alcotest.int "id reused" c c');
    test "release_values empties and marks cold" (fun () ->
        let a = create ~nslots:3 ~vmap:[| 0; -1; 1 |] in
        reset a ~len:500;
        for p = 0 to 199 do
          let c = alloc a p in
          a.vals.(c * 2) <- Value.Chr 'v';
          a.vals.((c * 2) + 1) <- Value.Str "w"
        done;
        release_values a;
        check Alcotest.int "cold" (-1) a.idx_len;
        check Alcotest.int "used" 0 a.used;
        check Alcotest.int "free" 0 a.nfree;
        Array.iteri
          (fun i v ->
            if v != Value.Unit then Alcotest.failf "vals.(%d) still held" i)
          a.vals);
    test "edit keeps, relocates and drops by extent" (fun () ->
        let a = make () in
        reset a ~len:20;
        (* chunk at 0 examined 2 bytes: safely before the splice *)
        let c0 = alloc a 0 in
        a.res.{c0 * 2} <- 1;
        a.exts.{c0 * 2} <- 2;
        a.cmax.{c0} <- 2;
        (* chunk at 6: inside the replaced window, must die *)
        ignore (alloc a 6);
        (* chunk at 12: past the window, relocates by the delta *)
        let c2 = alloc a 12 in
        a.res.{c2 * 2} <- 3;
        a.cmax.{c2} <- 1;
        (* replace 4 bytes at 5 with 2 bytes: delta -2 *)
        let reused, relocated = edit a ~start:5 ~old_len:4 ~new_len:2 in
        check Alcotest.int "reused" 2 reused;
        check Alcotest.int "relocated" 1 relocated;
        check Alcotest.int "kept at 0" c0 a.idx.{0};
        check Alcotest.int "moved to 10" c2 a.idx.{10};
        check Alcotest.int "old home cleared" (-1) a.idx.{12};
        check Alcotest.int "window cleared" (-1) a.idx.{6};
        check Alcotest.int "new len" 19 a.idx_len);
    test "edit drops straddling entries slot by slot" (fun () ->
        let a = make () in
        reset a ~len:20;
        (* chunk at 2 whose slot-0 entry examined far past the splice
           and whose slot-1 entry stopped short of it *)
        let c = alloc a 2 in
        a.res.{c * 2} <- 1;
        a.exts.{c * 2} <- 10;
        a.res.{(c * 2) + 1} <- -1;
        a.exts.{(c * 2) + 1} <- 1;
        a.cmax.{c} <- 10;
        let reused, _ = edit a ~start:4 ~old_len:2 ~new_len:2 in
        check Alcotest.int "chunk survives" 1 reused;
        check Alcotest.int "far entry dropped" 0 a.res.{c * 2};
        check Alcotest.int "near entry kept" (-1) a.res.{(c * 2) + 1};
        check Alcotest.int "cmax tightened" 1 a.cmax.{c});
    test "edit shifts right, keeping exactly the survivors" (fun () ->
        (* the first arena's idx is exactly len + 1 long, so the shift
           reallocates it; the second's has room and shifts in place *)
        check_edit_survivors ~fresh:true ~start:10 ~old_len:3 ~new_len:9;
        check_edit_survivors ~fresh:false ~start:10 ~old_len:3 ~new_len:9;
        check_edit_survivors ~fresh:false ~start:0 ~old_len:0 ~new_len:4);
    test "edit shifts left, keeping exactly the survivors" (fun () ->
        check_edit_survivors ~fresh:true ~start:10 ~old_len:9 ~new_len:3;
        check_edit_survivors ~fresh:true ~start:5 ~old_len:30 ~new_len:0;
        check_edit_survivors ~fresh:true ~start:39 ~old_len:1 ~new_len:0);
  ]

(* --- Json ------------------------------------------------------------------ *)

let json = Rats_support.Json.string

(* What [json] writes is a JSON string literal: quoted, no raw control
   byte, every quote and backslash inside escaped. *)
let check_json_literal label lit =
  let n = String.length lit in
  check Alcotest.bool (label ^ " quoted") true
    (n >= 2 && lit.[0] = '"' && lit.[n - 1] = '"');
  let rec scan i =
    if i < n - 1 then
      match lit.[i] with
      | c when Char.code c < 0x20 -> Alcotest.failf "%s: raw byte %02x" label (Char.code c)
      | '"' -> Alcotest.failf "%s: unescaped quote at %d" label i
      | '\\' ->
          (match lit.[i + 1] with
          | '"' | '\\' | 'n' | 'r' | 't' -> scan (i + 2)
          | 'u'
            when i + 5 < n - 1
                 && String.for_all
                      (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false)
                      (String.sub lit (i + 2) 4) ->
              scan (i + 6)
          | c -> Alcotest.failf "%s: bad escape \\%c" label c)
      | _ -> scan (i + 1)
  in
  scan 1;
  match Grammars.Json.parse_hand (Printf.sprintf "{%s: [%s]}" lit lit) with
  | Ok _ -> ()
  | Error m -> Alcotest.failf "%s: %s" label m

let json_tests =
  [
    test "every byte is written as valid JSON" (fun () ->
        for c = 0 to 255 do
          let s = String.make 1 (Char.chr c) in
          check_json_literal (Printf.sprintf "byte %02x" c) (json s);
          check_json_literal
            (Printf.sprintf "byte %02x inside" c)
            (json ("a" ^ s ^ s ^ "b"))
        done;
        check_json_literal "all bytes"
          (json (String.init 256 Char.chr)));
    test "the batch escapes" (fun () ->
        check Alcotest.string "named" {|"\"\\\n\r\t"|}
          (json "\"\\\n\r\t");
        check Alcotest.string "numbered" {|"\u0000\u001f\u0008"|}
          (json "\000\031\b");
        check Alcotest.string "copied" "\"\127\255/\"" (json "\127\255/"));
  ]

let () =
  let to_alco = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "support"
    [
      ("span", span_tests);
      ("source", source_tests);
      ("input", input_tests);
      ("source-mapped", mapped_source_tests);
      ("source-edit", source_edit_tests @ to_alco source_edit_props);
      ("memo-arena", memo_arena_tests);
      ("diagnostic", diagnostic_tests);
      ("rng", rng_tests);
      ("json", json_tests);
    ]
