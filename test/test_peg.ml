(* Unit tests for the PEG core: character sets, semantic values, the
   expression IR and its smart constructors, grammars, static analyses
   and the pretty-printer. *)

open Rats

let check = Alcotest.check
let test name f = Alcotest.test_case name `Quick f
let expr_eq = Alcotest.testable (fun ppf e -> Pretty.pp_expr ppf e) Expr.equal
let value_eq = Alcotest.testable (fun ppf v -> Value.pp ppf v) Value.equal
let b_grammar prods = Grammar.make_exn prods

(* --- Charset ------------------------------------------------------------- *)

let charset_tests =
  [
    test "membership of range" (fun () ->
        let s = Charset.range 'a' 'f' in
        check Alcotest.bool "a" true (Charset.mem 'a' s);
        check Alcotest.bool "f" true (Charset.mem 'f' s);
        check Alcotest.bool "g" false (Charset.mem 'g' s);
        check Alcotest.int "cardinal" 6 (Charset.cardinal s));
    test "empty range when hi < lo" (fun () ->
        check Alcotest.bool "empty" true
          (Charset.is_empty (Charset.range 'z' 'a')));
    test "of_string dedups" (fun () ->
        check Alcotest.int "card" 3 (Charset.cardinal (Charset.of_string "aab-")));
    test "union and inter" (fun () ->
        let a = Charset.range 'a' 'm' and b = Charset.range 'h' 'z' in
        check Alcotest.int "union" 26 (Charset.cardinal (Charset.union a b));
        check Alcotest.int "inter" 6 (Charset.cardinal (Charset.inter a b)));
    test "diff and complement" (fun () ->
        let a = Charset.range 'a' 'd' in
        check Alcotest.int "diff" 3
          (Charset.cardinal (Charset.diff a (Charset.singleton 'b')));
        check Alcotest.int "complement" 252
          (Charset.cardinal (Charset.complement a));
        check Alcotest.bool "full" true
          (Charset.equal Charset.full (Charset.union a (Charset.complement a))));
    test "add and remove" (fun () ->
        let s = Charset.add 'x' Charset.empty in
        check Alcotest.bool "added" true (Charset.mem 'x' s);
        check Alcotest.bool "removed" false (Charset.mem 'x' (Charset.remove 'x' s)));
    test "subset and disjoint" (fun () ->
        let a = Charset.range 'a' 'c' and b = Charset.range 'a' 'z' in
        check Alcotest.bool "subset" true (Charset.subset a b);
        check Alcotest.bool "not subset" false (Charset.subset b a);
        check Alcotest.bool "disjoint" true
          (Charset.disjoint a (Charset.range '0' '9')));
    test "high bytes work" (fun () ->
        let s = Charset.singleton '\xff' in
        check Alcotest.bool "mem" true (Charset.mem '\xff' s);
        check Alcotest.bool "not" false (Charset.mem '\xfe' s));
    test "printing collapses runs" (fun () ->
        let s = Charset.union (Charset.range 'a' 'c') (Charset.singleton 'x') in
        check Alcotest.string "ranges" "[a-cx]" (Charset.to_string s));
    test "elements sorted" (fun () ->
        check
          (Alcotest.list Alcotest.char)
          "elems" [ 'a'; 'b'; 'z' ]
          (Charset.elements (Charset.of_string "zba")));
    test "choose smallest" (fun () ->
        check (Alcotest.option Alcotest.char) "min" (Some 'b')
          (Charset.choose (Charset.of_string "cbz"));
        check (Alcotest.option Alcotest.char) "none" None
          (Charset.choose Charset.empty));
    test "pp prints range syntax" (fun () ->
        check Alcotest.string "range" "[a-e]"
          (Charset.to_string (Charset.range 'a' 'e')));
    test "iter, ranges and printing agree with membership" (fun () ->
        (* reference: one [mem] per byte, runs collapsed by hand *)
        let naive s =
          let esc c =
            match c with
            | '\n' -> "\\n" | '\t' -> "\\t" | '\r' -> "\\r"
            | '\\' -> "\\\\" | ']' -> "\\]" | '-' -> "\\-" | '^' -> "\\^"
            | c when Char.code c >= 32 && Char.code c < 127 -> String.make 1 c
            | c -> Printf.sprintf "\\x%02x" (Char.code c)
          in
          let b = Buffer.create 16 in
          Buffer.add_char b '[';
          let lo = ref 0 in
          while !lo < 256 do
            if Charset.mem (Char.chr !lo) s then (
              let hi = ref !lo in
              while !hi < 255 && Charset.mem (Char.chr (!hi + 1)) s do incr hi done;
              Buffer.add_string b (esc (Char.chr !lo));
              if !hi > !lo + 1 then Buffer.add_char b '-';
              if !hi > !lo then Buffer.add_string b (esc (Char.chr !hi));
              lo := !hi + 1)
            else incr lo
          done;
          Buffer.add_char b ']';
          Buffer.contents b
        in
        let rng = Rng.create 256 in
        let sets =
          Charset.empty :: Charset.full
          :: Charset.range '\000' '\255'
          :: Charset.of_string "\000\063\064\127\128\191\192\255"
          :: List.init 500 (fun _ ->
                 List.fold_left
                   (fun acc _ ->
                     let lo = Rng.int rng 256 in
                     let hi = min 255 (lo + Rng.int rng 70) in
                     Charset.union acc (Charset.range (Char.chr lo) (Char.chr hi)))
                   Charset.empty
                   (List.init (Rng.int rng 6) Fun.id))
        in
        List.iter
          (fun s ->
            let members = List.filter (fun c -> Charset.mem c s) (List.init 256 Char.chr) in
            check (Alcotest.list Alcotest.char) "elements" members (Charset.elements s);
            check Alcotest.string "to_string" (naive s) (Charset.to_string s);
            check Alcotest.string "pp" (naive s) (Format.asprintf "%a" Charset.pp s))
          sets);
  ]

(* --- Value ------------------------------------------------------------------ *)

let value_tests =
  [
    test "seq drops unlabeled units" (fun () ->
        check value_eq "unit" Value.Unit
          (Value.seq [ (None, Value.Unit); (None, Value.Unit) ]));
    test "seq collapses singleton" (fun () ->
        check value_eq "single" (Value.Str "x")
          (Value.seq [ (None, Value.Unit); (None, Value.Str "x") ]));
    test "seq keeps labeled unit" (fun () ->
        match Value.seq [ (Some "a", Value.Unit) ] with
        | Value.Node { name; children = [ (Some "a", Value.Unit) ]; _ } ->
            check Alcotest.string "tuple" Value.seq_name name
        | v -> Alcotest.failf "unexpected %s" (Value.to_string v));
    test "seq builds tuple for several" (fun () ->
        match Value.seq [ (None, Value.Chr 'a'); (None, Value.Chr 'b') ] with
        | Value.Node { children; _ } ->
            check Alcotest.int "arity" 2 (List.length children)
        | v -> Alcotest.failf "unexpected %s" (Value.to_string v));
    test "components of tuple" (fun () ->
        let v = Value.seq [ (None, Value.Chr 'a'); (Some "x", Value.Chr 'b') ] in
        check Alcotest.int "n" 2 (List.length (Value.components v)));
    test "components of scalar" (fun () ->
        check Alcotest.int "one" 1 (List.length (Value.components (Value.Str "s")));
        check Alcotest.int "zero" 0 (List.length (Value.components Value.Unit)));
    test "child lookup" (fun () ->
        let v = Value.node "N" [ (Some "k", Value.Str "v"); (None, Value.Unit) ] in
        check (Alcotest.option value_eq) "found" (Some (Value.Str "v"))
          (Value.child v "k");
        check (Alcotest.option value_eq) "missing" None (Value.child v "nope"));
    test "nth_child" (fun () ->
        let v = Value.node "N" [ (None, Value.Chr 'a'); (None, Value.Chr 'b') ] in
        check (Alcotest.option value_eq) "1" (Some (Value.Chr 'b'))
          (Value.nth_child v 1));
    test "equal ignores spans" (fun () ->
        let a = Value.node ~span:(Span.v ~start_:0 ~stop:5) "N" [] in
        let b = Value.node ~span:(Span.v ~start_:3 ~stop:9) "N" [] in
        check Alcotest.bool "eq" true (Value.equal a b));
    test "equal distinguishes names and labels" (fun () ->
        check Alcotest.bool "name" false
          (Value.equal (Value.node "A" []) (Value.node "B" []));
        check Alcotest.bool "label" false
          (Value.equal
             (Value.node "N" [ (Some "x", Value.Unit) ])
             (Value.node "N" [ (None, Value.Unit) ])));
    test "to_string stable rendering" (fun () ->
        let v =
          Value.node "Add"
            [ (Some "l", Value.Str "1"); (None, Value.List [ Value.Chr 'x' ]) ]
        in
        check Alcotest.string "golden" "(Add l:\"1\" ['x'])" (Value.to_string v));
    test "to_string escapes" (fun () ->
        check Alcotest.string "esc" "\"a\\nb\""
          (Value.to_string (Value.Str "a\nb")));
    test "count_nodes" (fun () ->
        let v =
          Value.node "A"
            [ (None, Value.List [ Value.node "B" []; Value.Str "s" ]) ]
        in
        check Alcotest.int "n" 2 (Value.count_nodes v));
  ]

(* --- Renderer ------------------------------------------------------------- *)

(* [Value.to_string] and [Value.output] are one direct writer that must
   reproduce the layout of the [Format] printer [Value.pp] byte for byte;
   these tests compare both with it on seeded random trees, on trees
   built to sit on the margin and the maximum indentation, on every
   escape class, and on real parses. *)

let oracle v = Format.asprintf "%a" Value.pp v

(* [Value.output] writes through one temp file, rewound for each case;
   the channel's position after the write is the length to read back. *)
let output_file =
  lazy
    (let path = Filename.temp_file "rats_render" ".txt" in
     at_exit (fun () -> try Sys.remove path with Sys_error _ -> ());
     (path, open_out_bin path))

let output_render v =
  let path, oc = Lazy.force output_file in
  seek_out oc 0;
  Value.output oc v;
  flush oc;
  let n = pos_out oc in
  In_channel.with_open_bin path (fun ic -> really_input_string ic n)

let same_render what v =
  let want = oracle v in
  List.iter
    (fun (how, got) ->
      if not (String.equal want got) then
        Alcotest.failf "%s: %s differs from Format@.want:@.%s@.got:@.%s" what
          how want got)
    [ ("to_string", Value.to_string v); ("output", output_render v) ]

let random_text rng n =
  (* printable bytes mostly, with every escape class mixed in *)
  String.init n (fun _ ->
      match Rng.int rng 10 with
      | 0 -> Rng.pick rng [| '"'; '\\'; '\n'; '\t'; '\r'; '\000'; '\x7f'; '\xff' |]
      | _ -> Char.chr (32 + Rng.int rng 95))

let random_name rng =
  String.init (Rng.in_range rng 0 12) (fun _ -> Char.chr (97 + Rng.int rng 26))

(* A random tree whose leaves and names are sized so that boxes of every
   width occur, from far below the margin to far above it. *)
let rec random_value rng depth =
  let leaf () =
    match Rng.int rng 5 with
    | 0 -> Value.Unit
    | 1 -> Value.Chr (Char.chr (Rng.int rng 256))
    | 2 -> Value.Str (random_text rng (Rng.in_range rng 60 90))
    | _ -> Value.Str (random_text rng (Rng.int rng 12))
  in
  if depth = 0 then leaf ()
  else
    match Rng.int rng 5 with
    | 0 -> leaf ()
    | 1 | 2 ->
        Value.List
          (List.init (Rng.int rng 5) (fun _ -> random_value rng (depth - 1)))
    | _ ->
        Value.node (random_name rng)
          (List.init (Rng.int rng 5) (fun _ ->
               let lbl =
                 if Rng.int rng 3 = 0 then
                   Some (String.make (Rng.in_range rng 1 10) 'l')
                 else None
               in
               (lbl, random_value rng (depth - 1))))

(* A spine [depth] boxes deep with one leaf of [n] bytes at the bottom:
   with names and labels of varying length it puts box openings and
   leaf ends on every column around 68 and 78. *)
let rec spine rng depth n =
  if depth = 0 then Value.Str (String.make n 'x')
  else
    let inner = spine rng (depth - 1) n in
    match Rng.int rng 3 with
    | 0 -> Value.List [ inner ]
    | 1 -> Value.node (random_name rng) [ (None, inner) ]
    | _ ->
        Value.node (random_name rng)
          [ (Some (random_name rng ^ "l"), inner); (None, Value.Unit) ]

(* The first document of at least [target] bytes the engine accepts:
   scale [k] doubles until the size is reached, then the seed moves on
   past generator outputs the grammar rejects. *)
let sized_parse eng make target =
  let rec grow k = if String.length (make k k) >= target then k else grow (k * 2) in
  let k = grow 1 in
  let rec try_seed seed =
    match Engine.parse eng (make seed k) with
    | Ok v -> v
    | Error _ when seed < k + 20 -> try_seed (seed + 1)
    | Error e -> Alcotest.failf "no accepted document: %s" (Parse_error.message e)
  in
  try_seed k

let render_tests =
  [
    test "escape classes" (fun () ->
        check Alcotest.string "str" "\"\\\"\\\\\\n\\t\\r\\x00\\x1f\\x7f\\xff ~\""
          (Value.to_string (Value.Str "\"\\\n\t\r\000\031\127\255 ~"));
        for c = 0 to 255 do
          same_render "chr" (Value.Chr (Char.chr c));
          same_render "str" (Value.Str (String.make 3 (Char.chr c)))
        done);
    test "a line longer than the line buffer" (fun () ->
        let rng = Rng.create 4096 in
        let long = Value.Str (random_text rng 5000) in
        same_render "leaf" long;
        same_render "labelled" (Value.node "n" [ (Some "l", long); (None, Value.Unit) ]);
        same_render "list" (Value.List [ Value.Chr 'a'; long; long; Value.Str "z" ]);
        check Alcotest.int "one line" 5002
          (String.length (output_render (Value.Str (String.make 5000 'x')))));
    test "a top-level leaf" (fun () ->
        List.iter
          (fun (want, v) ->
            same_render want v;
            check Alcotest.string want want (output_render v))
          [
            ("()", Value.Unit); ("'\\n'", Value.Chr '\n'); ("\"\"", Value.Str "");
            ("\"leaf\"", Value.Str "leaf");
          ]);
    test "a box forced onto a new line right after a flush" (fun () ->
        (* the break before the label ends a line; the label then pushes
           the cursor past column 68, so the list box is moved to a new
           line of its own before it is laid out *)
        let label = String.make 70 'l' in
        let item = Value.Str (String.make 40 'x') in
        let v = Value.node "n" [ (Some label, Value.List [ item; item ]) ] in
        same_render "forced" v;
        match String.split_on_char '\n' (output_render v) with
        | "(n" :: l :: box :: _ ->
            check Alcotest.string "label line" ("  " ^ label ^ ":") l;
            check Alcotest.bool "box line" true (String.starts_with ~prefix:"  [" box)
        | _ -> Alcotest.fail "expected the node to break");
    test "seeded random trees" (fun () ->
        let rng = Rng.create 2006 in
        for i = 1 to 20_000 do
          same_render (Printf.sprintf "tree %d" i)
            (random_value rng (Rng.in_range rng 1 7))
        done);
    test "trees on the margin and the maximum indentation" (fun () ->
        let rng = Rng.create 68 in
        for depth = 1 to 40 do
          for n = 0 to 90 do
            same_render
              (Printf.sprintf "spine %d/%d" depth n)
              (spine rng depth n);
            same_render
              (Printf.sprintf "list %d/%d" depth n)
              (Value.List
                 [ spine rng depth n; Value.Str (String.make (n / 3) 'y');
                   spine rng (depth / 2) (90 - n) ])
          done
        done);
    test "parses of the five grammars, 1 KB to 128 KB" (fun () ->
        let cases =
          [
            ( "calc", Grammars.Calc.grammar (),
              fun seed k ->
                Grammars.Corpus.arith (Rng.create seed) ~size:(k * 8) );
            ( "json", Grammars.Json.grammar (),
              fun seed k ->
                (* one document's depth is capped: grow as an array *)
                "["
                ^ String.concat ", "
                    (List.init k (fun i ->
                         Grammars.Corpus.json (Rng.create (seed + i)) ~size:40))
                ^ "]" );
            ( "minic", Grammars.Minic.grammar (),
              fun seed k ->
                Grammars.Corpus.minic (Rng.create seed) ~functions:k );
            ( "minic-ext", Grammars.Minic.extended_grammar (),
              fun seed k ->
                Grammars.Corpus.minic_extended (Rng.create seed) ~functions:k );
            ( "minijava", Grammars.Minijava.grammar (),
              fun seed k ->
                Grammars.Corpus.minijava (Rng.create seed) ~classes:k );
          ]
        in
        List.iter
          (fun (name, g, make) ->
            let eng = Engine.prepare_exn (Pipeline.optimize g) in
            List.iter
              (fun kb ->
                same_render
                  (Printf.sprintf "%s %d KB" name kb)
                  (sized_parse eng make (kb * 1024)))
              [ 1; 16; 128 ])
          cases);
  ]

(* --- Expr smart constructors -------------------------------------------------- *)

let expr_tests =
  [
    test "str of empty is Empty" (fun () ->
        check expr_eq "empty" Expr.empty (Expr.str ""));
    test "str of one char is Chr" (fun () ->
        check expr_eq "chr" (Expr.chr 'a') (Expr.str "a"));
    test "empty class is Fail" (fun () ->
        match (Expr.cls Charset.empty).Expr.it with
        | Expr.Fail _ -> ()
        | _ -> Alcotest.fail "expected Fail");
    test "full class is Any" (fun () ->
        check expr_eq "any" (Expr.any ()) (Expr.cls Charset.full));
    test "seq flattens nested" (fun () ->
        let e =
          Expr.seq [ Expr.chr 'a'; Expr.seq [ Expr.chr 'b'; Expr.chr 'c' ] ]
        in
        match e.Expr.it with
        | Expr.Seq es -> check Alcotest.int "flat" 3 (List.length es)
        | _ -> Alcotest.fail "expected Seq");
    test "seq drops Empty and collapses singleton" (fun () ->
        check expr_eq "collapse" (Expr.chr 'a')
          (Expr.seq [ Expr.empty; Expr.chr 'a'; Expr.empty ]));
    test "alt flattens unlabeled nested" (fun () ->
        let e =
          Expr.alt [ Expr.chr 'a'; Expr.alt [ Expr.chr 'b'; Expr.chr 'c' ] ]
        in
        match e.Expr.it with
        | Expr.Alt alts -> check Alcotest.int "flat" 3 (List.length alts)
        | _ -> Alcotest.fail "expected Alt");
    test "alt keeps labeled branches" (fun () ->
        let open Builder in
        let e = label "A" (c 'a') <|> label "B" (c 'b') in
        match e.Expr.it with
        | Expr.Alt [ { label = Some "A"; _ }; { label = Some "B"; _ } ] -> ()
        | _ -> Alcotest.fail "labels lost");
    test "alt of nothing fails" (fun () ->
        match (Expr.alt []).Expr.it with
        | Expr.Fail _ -> ()
        | _ -> Alcotest.fail "expected Fail");
    test "refs dedups in order" (fun () ->
        let open Builder in
        let x = e "A" @: e "B" @: e "A" @: star (e "C") in
        check (Alcotest.list Alcotest.string) "refs" [ "A"; "B"; "C" ]
          (Expr.refs x));
    test "size counts nodes" (fun () ->
        let open Builder in
        check Alcotest.int "size" 4 (Expr.size (star (c 'a' @: c 'b'))));
    test "equal ignores locations" (fun () ->
        let a = Expr.chr ~loc:(Span.v ~start_:0 ~stop:1) 'x' in
        let b = Expr.chr ~loc:(Span.v ~start_:5 ~stop:6) 'x' in
        check Alcotest.bool "eq" true (Expr.equal a b));
    test "rename_refs rewrites deeply" (fun () ->
        let open Builder in
        let x = star (e "A" <|> tok (e "B")) in
        let x' = Expr.rename_refs (fun n -> n ^ "!") x in
        check (Alcotest.list Alcotest.string) "renamed" [ "A!"; "B!" ]
          (Expr.refs x'));
    test "is_stateful detects nested state ops" (fun () ->
        let open Builder in
        check Alcotest.bool "record" true
          (Expr.is_stateful (star (record "T" (c 'a'))));
        check Alcotest.bool "plain" false (Expr.is_stateful (star (c 'a'))));
    test "map_children is shallow" (fun () ->
        let open Builder in
        let x = star (e "A") in
        let x' = Expr.map_children (fun _ -> c 'x') x in
        check expr_eq "shallow" (star (c 'x')) x');
    test "fold is pre-order" (fun () ->
        let open Builder in
        let x = c 'a' @: star (c 'b') in
        let names =
          Expr.fold
            (fun acc (n : Expr.t) ->
              (match n.it with
              | Expr.Seq _ -> "seq"
              | Expr.Star _ -> "star"
              | Expr.Chr c -> String.make 1 c
              | _ -> "?")
              :: acc)
            [] x
        in
        check (Alcotest.list Alcotest.string) "order" [ "seq"; "a"; "star"; "b" ]
          (List.rev names));
  ]

(* --- Grammar ---------------------------------------------------------------- *)

let grammar_tests =
  let open Builder in
  [
    test "duplicate names rejected" (fun () ->
        match Grammar.make [ prod "A" (c 'a'); prod "A" (c 'b') ] with
        | Error d -> check Alcotest.bool "msg" true (Diagnostic.is_error d)
        | Ok _ -> Alcotest.fail "expected error");
    test "empty grammar rejected" (fun () ->
        match Grammar.make [] with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "expected error");
    test "start defaults to first public" (fun () ->
        let g = b_grammar [ prod "A" (c 'a'); prod ~public:true "B" (c 'b') ] in
        check Alcotest.string "start" "B" (Grammar.start g));
    test "start defaults to first without public" (fun () ->
        let g = b_grammar [ prod "A" (c 'a'); prod "B" (c 'b') ] in
        check Alcotest.string "start" "A" (Grammar.start g));
    test "undefined start rejected" (fun () ->
        match Grammar.make ~start:"Z" [ prod "A" (c 'a') ] with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "expected error");
    test "find and mem" (fun () ->
        let g = b_grammar [ prod "A" (c 'a') ] in
        check Alcotest.bool "mem" true (Grammar.mem g "A");
        check Alcotest.bool "not" false (Grammar.mem g "B"));
    test "check_closed reports dangling refs" (fun () ->
        let g = b_grammar [ prod "A" (e "Missing") ] in
        check Alcotest.int "one error" 1 (List.length (Grammar.check_closed g)));
    test "closed grammar passes" (fun () ->
        let g = b_grammar [ prod "A" (e "B"); prod "B" (c 'b') ] in
        check Alcotest.int "no errors" 0 (List.length (Grammar.check_closed g)));
    test "update replaces body" (fun () ->
        let g = b_grammar [ prod "A" (c 'a') ] in
        let g = Grammar.update g "A" (fun p -> Production.with_expr p (c 'z')) in
        check expr_eq "updated" (c 'z') (Grammar.find_exn g "A").Production.expr);
    test "map cannot rename" (fun () ->
        let g = b_grammar [ prod "A" (c 'a') ] in
        match Grammar.map (fun p -> { p with Production.name = "B" }) g with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "expected Invalid_argument");
    test "add rejects duplicates" (fun () ->
        let g = b_grammar [ prod "A" (c 'a') ] in
        (match Grammar.add g (prod "A" (c 'b')) with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "expected error");
        match Grammar.add g (prod "B" (c 'b')) with
        | Ok g' -> check Alcotest.int "len" 2 (Grammar.length g')
        | Error _ -> Alcotest.fail "expected ok");
    test "restrict keeps start" (fun () ->
        let g = b_grammar [ prod "A" (e "B"); prod "B" (c 'b') ] in
        let g' = Grammar.restrict g ~keep:(fun _ -> false) in
        check Alcotest.bool "start kept" true (Grammar.mem g' "A"));
  ]

(* --- Analysis ---------------------------------------------------------------- *)

let analysis_tests =
  let open Builder in
  [
    test "recursive is self-reachability" (fun () ->
        List.iter
          (fun g ->
            let a = Analysis.analyze g in
            List.iter
              (fun (p : Production.t) ->
                check Alcotest.bool p.name
                  (Analysis.StringSet.mem p.name
                     (Analysis.reachable_from a (Expr.refs p.expr)))
                  (Analysis.StringSet.mem p.name (Analysis.recursive a)))
              (Grammar.productions g))
          [
            Grammars.Calc.grammar (); Grammars.Json.grammar ();
            Grammars.Minic.grammar (); Grammars.Minic.extended_grammar ();
            Grammars.Minijava.grammar ();
            b_grammar
              [ prod "S" (e "A" @: e "S"); prod "A" (c 'a'); prod "B" (e "B") ];
          ]);
    test "nullable: star, opt, predicates" (fun () ->
        let g =
          b_grammar
            [
              prod "S" (star (c 'a'));
              prod "O" (opt (c 'a'));
              prod "P" (bang (c 'a'));
              prod "C" (c 'a');
              prod "Q" (e "S" @: e "O");
              prod "R" (e "C" @: e "S");
            ]
        in
        let a = Analysis.analyze g in
        check Alcotest.bool "S" true (Analysis.nullable a "S");
        check Alcotest.bool "O" true (Analysis.nullable a "O");
        check Alcotest.bool "P" true (Analysis.nullable a "P");
        check Alcotest.bool "C" false (Analysis.nullable a "C");
        check Alcotest.bool "Q" true (Analysis.nullable a "Q");
        check Alcotest.bool "R" false (Analysis.nullable a "R"));
    test "first: sequence skips nullable prefix" (fun () ->
        let g =
          b_grammar
            [ prod "S" (opt (c 'a') @: c 'b'); prod "T" (c 'a' @: c 'b') ]
        in
        let a = Analysis.analyze g in
        check Alcotest.bool "S has b" true (Charset.mem 'b' (Analysis.first a "S"));
        check Alcotest.bool "S has a" true (Charset.mem 'a' (Analysis.first a "S"));
        check Alcotest.bool "T no b" false (Charset.mem 'b' (Analysis.first a "T")));
    test "first: recursive production reaches fixpoint" (fun () ->
        let g =
          b_grammar [ prod "E" (c '(' @: e "E" @: c ')' <|> r '0' '9') ]
        in
        let a = Analysis.analyze g in
        check Alcotest.bool "paren" true (Charset.mem '(' (Analysis.first a "E"));
        check Alcotest.bool "digit" true (Charset.mem '5' (Analysis.first a "E")));
    test "direct left recursion detected" (fun () ->
        let g = b_grammar [ prod "E" (e "E" @: c '+' <|> c 'n') ] in
        match Analysis.left_recursion (Analysis.analyze g) with
        | Some cycle -> check Alcotest.bool "E in cycle" true (List.mem "E" cycle)
        | None -> Alcotest.fail "missed left recursion");
    test "indirect left recursion detected" (fun () ->
        let g =
          b_grammar
            [ prod "A" (e "B" @: c 'x'); prod "B" (e "C"); prod "C" (e "A") ]
        in
        match Analysis.left_recursion (Analysis.analyze g) with
        | Some cycle -> check Alcotest.bool "len" true (List.length cycle >= 3)
        | None -> Alcotest.fail "missed indirect left recursion");
    test "left recursion through nullable prefix" (fun () ->
        let g = b_grammar [ prod "A" (star (c 'x') @: e "A") ] in
        check Alcotest.bool "found" true
          (Analysis.left_recursion (Analysis.analyze g) <> None));
    test "right recursion is fine" (fun () ->
        let g = b_grammar [ prod "A" (c 'x' @: opt (e "A")) ] in
        check Alcotest.bool "none" true
          (Analysis.left_recursion (Analysis.analyze g) = None));
    test "recursion behind predicate counts" (fun () ->
        let g = b_grammar [ prod "A" (amp (e "A") @: c 'x') ] in
        check Alcotest.bool "found" true
          (Analysis.left_recursion (Analysis.analyze g) <> None));
    test "check rejects vacuous repetition" (fun () ->
        let g = b_grammar [ prod "A" (star (opt (c 'x'))) ] in
        check Alcotest.bool "errors" true
          (Analysis.check (Analysis.analyze g) <> []));
    test "check accepts a sane grammar" (fun () ->
        let g = b_grammar [ prod "A" (plus (c 'x') @: bang any) ] in
        check Alcotest.int "clean" 0
          (List.length (Analysis.check (Analysis.analyze g))));
    test "stateful is transitive" (fun () ->
        let g =
          b_grammar
            [
              prod "A" (e "B");
              prod "B" (record "T" (c 'x'));
              prod "C" (c 'y');
            ]
        in
        let a = Analysis.analyze g in
        check Alcotest.bool "A" true (Analysis.stateful a "A");
        check Alcotest.bool "B" true (Analysis.stateful a "B");
        check Alcotest.bool "C" false (Analysis.stateful a "C"));
    test "reachable from start and public" (fun () ->
        let g =
          Grammar.make_exn ~start:"A"
            [
              prod "A" (e "B");
              prod "B" (c 'b');
              prod ~public:true "P" (c 'p');
              prod "Dead" (c 'd');
            ]
        in
        let r = Analysis.reachable (Analysis.analyze g) in
        check Alcotest.bool "B" true (Analysis.StringSet.mem "B" r);
        check Alcotest.bool "P" true (Analysis.StringSet.mem "P" r);
        check Alcotest.bool "Dead" false (Analysis.StringSet.mem "Dead" r));
    test "ref_count counts sites plus start" (fun () ->
        let g =
          Grammar.make_exn ~start:"A"
            [ prod "A" (e "B" @: e "B"); prod "B" (c 'b') ]
        in
        let a = Analysis.analyze g in
        check Alcotest.int "B" 2 (Analysis.ref_count a "B");
        check Alcotest.int "A(start)" 1 (Analysis.ref_count a "A"));
  ]

(* --- Pretty -------------------------------------------------------------------- *)

let pretty_tests =
  let open Builder in
  let golden name expected x =
    test name (fun () ->
        check Alcotest.string "printed" expected (Pretty.expr_to_string x))
  in
  [
    golden "choice / sequence precedence" "'a' 'b' / 'c'"
      (c 'a' @: c 'b' <|> c 'c');
    golden "group choice inside sequence" "'a' ('b' / 'c')"
      (c 'a' @: (c 'b' <|> c 'c'));
    golden "suffix binds tighter than prefix" "!'a'*" (bang (star (c 'a')));
    golden "star of group" "('a' 'b')*" (star (c 'a' @: c 'b'));
    golden "bind and drop" "x:A void:'b'" (("x" |: e "A") @: void (c 'b'));
    golden "token and node" "$(A) @N('x')" (tok (e "A") @: node "N" (c 'x'));
    golden "predicates" "&'a' !'b'" (amp (c 'a') @: bang (c 'b'));
    golden "state operators" "%record(T, 'a') / %absent(T, 'b')"
      (record "T" (c 'a') <|> absent "T" (c 'b'));
    golden "labels" "<A> 'a' / <B> 'b'"
      (label "A" (c 'a') <|> label "B" (c 'b'));
    golden "string escaping" "\"a\\\"b\\n\"" (s "a\"b\n");
    golden "empty" "()" eps;
    test "attr words canonical order" (fun () ->
        let a =
          Attr.v ~visibility:Attr.Public ~memo:Attr.Memo_never ~kind:Attr.Void ()
        in
        check (Alcotest.list Alcotest.string) "words"
          [ "public"; "transient"; "void" ] (Pretty.attr_words a));
    test "production rendering mentions name and body" (fun () ->
        let p = prod ~public:true ~kind:Attr.Generic "Sum" (e "A" <|> e "B") in
        let s = Format.asprintf "%a" Pretty.pp_production p in
        check Alcotest.bool "nonempty" true (String.length s > 10));
  ]

(* --- Lint -------------------------------------------------------------------- *)

let lint_tests =
  let open Builder in
  let warnings prods = Lint.check (Analysis.analyze (Grammar.make_exn prods)) in
  let has sub ws =
    List.exists
      (fun (d : Diagnostic.t) ->
        let m = d.message and n = String.length sub in
        let rec go i =
          i + n <= String.length m && (String.sub m i n = sub || go (i + 1))
        in
        go 0)
      ws
  in
  [
    test "duplicate alternatives flagged" (fun () ->
        check Alcotest.bool "dup" true
          (has "duplicate" (warnings [ prod "S" (c 'a' <|> c 'b' <|> c 'a') ])));
    test "dead alternatives after nullable flagged" (fun () ->
        check Alcotest.bool "dead" true
          (has "unreachable"
             (warnings [ prod "S" (star (c 'a') <|> c 'b') ])));
    test "nullable last alternative is fine" (fun () ->
        check Alcotest.bool "ok" false
          (has "unreachable" (warnings [ prod "S" (c 'b' <|> star (c 'a')) ])));
    test "prefix-shadowed alternatives flagged" (fun () ->
        check Alcotest.bool "shadowed" true
          (has "shadowed"
             (warnings [ prod "S" (c 'a' <|> c 'a' @: c 'b') ]));
        (* the reverse order is the correct idiom and stays clean *)
        check Alcotest.bool "longest-first ok" false
          (has "shadowed"
             (warnings [ prod "S" (c 'a' @: c 'b' <|> c 'a') ])));
    test "nested token capture flagged" (fun () ->
        check Alcotest.bool "token" true
          (has "$()" (warnings [ prod "S" (tok (tok (c 'a'))) ])));
    test "nested drop flagged" (fun () ->
        check Alcotest.bool "void" true
          (has "void:" (warnings [ prod "S" (void (void (c 'a'))) ])));
    test "always-failing production flagged" (fun () ->
        check Alcotest.bool "fails" true
          (has "never succeed"
             (warnings [ prod "S" (fail "nope" @: c 'a') ])));
    test "unreachable production flagged" (fun () ->
        check Alcotest.bool "unreachable" true
          (has "unreachable from the start"
             (warnings
                [ prod ~public:true "S" (c 's'); prod "Dead" (c 'd') ])));
    test "shipped grammars are lint-clean" (fun () ->
        List.iter
          (fun g ->
            let ws = Lint.check (Analysis.analyze g) in
            if ws <> [] then
              Alcotest.failf "unexpected warnings: %s"
                (String.concat "; "
                   (List.map (fun (d : Diagnostic.t) -> d.message) ws)))
          [
            Grammars.Calc.grammar (); Grammars.Json.grammar ();
            Grammars.Minic.grammar (); Grammars.Minijava.grammar ();
          ]);
  ]

let () =
  Alcotest.run "peg"
    [
      ("charset", charset_tests);
      ("value", value_tests);
      ("render", render_tests);
      ("expr", expr_tests);
      ("grammar", grammar_tests);
      ("analysis", analysis_tests);
      ("pretty", pretty_tests);
      ("lint", lint_tests);
    ]
