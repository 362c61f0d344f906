(* The PR 8 robustness harness: fault plans, guarded reads, and the
   fault-isolated batch runner.

   Three layers. Unit tests pin the fault-plan algebra (spec strings,
   seeded document selection) and the guarded read path's event order.
   Directed tests drive the batch runner — isolation, the degradation
   ladder, deadlines, exit codes — under a synthetic counter clock so
   every record, including wall times, is a pure function of the run.
   Finally a qcheck chaos property pushes random grammars × documents ×
   fault plans through the runner and asserts the contract the module
   exists for: no fault ever escapes as an exception, the aggregate
   accounting is coherent, and a second run agrees on every
   per-document verdict. *)

open Rats
module Gen = QCheck.Gen

(* Each reading advances one fake millisecond; deadlines and [r_ms]
   become deterministic. A fresh clock per run keeps runs comparable. *)
let counter_clock () =
  let t = ref 0 in
  fun () ->
    t := !t + 1_000_000;
    !t

let run_docs ?config ?limits ?deadline_ns ?faults ?spans ?on_record g docs =
  match
    Batch.run ?config ?limits ?deadline_ns ?faults ?spans ?on_record
      ~now_ns:(counter_clock ()) g (Batch.Docs docs)
  with
  | Ok rep -> rep
  | Error _ -> Alcotest.fail "grammar unexpectedly failed to compile"

let configs = [ ("optimized", Config.optimized) ]

let class_name = function
  | None -> "ok"
  | Some Batch.Syntax -> "syntax"
  | Some (Batch.Resource w) -> "resource:" ^ w
  | Some Batch.Io -> "io"
  | Some Batch.Internal -> "internal"

(* --- fixture grammars -------------------------------------------------------- *)

let plus_a = Grammar.make_exn [ Production.v "S" (Expr.plus (Expr.chr 'a')) ]

(* The ladder fixture: a memoized chain [Ci = C(i+1) 'b' / C(i+1)] is
   exponential without memoization and linear with it, so the fuel a
   parse needs is a direct function of how much of the memo budget
   sticks. The constants in the ladder tests below were measured: on a
   200-byte document the full rung needs ~3k fuel when the memo budget
   holds and ~24k once value-carrying chunks blow a 55 kB budget, while
   the recognizer rung's value-free chunks fit and finish under ~3k. *)
let chain_memo d =
  let attrs = Attr.v ~kind:Attr.Generic ~memo:Attr.Memo_always () in
  let name i = Printf.sprintf "C%d" i in
  let prods =
    List.init d (fun i ->
        let body =
          if i = d - 1 then Expr.chr 'a'
          else
            Expr.alt
              [
                Expr.seq [ Expr.ref_ (name (i + 1)); Expr.chr 'b' ];
                Expr.ref_ (name (i + 1));
              ]
        in
        Production.v ~attrs (name i) body)
  in
  let s =
    Production.v
      ~attrs:(Attr.v ~kind:Attr.Generic ())
      "S"
      (Expr.plus (Expr.ref_ "C0"))
  in
  Grammar.make_exn ~start:"S" (s :: prods)

(* The same chain with memoization forbidden: parsing a single ['a']
   costs 2^d - 1 invocations, enough to outrun any one fuel slice —
   the deadline tests need a parse that trips slices repeatedly. *)
let chain_unmemo d =
  let attrs = Attr.v ~memo:Attr.Memo_never () in
  let name i = Printf.sprintf "C%d" i in
  let prods =
    List.init d (fun i ->
        let body =
          if i = d - 1 then Expr.chr 'a'
          else
            Expr.alt
              [
                Expr.seq [ Expr.ref_ (name (i + 1)); Expr.chr 'b' ];
                Expr.ref_ (name (i + 1));
              ]
        in
        Production.v ~attrs (name i) body)
  in
  Grammar.make_exn ~start:"C0" prods

(* --- fault plans: spec strings and seeded selection -------------------------- *)

let gen_fault st =
  match Gen.int_bound 4 st with
  | 0 -> Faults.Truncate (Gen.int_bound 40 st)
  | 1 -> Faults.Io_error (Gen.int_bound 40 st)
  | 2 -> Faults.Fuel_cap (1 + Gen.int_bound 3000 st)
  | 3 -> Faults.Memo_cap (Gen.int_bound 8192 st)
  | _ -> Faults.Clock_skew (Gen.int_bound 10 st * 1_000_000)

let arb_plan =
  QCheck.make ~print:Faults.to_spec (fun st ->
      let rate = Gen.oneofl [ 0.0; 0.25; 0.5; 0.75; 1.0 ] st in
      let n = Gen.int_bound 4 st in
      Faults.v ~seed:(Gen.int_bound 99_999 st) ~rate
        (List.init n (fun _ -> gen_fault st)))

let spec_tests =
  let parses () =
    match Faults.of_spec "seed=42,rate=0.25,trunc@512,fuel@10000" with
    | Error m -> Alcotest.failf "spec rejected: %s" m
    | Ok p ->
        Alcotest.(check int) "seed" 42 p.Faults.seed;
        Alcotest.(check int) "rate_ppm" 250_000 p.Faults.rate_ppm;
        Alcotest.(check bool) "faults" true
          (p.Faults.faults = [ Faults.Truncate 512; Faults.Fuel_cap 10000 ])
  in
  let empty_is_none () =
    match Faults.of_spec "" with
    | Ok p -> Alcotest.(check bool) "is_none" true (Faults.is_none p)
    | Error m -> Alcotest.failf "empty spec rejected: %s" m
  in
  let rejects () =
    List.iter
      (fun bad ->
        match Faults.of_spec bad with
        | Ok _ -> Alcotest.failf "accepted bad spec %S" bad
        | Error m ->
            Alcotest.(check bool)
              (Printf.sprintf "%S error is prefixed" bad)
              true
              (String.length m >= 15 && String.sub m 0 15 = "bad fault spec:"))
      [ "wat"; "trunc@"; "trunc@-1"; "rate=2"; "rate=x"; "seed=x"; "zoom@3" ]
  in
  let selection () =
    let fs = [ Faults.Truncate 3; Faults.Clock_skew 5 ] in
    let always = Faults.v ~seed:7 ~rate:1.0 fs in
    let never = Faults.v ~seed:7 ~rate:0.0 fs in
    let half = Faults.v ~seed:7 ~rate:0.5 fs in
    for i = 0 to 99 do
      Alcotest.(check bool) "rate 1 selects" true (Faults.active_for always i = fs);
      Alcotest.(check bool) "rate 0 skips" true (Faults.active_for never i = []);
      Alcotest.(check bool) "deterministic" true
        (Faults.active_for half i = Faults.active_for half i)
    done;
    let hits = ref 0 in
    for i = 0 to 1999 do
      if Faults.active_for half i <> [] then incr hits
    done;
    Alcotest.(check bool)
      (Printf.sprintf "rate 0.5 selects about half (%d/2000)" !hits)
      true
      (!hits > 600 && !hits < 1400)
  in
  let accessors () =
    let fs =
      [ Faults.Clock_skew 3; Faults.Truncate 9; Faults.Clock_skew 4;
        Faults.Fuel_cap 17 ]
    in
    Alcotest.(check bool) "truncate_at" true (Faults.truncate_at fs = Some 9);
    Alcotest.(check bool) "io_error_at" true (Faults.io_error_at fs = None);
    Alcotest.(check bool) "fuel_cap" true (Faults.fuel_cap fs = Some 17);
    Alcotest.(check int) "skew sums" 7 (Faults.clock_skew_ns fs)
  in
  [
    Alcotest.test_case "spec parses" `Quick parses;
    Alcotest.test_case "empty spec is the none plan" `Quick empty_is_none;
    Alcotest.test_case "bad specs are rejected with a message" `Quick rejects;
    Alcotest.test_case "seeded selection is pure and rate-shaped" `Quick selection;
    Alcotest.test_case "plan accessors" `Quick accessors;
  ]

let spec_props =
  [
    QCheck.Test.make ~name:"to_spec round-trips through of_spec" ~count:300
      arb_plan (fun p ->
        match Faults.of_spec (Faults.to_spec p) with
        | Ok p' -> p = p'
        | Error _ -> false);
  ]

(* --- guarded reads ----------------------------------------------------------- *)

let with_doc_file doc f =
  let path = Filename.temp_file "rats_faults" ".bin" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc doc);
      In_channel.with_open_bin path f)

let read_unit_tests =
  let str = Alcotest.(check bool) in
  let order () =
    (* cap trips strictly above the cap *)
    str "under cap" true (Faults.apply_to_string ~cap:4 "aaaa" = Ok "aaaa");
    str "over cap" true
      (Faults.apply_to_string ~cap:3 "aaaa" = Error (Faults.Too_large 3));
    (* truncation delivers the prefix and dodges the cap *)
    str "trunc prefix" true
      (Faults.apply_to_string ~cap:3 ~faults:[ Faults.Truncate 3 ] "aaaa"
      = Ok "aaa");
    (* the io fault wins ties at a given byte count *)
    (match
       Faults.apply_to_string ~faults:[ Faults.Truncate 2; Faults.Io_error 2 ]
         "aaaa"
     with
    | Error (Faults.Io_fault _) -> ()
    | _ -> Alcotest.fail "io fault should win the tie at byte 2");
    (* a truncated prefix is still a document: over the cap, it is
       rejected like any other — on both readers (regression: the
       channel path once delivered it) *)
    str "trunc over cap" true
      (Faults.apply_to_string ~cap:1 ~faults:[ Faults.Truncate 2 ] "aaaa"
      = Error (Faults.Too_large 1));
    with_doc_file "aaaa" (fun ic ->
        str "trunc over cap (channel)" true
          (Faults.read_channel ~cap:1 ~faults:[ Faults.Truncate 2 ] ic
          = Error (Faults.Too_large 1)));
    (* an eof probe counts: a k-byte document still trips io@k *)
    match Faults.apply_to_string ~faults:[ Faults.Io_error 4 ] "aaaa" with
    | Error (Faults.Io_fault _) -> ()
    | _ -> Alcotest.fail "io@4 should trip on a 4-byte document"
  in
  [ Alcotest.test_case "event order: io, then cap, then trunc" `Quick order ]

let arb_read_case =
  let print (doc, cap, faults) =
    Printf.sprintf "doc=%S cap=%s faults=%s" doc
      (match cap with None -> "none" | Some c -> string_of_int c)
      (Faults.to_spec (Faults.v faults))
  in
  QCheck.make ~print (fun st ->
      let doc = Gen.string_size ~gen:Gen.char (Gen.int_bound 120) st in
      let cap = if Gen.bool st then Some (Gen.int_bound 130 st) else None in
      let faults =
        List.concat
          [
            (if Gen.bool st then [ Faults.Truncate (Gen.int_bound 130 st) ]
             else []);
            (if Gen.bool st then [ Faults.Io_error (Gen.int_bound 130 st) ]
             else []);
          ]
      in
      (doc, cap, faults))

let read_props =
  [
    QCheck.Test.make
      ~name:"read_channel agrees with apply_to_string on every triple"
      ~count:300 arb_read_case (fun (doc, cap, faults) ->
        let path = Filename.temp_file "rats_faults" ".bin" in
        Fun.protect
          ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
          (fun () ->
            Out_channel.with_open_bin path (fun oc ->
                Out_channel.output_string oc doc);
            let from_channel =
              In_channel.with_open_bin path (fun ic ->
                  Faults.read_channel ?cap ~faults ic)
            in
            from_channel = Faults.apply_to_string ?cap ~faults doc));
  ]

(* --- batch isolation: directed corpora --------------------------------------- *)

let batch_unit_tests =
  (* one well-formed, one malformed, one over the input cap: every
     failure is a record, the worst class picks the exit code *)
  let mixed_corpus () =
    List.iter
      (fun (tag, config) ->
        let rep =
          run_docs ~config
            ~limits:(Limits.v ~max_input_bytes:4 ())
            plus_a
            [ ("good", "aaa"); ("bad", "aab"); ("big", "aaaaaaaa") ]
        in
        let r i = List.nth rep.Batch.records i in
        Alcotest.(check int) (tag ^ ": records") 3 (List.length rep.Batch.records);
        Alcotest.(check bool) (tag ^ ": good ok") true (r 0).Batch.r_ok;
        Alcotest.(check int) (tag ^ ": good bytes") 3 (r 0).Batch.r_bytes;
        Alcotest.(check string) (tag ^ ": bad class") "syntax"
          (class_name (r 1).Batch.r_fail);
        Alcotest.(check int) (tag ^ ": bad position") 2 (r 1).Batch.r_position;
        Alcotest.(check string) (tag ^ ": big class") "resource:input"
          (class_name (r 2).Batch.r_fail);
        Alcotest.(check bool) (tag ^ ": big which") true
          ((r 2).Batch.r_which = Some "input");
        let s = rep.Batch.summary in
        Alcotest.(check int) (tag ^ ": ok") 1 s.Batch.s_ok;
        Alcotest.(check int) (tag ^ ": syntax") 1 s.Batch.s_syntax;
        Alcotest.(check int) (tag ^ ": resource") 1 s.Batch.s_resource;
        Alcotest.(check int) (tag ^ ": exit") 4 (Batch.exit_code rep))
      configs
  in
  (* an injected read failure is an io record, not a crash *)
  let io_fault () =
    let rep =
      run_docs
        ~faults:(Faults.v [ Faults.Io_error 1 ])
        plus_a
        [ ("x", "aaa"); ("y", "aa") ]
    in
    List.iter
      (fun r ->
        Alcotest.(check string) "io class" "io" (class_name r.Batch.r_fail);
        Alcotest.(check int) "unread bytes" (-1) r.Batch.r_bytes)
      rep.Batch.records;
    Alcotest.(check int) "exit" 3 (Batch.exit_code rep)
  in
  (* truncation changes the document the parser sees: a doc whose tail
     is malformed parses once the tail is cut off *)
  let truncation_heals () =
    let rep =
      run_docs
        ~faults:(Faults.v [ Faults.Truncate 3 ])
        plus_a
        [ ("d", "aaab") ]
    in
    let r = List.hd rep.Batch.records in
    Alcotest.(check bool) "ok after truncation" true r.Batch.r_ok;
    Alcotest.(check int) "delivered bytes" 3 r.Batch.r_bytes;
    Alcotest.(check int) "exit" 0 (Batch.exit_code rep)
  in
  (* the empty fault plan is byte-for-byte absent: same JSONL as no
     plan at all, whatever the plan's rate or unused fault list *)
  let faultless_baseline () =
    let jsonl ?faults () =
      let buf = Buffer.create 512 in
      let rep =
        run_docs ?faults
          ~limits:(Limits.v ~max_input_bytes:4 ())
          plus_a
          ~on_record:(fun r ->
            Buffer.add_string buf (Batch.jsonl_of_record r);
            Buffer.add_char buf '\n')
          [ ("good", "aaa"); ("bad", "aab"); ("big", "aaaaaaaa") ]
      in
      Buffer.add_string buf (Batch.jsonl_of_summary rep.Batch.summary);
      Buffer.contents buf
    in
    let base = jsonl () in
    Alcotest.(check string) "empty plan" base
      (jsonl ~faults:(Faults.v ~seed:123 ~rate:1.0 []) ());
    Alcotest.(check string) "rate-zero plan" base
      (jsonl
         ~faults:
           (Faults.v ~seed:7 ~rate:0.0
              [
                Faults.Truncate 1; Faults.Io_error 2; Faults.Fuel_cap 5;
                Faults.Memo_cap 100; Faults.Clock_skew 999;
              ])
         ())
  in
  [
    Alcotest.test_case "mixed corpus: records, classes, exit code" `Quick
      mixed_corpus;
    Alcotest.test_case "injected io failure is contained" `Quick io_fault;
    Alcotest.test_case "truncation changes the parsed document" `Quick
      truncation_heals;
    Alcotest.test_case "faultless plans are byte-identical to none" `Quick
      faultless_baseline;
  ]

(* --- the degradation ladder and deadlines ------------------------------------ *)

let ladder_tests =
  (* the rescue: a memo budget too small for value-carrying chunks but
     big enough for the recognizer rung's value-free ones — the full
     rung trips its fuel re-running degraded calls, the retry answers *)
  let recognizer_rescue () =
    let g = chain_memo 8 in
    let doc = String.make 200 'a' in
    List.iter
      (fun (tag, config) ->
        let rep =
          run_docs ~config
            ~limits:(Limits.v ~max_memo_bytes:55_000 ~fuel:6_000 ())
            g
            [ ("d", doc) ]
        in
        let r = List.hd rep.Batch.records in
        Alcotest.(check bool) (tag ^ ": rescued") true r.Batch.r_ok;
        Alcotest.(check string) (tag ^ ": rung") "recognizer"
          (Batch.rung_name r.Batch.r_rung);
        Alcotest.(check bool) (tag ^ ": retried") true r.Batch.r_retried;
        Alcotest.(check bool) (tag ^ ": degradation seen") true
          (r.Batch.r_memo_degraded > 0);
        Alcotest.(check int) (tag ^ ": summary degraded") 1
          rep.Batch.summary.Batch.s_degraded;
        Alcotest.(check int) (tag ^ ": recognizer rung count") 1
          rep.Batch.summary.Batch.s_rung_recognizer;
        Alcotest.(check int) (tag ^ ": exit") 0 (Batch.exit_code rep))
      configs
  in
  (* the bottom of the ladder: a budget even the recognizer rung cannot
     fit hard-fails, attributed to the rung that answered last *)
  let ladder_bottom () =
    let g = chain_memo 8 in
    let doc = String.make 200 'a' in
    List.iter
      (fun (tag, config) ->
        let rep =
          run_docs ~config
            ~limits:(Limits.v ~max_memo_bytes:16_384 ~fuel:20_000 ())
            g
            [ ("d", doc) ]
        in
        let r = List.hd rep.Batch.records in
        Alcotest.(check bool) (tag ^ ": failed") false r.Batch.r_ok;
        Alcotest.(check string) (tag ^ ": class") "resource:fuel"
          (class_name r.Batch.r_fail);
        Alcotest.(check string) (tag ^ ": rung") "recognizer"
          (Batch.rung_name r.Batch.r_rung);
        Alcotest.(check bool) (tag ^ ": retried") true r.Batch.r_retried;
        Alcotest.(check int) (tag ^ ": exit") 4 (Batch.exit_code rep))
      configs
  in
  (* a fuel-cap fault rides the same ladder: both rungs capped, both
     trip, the record says the recognizer answered *)
  let fuel_cap_fault () =
    let g = chain_memo 8 in
    let rep =
      run_docs
        ~faults:(Faults.v [ Faults.Fuel_cap 200 ])
        g
        [ ("d", String.make 30 'a') ]
    in
    let r = List.hd rep.Batch.records in
    Alcotest.(check string) "class" "resource:fuel" (class_name r.Batch.r_fail);
    Alcotest.(check string) "rung" "recognizer" (Batch.rung_name r.Batch.r_rung);
    Alcotest.(check bool) "retried" true r.Batch.r_retried;
    Alcotest.(check int) "exit" 4 (Batch.exit_code rep)
  in
  (* deadlines under the synthetic clock: an exponential parse trips
     fuel slices until the clock runs out — or finishes if it doesn't *)
  let deadline_expires () =
    List.iter
      (fun (tag, config) ->
        let rep =
          run_docs ~config
            ~limits:(Limits.v ~fuel:1_000_000 ())
            ~deadline_ns:1_000_000 (chain_unmemo 18)
            [ ("d", "a") ]
        in
        let r = List.hd rep.Batch.records in
        Alcotest.(check string) (tag ^ ": class") "resource:deadline"
          (class_name r.Batch.r_fail);
        Alcotest.(check bool) (tag ^ ": which") true
          (r.Batch.r_which = Some "deadline");
        Alcotest.(check int) (tag ^ ": exit") 4 (Batch.exit_code rep))
      configs
  in
  let deadline_roomy () =
    let rep =
      run_docs
        ~limits:(Limits.v ~fuel:1_000_000 ())
        ~deadline_ns:3_600_000_000_000 (chain_unmemo 18)
        [ ("d", "a") ]
    in
    let r = List.hd rep.Batch.records in
    Alcotest.(check bool) "slice doubling reaches the answer" true r.Batch.r_ok
  in
  (* clock skew: the deadline is armed unskewed, every later reading
     sees the step — the same parse that fits an hour now expires *)
  let clock_skew () =
    let rep =
      run_docs
        ~limits:(Limits.v ~fuel:1_000_000 ())
        ~deadline_ns:3_600_000_000_000
        ~faults:(Faults.v [ Faults.Clock_skew 7_200_000_000_000 ])
        (chain_unmemo 18)
        [ ("d", "a") ]
    in
    let r = List.hd rep.Batch.records in
    Alcotest.(check string) "class" "resource:deadline"
      (class_name r.Batch.r_fail);
    Alcotest.(check int) "exit" 4 (Batch.exit_code rep)
  in
  (* budgets are set per run: deadline slices and fault caps reuse the
     full rung's engine, and the recognizer rung compiles once, on the
     first document that descends *)
  let compiles_once () =
    let sp = Profile.Spans.create () in
    let rep =
      run_docs ~spans:sp
        ~limits:(Limits.v ~fuel:1_000_000 ())
        ~deadline_ns:3_600_000_000_000
        ~faults:(Faults.v [ Faults.Fuel_cap 200_000 ])
        (chain_unmemo 18)
        (List.init 3 (fun i -> (string_of_int i, "a")))
    in
    List.iter
      (fun (r : Batch.record) ->
        Alcotest.(check string) "rung" "recognizer" (Batch.rung_name r.Batch.r_rung))
      rep.Batch.records;
    (* each span is one JSON object with its args last *)
    let chrome = Profile.Spans.to_chrome sp in
    let starts k =
      List.filter_map
        (fun i ->
          if String.sub chrome i (String.length k) = k then Some i else None)
        (List.init (String.length chrome - String.length k + 1) Fun.id)
    in
    Alcotest.(check int) "one compile" 1
      (List.length (starts "\"name\":\"compile\""));
    (* 65536, 131072, then the 200000 cap, on each rung *)
    Alcotest.(check int) "slices run" 18
      (List.length (starts "\"name\":\"attempt\""));
    match starts "\"name\":\"compile-rung\"" with
    | [ i ] ->
        (* the span's args close it: [..."rung":"recognizer"}] *)
        let rung = "\"rung\":\"recognizer\"" in
        let close = String.index_from chrome i '}' in
        Alcotest.(check bool) "of the recognizer rung" true
          (List.mem (close - String.length rung) (starts rung))
    | l -> Alcotest.failf "%d compile-rung spans, expected 1" (List.length l)
  in
  [
    Alcotest.test_case "deadline slices and fault caps compile no engine" `Quick
      compiles_once;
    Alcotest.test_case "recognizer rung rescues a memo-starved parse" `Quick
      recognizer_rescue;
    Alcotest.test_case "ladder bottom hard-fails on the last rung" `Quick
      ladder_bottom;
    Alcotest.test_case "fuel-cap fault descends the ladder" `Quick
      fuel_cap_fault;
    Alcotest.test_case "deadline expiry under the synthetic clock" `Quick
      deadline_expires;
    Alcotest.test_case "roomy deadline lets slice doubling finish" `Quick
      deadline_roomy;
    Alcotest.test_case "clock skew expires an armed deadline" `Quick clock_skew;
  ]

(* --- chaos: random grammars × documents × fault plans ------------------------ *)

(* Generators in the test_props mold: stratified (never recursive)
   grammars over a 4-letter alphabet, directed-walk inputs with one
   mutation, retried until the analysis accepts. *)

let alphabet = [ 'a'; 'b'; 'c'; 'd' ]
let gen_char = Gen.oneofl alphabet

let gen_charset st =
  let s = ref Charset.empty in
  List.iter (fun c -> if Gen.bool st then s := Charset.add c !s) alphabet;
  if Charset.is_empty !s then Charset.singleton 'a' else !s

let gen_short_string st =
  let n = 1 + Gen.int_bound 2 st in
  String.init n (fun _ -> gen_char st)

let rec gen_expr ~refs ~depth st : Expr.t =
  if depth <= 0 then gen_leaf ~refs st
  else
    match Gen.int_bound 11 st with
    | 0 | 1 ->
        Expr.seq
          (List.init (2 + Gen.int_bound 1 st) (fun _ ->
               gen_expr ~refs ~depth:(depth - 1) st))
    | 2 | 3 ->
        Expr.alt
          (List.init (2 + Gen.int_bound 1 st) (fun _ ->
               gen_expr ~refs ~depth:(depth - 1) st))
    | 4 -> Expr.star (gen_consuming ~refs ~depth:(depth - 1) st)
    | 5 -> Expr.plus (gen_consuming ~refs ~depth:(depth - 1) st)
    | 6 -> Expr.opt (gen_expr ~refs ~depth:(depth - 1) st)
    | 7 -> Expr.and_ (gen_expr ~refs ~depth:(depth - 1) st)
    | 8 -> Expr.not_ (gen_expr ~refs ~depth:(depth - 1) st)
    | 9 -> Expr.token (gen_expr ~refs ~depth:(depth - 1) st)
    | 10 -> Expr.node "N" (gen_expr ~refs ~depth:(depth - 1) st)
    | _ -> Expr.drop (gen_expr ~refs ~depth:(depth - 1) st)

and gen_leaf ~refs st =
  match Gen.int_bound 5 st with
  | 0 -> Expr.chr (gen_char st)
  | 1 -> Expr.str (gen_short_string st)
  | 2 -> Expr.cls (gen_charset st)
  | 3 -> Expr.empty
  | 4 -> (
      match refs with
      | [] -> Expr.chr (gen_char st)
      | _ -> Expr.ref_ (List.nth refs (Gen.int_bound (List.length refs - 1) st)))
  | _ -> Expr.any ()

and gen_consuming ~refs ~depth st =
  let leaf =
    match Gen.int_bound 2 st with
    | 0 -> Expr.chr (gen_char st)
    | 1 -> Expr.cls (gen_charset st)
    | _ -> Expr.str (gen_short_string st)
  in
  if depth > 0 && Gen.bool st then
    Expr.seq [ leaf; gen_expr ~refs ~depth:(depth - 1) st ]
  else leaf

let gen_grammar st : Grammar.t =
  let n = 2 + Gen.int_bound 2 st in
  let name i = Printf.sprintf "P%d" i in
  let prods =
    List.init n (fun i ->
        let refs = List.init (n - i - 1) (fun j -> name (i + j + 1)) in
        let kind =
          match Gen.int_bound 6 st with
          | 0 -> Attr.Generic
          | 1 -> Attr.Text
          | 2 -> Attr.Void
          | _ -> Attr.Plain
        in
        Production.v
          ~attrs:(Attr.v ~kind ~visibility:Attr.Private ())
          (name i)
          (gen_expr ~refs ~depth:3 st))
  in
  Grammar.make_exn ~start:"P0" prods

let gen_input g st =
  let buf = Buffer.create 32 in
  let rec walk budget (e : Expr.t) =
    if !budget <= 0 then ()
    else
      match e.Expr.it with
      | Expr.Empty | Expr.Fail _ -> ()
      | Expr.Any -> Buffer.add_char buf (gen_char st)
      | Expr.Chr c -> Buffer.add_char buf c
      | Expr.Str s -> Buffer.add_string buf s
      | Expr.Cls set -> (
          match Charset.choose set with
          | Some c -> Buffer.add_char buf c
          | None -> ())
      | Expr.Ref n -> (
          decr budget;
          match Grammar.find g n with
          | Some p -> walk budget p.Production.expr
          | None -> ())
      | Expr.Seq es -> List.iter (walk budget) es
      | Expr.Alt alts ->
          let i = Gen.int_bound (List.length alts - 1) st in
          walk budget (List.nth alts i).Expr.body
      | Expr.Star x ->
          for _ = 1 to Gen.int_bound 2 st do
            walk budget x
          done
      | Expr.Plus x ->
          for _ = 1 to 1 + Gen.int_bound 1 st do
            walk budget x
          done
      | Expr.Opt x -> if Gen.bool st then walk budget x
      | Expr.And _ | Expr.Not _ -> ()
      | Expr.Bind (_, x) | Expr.Token x | Expr.Node (_, x) | Expr.Drop x
      | Expr.Splice x | Expr.Record (_, x) | Expr.Member (_, _, x) ->
          walk budget x
  in
  (match Grammar.find g (Grammar.start g) with
  | Some p -> walk (ref 40) p.Production.expr
  | None -> ());
  let s = Buffer.contents buf in
  if Gen.bool st || String.length s = 0 then s
  else
    let i = Gen.int_bound (String.length s - 1) st in
    String.mapi (fun j c -> if j = i then gen_char st else c) s

type chaos_case = {
  cg : Grammar.t;
  cdocs : (string * string) list;
  climits : Limits.t option;
  cdeadline : int option;
  cplan : Faults.t;
}

let gen_chaos st =
  let rec retry k =
    let g = gen_grammar st in
    if Analysis.check (Analysis.analyze g) = [] then g
    else if k > 50 then Grammar.make_exn [ Production.v "P0" (Expr.chr 'a') ]
    else retry (k + 1)
  in
  let g = retry 0 in
  let docs =
    List.init 3 (fun i -> (Printf.sprintf "doc%d" i, gen_input g st))
  in
  let limits =
    match Gen.int_bound 4 st with
    | 0 -> None
    | 1 -> Some (Limits.v ~fuel:(1 + Gen.int_bound 2000 st) ())
    | 2 ->
        Some
          (Limits.v
             ~fuel:(1 + Gen.int_bound 5000 st)
             ~max_memo_bytes:(Gen.int_bound 4096 st)
             ())
    | 3 -> Some (Limits.v ~max_depth:(1 + Gen.int_bound 48 st) ())
    | _ -> Some (Limits.v ~max_input_bytes:(1 + Gen.int_bound 24 st) ())
  in
  let deadline = Gen.oneofl [ None; Some 2_000_000; Some 20_000_000 ] st in
  let plan =
    let rate = Gen.oneofl [ 0.0; 0.5; 1.0 ] st in
    Faults.v ~seed:(Gen.int_bound 10_000 st) ~rate
      (List.init (Gen.int_bound 3 st) (fun _ -> gen_fault st))
  in
  { cg = g; cdocs = docs; climits = limits; cdeadline = deadline; cplan = plan }

let print_chaos c =
  Printf.sprintf "grammar:\n%s\ndocs: %s\nlimits: %s\ndeadline: %s\nplan: %s"
    (Pretty.grammar_to_string c.cg)
    (String.concat ", "
       (List.map (fun (_, d) -> Printf.sprintf "%S" d) c.cdocs))
    (match c.climits with None -> "default" | Some l -> Limits.describe l)
    (match c.cdeadline with None -> "none" | Some d -> string_of_int d)
    (Faults.to_spec c.cplan)

let arb_chaos = QCheck.make ~print:print_chaos gen_chaos

(* The per-document verdict two runs must agree on. Wall times are
   excluded. *)
let verdict r =
  ( r.Batch.r_index,
    r.Batch.r_ok,
    class_name r.Batch.r_fail,
    r.Batch.r_which,
    r.Batch.r_position,
    Batch.rung_name r.Batch.r_rung,
    r.Batch.r_retried,
    r.Batch.r_bytes )

let show_verdicts vs =
  String.concat "; "
    (List.map
       (fun (i, ok, cls, which, pos, rung, retried, bytes) ->
         Printf.sprintf "#%d %s %s which=%s pos=%d rung=%s retried=%b bytes=%d"
           i
           (if ok then "ok" else "fail")
           cls
           (Option.value which ~default:"-")
           pos rung retried bytes)
       vs)

let coherent (rep : Batch.report) =
  let s = rep.Batch.summary in
  let rs = rep.Batch.records in
  s.Batch.s_docs = List.length rs
  && s.Batch.s_ok + s.Batch.s_failed = s.Batch.s_docs
  && s.Batch.s_ok = List.length (List.filter (fun r -> r.Batch.r_ok) rs)
  && s.Batch.s_syntax + s.Batch.s_resource + s.Batch.s_io + s.Batch.s_internal
     = s.Batch.s_failed
  && s.Batch.s_rung_full + s.Batch.s_rung_recognizer = s.Batch.s_docs
  && s.Batch.s_degraded
     = List.length (List.filter (fun r -> r.Batch.r_retried) rs)
  && s.Batch.s_memo_degraded
     = List.fold_left (fun a r -> a + r.Batch.r_memo_degraded) 0 rs
  && s.Batch.s_internal = 0
  && List.for_all (fun r -> r.Batch.r_ok = (r.Batch.r_fail = None)) rs
  && List.mem (Batch.exit_code rep) [ 0; 3; 4 ]
  && (Batch.exit_code rep = 0) = (s.Batch.s_failed = 0)

let chaos_props =
  [
    QCheck.Test.make
      ~name:
        "chaos: no fault escapes, accounting coherent, runs agree (500 \
         cases)"
      ~count:500 arb_chaos (fun c ->
        let run config =
          try
            match
              Batch.run ~config ?limits:c.climits ?deadline_ns:c.cdeadline
                ~faults:c.cplan
                ~now_ns:(counter_clock ())
                c.cg (Batch.Docs c.cdocs)
            with
            | Ok rep -> Ok rep
            | Error _ -> Error `Compile
          with e -> Error (`Raised (Printexc.to_string e))
        in
        match (run Config.optimized, run Config.optimized) with
        | Error `Compile, Error `Compile -> true
        | Error (`Raised m), _ | _, Error (`Raised m) ->
            QCheck.Test.fail_reportf "exception escaped the run: %s" m
        | Ok a, Ok b ->
            if not (coherent a) then
              QCheck.Test.fail_reportf "accounting incoherent:\n%s"
                (show_verdicts (List.map verdict a.Batch.records))
            else
              let va = List.map verdict a.Batch.records in
              let vb = List.map verdict b.Batch.records in
              if va <> vb then
                QCheck.Test.fail_reportf "runs disagree:\n first:  %s\n second: %s"
                  (show_verdicts va) (show_verdicts vb)
              else true
        | Ok _, Error `Compile | Error `Compile, Ok _ ->
            QCheck.Test.fail_reportf "one run rejected the grammar");
  ]

let () =
  let to_alco = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "faults"
    [
      ("fault-plans", spec_tests @ to_alco spec_props);
      ("guarded-reads", read_unit_tests @ to_alco read_props);
      ("batch-isolation", batch_unit_tests);
      ("batch-ladder", ladder_tests);
      ("chaos", to_alco chaos_props);
    ]
