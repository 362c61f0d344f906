(* Property tests for incremental parse sessions.

   The headline invariant: for any grammar, initial input and edit
   script, [Session.reparse] is observationally identical to a cold
   parse of the final buffer — same value under [Value.equal], same
   farthest-failure position, same expected set, byte-identical
   rendered error message. Checked after every reparse, under both
   memo strategies, with single edits and composed multi-edit
   batches.

   Grammar and input generation mirrors test_props: stratified
   non-recursive grammars over a 4-letter alphabet, inputs from a
   directed walk with a mutation chance so rejecting buffers (and thus
   the cold-fallback error path) stay in the mix. *)

open Rats
module Gen = QCheck.Gen

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
    match Gen.int_bound 13 st with
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
    | 9 -> Expr.bind "x" (gen_expr ~refs ~depth:(depth - 1) st)
    | 10 -> Expr.token (gen_expr ~refs ~depth:(depth - 1) st)
    | 11 -> Expr.node "N" (gen_expr ~refs ~depth:(depth - 1) st)
    | 12 -> Expr.drop (gen_expr ~refs ~depth:(depth - 1) st)
    | _ ->
        (* Stateful constructs: sessions must stay correct when entries
           depend on the state tables (version seeding, not extent
           tracking, is what protects these). *)
        if Gen.bool st then
          Expr.record "T" (gen_consuming ~refs ~depth:(depth - 1) st)
        else
          Expr.member "T" (Gen.bool st)
            (gen_consuming ~refs ~depth:(depth - 1) st)

and gen_leaf ~refs st =
  match Gen.int_bound 5 st with
  | 0 -> Expr.chr (gen_char st)
  | 1 -> Expr.str (gen_short_string st)
  | 2 -> Expr.cls (gen_charset st)
  | 3 -> Expr.empty
  | 4 -> (
      match refs with
      | [] -> Expr.chr (gen_char st)
      | _ -> Expr.ref_ (List.nth refs (Gen.int_bound (List.length refs - 1) st))
      )
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
        Production.v (name i) (gen_expr ~refs ~depth:3 st))
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

(* An edit script: a list of batches; each batch is applied in full
   before one reparse (so relocation composes across edits). Offsets
   are generated against the evolving buffer length, tracked here so
   every edit is in bounds by construction. *)

type edit = { start : int; old_len : int; replacement : string }

let gen_replacement g st =
  match Gen.int_bound 3 st with
  | 0 -> ""
  | 1 -> String.init (1 + Gen.int_bound 3 st) (fun _ -> gen_char st)
  | 2 ->
      (* Grammar-directed snippets make structure-preserving edits more
         likely, which is where memo reuse actually fires. *)
      let s = gen_input g st in
      if String.length s > 6 then String.sub s 0 6 else s
  | _ -> gen_short_string st

let gen_script g input st =
  let len = ref (String.length input) in
  let batches = 1 + Gen.int_bound 3 st in
  List.init batches (fun _ ->
      let edits = 1 + Gen.int_bound 1 st in
      List.init edits (fun _ ->
          let start = Gen.int_bound (max 0 !len) st in
          let old_len = min (!len - start) (Gen.int_bound 3 st) in
          let replacement = gen_replacement g st in
          len := !len - old_len + String.length replacement;
          { start; old_len; replacement }))

let gen_case st =
  let rec retry k =
    let g = gen_grammar st in
    if Analysis.check (Analysis.analyze g) = [] then g
    else if k > 50 then Grammar.make_exn [ Production.v "P0" (Expr.chr 'a') ]
    else retry (k + 1)
  in
  let g = retry 0 in
  let input = gen_input g st in
  (g, input, gen_script g input st)

let print_case (g, input, script) =
  Printf.sprintf "grammar:\n%s\ninput: %S\nscript: %s"
    (Pretty.grammar_to_string g)
    input
    (String.concat "; "
       (List.map
          (fun batch ->
            "["
            ^ String.concat ", "
                (List.map
                   (fun e ->
                     Printf.sprintf "@%d -%d +%S" e.start e.old_len
                       e.replacement)
                   batch)
            ^ "]")
          script))

let arb_case = QCheck.make ~print:print_case gen_case

let splice text { start; old_len; replacement } =
  String.sub text 0 start
  ^ replacement
  ^ String.sub text (start + old_len) (String.length text - start - old_len)

(* Full observation, error message included: the session contract is
   byte-identical reports, not just equal positions. *)
type obs = Accept of Value.t | Reject of int * string list * string

let obs_of = function
  | Ok v -> Accept v
  | Error e ->
      Reject
        ( e.Parse_error.position,
          e.Parse_error.expected,
          Parse_error.to_string e )

let obs_equal a b =
  match (a, b) with
  | Accept va, Accept vb -> Value.equal va vb
  | Reject (pa, ea, ma), Reject (pb, eb, mb) ->
      pa = pb && ea = eb && String.equal ma mb
  | Accept _, Reject _ | Reject _, Accept _ -> false

let obs_print = function
  | Accept v -> "accept " ^ Value.to_string v
  | Reject (p, e, _) ->
      Printf.sprintf "reject@%d [%s]" p (String.concat "; " e)

let configs =
  [
    ("chunked", Config.optimized);
    ("hashtable", Config.packrat);
    (* chunked memo without FIRST-set dispatch, with and without
       transient productions *)
    ("chunked-transient", Config.v ~memo:Config.Chunked ~honor_transient:true ());
    ("chunked-plain", Config.v ~memo:Config.Chunked ());
  ]

let session_equiv_prop (label, cfg) count =
  QCheck.Test.make
    ~name:(Printf.sprintf "reparse = cold parse of final buffer (%s)" label)
    ~count arb_case
    (fun (g, input, script) ->
      match Engine.prepare ~config:cfg g with
      | Error _ -> true
      | Ok eng ->
          let session = Session.create eng input in
          let check tag =
            let warm = obs_of (Session.reparse session) in
            let cold = obs_of (parse eng (Session.text session)) in
            if not (obs_equal warm cold) then
              QCheck.Test.fail_reportf
                "%s: session %s, cold %s (buffer %S)" tag (obs_print warm)
                (obs_print cold) (Session.text session)
          in
          check "initial";
          let text = ref input in
          List.iteri
            (fun i batch ->
              List.iter
                (fun e ->
                  text := splice !text e;
                  Session.apply_edit session ~start:e.start ~old_len:e.old_len
                    ~replacement:e.replacement)
                batch;
              (* The session's own splice must agree with the spec. *)
              if not (String.equal !text (Session.text session)) then
                QCheck.Test.fail_reportf "buffer mismatch: %S vs %S" !text
                  (Session.text session);
              check (Printf.sprintf "batch %d" i))
            script;
          true)

let session_props =
  List.map (fun c -> session_equiv_prop c 150) configs

(* Error rendering is deterministic: the same failing parse renders the
   same message on repeated runs and with or without memoization
   (expected sets are sorted before display, so trace-discovery order
   cannot leak). *)
let determinism_props =
  [
    QCheck.Test.make
      ~name:"error messages are byte-identical across runs and memo modes"
      ~count:300 arb_case
      (fun (g, input, _) ->
        match
          ( Engine.prepare ~config:Config.packrat g,
            Engine.prepare ~config:Config.naive g )
        with
        | Ok packrat, Ok naive -> (
            match (parse packrat input, parse naive input) with
            | Ok _, Ok _ -> true
            | Error e1, Error e2 -> (
                match parse packrat input with
                | Ok _ -> false
                | Error e1' ->
                    String.equal (Parse_error.to_string e1)
                      (Parse_error.to_string e1')
                    && String.equal (Parse_error.to_string e1)
                         (Parse_error.to_string e2))
            | _ -> false)
        | Error _, Error _ -> true
        | _ -> false);
  ]

(* Stats bookkeeping: reuse counters are per-reparse (reset each time),
   and an unedited reparse reuses without relocating. *)
let unit_tests =
  let calc () =
    Engine.prepare_exn ~config:Config.optimized
      (Pipeline.optimize (Grammars.Calc.grammar ()))
  in
  [
    Alcotest.test_case "unedited reparse reuses, never relocates" `Quick
      (fun () ->
        let s = Session.create (calc ()) "1+2*(3-4)" in
        (match Session.reparse s with
        | Ok _ -> ()
        | Error e -> Alcotest.failf "parse failed: %s" (Parse_error.message e));
        Session.apply_edit s ~start:0 ~old_len:0 ~replacement:"";
        ignore (Session.reparse s);
        let st = Session.stats s in
        Alcotest.(check bool) "reused > 0" true (st.Stats.memo_reused > 0);
        Alcotest.(check int) "relocated = 0" 0 st.Stats.memo_relocated);
    Alcotest.test_case "out-of-bounds edits are rejected" `Quick (fun () ->
        let s = Session.create (calc ()) "1+2" in
        let bad f =
          match f () with
          | () -> Alcotest.fail "expected Invalid_argument"
          | exception Invalid_argument _ -> ()
        in
        bad (fun () ->
            Session.apply_edit s ~start:(-1) ~old_len:0 ~replacement:"");
        bad (fun () ->
            Session.apply_edit s ~start:0 ~old_len:4 ~replacement:"");
        bad (fun () ->
            Session.apply_edit s ~start:4 ~old_len:0 ~replacement:""));
    Alcotest.test_case "edit at buffer end appends" `Quick (fun () ->
        let s = Session.create (calc ()) "1+2" in
        ignore (Session.reparse s);
        Session.apply_edit s ~start:3 ~old_len:0 ~replacement:"*3";
        Alcotest.(check string) "buffer" "1+2*3" (Session.text s);
        match Session.reparse s with
        | Ok _ -> ()
        | Error e -> Alcotest.failf "parse failed: %s" (Parse_error.message e));
  ]

(* Arena-recycling equivalence: the memo arena and pooled scratch
   introduced for the allocation-free hot path must be invisible.

   Two angles, both over both memo strategies, governed and
   ungoverned:

   - Twin sessions driven through the identical edit script must agree
     on every observation AND on every [Stats] counter at every step —
     one twin runs on an engine whose scratch pool is already warm from
     unrelated parses, so a stale pooled arena, value slot or bucket
     table would surface as a divergence.

   - After the full script (arena grown, chunks freed and recycled),
     the session's reparse must match a fresh session over the same
     final buffer — cold store, never-used arena — on value, farthest
     position, expected set and rendered message. When nothing survived
     the edits ([memo_reused = 0]) the recycled store is semantically
     cold too, and the full counter set must match the fresh store's. *)

let governed_limits = Limits.v ~fuel:200_000 ~max_depth:200 ()

let recycle_configs =
  [
    ("optimized", Config.optimized);
    ("packrat", Config.packrat);
    ("optimized-governed", Config.with_limits governed_limits Config.optimized);
    ("packrat-governed", Config.with_limits governed_limits Config.packrat);
  ]

let stats_fields s = Stats.fields s

let check_stats_equal tag a b =
  let fa = stats_fields a and fb = stats_fields b in
  if fa <> fb then
    QCheck.Test.fail_reportf "%s: stats diverge:\n  %s\n  %s" tag
      (String.concat ", "
         (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) fa))
      (String.concat ", "
         (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) fb))

let twin_stats_prop (label, cfg) count =
  QCheck.Test.make
    ~name:
      (Printf.sprintf "twin sessions: identical stats at every step (%s)"
         label)
    ~count arb_case
    (fun (g, input, script) ->
      match Engine.prepare ~config:cfg g with
      | Error _ -> true
      | Ok eng ->
          (* Warm one twin's scratch pool with unrelated inputs first;
             recycled state must not leak into the session runs. *)
          ignore (parse eng "abab");
          ignore (parse eng "");
          let sa = Session.create eng input in
          let sb = Session.create eng input in
          let step tag =
            let ra = obs_of (Session.reparse sa) in
            let rb = obs_of (Session.reparse sb) in
            if not (obs_equal ra rb) then
              QCheck.Test.fail_reportf "%s: %s vs %s" tag (obs_print ra)
                (obs_print rb);
            check_stats_equal tag (Session.stats sa) (Session.stats sb)
          in
          step "initial";
          List.iteri
            (fun i batch ->
              List.iter
                (fun e ->
                  Session.apply_edit sa ~start:e.start ~old_len:e.old_len
                    ~replacement:e.replacement;
                  Session.apply_edit sb ~start:e.start ~old_len:e.old_len
                    ~replacement:e.replacement)
                batch;
              step (Printf.sprintf "batch %d" i))
            script;
          true)

let recycled_vs_fresh_prop (label, cfg) count =
  QCheck.Test.make
    ~name:
      (Printf.sprintf "recycled store = fresh cold store (%s)" label)
    ~count arb_case
    (fun (g, input, script) ->
      match Engine.prepare ~config:cfg g with
      | Error _ -> true
      | Ok eng ->
          let s = Session.create eng input in
          ignore (Session.reparse s);
          List.iter
            (fun batch ->
              List.iter
                (fun e ->
                  Session.apply_edit s ~start:e.start ~old_len:e.old_len
                    ~replacement:e.replacement)
                batch;
              ignore (Session.reparse s))
            script;
          (* One more edit cycle over the now well-recycled arena,
             compared against a never-used store on the same buffer. *)
          let tail = if String.length (Session.text s) = 0 then "ab" else "" in
          Session.apply_edit s ~start:0 ~old_len:0 ~replacement:tail;
          let recycled = obs_of (Session.reparse s) in
          let fresh_session = Session.create eng (Session.text s) in
          let fresh = obs_of (Session.reparse fresh_session) in
          if not (obs_equal recycled fresh) then
            QCheck.Test.fail_reportf "recycled %s, fresh %s (buffer %S)"
              (obs_print recycled) (obs_print fresh) (Session.text s);
          let st = Session.stats s in
          if st.Stats.memo_reused = 0 then
            check_stats_equal "no-survivor reparse" st
              (Session.stats fresh_session);
          true)

let recycle_props =
  List.map (fun c -> twin_stats_prop c 60) recycle_configs
  @ List.map (fun c -> recycled_vs_fresh_prop c 60) recycle_configs

let () =
  let to_alco = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "session"
    [
      ("session-equivalence", to_alco session_props);
      ("arena-recycling", to_alco recycle_props);
      ("error-determinism", to_alco determinism_props);
      ("session-unit", unit_tests);
    ]
