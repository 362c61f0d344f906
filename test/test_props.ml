(* Property-based tests (qcheck, registered as alcotest cases).

   The central property of the whole system: every engine configuration
   and every optimization pass is observationally equivalent on random
   well-formed grammars and random inputs. Grammars are generated
   stratified (production i only references productions j > i) so they
   are never recursive; recursion is covered by handcrafted tests — what
   randomness buys here is coverage of operator interaction, which is
   where the subtle value-shape bugs live. *)

open Rats
module Gen = QCheck.Gen

let alphabet = [ 'a'; 'b'; 'c'; 'd' ]

(* --- generators ---------------------------------------------------------------- *)

let gen_char = Gen.oneofl alphabet

let gen_charset st =
  let s = ref Charset.empty in
  List.iter (fun c -> if Gen.bool st then s := Charset.add c !s) alphabet;
  if Charset.is_empty !s then Charset.singleton 'a' else !s

let gen_short_string st =
  let n = 1 + Gen.int_bound 2 st in
  String.init n (fun _ -> gen_char st)

(* A generated expression, together with whether it is guaranteed to
   consume input on success (needed for repetition bodies). *)
let rec gen_expr ~refs ~depth st : Expr.t =
  if depth <= 0 then gen_leaf ~refs st
  else
    match Gen.int_bound 13 st with
    | 0 | 1 ->
        Expr.seq
          (List.init (2 + Gen.int_bound 1 st) (fun _ ->
               gen_expr ~refs ~depth:(depth - 1) st))
    | 2 | 3 ->
        let label i =
          if Gen.bool st then Some (Printf.sprintf "L%d" i) else None
        in
        Expr.alt_labeled
          (List.mapi
             (fun i body -> { Expr.label = label i; body })
             (List.init (2 + Gen.int_bound 1 st) (fun _ ->
                  gen_expr ~refs ~depth:(depth - 1) st)))
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
        if Gen.bool st then
          Expr.record "T" (gen_consuming ~refs ~depth:(depth - 1) st)
        else Expr.member "T" (Gen.bool st) (gen_consuming ~refs ~depth:(depth - 1) st)

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
  (* Guaranteed to consume at least one byte on success: a consuming
     leaf, optionally followed by anything. *)
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

(* Directed input: walk the grammar, producing a string that has a fair
   chance of matching (predicates and state make it inexact, which is
   good — failures exercise backtracking). *)
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
  (* Random mutation keeps rejecting inputs in the mix. *)
  let s = Buffer.contents buf in
  if Gen.bool st || String.length s = 0 then s
  else
    let i = Gen.int_bound (String.length s - 1) st in
    String.mapi (fun j c -> if j = i then gen_char st else c) s

(* A well-formed grammar from [gen_grammar] plus a batch of inputs. *)
let gen_case_of gen_grammar st =
  let rec retry k =
    let g = gen_grammar st in
    if Analysis.check (Analysis.analyze g) = [] then g
    else if k > 50 then Grammar.make_exn [ Production.v "P0" (Expr.chr 'a') ]
    else retry (k + 1)
  in
  let g = retry 0 in
  let inputs = List.init 8 (fun _ -> gen_input g st) in
  (g, inputs)

let gen_case = gen_case_of gen_grammar

let print_case (g, inputs) =
  Printf.sprintf "grammar:\n%s\ninputs: %s"
    (Pretty.grammar_to_string g)
    (String.concat ", " (List.map (Printf.sprintf "%S") inputs))

let arb_case = QCheck.make ~print:print_case gen_case

(* --- equivalence properties ------------------------------------------------------ *)

type observation = Accept of Value.t | Reject of int

let observe eng input =
  match Engine.parse eng input with
  | Ok v -> Accept v
  | Error e -> Reject e.Parse_error.position

let obs_equal a b =
  match (a, b) with
  | Accept va, Accept vb -> Value.equal va vb
  | Reject pa, Reject pb -> pa = pb
  | Accept _, Reject _ | Reject _, Accept _ -> false

let equivalent ?(observe_errors = true) name count make_reference make_other =
  QCheck.Test.make ~name ~count arb_case (fun (g, inputs) ->
      match (make_reference g, make_other g) with
      | Ok e1, Ok e2 ->
          List.for_all
            (fun input ->
              let a = observe e1 input and b = observe e2 input in
              if observe_errors then obs_equal a b
              else
                match (a, b) with
                | Accept _, Accept _ | Reject _, Reject _ -> true
                | _ -> false)
            inputs
      | Error _, Error _ -> true (* both reject the grammar: fine *)
      | _ -> false)

let prepare_with cfg g = Engine.prepare ~config:cfg g

let engine_props =
  [
    equivalent "naive = packrat (values and error positions)" 300
      (prepare_with Config.naive)
      (prepare_with Config.packrat);
    equivalent "packrat = chunked+transient" 300
      (prepare_with Config.packrat)
      (prepare_with (Config.v ~memo:Config.Chunked ~honor_transient:true ()));
    (* Dispatch may drop doomed alternatives' expected-entries but must
       never change acceptance or values; error positions are preserved
       (see the FIRST-set argument in the engine). *)
    equivalent "packrat = fully optimized" 300
      (prepare_with Config.naive)
      (prepare_with Config.optimized);
    equivalent "dispatch alone changes nothing observable" 200
      (prepare_with Config.packrat)
      (prepare_with (Config.v ~dispatch:true ()));
    equivalent "lean values alone change nothing observable" 200
      (prepare_with Config.packrat)
      (prepare_with (Config.v ~lean_values:true ()));
    equivalent "parsing is deterministic" 100
      (prepare_with Config.optimized)
      (prepare_with Config.optimized);
  ]

let pass_props =
  [
    equivalent "optimize pipeline preserves values" 200
      (prepare_with Config.naive)
      (fun g -> Engine.prepare ~config:Config.optimized (Pipeline.optimize g));
    equivalent "factoring preserves values" 200
      (prepare_with Config.naive)
      (fun g ->
        Engine.prepare ~config:Config.packrat (Passes.factor_prefixes g));
    equivalent "inlining preserves values" 200
      (prepare_with Config.naive)
      (fun g -> Engine.prepare ~config:Config.packrat (Passes.inline_pass g));
    equivalent "folding preserves values" 200
      (prepare_with Config.naive)
      (fun g ->
        Engine.prepare ~config:Config.packrat (Passes.fold_duplicates g));
    equivalent ~observe_errors:false
      "repetition desugaring preserves acceptance" 200
      (prepare_with Config.packrat)
      (fun g ->
        Engine.prepare ~config:Config.packrat (Desugar.expand_repetitions g));
  ]

(* --- registry passes, one suite per registered name ---------------------------------- *)

(* Generated from the canonical registry, so a pass added there is
   property-tested here with no further wiring. The observation is
   stronger than [obs_equal] above: the expected set at the farthest
   failure must survive each pass too. Leaf-matcher descriptions ('x',
   "ab", [a-c], any character) are compared verbatim; predicate
   descriptions ("not ..." and "&...") quote their operand's syntax,
   which structural passes rewrite by design, so those are compared
   only by their presence.
   Reference and subject run under the same engine configuration so only
   the pass itself is under test; the reference variant then checks the
   transformed grammar against the original one run by [Reference]. *)

type full_obs = FAccept of Value.t | FReject of int * string list

let normalize_expected descs =
  List.sort_uniq compare
    (List.map
       (fun d ->
         if String.length d >= 4 && String.equal (String.sub d 0 4) "not " then
           "not <predicate>"
         else if String.length d >= 1 && d.[0] = '&' then "&<predicate>"
         else d)
       descs)

let observe_full eng input =
  match Engine.parse eng input with
  | Ok v -> FAccept v
  | Error e ->
      FReject (e.Parse_error.position, normalize_expected e.Parse_error.expected)

let reference_full g input =
  match (Reference.run g input).Reference.result with
  | Ok v -> FAccept v
  | Error (pos, descs) -> FReject (pos, normalize_expected descs)

let full_equal a b =
  match (a, b) with
  | FAccept va, FAccept vb -> Value.equal va vb
  | FReject (pa, ea), FReject (pb, eb) -> pa = pb && ea = eb
  | FAccept _, FReject _ | FReject _, FAccept _ -> false

let apply_pass (p : Pass.t) g =
  (Driver.run_exn ~gate:false [ p ] g).Driver.grammar

let registry_pass_props =
  List.concat_map
    (fun (p : Pass.t) ->
      [
        QCheck.Test.make
          ~name:
            (Printf.sprintf "%s preserves values, positions, expected"
               p.Pass.name)
          ~count:120 arb_case
          (fun (g, inputs) ->
            match
              ( prepare_with Config.packrat g,
                prepare_with Config.packrat (apply_pass p g) )
            with
            | Ok e1, Ok e2 ->
                List.for_all
                  (fun input ->
                    full_equal (observe_full e1 input) (observe_full e2 input))
                  inputs
            | Error _, Error _ -> true
            | _ -> false);
        QCheck.Test.make
          ~name:
            (Printf.sprintf
               "%s preserves values, positions, expected (reference)"
               p.Pass.name)
          ~count:120 arb_case
          (fun (g, inputs) ->
            match
              ( prepare_with Config.packrat g,
                prepare_with Config.packrat (apply_pass p g) )
            with
            | Ok _, Ok eng ->
                List.for_all
                  (fun input ->
                    full_equal (reference_full g input) (observe_full eng input))
                  inputs
            | Error _, Error _ -> true
            | _ -> false);
      ])
    (Pipeline.all_passes ())

(* --- reference interpreter ------------------------------------------------------------ *)

(* The engine against [Reference], a memo-free transcription of the
   semantics: whole trees compared with structural equality, so every
   span counts (unlike [Value.equal]); error positions; and the offset a
   prefix parse stops at. Expected sets are compared too, except under
   FIRST-set dispatch, which describes a skipped alternative by its
   FIRST set instead of by what it would have failed on. *)

(* [Value.to_string] with every node's span. *)
let rec show_value = function
  | Value.List vs -> "[" ^ String.concat " " (List.map show_value vs) ^ "]"
  | Value.Node n ->
      Printf.sprintf "(%s@%d-%d%s)" n.name n.start_ n.stop
        (String.concat ""
           (List.map
              (fun (l, v) ->
                " " ^ Option.fold ~none:"" ~some:(fun l -> l ^ ":") l
                ^ show_value v)
              n.children))
  | v -> Value.to_string v

let show_result = function
  | Ok v -> show_value v
  | Error (pos, descs) ->
      Printf.sprintf "error at %d: %s" pos (String.concat ", " descs)

let reference_agrees ~expected eng g input =
  let check ~require_eof =
    let o = Engine.run eng ~require_eof input in
    let r = Reference.run ~require_eof g input in
    let o_result =
      Result.map_error
        (fun e ->
          ( e.Parse_error.position,
            if expected then List.sort_uniq compare e.Parse_error.expected
            else [] ))
        o.Engine.result
    and r_result =
      Result.map_error
        (fun (pos, descs) -> (pos, if expected then descs else []))
        r.Reference.result
    in
    o.Engine.consumed = r.Reference.consumed && o_result = r_result
    || QCheck.Test.fail_reportf
         "on %S (require_eof:%b)\nengine:    %s, consumed %d\nreference: %s, consumed %d"
         input require_eof (show_result o_result) o.Engine.consumed
         (show_result r_result) r.Reference.consumed
  in
  check ~require_eof:true && check ~require_eof:false

(* Stateful grammars are rare under [gen_case]. This one builds the
   shape where state and memoization meet: a production R records a
   name and is tried by several alternatives at the same position — a
   failed alternative must roll its record back and the next one must
   record again, memo hit or not — followed by membership tests. *)
let gen_stateful_case st =
  let name_ = Expr.plus (Expr.cls (Charset.of_string "ab")) in
  let attempts =
    List.init
      (2 + Gen.int_bound 1 st)
      (fun _ -> Expr.seq [ Expr.ref_ "R"; gen_expr ~refs:[] ~depth:1 st ])
  in
  let kind = Gen.oneofl [ Attr.Plain; Attr.Generic; Attr.Text; Attr.Void ] st in
  let g =
    Grammar.make_exn ~start:"P0"
      [
        Production.v "P0"
          (Expr.seq
             [
               Expr.alt attempts;
               Expr.chr ';';
               Expr.star
                 (Expr.seq [ Expr.member "T" (Gen.bool st) name_; Expr.chr ';' ]);
             ]);
        Production.v
          ~attrs:(Attr.v ~kind ~visibility:Attr.Private ())
          "R" (Expr.record "T" name_);
      ]
  in
  (g, List.init 8 (fun _ -> gen_input g st))

(* Alternatives sharing a prefix, which prefix factoring turns into a
   [Splice] of the differing tails. *)
let gen_prefixed_grammar st =
  let prefix = gen_expr ~refs:[ "P1" ] ~depth:2 st in
  let kind = Gen.oneofl [ Attr.Plain; Attr.Generic; Attr.Text; Attr.Void ] st in
  Grammar.make_exn ~start:"P0"
    [
      Production.v
        ~attrs:(Attr.v ~kind ~visibility:Attr.Private ())
        "P0"
        (Expr.alt
           (List.init
              (2 + Gen.int_bound 1 st)
              (fun _ ->
                Expr.seq [ prefix; gen_expr ~refs:[ "P1" ] ~depth:2 st ])));
      Production.v "P1" (gen_expr ~refs:[] ~depth:2 st);
    ]

(* Every shape the engine fuses: a one-byte test (a character, a class
   or [.], bare or under [void:], [$( )], [x:] or [@N( )]) under [*],
   [+], [?], [&] or [!]. Each shape also appears under the wrappers that
   compile it lean, and through a production that predicates and Text
   or Void kinds reach as a recognizer, so both the value-building and
   the lean compilation of every shape meet the reference. *)
let gen_byte_test st =
  let base =
    match Gen.int_bound 2 st with
    | 0 -> Expr.chr (gen_char st)
    | 1 -> Expr.cls (gen_charset st)
    | _ -> Expr.any ()
  in
  match Gen.int_bound 4 st with
  | 0 -> base
  | 1 -> Expr.drop base
  | 2 -> Expr.token base
  | 3 -> Expr.bind "x" base
  | _ -> Expr.node "N" base

let gen_fused_shape st =
  let x = gen_byte_test st in
  match Gen.int_bound 4 st with
  | 0 -> Expr.star x
  | 1 -> Expr.plus x
  | 2 -> Expr.opt x
  | 3 -> Expr.and_ x
  | _ -> Expr.not_ x

let gen_fused_item ~refs st =
  match Gen.int_bound 7 st with
  | 0 -> Expr.drop (gen_fused_shape st)
  | 1 -> Expr.token (gen_fused_shape st)
  | 2 -> Expr.bind "x" (gen_fused_shape st)
  | 3 when refs <> [] ->
      let r = Expr.ref_ (List.hd refs) in
      Gen.oneofl [ r; Expr.and_ r; Expr.not_ r ] st
  | 4 -> Expr.chr (gen_char st)
  | _ -> gen_fused_shape st

let gen_fused_grammar st =
  let prod ~refs name =
    let kind = Gen.oneofl [ Attr.Plain; Attr.Generic; Attr.Text; Attr.Void ] st in
    Production.v
      ~attrs:(Attr.v ~kind ~visibility:Attr.Private ())
      name
      (Expr.seq
         (List.init (2 + Gen.int_bound 2 st) (fun _ -> gen_fused_item ~refs st)))
  in
  Grammar.make_exn ~start:"P0"
    [ prod ~refs:[ "P1" ] "P0"; prod ~refs:[] "P1" ]

(* Directed inputs rarely repeat a byte; random runs over the alphabet
   give the span loops something to scan. *)
let gen_fused_case st =
  let g, inputs = gen_case_of gen_fused_grammar st in
  let run () = String.init (Gen.int_bound 8 st) (fun _ -> gen_char st) in
  (g, inputs @ List.init 4 (fun _ -> run ()))

let arb_fused_case = QCheck.make ~print:print_case gen_fused_case

let reference_prop ?(arb = arb_case) ?(transform = Fun.id) name cfg =
  QCheck.Test.make
    ~name:(Printf.sprintf "closure = reference (%s): spans, errors, prefix offsets" name)
    ~count:250 arb
    (fun (g, inputs) ->
      let g = transform g in
      match prepare_with cfg g with
      | Error _ -> true
      | Ok eng ->
          List.for_all
            (reference_agrees ~expected:(not cfg.Config.dispatch) eng g)
            inputs)

let reference_props =
  let chunked = Config.v ~memo:Config.Chunked ~honor_transient:true () in
  [
    reference_prop "naive" Config.naive;
    reference_prop "packrat" Config.packrat;
    reference_prop "chunked+transient" chunked;
    reference_prop "optimized" Config.optimized;
    (* the optimizer's output: factoring introduces [Splice] *)
    reference_prop "optimized pipeline" Config.optimized
      ~transform:(fun g -> Pipeline.optimize g);
    reference_prop "shared prefixes, factored" Config.packrat
      ~arb:(QCheck.make ~print:print_case (gen_case_of gen_prefixed_grammar))
      ~transform:Passes.factor_prefixes;
    reference_prop "stateful, packrat" Config.packrat
      ~arb:(QCheck.make ~print:print_case gen_stateful_case);
    reference_prop "stateful, chunked" chunked
      ~arb:(QCheck.make ~print:print_case gen_stateful_case);
    reference_prop "one-byte shapes, packrat" Config.packrat ~arb:arb_fused_case;
    reference_prop "one-byte shapes, chunked+transient" chunked
      ~arb:arb_fused_case;
    reference_prop "one-byte shapes, optimized" Config.optimized
      ~arb:arb_fused_case;
  ]

(* --- printer round-trip -------------------------------------------------------------- *)

let gen_printable_expr st = gen_expr ~refs:[ "Other" ] ~depth:3 st

let arb_expr =
  QCheck.make ~print:Pretty.expr_to_string gen_printable_expr

(* Alternatives wider than the printer's margin: their "/" breaks
   become newlines, some within the first 40 characters. *)
let gen_described_expr st =
  let wide () =
    Expr.alt
      (List.init (2 + Gen.int_bound 5 st) (fun _ ->
           if Gen.bool st then gen_printable_expr st
           else Expr.str (String.make (1 + Gen.int_bound 30 st) 'a')))
  in
  match Gen.int_bound 2 st with
  | 0 -> gen_printable_expr st
  | 1 -> wide ()
  | _ -> Expr.seq [ gen_printable_expr st; wide () ]

(* [Pretty.describe] as the engine and the coverage arms computed it
   before it stopped printing early. *)
let model_describe e =
  let s = Pretty.expr_to_string e in
  if String.length s <= 40 then s else String.sub s 0 37 ^ "..."

let printer_props =
  [
    QCheck.Test.make ~name:"pretty output reparses to an equal expression"
      ~count:500 arb_expr (fun e ->
        match Meta_parser.parse_expr (Pretty.expr_to_string e) with
        | Ok e' -> Expr.equal e e'
        | Error _ -> false);
    QCheck.Test.make ~name:"describe is the printed expression cut to 40"
      ~count:500
      (QCheck.make ~print:Pretty.expr_to_string gen_described_expr)
      (fun e -> Pretty.describe e = model_describe e);
  ]

(* --- IR traversals ---------------------------------------------------------------------- *)

(* The traversals as they were written over [iter_children] — a ref and
   a closure per node, a hash table per [refs] — kept as the models of
   the direct recursions that replaced them. *)
let model_fold f acc e =
  let rec go acc e =
    let acc = f acc e in
    let r = ref acc in
    Expr.iter_children (fun c -> r := go !r c) e;
    !r
  in
  go acc e

let model_refs e =
  let seen = Hashtbl.create 16 in
  List.rev
    (model_fold
       (fun acc (e : Expr.t) ->
         match e.it with
         | Expr.Ref n when not (Hashtbl.mem seen n) ->
             Hashtbl.add seen n ();
             n :: acc
         | _ -> acc)
       [] e)

let model_size e = model_fold (fun n _ -> n + 1) 0 e

let model_is_stateful e =
  model_fold
    (fun acc (e : Expr.t) ->
      acc || match e.it with Expr.Record _ | Expr.Member _ -> true | _ -> false)
    false e

(* Expressions over a few names, some with a subtree shared between
   two sites as the inliner leaves them. *)
let gen_traversal_expr st =
  let e = gen_expr ~refs:[ "A"; "B"; "C" ] ~depth:4 st in
  if Gen.bool st then e
  else Expr.alt [ e; Expr.seq [ gen_expr ~refs:[ "C"; "D" ] ~depth:2 st; e ] ]

let arb_traversal_expr =
  QCheck.make ~print:Pretty.expr_to_string gen_traversal_expr

let nodes e = List.rev (model_fold (fun acc x -> x :: acc) [] e)

let children e =
  let acc = ref [] in
  Expr.iter_children (fun c -> acc := c :: !acc) e;
  List.rev !acc

let traversal_props =
  [
    QCheck.Test.make ~name:"map_children Fun.id returns every node itself"
      ~count:300 arb_traversal_expr (fun e ->
        List.for_all (fun x -> Expr.map_children Fun.id x == x) (nodes e));
    QCheck.Test.make ~name:"map_children shares every child it does not change"
      ~count:300 arb_traversal_expr (fun e ->
        List.for_all
          (fun x ->
            List.for_all
              (fun target ->
                let y =
                  Expr.map_children
                    (fun c -> if c == target then Expr.fail "changed" else c)
                    x
                in
                y != x
                && List.for_all2
                     (fun c c' -> if c == target then c' != c else c' == c)
                     (children x) (children y))
              (children x))
          (nodes e));
    QCheck.Test.make
      ~name:"fold, refs, size and is_stateful agree with their models"
      ~count:300 arb_traversal_expr (fun e ->
        let pre = Expr.fold (fun acc x -> x :: acc) [] e in
        List.length pre = List.length (nodes e)
        && List.for_all2 ( == ) (List.rev pre) (nodes e)
        && Expr.refs e = model_refs e
        && Expr.size e = model_size e
        && Expr.is_stateful e = model_is_stateful e
        && List.for_all
             (fun x -> Expr.is_stateful x = model_is_stateful x)
             (nodes e));
    QCheck.Test.make ~name:"passes return what they do not change physically equal"
      ~count:200
      (QCheck.make ~print:(fun g -> Pretty.grammar_to_string g) gen_grammar)
      (fun g ->
        List.for_all
          (fun (p : Pass.t) ->
            let g' = p.run (Analysis_ctx.create g) g in
            let untouched =
              List.for_all
                (fun (q : Production.t) ->
                  match Grammar.find g q.name with
                  | Some orig -> (not (Production.equal orig q)) || orig == q
                  | None -> true)
                (Grammar.productions g')
            in
            let same =
              Grammar.length g = Grammar.length g'
              && List.for_all2 ( == ) (Grammar.productions g)
                   (Grammar.productions g')
            in
            untouched
            && ((not same) || g' == g)
            && (g' != g || same))
          (Pipeline.passes ()));
  ]

(* --- module print/parse round-trip ------------------------------------------------------- *)

let gen_attrs st =
  Attr.v
    ~kind:(Gen.oneofl [ Attr.Plain; Attr.Generic; Attr.Text; Attr.Void ] st)
    ~visibility:(Gen.oneofl [ Attr.Public; Attr.Private ] st)
    ~memo:(Gen.oneofl [ Attr.Memo_auto; Attr.Memo_always; Attr.Memo_never ] st)
    ~inline:(Gen.oneofl [ Attr.Inline_auto; Attr.Inline_always; Attr.Inline_never ] st)
    ~with_location:(Gen.bool st) ()

let gen_module st =
  (* A base module plus a modifying module, exercising every item kind
     and dependency form the printer can emit. *)
  let base_items =
    List.init
      (1 + Gen.int_bound 3 st)
      (fun i ->
        Module_ast.define ~attrs:(gen_attrs st)
          (Printf.sprintf "P%d" i)
          (Expr.alt_labeled
             [
               { Expr.label = Some "A"; body = gen_expr ~refs:[ "P0" ] ~depth:2 st };
               { Expr.label = Some "B"; body = gen_expr ~refs:[] ~depth:2 st };
             ]))
  in
  let base = Module_ast.v ~params:[ "S" ] "gen.Base" base_items in
  let ext_items =
    [
      Module_ast.override "P0" (gen_expr ~refs:[] ~depth:2 st);
      Module_ast.add ~placement:(Gen.oneofl
        [ Module_ast.Append; Module_ast.Prepend;
          Module_ast.Before "A"; Module_ast.After "B" ] st)
        "P0"
        [ { Expr.label = Some "C"; body = gen_expr ~refs:[] ~depth:2 st } ];
      Module_ast.remove "P0" [ "A" ];
      Module_ast.define ~attrs:(gen_attrs st) "Q" (gen_expr ~refs:[] ~depth:2 st);
    ]
  in
  let ext =
    Module_ast.v
      ~deps:
        [
          Module_ast.modify ~alias:"Base" ~args:[ "X" ] "gen.Base";
          Module_ast.import ~args:[] "gen.Other";
        ]
      ~params:[ "X" ] "gen.Ext" ext_items
  in
  [ base; ext ]

let arb_modules =
  QCheck.make
    ~print:(fun ms ->
      String.concat "\n" (List.map Meta_print.module_to_string ms))
    gen_module

let module_props =
  [
    QCheck.Test.make ~name:"module printer output reparses stably" ~count:300
      arb_modules (fun ms ->
        let printed =
          String.concat "\n" (List.map Meta_print.module_to_string ms)
        in
        match Meta_parser.parse_modules_string printed with
        | Error _ -> false
        | Ok ms' ->
            String.equal printed
              (String.concat "\n" (List.map Meta_print.module_to_string ms')));
  ]

(* --- meta-parser robustness --------------------------------------------------------------- *)

let fuzz_props =
  [
    QCheck.Test.make ~name:"meta parser never raises on random bytes"
      ~count:1000
      QCheck.(string_of_size (Gen.int_bound 60))
      (fun junk ->
        match Meta_parser.parse_modules_string junk with
        | Ok _ | Error _ -> true);
    QCheck.Test.make ~name:"meta parser never raises on mangled grammars"
      ~count:300
      QCheck.(pair (int_bound 200) (int_bound 255))
      (fun (pos, byte) ->
        (* Take a real grammar and corrupt one byte. *)
        let text = List.hd Grammars.Calc.texts in
        let pos = pos mod String.length text in
        let mangled =
          String.mapi
            (fun i c -> if i = pos then Char.chr byte else c)
            text
        in
        match Meta_parser.parse_modules_string mangled with
        | Ok _ | Error _ -> true);
  ]

(* --- engine robustness ---------------------------------------------------------------- *)

let engine_fuzz_props =
  let minic = lazy (Engine.prepare_exn (Pipeline.optimize (Grammars.Minic.grammar ()))) in
  [
    QCheck.Test.make ~name:"minic engine never raises on random bytes"
      ~count:500
      QCheck.(string_of_size (Gen.int_bound 120))
      (fun junk ->
        match Engine.parse (Lazy.force minic) junk with
        | Ok _ | Error _ -> true);
    QCheck.Test.make
      ~name:"minic engine never raises on corrupted real programs" ~count:200
      QCheck.(pair (int_bound 5000) (int_bound 255))
      (fun (pos, byte) ->
        let src = Grammars.Corpus.minic (Rng.create 17) ~functions:3 in
        let pos = pos mod String.length src in
        let bad =
          String.mapi (fun i c -> if i = pos then Char.chr byte else c) src
        in
        match Engine.parse (Lazy.force minic) bad with
        | Ok _ | Error _ -> true);
  ]

(* --- resource governor -------------------------------------------------------------- *)

(* The governor's contract, in property form: under finite limits a run
   always returns a result — no exception escapes — and a run that does
   not trip observes exactly what the unlimited run does. *)

type gov_obs =
  | GAccept
  | GReject of int
  | GTrip of Limits.which * int  (* which budget, farthest position *)

let gov_observe eng input =
  match Engine.parse eng input with
  | Ok _ -> GAccept
  | Error e -> (
      match Parse_error.exhausted_which e with
      | Some w -> GTrip (w, e.Parse_error.position)
      | None -> GReject e.Parse_error.position)

let gov_print = function
  | GAccept -> "accept"
  | GReject p -> Printf.sprintf "reject@%d" p
  | GTrip (w, p) -> Printf.sprintf "trip %s@%d" (Limits.which_name w) p

let governor_props =
  let calc = lazy (Pipeline.optimize (Grammars.Calc.grammar ())) in
  let calc_eng cfg limits =
    lazy
      (Engine.prepare_exn
         ~config:(Config.with_limits limits cfg)
         (Lazy.force calc))
  in
  let calc_h = calc_eng Config.optimized Limits.hardened in
  let gen_adversarial st =
    let scale = 1 + Gen.int_bound 4000 st in
    let shapes = Grammars.Corpus.adversarial ~scale in
    List.nth shapes (Gen.int_bound (List.length shapes - 1) st)
  in
  let arb_adversarial =
    QCheck.make
      ~print:(fun (name, input) ->
        Printf.sprintf "%s (%d bytes)" name (String.length input))
      gen_adversarial
  in
  [
    (* On the designed hostile inputs: a raise fails the test, and a
       second run, on the memo scratch the first one parked, must end
       the same way. *)
    QCheck.Test.make
      ~name:"hardened calc never raises and trips the same way twice \
             (adversarial)"
      ~count:600 arb_adversarial (fun (_, input) ->
        let a = gov_observe (Lazy.force calc_h) input in
        let b = gov_observe (Lazy.force calc_h) input in
        if a <> b then
          QCheck.Test.fail_reportf "first: %s, second: %s" (gov_print a)
            (gov_print b)
        else true);
    (* On random grammars with budgets small enough that most runs trip:
       a run that does not trip must agree with the unlimited one. *)
    QCheck.Test.make
      ~name:"random tiny budgets: a run trips or matches the unlimited run"
      ~count:400
      (QCheck.pair arb_case
         (QCheck.make
            ~print:(fun (f, d) -> Printf.sprintf "fuel=%d depth=%d" f d)
            (Gen.pair (Gen.map (( + ) 1) (Gen.int_bound 300))
               (Gen.map (( + ) 1) (Gen.int_bound 24)))))
      (fun ((g, inputs), (fuel, max_depth)) ->
        let limits = Limits.v ~fuel ~max_depth () in
        match
          ( Engine.prepare ~config:(Config.with_limits limits Config.optimized) g,
            Engine.prepare ~config:Config.optimized g )
        with
        | Ok governed, Ok free ->
            List.for_all
              (fun input ->
                match gov_observe governed input with
                | GTrip _ -> true
                | GAccept | GReject _ ->
                    full_equal (observe_full governed input)
                      (observe_full free input))
              inputs
        | Error _, Error _ -> true
        | _ -> false);
    (* Memo-budget exhaustion degrades instead of failing: a tiny memo
       budget must not change any observable outcome. *)
    QCheck.Test.make ~name:"memo degradation changes nothing observable"
      ~count:300
      (QCheck.pair arb_case (QCheck.make (Gen.int_bound 2048)))
      (fun ((g, inputs), budget) ->
        let limits = Limits.v ~max_memo_bytes:budget () in
        let degraded cfg = Config.with_limits limits cfg in
        List.for_all
          (fun cfg ->
            match
              (Engine.prepare ~config:cfg g,
               Engine.prepare ~config:(degraded cfg) g)
            with
            | Ok full, Ok capped ->
                List.for_all
                  (fun input ->
                    full_equal (observe_full full input)
                      (observe_full capped input))
                  inputs
            | Error _, Error _ -> true
            | _ -> false)
          [ Config.optimized; Config.packrat ]);
    (* The unlimited default really is governance-free at the API level:
       same observations as a finite-but-huge budget. *)
    QCheck.Test.make ~name:"huge finite budgets behave like unlimited"
      ~count:200 arb_case (fun (g, inputs) ->
        let roomy =
          Limits.v ~fuel:100_000_000 ~max_depth:100_000
            ~max_memo_bytes:(1 lsl 40) ~max_input_bytes:(1 lsl 30) ()
        in
        List.for_all
          (fun cfg ->
            match
              (Engine.prepare ~config:cfg g,
               Engine.prepare ~config:(Config.with_limits roomy cfg) g)
            with
            | Ok free, Ok governed ->
                List.for_all
                  (fun input ->
                    full_equal (observe_full free input)
                      (observe_full governed input))
                  inputs
            | Error _, Error _ -> true
            | _ -> false)
          [ Config.optimized; Config.packrat ]);
  ]

(* --- input representations ------------------------------------------------------------ *)

(* The zero-copy input layer: the same document parsed through a
   string-backed and a Bigarray-backed [Input.t] must be byte-identical
   in every observable — value, consumed offset, error position,
   expected set, error kind and every [Stats] counter — governed and
   ungoverned. This is the invariant that lets
   [Source.map_file]/[rml parse --mmap] claim "same parse, no copy". *)

let big_of_string s =
  let b =
    Bigarray.Array1.create Bigarray.char Bigarray.c_layout (String.length s)
  in
  String.iteri (Bigarray.Array1.set b) s;
  Input.of_bigstring b

let rep_observe eng input =
  let o = Engine.run_input eng input in
  let result =
    match o.Engine.result with
    | Ok v -> Ok v
    | Error e ->
        Error
          ( e.Parse_error.position,
            e.Parse_error.expected,
            e.Parse_error.consumed,
            e.Parse_error.kind )
  in
  (result, o.Engine.consumed, Stats.fields o.Engine.stats)

let rep_equal (ra, ca, sa) (rb, cb, sb) =
  ca = cb && sa = sb
  &&
  match (ra, rb) with
  | Ok va, Ok vb -> Value.equal va vb
  | Error ea, Error eb -> ea = eb
  | Ok _, Error _ | Error _, Ok _ -> false

let input_rep_props =
  let governed cfg =
    Config.with_limits (Limits.v ~fuel:200_000 ~max_depth:10_000 ()) cfg
  in
  List.map
    (fun (tag, arb, cfg) ->
      QCheck.Test.make
        ~name:
          (Printf.sprintf "string = bigarray: values, errors, stats (%s)" tag)
        ~count:200 arb
        (fun (g, inputs) ->
          match prepare_with cfg g with
          | Error _ -> true
          | Ok eng ->
              List.for_all
                (fun text ->
                  rep_equal
                    (rep_observe eng (Input.of_string text))
                    (rep_observe eng (big_of_string text)))
                inputs))
    [
      ("optimized", arb_case, Config.optimized);
      ("packrat", arb_case, Config.packrat);
      ("naive", arb_case, Config.naive);
      ("optimized governed", arb_case, governed Config.optimized);
      ("packrat governed", arb_case, governed Config.packrat);
      ("one-byte shapes, optimized", arb_fused_case, Config.optimized);
      ("one-byte shapes, naive", arb_fused_case, Config.naive);
    ]
  @ [
      QCheck.Test.make
        ~name:"string = bigarray on prefixes (require_eof:false)" ~count:150
        arb_case
        (fun (g, inputs) ->
          match (prepare_with Config.optimized g, prepare_with Config.packrat g) with
          | Ok opt, Ok packrat ->
              List.for_all
                (fun text ->
                  List.for_all
                    (fun eng ->
                      let a =
                        Engine.run_input eng ~require_eof:false
                          (Input.of_string text)
                      in
                      let b =
                        Engine.run_input eng ~require_eof:false
                          (big_of_string text)
                      in
                      a.Engine.consumed = b.Engine.consumed
                      && Result.is_ok a.Engine.result
                         = Result.is_ok b.Engine.result
                      && Stats.fields a.Engine.stats
                         = Stats.fields b.Engine.stats)
                    [ opt; packrat ])
                inputs
          | Error _, Error _ -> true
          | _ -> false);
    ]

(* --- recognizer (voidified) equivalence ----------------------------------------------- *)

(* The contract behind [rml parse --recognize] and the batch ladder's
   recognizer rung, in property form: erasing every production kind to
   Void changes no verdict, no consumed-byte count, no error position
   and no expected set — kinds only shape semantic values. On the memo
   side, the per-chunk [Limits.chunk_cost] can only shrink (no value
   slots survive erasure) while chunk coverage can only grow: lean
   calls to value-carrying slots read the table without filling it,
   but every voidified slot is value-free and gets the whole protocol.
   So the total charge is compared as cheaper-per-chunk over a
   superset of positions — and whenever coverage does not grow, the
   total must shrink outright. Checked with and without FIRST-set
   dispatch, governed and ungoverned: 4 configurations x 150 cases =
   600 random grammars. *)

let voidify g =
  match Batch.recognizer_erase g with
  | Some g' -> g'
  | None -> QCheck.Test.fail_report "erasure broke a well-formed grammar"

let recognizer_props =
  let chunk_charge eng (st : Stats.t) =
    st.Stats.chunks_allocated
    * Limits.chunk_cost
        ~value_slots:(Engine.memo_value_slots eng)
        (Engine.memo_slots eng)
  in
  let obs (o : Engine.outcome) =
    match o.Engine.result with
    | Ok _ -> (true, o.Engine.consumed, 0, [])
    | Error e ->
        ( false,
          o.Engine.consumed,
          e.Parse_error.position,
          List.sort_uniq compare e.Parse_error.expected )
  in
  let governed cfg =
    Config.with_limits (Limits.v ~fuel:200_000 ~max_depth:10_000 ()) cfg
  in
  (* chunked memo without FIRST-set dispatch *)
  let chunked = Config.v ~memo:Config.Chunked ~honor_transient:true () in
  List.map
    (fun (tag, cfg) ->
      QCheck.Test.make
        ~name:
          (Printf.sprintf
             "voidified = original: verdicts, consumed, expected; memo \
              charge <= (%s)"
             tag)
        ~count:150 arb_case
        (fun (g, inputs) ->
          match (prepare_with cfg g, prepare_with cfg (voidify g)) with
          | Ok orig, Ok recog ->
              Engine.memo_value_slots recog = 0
              && Limits.chunk_cost
                   ~value_slots:(Engine.memo_value_slots recog)
                   (Engine.memo_slots recog)
                 <= Limits.chunk_cost
                      ~value_slots:(Engine.memo_value_slots orig)
                      (Engine.memo_slots orig)
              && List.for_all
                   (fun input ->
                     let a = Engine.run orig input
                     and b = Engine.run recog input in
                     let ca = a.Engine.stats.Stats.chunks_allocated
                     and cb = b.Engine.stats.Stats.chunks_allocated in
                     if obs a <> obs b then
                       QCheck.Test.fail_reportf "observation differs on %S"
                         input
                     else if cb < ca then
                       QCheck.Test.fail_reportf
                         "voidified chunk coverage shrank on %S: %d < %d"
                         input cb ca
                     else if
                       cb = ca
                       && chunk_charge recog b.Engine.stats
                          > chunk_charge orig a.Engine.stats
                     then
                       QCheck.Test.fail_reportf
                         "memo charge grew at equal coverage on %S: %d > %d"
                         input
                         (chunk_charge recog b.Engine.stats)
                         (chunk_charge orig a.Engine.stats)
                     else true)
                   inputs
          | Error _, Error _ -> true
          | _ -> false))
    [
      ("optimized", Config.optimized);
      ("chunked", chunked);
      ("optimized governed", governed Config.optimized);
      ("chunked governed", governed chunked);
    ]

(* --- charset algebra -------------------------------------------------------------------- *)

let arb_charset =
  QCheck.make
    ~print:(fun s -> Charset.to_string s)
    (fun st ->
      let s = ref Charset.empty in
      for _ = 0 to Gen.int_bound 6 st do
        let a = Gen.char st and b = Gen.char st in
        s := Charset.union !s (Charset.range (min a b) (max a b))
      done;
      !s)

let charset_props =
  [
    QCheck.Test.make ~name:"printer output is lossless via meta parser"
      ~count:300 arb_charset (fun s ->
        match Meta_parser.parse_expr (Charset.to_string s) with
        | Ok { Expr.it = Expr.Cls s'; _ } -> Charset.equal s s'
        | Ok { Expr.it = Expr.Any; _ } -> Charset.equal s Charset.full
        | Ok { Expr.it = Expr.Chr c; _ } -> Charset.equal s (Charset.singleton c)
        | _ -> false);
    QCheck.Test.make ~name:"de morgan" ~count:300
      (QCheck.pair arb_charset arb_charset) (fun (a, b) ->
        Charset.equal
          (Charset.complement (Charset.union a b))
          (Charset.inter (Charset.complement a) (Charset.complement b)));
    QCheck.Test.make ~name:"cardinal of disjoint union adds" ~count:300
      (QCheck.pair arb_charset arb_charset) (fun (a, b) ->
        let b = Charset.diff b a in
        Charset.cardinal (Charset.union a b)
        = Charset.cardinal a + Charset.cardinal b);
  ]

(* --- charset against a bool-array model -------------------------------------------------- *)

(* A set's model is the membership of each of the 256 bytes. Models
   are drawn at densities from empty to full, and pairs are often one
   or two bytes apart (or equal), so word boundaries, equal sets and
   near misses all come up. Sets are built from a model by [of_list]
   or, for the hash property, by [add] in reverse order. *)
let model_of s = Array.init 256 (fun b -> Charset.mem (Char.chr b) s)
let members m = List.filter (fun c -> m.(Char.code c)) (List.init 256 Char.chr)
let set_of m = Charset.of_list (members m)

let gen_model st =
  let p = Gen.oneofl [ 0.; 0.03; 0.5; 0.97; 1. ] st in
  Array.init 256 (fun _ -> Gen.float_bound_exclusive 1. st < p)

let gen_model_pair st =
  let a = gen_model st in
  if Gen.bool st then (a, gen_model st)
  else
    let b = Array.copy a in
    for _ = 1 to Gen.int_bound 2 st do
      let i = Gen.int_bound 255 st in
      b.(i) <- not b.(i)
    done;
    (a, b)

let print_model m = Charset.to_string (set_of m)
let arb_model = QCheck.make ~print:print_model gen_model

let arb_model_pair =
  QCheck.make ~print:(QCheck.Print.pair print_model print_model) gen_model_pair

(* The order [Charset.compare] promises: the set holding the highest
   byte on which the two differ is the greater. *)
let model_compare a b =
  let rec go i =
    if i < 0 then 0
    else if a.(i) = b.(i) then go (i - 1)
    else if a.(i) then 1
    else -1
  in
  go 255

let map_model2 f a b = Array.init 256 (fun i -> f a.(i) b.(i))

let charset_model_props =
  [
    QCheck.Test.make ~name:"mem, iter, cardinal and is_empty agree with the model"
      ~count:300 arb_model (fun m ->
        let s = set_of m in
        let seen = ref [] in
        Charset.iter (fun c -> seen := c :: !seen) s;
        model_of s = m
        && List.rev !seen = members m
        && Charset.elements s = members m
        && Charset.cardinal s = List.length (members m)
        && Charset.is_empty s = (members m = []));
    QCheck.Test.make ~name:"add and remove agree with the model" ~count:300
      (QCheck.pair arb_model QCheck.char) (fun (m, c) ->
        let s = set_of m in
        let with_ v = Array.mapi (fun i b -> if i = Char.code c then v else b) m in
        model_of (Charset.add c s) = with_ true
        && model_of (Charset.remove c s) = with_ false
        && model_of s = m);
    QCheck.Test.make ~name:"union, inter, diff and complement agree with the model"
      ~count:300 arb_model_pair (fun (ma, mb) ->
        let a = set_of ma and b = set_of mb in
        model_of (Charset.union a b) = map_model2 ( || ) ma mb
        && model_of (Charset.inter a b) = map_model2 ( && ) ma mb
        && model_of (Charset.diff a b) = map_model2 (fun x y -> x && not y) ma mb
        && model_of (Charset.complement a) = Array.map not ma
        && model_of a = ma && model_of b = mb);
    QCheck.Test.make ~name:"equal and compare agree with the model" ~count:300
      arb_model_pair (fun (ma, mb) ->
        let a = set_of ma and b = set_of mb in
        Charset.equal a b = (ma = mb)
        && Int.compare (Charset.compare a b) 0 = model_compare ma mb
        && Int.compare (Charset.compare b a) 0 = model_compare mb ma);
    QCheck.Test.make ~name:"hash agrees with equal" ~count:300 arb_model_pair
      (fun (ma, mb) ->
        let a = set_of ma and b = set_of mb in
        let a' =
          List.fold_left (fun s c -> Charset.add c s) Charset.empty
            (List.rev (members ma))
        in
        Charset.equal a a'
        && Charset.hash a = Charset.hash a'
        && Charset.hash a = Charset.hash (Charset.union a Charset.empty)
        && ((not (Charset.equal a b)) || Charset.hash a = Charset.hash b));
  ]

(* --- farthest-failure tracker ------------------------------------------------ *)

(* The bounded-list tracker the id-based [Expected] replaced, transcribed
   as the model: strings recorded directly, deduplicated by string
   equality, the 32-entry cap applied on every record. *)
module Expected_model = struct
  type t = { mutable farthest : int; entries : string array; mutable n : int }

  let create () =
    { farthest = -1; entries = Array.make Expected.max_entries ""; n = 0 }

  let record t pos desc =
    if pos > t.farthest then (
      t.farthest <- pos;
      t.entries.(0) <- desc;
      t.n <- 1)
    else if pos = t.farthest then (
      let dup = ref false in
      for i = 0 to t.n - 1 do
        if String.equal desc t.entries.(i) then dup := true
      done;
      if not !dup then
        if t.n < Expected.max_entries then (
          t.entries.(t.n) <- desc;
          t.n <- t.n + 1)
        else
          let worst = ref 0 in
          for i = 1 to t.n - 1 do
            if String.compare t.entries.(i) t.entries.(!worst) > 0 then
              worst := i
          done;
          if String.compare desc t.entries.(!worst) < 0 then
            t.entries.(!worst) <- desc)

  let descriptions t = Array.to_list (Array.sub t.entries 0 t.n)
end

(* 48 distinct labels, plus 16 more ids whose strings repeat one of
   them — distinct ids may share a description (a one-character class
   and its literal, say). *)
let tracker_labels = Array.init 48 (Printf.sprintf "lbl%02d")
let tracker_ids = 64
let tracker_label i = tracker_labels.(if i < 48 then i else (i - 48) * 3)

(* A record lands at the farthest position plus a delta — mostly 0,
   so one position often sees more distinct labels than the cap. *)
type tracker_op = Record of int * int  (* delta, id *) | Reset

let gen_tracker_ops =
  let delta =
    Gen.frequency
      [
        (60, Gen.return 0);
        (1, Gen.int_range 1 3);
        (8, Gen.int_range (-3) (-1));
      ]
  in
  let id = Gen.int_bound (tracker_ids - 1) in
  Gen.list_size (Gen.int_bound 500)
    (Gen.frequency
       [
         (40, Gen.map2 (fun d id -> Record (d, id)) delta id);
         (1, Gen.return Reset);
       ])

let print_tracker_ops ops =
  String.concat " "
    (List.map
       (function
         | Record (d, id) -> Printf.sprintf "%+d:%d" d id | Reset -> "reset")
       ops)

let expected_props =
  [
    QCheck.Test.make
      ~name:"id tracker reports what the bounded-list tracker did" ~count:500
      (QCheck.make ~print:print_tracker_ops gen_tracker_ops)
      (fun ops ->
        let names = Expected.names () in
        let ids =
          Array.init tracker_ids (fun i ->
              if i < 48 then Expected.intern names (tracker_label i)
              else Expected.fresh names (tracker_label i))
        in
        let t = Expected.create names in
        let model = ref (Expected_model.create ()) in
        List.for_all
          (fun op ->
            (match op with
            | Reset ->
                Expected.reset t;
                model := Expected_model.create ()
            | Record (d, i) ->
                let pos = max 0 (!model.Expected_model.farthest + d) in
                Expected.record t pos ids.(i);
                Expected_model.record !model pos (tracker_label i));
            Expected.farthest t = !model.Expected_model.farthest
            && Expected.descriptions t = Expected_model.descriptions !model)
          ops);
  ]

(* --- observability ---------------------------------------------------------- *)

let observed base =
  Config.with_observe (Observe.all ~ring_bytes:(1 lsl 20) ()) base

let observe_props =
  [
    QCheck.Test.make
      ~name:"profiler invocation sum equals Stats.invocations" ~count:200
      arb_case
      (fun (g, inputs) ->
        List.for_all
          (fun base ->
            match Engine.prepare ~config:(observed base) g with
            | Error _ -> true
            | Ok eng -> (
                let total =
                  List.fold_left
                    (fun acc input ->
                      acc
                      + (Engine.run eng input).Engine.stats.Stats.invocations)
                    0 inputs
                in
                match Engine.observation eng with
                | None -> false
                | Some o -> (
                    match Observe.profile o with
                    | None -> false
                    | Some p -> Profile.invocation_sum p = total)))
          [ Config.optimized; Config.packrat ]);
    QCheck.Test.make
      ~name:"observation changes no result and no counter" ~count:150 arb_case
      (fun (g, inputs) ->
        List.for_all
          (fun base ->
            match (Engine.prepare ~config:base g, Engine.prepare ~config:(observed base) g) with
            | Ok plain, Ok obs ->
                List.for_all
                  (fun input ->
                    rep_equal
                      (rep_observe plain (Input.of_string input))
                      (rep_observe obs (Input.of_string input)))
                  inputs
            | Error _, Error _ -> true
            | _ -> false)
          [ Config.optimized; Config.packrat ]);
  ]

let () =
  let to_alco = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "props"
    [
      ("engine-equivalence", to_alco engine_props);
      ("reference-equivalence", to_alco reference_props);
      ("input-representation", to_alco input_rep_props);
      ("pass-equivalence", to_alco pass_props);
      ("registry-pass-equivalence", to_alco registry_pass_props);
      ("printer", to_alco printer_props);
      ("traversal", to_alco traversal_props);
      ("module-printer", to_alco module_props);
      ("fuzz", to_alco fuzz_props);
      ("engine-fuzz", to_alco engine_fuzz_props);
      ("governor", to_alco governor_props);
      ("recognizer-equivalence", to_alco recognizer_props);
      ("observability", to_alco observe_props);
      ("charset", to_alco charset_props);
      ("charset-model", to_alco charset_model_props);
      ("expected", to_alco expected_props);
    ]
