(* A reference interpreter: the engine's parsing semantics written as
   directly as possible, for the property suites to test the engine
   against.

   It is Ford's recursive-descent reading of a PEG, transcribed over
   [Expr.desc] with no memo, no FIRST-set dispatch, no transients, no
   recognizer mode, no governor and no arenas. Each constructor is one
   match arm that says what it matches and what value it yields, so a
   reader can check an arm against the documentation in expr.mli and
   value.mli rather than against another optimized engine.

   - State tables are an immutable map threaded through the
     evaluation: a failed alternative, repetition step or predicate
     simply drops the tables it produced, so rollback needs no code.
   - Values are built with the public [Value] constructors, spans
     included: a generic production or [Node] spans what its body
     matched, and so does the tuple of a sequence.
   - Failures are recorded at the farthest position reached, with the
     same descriptions the engine uses; nothing is recorded inside a
     predicate body, where a failure is not a parse failure. The
     predicate records at its own position instead.
   - Exponential on ambiguous grammars, as recursive descent without
     memoization is: meant for small inputs. *)

open Rats
module SMap = Map.Make (String)
module SSet = Set.Make (String)

type tables = SSet.t SMap.t

type ctx = {
  grammar : Grammar.t;
  input : string;
  len : int;
  unit_prods : (string, bool) Hashtbl.t;
  mutable far : int;  (* farthest failure position, -1 if none *)
  mutable expected : string list;  (* what failed at [far] *)
}

(* --- statically void expressions ------------------------------------------ *)

(* A repetition over a body that yields [Unit] on every success
   collects nothing and yields [Unit] itself, rather than a list of
   units. "Every success" is decided statically: literals, predicates
   and drops yield [Unit], void productions do, and plain productions
   do when their body does — the greatest fixpoint, so a recursive
   plain production built from literals is void too. *)
let rec void_expr ctx (e : Expr.t) =
  match e.it with
  | Empty | Fail _ | Chr _ | Str _ | And _ | Not _ | Drop _ -> true
  | Any | Cls _ | Token _ | Node _ | Bind _ -> false
  | Ref n -> ( try Hashtbl.find ctx.unit_prods n with Not_found -> false)
  | Seq es -> List.for_all (void_expr ctx) es
  | Alt alts -> List.for_all (fun (a : Expr.alt) -> void_expr ctx a.body) alts
  | Star x | Plus x | Opt x | Splice x | Record (_, x) | Member (_, _, x) ->
      void_expr ctx x

let compute_void_prods ctx =
  let prods = Grammar.productions ctx.grammar in
  List.iter
    (fun (p : Production.t) ->
      Hashtbl.replace ctx.unit_prods p.name
        (p.attrs.Attr.kind = Attr.Void || p.attrs.Attr.kind = Attr.Plain))
    prods;
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (p : Production.t) ->
        if
          p.attrs.Attr.kind = Attr.Plain
          && Hashtbl.find ctx.unit_prods p.name
          && not (void_expr ctx p.expr)
        then (
          Hashtbl.replace ctx.unit_prods p.name false;
          changed := true))
      prods
  done

(* --- failures --------------------------------------------------------------- *)

let record ctx ~quiet pos desc =
  if not quiet then
    if pos > ctx.far then (
      ctx.far <- pos;
      ctx.expected <- [ desc ])
    else if pos = ctx.far && not (List.mem desc ctx.expected) then
      ctx.expected <- desc :: ctx.expected

let truncate s = if String.length s <= 40 then s else String.sub s 0 37 ^ "..."

let and_desc (x : Expr.t) =
  "&"
  ^
  match x.it with
  | Chr c -> Pretty.quote_char c
  | Cls set -> Charset.to_string set
  | Any -> "any character"
  | _ -> truncate (Pretty.expr_to_string x)

let not_desc x = "not " ^ truncate (Pretty.expr_to_string x)

(* --- evaluation ------------------------------------------------------------- *)

(* [eval ctx ~quiet tables e pos] is [Some (stop, value, tables')] when
   [e] matches the input from [pos] to [stop], or [None]. *)
let rec eval ctx ~quiet tables (e : Expr.t) pos =
  let text stop = String.sub ctx.input pos (stop - pos) in
  let fail desc =
    record ctx ~quiet pos desc;
    None
  in
  match e.it with
  | Empty -> Some (pos, Value.Unit, tables)
  | Fail msg -> fail msg
  | Any ->
      if pos < ctx.len then Some (pos + 1, Value.Chr ctx.input.[pos], tables)
      else fail "any character"
  | Chr c ->
      if pos < ctx.len && ctx.input.[pos] = c then Some (pos + 1, Value.Unit, tables)
      else fail (Pretty.quote_char c)
  | Str s ->
      (* a literal fails at its first mismatching byte *)
      let n = String.length s in
      let rec matched i =
        if i < n && pos + i < ctx.len && ctx.input.[pos + i] = s.[i] then
          matched (i + 1)
        else i
      in
      let m = matched 0 in
      if m = n then Some (pos + n, Value.Unit, tables)
      else (
        record ctx ~quiet (pos + m) (Pretty.quote_string s);
        None)
  | Cls set ->
      if pos < ctx.len && Charset.mem ctx.input.[pos] set then
        Some (pos + 1, Value.Chr ctx.input.[pos], tables)
      else fail (Charset.to_string set)
  | Ref name -> call ctx ~quiet tables name pos
  | Seq es ->
      Option.map
        (fun (stop, parts, tables) ->
          (stop, Value.seq ~span:(Span.v ~start_:pos ~stop) parts, tables))
        (collect ctx ~quiet tables es pos)
  | Alt alts ->
      List.fold_left
        (fun found (a : Expr.alt) ->
          match found with
          | Some _ -> found
          | None -> eval ctx ~quiet tables a.body pos)
        None alts
  | Star x -> Some (repeat ctx ~quiet tables x pos [])
  | Plus x ->
      Option.map
        (fun (p, v, tables) -> repeat ctx ~quiet tables x p [ v ])
        (eval ctx ~quiet tables x pos)
  | Opt x -> (
      match eval ctx ~quiet tables x pos with
      | Some _ as r -> r
      | None -> Some (pos, Value.Unit, tables))
  | And x -> (
      match eval ctx ~quiet:true tables x pos with
      | Some _ -> Some (pos, Value.Unit, tables)
      | None -> fail (and_desc x))
  | Not x -> (
      match eval ctx ~quiet:true tables x pos with
      | Some _ -> fail (not_desc x)
      | None -> Some (pos, Value.Unit, tables))
  | Bind (label, x) ->
      Option.map
        (fun (p, v, tables) -> (p, Value.bind (Some label) v, tables))
        (eval ctx ~quiet tables x pos)
  | Token x ->
      Option.map
        (fun (p, _, tables) -> (p, Value.Str (text p), tables))
        (eval ctx ~quiet tables x pos)
  | Node (name, x) ->
      Option.map
        (fun (p, v, tables) -> (p, node name pos p v, tables))
        (eval ctx ~quiet tables x pos)
  | Drop x ->
      Option.map
        (fun (p, _, tables) -> (p, Value.Unit, tables))
        (eval ctx ~quiet tables x pos)
  | Splice x ->
      (* outside a sequence, a splice's components form a tuple *)
      Option.map
        (fun (p, parts, tables) -> (p, Value.seq parts, tables))
        (tail ctx ~quiet tables x pos)
  | Record (table, x) ->
      Option.map
        (fun (p, v, tables) ->
          let set = Option.value (SMap.find_opt table tables) ~default:SSet.empty in
          (p, v, SMap.add table (SSet.add (text p) set) tables))
        (eval ctx ~quiet tables x pos)
  | Member (table, positive, x) -> (
      match eval ctx ~quiet tables x pos with
      | None -> None
      | Some (p, _, tables) as r ->
          let set = Option.value (SMap.find_opt table tables) ~default:SSet.empty in
          if SSet.mem (text p) set = positive then r
          else
            fail
              (Printf.sprintf "a name %s in %s"
                 (if positive then "recorded" else "not recorded")
                 table))

(* A generic node absorbs its body's components. *)
and node name start stop v =
  Value.node ~span:(Span.v ~start_:start ~stop) name (Value.components v)

(* A production's value is its body's, shaped by its kind. *)
and call ctx ~quiet tables name pos =
  match Grammar.find ctx.grammar name with
  | None -> invalid_arg ("Reference: undefined production " ^ name)
  | Some p ->
      Option.map
        (fun (stop, v, tables) ->
          let v =
            match p.attrs.Attr.kind with
            | Attr.Plain -> v
            | Attr.Generic -> node p.name pos stop v
            | Attr.Text -> Value.Str (String.sub ctx.input pos (stop - pos))
            | Attr.Void -> Value.Unit
          in
          (stop, v, tables))
        (eval ctx ~quiet tables p.expr pos)

(* Greedy repetition from [pos] with [acc] already matched (newest
   first). An iteration that succeeds without consuming ends the loop
   and contributes no element, though its table changes stay. *)
and repeat ctx ~quiet tables x pos acc =
  match eval ctx ~quiet tables x pos with
  | Some (p, v, tables) when p > pos -> repeat ctx ~quiet tables x p (v :: acc)
  | Some (_, _, tables) -> (pos, repeated ctx x acc, tables)
  | None -> (pos, repeated ctx x acc, tables)

and repeated ctx x acc =
  if void_expr ctx x then Value.Unit else Value.List (List.rev acc)

(* The labeled parts of a sequence, in match order: a part contributes
   its value under its [Bind] label (unlabeled [Unit]s contribute
   nothing), a [Splice] part contributes its body's parts. *)
and collect ctx ~quiet tables es pos =
  match es with
  | [] -> Some (pos, [], tables)
  | e :: rest -> (
      let part =
        match e.Expr.it with
        | Splice x -> tail ctx ~quiet tables x pos
        | Bind (label, x) ->
            Option.map
              (fun (p, v, tables) -> (p, [ (Some label, v) ], tables))
              (eval ctx ~quiet tables x pos)
        | _ ->
            Option.map
              (fun (p, v, tables) ->
                (p, (if v = Value.Unit then [] else [ (None, v) ]), tables))
              (eval ctx ~quiet tables e pos)
      in
      match part with
      | None -> None
      | Some (p, parts, tables) ->
          Option.map
            (fun (stop, more, tables) -> (stop, parts @ more, tables))
            (collect ctx ~quiet tables rest p))

(* The parts an expression contributes when spliced into a sequence:
   a choice's chosen branch is spliced in turn, a sequence contributes
   its parts, anything else is one part. *)
and tail ctx ~quiet tables (e : Expr.t) pos =
  match e.it with
  | Alt alts ->
      List.fold_left
        (fun found (a : Expr.alt) ->
          match found with
          | Some _ -> found
          | None -> tail ctx ~quiet tables a.body pos)
        None alts
  | Seq es -> collect ctx ~quiet tables es pos
  | _ -> collect ctx ~quiet tables [ e ] pos

(* --- running ---------------------------------------------------------------- *)

type outcome = {
  result : (Value.t, int * string list) result;
      (** the value, or the error position and expected set (sorted) *)
  consumed : int;  (** where the start production stopped, -1 on failure *)
}

let run ?start ?(require_eof = true) grammar input =
  let ctx =
    {
      grammar;
      input;
      len = String.length input;
      unit_prods = Hashtbl.create 16;
      far = -1;
      expected = [];
    }
  in
  compute_void_prods ctx;
  let start = Option.value start ~default:(Grammar.start grammar) in
  let error pos expected = Error (pos, List.sort_uniq compare expected) in
  match call ctx ~quiet:false SMap.empty start 0 with
  | None -> { result = error (max ctx.far 0) ctx.expected; consumed = -1 }
  | Some (stop, v, _) ->
      let result =
        if (not require_eof) || stop = ctx.len then Ok v
        else if ctx.far > stop then error ctx.far ctx.expected
        else error stop [ "end of input" ]
      in
      { result; consumed = stop }
