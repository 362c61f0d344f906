open Rats_peg
module Config = Rats_runtime.Config

let function_name i name =
  let buf = Buffer.create (String.length name + 8) in
  Buffer.add_string buf (Printf.sprintf "p_%d_" i);
  String.iter
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> Buffer.add_char buf c
      | _ -> Buffer.add_char buf '_')
    name;
  Buffer.contents buf

(* --- code templates ----------------------------------------------------- *)

type ctx = {
  analysis : Analysis.t;
  cfg : Config.t;
  fname : string -> string;  (* production name -> OCaml function name *)
  fresh : int ref;
  nslots : int;
}

let fresh ctx base =
  incr ctx.fresh;
  Printf.sprintf "__%s%d" base !(ctx.fresh)

let class_pattern set =
  let ranges = Charset.to_ranges set in
  if ranges = [] then "'\\000' when false"
  else
    String.concat " | "
      (List.map
         (fun (lo, hi) ->
           if lo = hi then Printf.sprintf "%C" lo
           else Printf.sprintf "%C .. %C" lo hi)
         ranges)

let truncate_desc s =
  if String.length s > 40 then String.sub s 0 37 ^ "..." else s

(* Expected-set description of a predicate body; the same formula as the
   interpretive engines so reports agree matcher for matcher. *)
let pred_body_desc (x : Expr.t) =
  match x.it with
  | Expr.Chr c -> Pretty.quote_char c
  | Expr.Cls set -> Charset.to_string set
  | Expr.Any -> "any character"
  | _ -> truncate_desc (Pretty.expr_to_string x)

let label_code = function
  | None -> "None"
  | Some l -> Printf.sprintf "(Some %S)" l

(* [gen ctx e pos] is an OCaml expression (as text) of type [int]; free
   variables [st] and the position variable [pos]. On success it leaves
   the semantic value in [st.value]. *)
let rec gen ctx (e : Expr.t) pos =
  match e.it with
  | Expr.Empty -> Printf.sprintf "(st.value <- Value.Unit; %s)" pos
  | Expr.Fail msg -> Printf.sprintf "(__fail st %s %S)" pos msg
  | Expr.Any ->
      Printf.sprintf
        "(if %s < st.len then (st.value <- Value.Chr (String.unsafe_get \
         st.input %s); %s + 1) else __fail st %s \"any character\")"
        pos pos pos pos
  | Expr.Chr c ->
      Printf.sprintf
        "(if %s < st.len && String.unsafe_get st.input %s = %C then (st.value \
         <- Value.Unit; %s + 1) else __fail st %s %S)"
        pos pos c pos pos (Pretty.quote_char c)
  | Expr.Str s ->
      Printf.sprintf "(__lit st %s %S %S)" pos s (Pretty.quote_string s)
  | Expr.Cls set ->
      Printf.sprintf
        "(if %s < st.len && (match String.unsafe_get st.input %s with %s -> \
         true | _ -> false) then (st.value <- Value.Chr (String.unsafe_get \
         st.input %s); %s + 1) else __fail st %s %S)"
        pos pos (class_pattern set) pos pos pos (Charset.to_string set)
  | Expr.Ref n -> Printf.sprintf "(%s st %s)" (ctx.fname n) pos
  | Expr.Seq es -> gen_seq ctx ~tail:false es pos
  | Expr.Alt alts -> gen_alt ctx ~tail:false alts pos
  | Expr.Star x -> gen_star ctx x pos
  | Expr.Plus x when Analysis.expr_yields_unit ctx.analysis x ->
      let p = fresh ctx "p" in
      let p2 = fresh ctx "p" in
      Printf.sprintf
        "(let %s = %s in if %s < 0 then -1 else let %s = %s in (st.value <- \
         Value.Unit; %s))"
        p (gen ctx x pos) p p2 (gen_star ctx x p) p2
  | Expr.Plus x ->
      let p = fresh ctx "p" in
      let first = fresh ctx "first" in
      let p2 = fresh ctx "p" in
      Printf.sprintf
        "(let %s = %s in if %s < 0 then -1 else let %s = st.value in let %s = \
         %s in ((match st.value with Value.List rest -> st.value <- \
         Value.List (%s :: rest) | _ -> ()); %s))"
        p (gen ctx x pos) p first p2
        (gen_star ctx x p)
        first p2
  | Expr.Opt x ->
      let t = fresh ctx "t" in
      let p = fresh ctx "p" in
      Printf.sprintf
        "(let %s = st.tables in let %s = %s in if %s >= 0 then %s else \
         (__restore st %s; st.value <- Value.Unit; %s))"
        t p (gen ctx x pos) p p t pos
  | Expr.And x ->
      let t = fresh ctx "t" in
      let p = fresh ctx "p" in
      let desc = "&" ^ pred_body_desc x in
      Printf.sprintf
        "(let %s = st.tables in st.quiet <- st.quiet + 1; let %s = %s in \
         st.quiet <- st.quiet - 1; __restore st %s; if %s < 0 then __fail st \
         %s %S else (st.value <- Value.Unit; %s))"
        t p (gen ctx x pos) t p pos desc pos
  | Expr.Not x ->
      let t = fresh ctx "t" in
      let p = fresh ctx "p" in
      let desc = "not " ^ truncate_desc (Pretty.expr_to_string x) in
      Printf.sprintf
        "(let %s = st.tables in st.quiet <- st.quiet + 1; let %s = %s in \
         st.quiet <- st.quiet - 1; __restore st %s; if %s >= 0 then __fail st \
         %s %S else (st.value <- Value.Unit; %s))"
        t p (gen ctx x pos) t p pos desc pos
  | Expr.Bind (l, x) ->
      let p = fresh ctx "p" in
      Printf.sprintf
        "(let %s = %s in if %s < 0 then -1 else (st.value <- Value.seq [ \
         (Some %S, st.value) ]; %s))"
        p (gen ctx x pos) p l p
  | Expr.Token x ->
      let p = fresh ctx "p" in
      Printf.sprintf
        "(let %s = %s in if %s < 0 then -1 else (st.value <- Value.Str \
         (String.sub st.input %s (%s - %s)); %s))"
        p (gen ctx x pos) p pos p pos p
  | Expr.Node (name, x) ->
      let p = fresh ctx "p" in
      Printf.sprintf
        "(let %s = %s in if %s < 0 then -1 else (st.value <- Value.node_at \
         ~start_:%s ~stop:%s %S (Value.components st.value); \
         %s))"
        p (gen ctx x pos) p pos p name p
  | Expr.Drop x ->
      let p = fresh ctx "p" in
      Printf.sprintf
        "(let %s = %s in if %s < 0 then -1 else (st.value <- Value.Unit; %s))"
        p (gen ctx x pos) p p
  | Expr.Splice x ->
      let p = fresh ctx "p" in
      Printf.sprintf
        "(let %s = %s in if %s < 0 then -1 else (st.value <- Value.seq \
         (__tail_parts st.value); %s))"
        p (gen_tail ctx x pos) p p
  | Expr.Record (table, x) ->
      let p = fresh ctx "p" in
      Printf.sprintf
        "(let %s = %s in if %s < 0 then -1 else (__record st %S %s %s; %s))"
        p (gen ctx x pos) p table pos p p
  | Expr.Member (table, positive, x) ->
      let p = fresh ctx "p" in
      let desc =
        if positive then "a name recorded in " ^ table
        else "a name not recorded in " ^ table
      in
      Printf.sprintf
        "(let %s = %s in if %s < 0 then -1 else if __member st %S %s %s = %b \
         then %s else __fail st %s %S)"
        p (gen ctx x pos) p table pos p positive p pos desc

and gen_seq ctx ~tail es pos =
  let buf = Buffer.create 256 in
  let acc = fresh ctx "a" in
  Buffer.add_string buf (Printf.sprintf "(let %s = [] in " acc);
  let final_pos =
    List.fold_left
      (fun cur (e : Expr.t) ->
        let splice, label, inner =
          match e.it with
          | Expr.Splice inner -> (true, None, inner)
          | Expr.Bind (l, inner) -> (false, Some l, inner)
          | _ -> (false, None, e)
        in
        let p = fresh ctx "p" in
        let code =
          if splice then gen_tail ctx inner cur else gen ctx inner cur
        in
        Buffer.add_string buf
          (Printf.sprintf "let %s = %s in if %s < 0 then -1 else " p code p);
        if splice then
          Buffer.add_string buf
            (Printf.sprintf
               "let %s = List.rev_append (__tail_parts st.value) %s in " acc
               acc)
        else
          Buffer.add_string buf
            (Printf.sprintf "let %s = __keep %s st.value %s in " acc
               (label_code label) acc);
        p)
      pos es
  in
  let builder = if tail then "__tailv" else "__seqv" in
  Buffer.add_string buf
    (Printf.sprintf "(st.value <- %s %s %s %s; %s))" builder pos final_pos acc
       final_pos);
  Buffer.contents buf

and gen_alt ctx ~tail alts pos =
  let t = fresh ctx "t" in
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "(let %s = st.tables in " t);
  let n = List.length alts in
  List.iteri
    (fun i (a : Expr.alt) ->
      let body_code =
        if tail then gen_tail ctx a.body pos else gen ctx a.body pos
      in
      let guarded =
        if not ctx.cfg.Config.dispatch then body_code
        else
          let first, eps = Analysis.expr_first ctx.analysis a.body in
          if eps then body_code
          else
            Printf.sprintf
              "(if %s < st.len && (match String.unsafe_get st.input %s with \
               %s -> true | _ -> false) then %s else __fail st %s %S)"
              pos pos (class_pattern first) body_code pos
              (Charset.to_string first)
      in
      let r = fresh ctx "r" in
      Buffer.add_string buf
        (Printf.sprintf
           "let %s = %s in if %s >= 0 then %s else (__restore st %s; " r
           guarded r r t);
      if i = n - 1 then Buffer.add_string buf "-1"
      else Buffer.add_string buf "st.stats_backtracks <- st.stats_backtracks + 1; ")
    alts;
  Buffer.add_string buf (String.concat "" (List.init n (fun _ -> ")")));
  Buffer.add_string buf ")";
  Buffer.contents buf

and gen_star ctx x pos =
  let loop = fresh ctx "loop" in
  let t = fresh ctx "t" in
  let p = fresh ctx "p" in
  if Analysis.expr_yields_unit ctx.analysis x then
    (* Void body: no value collection, the repetition yields Unit. *)
    Printf.sprintf
      "(let rec %s pos = let %s = st.tables in let %s = %s in if %s < 0 then \
       (__restore st %s; st.value <- Value.Unit; pos) else if %s = pos then \
       (st.value <- Value.Unit; pos) else %s %s in %s %s)"
      loop t p (gen ctx x "pos") p t p loop p loop pos
  else
    Printf.sprintf
      "(let rec %s pos acc = let %s = st.tables in let %s = %s in if %s < 0 \
       then (__restore st %s; st.value <- Value.List (List.rev acc); pos) else \
       if %s = pos then (st.value <- Value.List (List.rev acc); pos) else %s \
       %s (st.value :: acc) in %s %s [])"
      loop t p (gen ctx x "pos") p t p loop p loop pos

and gen_tail ctx (e : Expr.t) pos =
  match e.it with
  | Expr.Alt alts -> gen_alt ctx ~tail:true alts pos
  | Expr.Seq es -> gen_seq ctx ~tail:true es pos
  | Expr.Empty -> Printf.sprintf "(st.value <- __tailv %s %s []; %s)" pos pos pos
  | _ ->
      let label, inner =
        match e.it with
        | Expr.Bind (l, inner) -> (Some l, inner)
        | _ -> (None, e)
      in
      let p = fresh ctx "p" in
      Printf.sprintf
        "(let %s = %s in if %s < 0 then -1 else (st.value <- __tailv %s %s \
         (__keep %s st.value []); %s))"
        p (gen ctx inner pos) p pos p (label_code label) p

(* --- production wrappers -------------------------------------------------- *)

let shape_code (p : Production.t) ~pos0 ~pos1 =
  match p.attrs.Attr.kind with
  | Attr.Plain -> ""
  | Attr.Generic ->
      Printf.sprintf
        "st.value <- Value.node_at ~start_:%s ~stop:%s %S \
         (Value.components st.value); "
        pos0 pos1 p.name
  | Attr.Text ->
      Printf.sprintf
        "st.value <- Value.Str (String.sub st.input %s (%s - %s)); " pos0 pos1
        pos0
  | Attr.Void -> "st.value <- Value.Unit; "

let gen_production ctx ~stateful slot (p : Production.t) =
  ctx.fresh := 0;
  let body = gen ctx p.expr "pos" in
  let run =
    Printf.sprintf
      "(let __b = %s in if __b < 0 then __b else (%s__b))" body
      (shape_code p ~pos0:"pos" ~pos1:"__b")
  in
  let header = Printf.sprintf "%s st pos =" (ctx.fname p.name) in
  (* Entries of stateful productions are stamped with the state version
     they were computed at; see the engine for the soundness argument. *)
  let fresh_guard var =
    if stateful then Printf.sprintf "%s = st.version" var else "true"
  in
  match (ctx.cfg.Config.memo, slot) with
  | Config.No_memo, _ | _, -1 -> Printf.sprintf "%s\n  %s\n" header run
  | Config.Hashtable, slot ->
      Printf.sprintf
        "%s\n\
        \  let key = (pos * %d) + %d in\n\
        \  (match Hashtbl.find_opt st.table_memo key with\n\
        \   | Some (p', v, __ver) when %s -> (if p' >= 0 then st.value <- \
         v); p'\n\
        \   | _ ->\n\
        \     let __ver0 = st.version in\n\
        \     let p' = %s in\n\
        \     Hashtbl.replace st.table_memo key (p', (if p' >= 0 then \
         st.value else Value.Unit), __ver0);\n\
        \     p')\n"
        header ctx.nslots slot (fresh_guard "__ver") run
  | Config.Chunked, slot ->
      Printf.sprintf
        "%s\n\
        \  let chunk =\n\
        \    match st.chunks.(pos) with\n\
        \    | Some c -> c\n\
        \    | None ->\n\
        \      let c = { res = Array.make %d 0; vals = Array.make %d \
         Value.Unit; vers = Array.make %d 0 } in\n\
        \      st.chunks.(pos) <- Some c; c\n\
        \  in\n\
        \  let r = chunk.res.(%d) in\n\
        \  if r <> 0 && %s then\n\
        \    (if r > 0 then (st.value <- chunk.vals.(%d); r - 1) else -1)\n\
        \  else begin\n\
        \    let __ver0 = st.version in\n\
        \    let p' = %s in\n\
        \    (if p' >= 0 then (chunk.res.(%d) <- p' + 1; chunk.vals.(%d) <- \
         st.value) else chunk.res.(%d) <- (-1));\n\
        \    chunk.vers.(%d) <- __ver0;\n\
        \    p'\n\
        \  end\n"
        header ctx.nslots ctx.nslots ctx.nslots slot
        (fresh_guard (Printf.sprintf "chunk.vers.(%d)" slot))
        slot run slot slot slot slot

(* --- whole module --------------------------------------------------------- *)

let prelude =
  {|open Rats_peg
open Rats_support
module SMap = Map.Make (String)
module SSet = Set.Make (String)

type chunk = { res : int array; vals : Value.t array; vers : int array }

type st = {
  input : string;
  len : int;
  mutable value : Value.t;
  mutable farthest : int;
  mutable expected : string list;
  mutable quiet : int;
  mutable tables : SSet.t SMap.t;
  mutable version : int;
  mutable stats_backtracks : int;
  table_memo : (int, int * Value.t * int) Hashtbl.t;
  chunks : chunk option array;
}

let __restore st saved =
  if st.tables != saved then begin
    st.tables <- saved;
    st.version <- st.version + 1
  end

(* Predicate bodies run with [st.quiet > 0]: their internal failures
   never reach the farthest-failure trace, mirroring the interpretive
   engines. The predicate itself records at its entry position. *)
let __fail st pos desc =
  (if st.quiet = 0 then
     if pos > st.farthest then begin st.farthest <- pos; st.expected <- [ desc ] end
     else if pos = st.farthest then st.expected <- desc :: st.expected);
  -1

let __lit st pos s desc =
  let n = String.length s in
  let rec go i =
    if i >= n then begin st.value <- Value.Unit; pos + n end
    else if pos + i < st.len
            && String.unsafe_get st.input (pos + i) = String.unsafe_get s i
    then go (i + 1)
    else __fail st (pos + i) desc
  in
  go 0

let __keep lbl v acc =
  match (lbl, v) with None, Value.Unit -> acc | _ -> (lbl, v) :: acc

let __seqv p0 p1 acc = Value.seq_at ~start_:p0 ~stop:p1 (List.rev acc)
let __tailv p0 p1 acc = Value.node_at ~start_:p0 ~stop:p1 "#tail" (List.rev acc)

let __tail_parts = function
  | Value.Node n when String.equal n.name "#tail" -> n.children
  | _ -> []

let __record st table pos p =
  let text = String.sub st.input pos (p - pos) in
  let set = match SMap.find_opt table st.tables with Some s -> s | None -> SSet.empty in
  st.tables <- SMap.add table (SSet.add text set) st.tables;
  st.version <- st.version + 1

let __member st table pos p =
  let text = String.sub st.input pos (p - pos) in
  match SMap.find_opt table st.tables with
  | Some s -> SSet.mem text s
  | None -> false
|}

let interface () =
  {|(* Generated by rats-ml; do not edit. *)

val start_production : string
(** The grammar's start symbol. *)

val parse :
  ?require_eof:bool -> string -> (Rats_peg.Value.t, string) result
(** Parse from the start production. With [require_eof] (default true)
    the whole input must be consumed. *)

val parse_from :
  string -> ?require_eof:bool -> string -> (Rats_peg.Value.t, string) result
(** Parse from a named production. *)
|}

let grammar_module ?(config = Config.optimized) ?header g =
  let analysis = Analysis.analyze g in
  match Analysis.check analysis with
  | _ :: _ as ds -> Error ds
  | [] ->
      let prods = Array.of_list (Grammar.productions g) in
      let names = Hashtbl.create 64 in
      Array.iteri
        (fun i (p : Production.t) ->
          Hashtbl.replace names p.name (function_name i p.name))
        prods;
      let fname n =
        match Hashtbl.find_opt names n with
        | Some f -> f
        | None ->
            raise
              (Rats_support.Diagnostic.Fail
                 (Rats_support.Diagnostic.errorf
                    "codegen: undefined production %S" n))
      in
      (* Slot assignment mirrors the engine. *)
      let next = ref 0 in
      let slots =
        Array.map
          (fun (p : Production.t) ->
            let memoizable =
              match config.Config.memo with
              | Config.No_memo -> false
              | Config.Hashtable | Config.Chunked -> (
                  match p.attrs.Attr.memo with
                  | Attr.Memo_always -> true
                  | Attr.Memo_never -> not config.Config.honor_transient
                  | Attr.Memo_auto -> true)
            in
            if memoizable then (
              let s = !next in
              incr next;
              s)
            else -1)
          prods
      in
      let ctx = { analysis; cfg = config; fname; fresh = ref 0; nslots = !next } in
      let buf = Buffer.create 8192 in
      (match header with
      | Some h -> Buffer.add_string buf (Printf.sprintf "(* %s *)\n" h)
      | None -> ());
      Buffer.add_string buf
        "(* Generated by rats-ml; do not edit. *)\n\
         [@@@warning \"-26-27-32-33-39\"]\n\n";
      Buffer.add_string buf prelude;
      Buffer.add_string buf "\nlet rec ";
      (try
         Array.iteri
           (fun i (p : Production.t) ->
             if i > 0 then Buffer.add_string buf "\nand ";
             let stateful = Analysis.stateful analysis p.name in
             Buffer.add_string buf (gen_production ctx ~stateful slots.(i) p))
           prods;
         let assoc =
           Array.to_list
             (Array.map
                (fun (p : Production.t) ->
                  Printf.sprintf "(%S, %s)" p.name (fname p.name))
                prods)
         in
         Buffer.add_string buf
           (Printf.sprintf
              "\nlet __prods : (string * (st -> int -> int)) list = [ %s ]\n"
              (String.concat "; " assoc));
         Buffer.add_string buf
           (Printf.sprintf "\nlet start_production = %S\n" (Grammar.start g));
         let chunks_init =
           match config.Config.memo with
           | Config.Chunked -> "Array.make (String.length input + 1) None"
           | _ -> "[||]"
         in
         Buffer.add_string buf
           (Printf.sprintf
              {|
let __dedup xs =
  let seen = Hashtbl.create 8 in
  List.filter
    (fun x -> if Hashtbl.mem seen x then false else (Hashtbl.add seen x (); true))
    xs

let __error st =
  Printf.sprintf "parse error at offset %%d: expected %%s" (max st.farthest 0)
    (String.concat " or " (__dedup (List.rev st.expected)))

let parse_from name ?(require_eof = true) input =
  match List.assoc_opt name __prods with
  | None -> Error (Printf.sprintf "no production named %%S" name)
  | Some f ->
    let st =
      { input; len = String.length input; value = Value.Unit; farthest = -1;
        expected = []; quiet = 0; tables = SMap.empty; version = 0;
        stats_backtracks = 0;
        table_memo = Hashtbl.create 1024; chunks = %s }
    in
    let p = f st 0 in
    if p < 0 then Error (__error st)
    else if require_eof && p < st.len then
      (if st.farthest > p then Error (__error st)
       else Error (Printf.sprintf "parse error at offset %%d: expected end of input" p))
    else Ok st.value

let parse ?require_eof input = parse_from start_production ?require_eof input
|}
              chunks_init);
         Ok (Buffer.contents buf)
       with Rats_support.Diagnostic.Fail d -> Error [ d ])
