let escape_in_string c =
  match c with
  | '"' -> "\\\""
  | '\\' -> "\\\\"
  | '\n' -> "\\n"
  | '\t' -> "\\t"
  | '\r' -> "\\r"
  | c when Char.code c < 32 || Char.code c > 126 ->
      Printf.sprintf "\\x%02x" (Char.code c)
  | c -> String.make 1 c

let escape_in_char c =
  match c with
  | '\'' -> "\\'"
  | '"' -> "\""
  | c -> escape_in_string c

let quote_string s =
  let buf = Buffer.create (String.length s + 2) in
  Buffer.add_char buf '"';
  String.iter (fun c -> Buffer.add_string buf (escape_in_string c)) s;
  Buffer.add_char buf '"';
  Buffer.contents buf

let quote_char c = "'" ^ escape_in_char c ^ "'"

(* Precedence levels: 0 choice, 1 sequence, 2 prefix/bind, 3 suffix,
   4 primary. [pp_at lvl] parenthesizes when the construct's own level is
   below the context's. The printer calls [Format]'s primitives rather
   than [Format.fprintf]: the tokens are the same, without interpreting
   a format string per node. *)

let rec pp_at lvl ppf (e : Expr.t) =
  let open Expr in
  let str = Format.pp_print_string ppf in
  let paren own body =
    if own < lvl then (
      str "(";
      body ();
      str ")")
    else body ()
  in
  (* [pre] then [x] at level [at] then [post]. *)
  let wrap pre at x post =
    if pre <> "" then str pre;
    pp_at at ppf x;
    if post <> "" then str post
  in
  match e.it with
  | Empty -> str "()"
  | Fail msg -> str ("%fail(" ^ quote_string msg ^ ")")
  | Any -> str "."
  | Chr c -> str (quote_char c)
  | Str s -> str (quote_string s)
  | Cls set -> Charset.pp ppf set
  | Ref n -> str n
  | Seq es ->
      paren 1 (fun () ->
          Format.pp_open_box ppf 2;
          List.iteri
            (fun i x ->
              if i > 0 then Format.pp_print_space ppf ();
              pp_at 2 ppf x)
            es;
          Format.pp_close_box ppf ())
  | Alt alts ->
      paren 0 (fun () ->
          Format.pp_open_hvbox ppf 0;
          List.iteri
            (fun i (a : alt) ->
              if i > 0 then (
                Format.pp_print_space ppf ();
                str "/ ");
              Option.iter (fun l -> str ("<" ^ l ^ "> ")) a.label;
              pp_at 1 ppf a.body)
            alts;
          Format.pp_close_box ppf ())
  | Star x -> paren 3 (fun () -> wrap "" 4 x "*")
  | Plus x -> paren 3 (fun () -> wrap "" 4 x "+")
  | Opt x -> paren 3 (fun () -> wrap "" 4 x "?")
  | And x -> paren 2 (fun () -> wrap "&" 3 x "")
  | Not x -> paren 2 (fun () -> wrap "!" 3 x "")
  | Bind (n, x) -> paren 2 (fun () -> wrap (n ^ ":") 3 x "")
  | Drop x -> paren 2 (fun () -> wrap "void:" 3 x "")
  | Token x -> wrap "$(" 0 x ")"
  | Splice x -> wrap "%splice(" 0 x ")"
  | Node (n, x) -> wrap ("@" ^ n ^ "(") 0 x ")"
  | Record (t, x) -> wrap ("%record(" ^ t ^ ", ") 0 x ")"
  | Member (t, true, x) -> wrap ("%member(" ^ t ^ ", ") 0 x ")"
  | Member (t, false, x) -> wrap ("%absent(" ^ t ^ ", ") 0 x ")"

let pp_expr ppf e = pp_at 0 ppf e
let expr_to_string e = Format.asprintf "@[%a@]" pp_expr e

exception Described

(* The formatter writes to a buffer that ends the printing once it
   holds 41 characters; the layout up to there is the same as the whole
   printing's, since a break decides on at most a margin of text. *)
let describe e =
  let buf = Buffer.create 48 in
  let out s pos len =
    Buffer.add_substring buf s pos len;
    if Buffer.length buf > 40 then raise_notrace Described
  in
  let ppf = Format.make_formatter out ignore in
  (try
     Format.pp_open_box ppf 0;
     pp_expr ppf e;
     Format.pp_close_box ppf ();
     Format.pp_print_flush ppf ()
   with Described -> ());
  if Buffer.length buf <= 40 then Buffer.contents buf
  else Buffer.sub buf 0 37 ^ "..."

let attr_words (a : Attr.t) =
  List.concat
    [
      (if a.visibility = Attr.Public then [ "public" ] else []);
      (match a.memo with
      | Attr.Memo_auto -> []
      | Attr.Memo_always -> [ "memoized" ]
      | Attr.Memo_never -> [ "transient" ]);
      (match a.inline with
      | Attr.Inline_auto -> []
      | Attr.Inline_always -> [ "inline" ]
      | Attr.Inline_never -> [ "noinline" ]);
      (if a.with_location then [ "withLocation" ] else []);
      (match a.kind with
      | Attr.Plain -> []
      | Attr.Generic -> [ "generic" ]
      | Attr.Text -> [ "String" ]
      | Attr.Void -> [ "void" ]);
    ]

let pp_production ppf (p : Production.t) =
  let words = attr_words p.attrs in
  Format.pp_open_hvbox ppf 2;
  List.iter (fun w -> Format.fprintf ppf "%s " w) words;
  Format.fprintf ppf "%s =@ %a;" p.name pp_expr p.expr;
  Format.pp_close_box ppf ()

let pp_grammar ppf g =
  Format.fprintf ppf "// start: %s@." (Grammar.start g);
  List.iter
    (fun p -> Format.fprintf ppf "@[%a@]@.@." pp_production p)
    (Grammar.productions g)

let grammar_to_string g = Format.asprintf "%a" pp_grammar g
