open Rats_support
module SSet = Analysis.StringSet

let warnf ?span fmt = Format.kasprintf (fun m -> Diagnostic.warning ?span m) fmt

(* Can the expression ever succeed? A conservative "no" only for shapes
   that provably fail: Fail nodes and sequences/wrappers containing
   one, or choices all of whose branches fail. *)
let rec never_succeeds (e : Expr.t) =
  match e.it with
  | Expr.Fail _ -> true
  | Expr.Seq es -> List.exists never_succeeds es
  | Expr.Alt alts -> List.for_all (fun a -> never_succeeds a.Expr.body) alts
  | Expr.Plus x -> never_succeeds x
  | Expr.Bind (_, x)
  | Expr.Token x
  | Expr.Node (_, x)
  | Expr.Drop x
  | Expr.Splice x
  | Expr.And x
  | Expr.Record (_, x)
  | Expr.Member (_, _, x) ->
      never_succeeds x
  | Expr.Empty | Expr.Any | Expr.Chr _ | Expr.Str _ | Expr.Cls _ | Expr.Ref _
  | Expr.Star _ | Expr.Opt _ | Expr.Not _ ->
      false

let seq_items (e : Expr.t) =
  match e.it with Expr.Seq es -> es | Expr.Empty -> [] | _ -> [ e ]

(* [a] is a strict structural prefix of [b]: whenever [b] would match,
   [a] (tried first) already succeeds, so [b] is unreachable. *)
let is_strict_prefix a b =
  let xs = seq_items a and ys = seq_items b in
  let rec go xs ys =
    match (xs, ys) with
    | [], _ :: _ -> true
    | x :: xs, y :: ys -> Expr.equal x y && go xs ys
    | _, [] -> false
  in
  go xs ys

let expr_warnings a pname (e : Expr.t) =
  let out = ref [] in
  let warn ?span fmt = Format.kasprintf (fun m ->
      out := Diagnostic.warning ?span m :: !out) fmt
  in
  let rec go (e : Expr.t) =
    (match e.it with
    | Expr.Alt alts ->
        (* duplicate alternatives *)
        let rec dups seen = function
          | [] -> ()
          | (alt : Expr.alt) :: rest ->
              if List.exists (fun s -> Expr.equal s alt.body) seen then
                warn ~span:alt.body.Expr.loc
                  "production %S: duplicate alternative %S can never match \
                   anything new"
                  pname
                  (Pretty.expr_to_string alt.body)
              else ();
              dups (alt.body :: seen) rest
        in
        dups [] alts;
        (* a later alternative shadowed by an earlier strict prefix *)
        let rec shadows = function
          | [] -> ()
          | (alt : Expr.alt) :: rest ->
              List.iter
                (fun (later : Expr.alt) ->
                  if is_strict_prefix alt.body later.body then
                    warn ~span:later.body.Expr.loc
                      "production %S: alternative %S is shadowed by the \
                       earlier prefix alternative %S"
                      pname
                      (Pretty.expr_to_string later.body)
                      (Pretty.expr_to_string alt.body))
                rest;
              shadows rest
        in
        shadows alts;
        (* dead alternatives after an epsilon-succeeding one *)
        let rec dead = function
          | [] | [ _ ] -> ()
          | (alt : Expr.alt) :: (next :: _ as rest) ->
              if Analysis.expr_nullable a alt.body then
                warn ~span:next.Expr.body.Expr.loc
                  "production %S: alternative %S can succeed on the empty \
                   string, so later alternatives are unreachable"
                  pname
                  (Pretty.expr_to_string alt.body)
              else dead rest
        in
        dead alts
    | Expr.Token { it = Expr.Token _; _ } ->
        warn ~span:e.loc
          "production %S: nested $() capture — the inner one is inert" pname
    | Expr.Drop { it = Expr.Drop _; _ } ->
        warn ~span:e.loc
          "production %S: nested void: — the inner one is inert" pname
    | _ -> ());
    Expr.iter_children go e
  in
  go e;
  List.rev !out

let check a =
  let reachable = Analysis.reachable a in
  List.concat_map
    (fun (p : Production.t) ->
      let local = expr_warnings a p.name p.expr in
      let fails =
        if never_succeeds p.expr then
          [
            warnf ~span:p.loc "production %S can never succeed on any input"
              p.name;
          ]
        else []
      in
      let unreachable =
        if SSet.mem p.name reachable then []
        else
          [
            warnf ~span:p.loc
              "production %S is unreachable from the start symbol and the \
               public productions"
              p.name;
          ]
      in
      local @ fails @ unreachable)
    (Grammar.productions (Analysis.grammar a))
