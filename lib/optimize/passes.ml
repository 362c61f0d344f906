open Rats_peg
module SSet = Analysis.StringSet

(* --- pruning ------------------------------------------------------------ *)

let prune ?(ctx = Analysis_ctx.create ()) g =
  let keep = Analysis.reachable (Analysis_ctx.analysis ctx g) in
  Grammar.restrict g ~keep:(fun n -> SSet.mem n keep)

(* --- transient marking --------------------------------------------------- *)

let mark_transients ?(ctx = Analysis_ctx.create ()) g =
  let a = Analysis_ctx.analysis ctx g in
  Grammar.map
    (fun (p : Production.t) ->
      if p.attrs.Attr.memo = Attr.Memo_auto && Analysis.ref_count a p.name <= 1
      then Production.with_attrs p { p.attrs with Attr.memo = Attr.Memo_never }
      else p)
    g

(* --- terminal detection --------------------------------------------------- *)

let mark_terminals ?(ctx = Analysis_ctx.create ()) g =
  let terminals = Analysis.terminals (Analysis_ctx.analysis ctx g) in
  Grammar.map
    (fun (p : Production.t) ->
      if p.attrs.Attr.memo = Attr.Memo_auto && SSet.mem p.name terminals then
        Production.with_attrs p { p.attrs with Attr.memo = Attr.Memo_never }
      else p)
    g

(* --- inlining ------------------------------------------------------------- *)

let expansion_of (p : Production.t) =
  match p.attrs.Attr.kind with
  | Attr.Plain -> p.expr
  | Attr.Generic -> Expr.node p.name p.expr
  | Attr.Text -> Expr.token p.expr
  | Attr.Void -> Expr.drop p.expr

(* Every site of a callee receives the one expansion its round made,
   so the sites share it. A later round keeps them sharing: the
   expansions of the previous round, and the rewrites it made of the
   ones before, are rewritten once each and the rewrite is reused at
   every site. Only those nodes are looked up by identity; a leaf is
   never rewritten, and no other node is shared by inlining. *)
let inline_pass ?(threshold = 12) ?(ctx = Analysis_ctx.create ()) g =
  let rec iterate g shared rounds =
    if rounds = 0 then g
    else
      let cyclic = Analysis.recursive (Analysis_ctx.analysis ctx g) in
      let inlinable = Hashtbl.create 16 in
      List.iter
        (fun (p : Production.t) ->
          let want =
            match p.attrs.Attr.inline with
            | Attr.Inline_never -> false
            | Attr.Inline_always -> true
            | Attr.Inline_auto -> Production.size p <= threshold
          in
          if
            want
            && (not (String.equal p.name (Grammar.start g)))
            && not (SSet.mem p.name cyclic)
          then
            let ex = expansion_of p in
            (* A top-level Bind would leak its label into host sequences. *)
            match ex.Expr.it with
            | Expr.Bind _ -> ()
            | _ -> Hashtbl.replace inlinable p.name ex)
        (Grammar.productions g);
      if Hashtbl.length inlinable = 0 then g
      else
        let changed = ref false in
        let rewrites = Expr.Phys.create 16 in
        let shared' = Expr.Phys.create 16 in
        let rec subst (e : Expr.t) =
          match e.it with
          | Expr.Ref n -> (
              match Hashtbl.find_opt inlinable n with
              | Some ex ->
                  changed := true;
                  Expr.Phys.replace shared' ex ();
                  ex
              | None -> e)
          | Expr.Empty | Expr.Fail _ | Expr.Any | Expr.Chr _ | Expr.Str _
          | Expr.Cls _ ->
              e
          | _ when Expr.Phys.mem shared e -> (
              match Expr.Phys.find_opt rewrites e with
              | Some e' -> e'
              | None ->
                  let e' = Expr.map_children subst e in
                  Expr.Phys.add rewrites e e';
                  Expr.Phys.replace shared' e' ();
                  e')
          | _ -> Expr.map_children subst e
        in
        let g' =
          Grammar.map
            (fun (p : Production.t) ->
              (* Do not rewrite the bodies of productions being inlined
                 away; they get pruned. *)
              if Hashtbl.mem inlinable p.name && not (Production.is_public p)
              then p
              else Production.with_expr p (subst p.expr))
            g
        in
        if !changed then iterate (prune ~ctx g') shared' (rounds - 1) else g
  in
  iterate g (Expr.Phys.create 1) 5

(* --- duplicate folding ----------------------------------------------------- *)

let foldable (p : Production.t) =
  (not (Production.is_public p))
  &&
  match p.attrs.Attr.kind with
  | Attr.Plain | Attr.Text | Attr.Void -> true
  | Attr.Generic -> false

(* Productions are grouped by kind, memo attribute and body size, and
   compared with [Expr.equal] within a group: the same relation as
   comparing printed bodies, without printing any. *)
let fold_duplicates g =
  let rec iterate g rounds =
    if rounds = 0 then g
    else
      let canon = Hashtbl.create 32 in
      let redirect = Hashtbl.create 8 in
      List.iter
        (fun (p : Production.t) ->
          if foldable p && not (String.equal p.name (Grammar.start g)) then
            let key = (p.attrs.Attr.kind, p.attrs.Attr.memo, Expr.size p.expr) in
            let group = Option.value ~default:[] (Hashtbl.find_opt canon key) in
            match
              List.find_opt
                (fun (q : Production.t) -> Expr.equal q.expr p.expr)
                group
            with
            | Some first -> Hashtbl.replace redirect p.name first.name
            | None -> Hashtbl.replace canon key (group @ [ p ]))
        (Grammar.productions g);
      if Hashtbl.length redirect = 0 then g
      else
        let rename n = Option.value ~default:n (Hashtbl.find_opt redirect n) in
        let prods =
          List.filter_map
            (fun (p : Production.t) ->
              if Hashtbl.mem redirect p.name then None
              else
                Some (Production.with_expr p (Expr.rename_refs rename p.expr)))
            (Grammar.productions g)
        in
        iterate (Grammar.make_exn ~start:(Grammar.start g) prods) (rounds - 1)
  in
  iterate g 10

(* --- prefix factoring ------------------------------------------------------ *)

let head_tail (e : Expr.t) =
  match e.it with
  | Expr.Seq (hd :: tl) -> Some (hd, tl)
  | Expr.Seq [] | Expr.Empty -> None
  | _ -> Some (e, [])

let tail_expr = function
  | [] -> Expr.empty
  | [ x ] -> x
  | xs -> Expr.mk (Expr.Seq xs)

(* Factoring is only safe when re-running the head after backtracking is
   observably identical to keeping its first result, which holds for all
   deterministic PEG constructs; we conservatively skip heads that touch
   parser state, where the splice rewrite would still be correct but
   reasoning about Record replay is subtler than it is worth. *)
let head_ok hd = not (Expr.is_stateful hd)

let rec factor_expr (e : Expr.t) =
  let e = Expr.map_children factor_expr e in
  match e.it with
  | Expr.Alt alts ->
      (* Returns its argument itself when no two alternatives merge. *)
      let rec regroup alts =
        match alts with
        | [] -> alts
        | (a : Expr.alt) :: rest -> (
            let keep () =
              let rest' = regroup rest in
              if rest' == rest then alts else a :: rest'
            in
            match head_tail a.body with
            | Some (hd, tl) when head_ok hd ->
                let same, others =
                  let rec take acc = function
                    | (b : Expr.alt) :: more -> (
                        match head_tail b.body with
                        | Some (hd', tl') when Expr.equal hd hd' ->
                            take (tl' :: acc) more
                        | _ -> (List.rev acc, b :: more))
                    | [] -> (List.rev acc, [])
                  in
                  take [] rest
                in
                if same = [] then keep ()
                else
                  let tails = List.map tail_expr (tl :: same) in
                  let inner =
                    factor_expr
                      (Expr.mk
                         (Expr.Alt
                            (List.map
                               (fun body -> { Expr.label = None; body })
                               tails)))
                  in
                  let body = Expr.mk (Expr.Seq [ hd; Expr.splice inner ]) in
                  { Expr.label = None; body } :: regroup others
            | _ -> keep ())
      in
      let alts' = regroup alts in
      if alts' == alts then e else { e with it = Expr.Alt alts' }
  | _ -> e

let factor_prefixes g =
  Grammar.map
    (fun (p : Production.t) -> Production.with_expr p (factor_expr p.expr))
    g

(* --- direct left-recursion elimination -------------------------------------- *)

let eliminate_left_recursion g =
  Grammar.map
    (fun (p : Production.t) ->
      match p.expr.Expr.it with
      | Expr.Alt alts ->
          let split (a : Expr.alt) =
            match a.body.Expr.it with
            | Expr.Seq ({ Expr.it = Expr.Ref n; _ } :: rest)
              when String.equal n p.name ->
                Either.Left { a with body = tail_expr rest }
            | Expr.Ref n when String.equal n p.name ->
                (* P = P / ... : a vacuous self-alternative; dropping it
                   preserves the language (it could never make progress). *)
                Either.Left { a with body = Expr.empty }
            | _ -> Either.Right a
          in
          let tails, bases = List.partition_map split alts in
          if tails = [] || bases = [] then p
          else
            let tails =
              (* An empty tail would loop forever; the engine's progress
                 guard would stop it, but dropping it is cleaner. *)
              List.filter
                (fun (a : Expr.alt) -> a.body.Expr.it <> Expr.Empty)
                tails
            in
            let base = Expr.mk (Expr.Alt bases) in
            let expr =
              if tails = [] then base
              else Expr.seq [ base; Expr.star (Expr.mk (Expr.Alt tails)) ]
            in
            Production.with_expr p expr
      | _ -> p)
    g
