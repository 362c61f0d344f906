module SSet = Analysis.StringSet

type t = {
  mutable grammar : Grammar.t option;
  mutable analysis : Analysis.t option;
  mutable ref_counts : (string, int) Hashtbl.t option;
  mutable terminals : SSet.t option;
  mutable computations : int;
}

let create () =
  {
    grammar = None;
    analysis = None;
    ref_counts = None;
    terminals = None;
    computations = 0;
  }

let computations t = t.computations

(* The cached facts hold for [b] when it differs from [a] at most in
   memo hints: every fact is read off the start symbol, the production
   names, kinds and visibilities and the bodies, never off [memo]. The
   transient and terminal passes change only [memo] and keep every body
   physically, so the facts outlive them. *)
let same_facts a b =
  let same (p : Production.t) (q : Production.t) =
    p == q
    || String.equal p.name q.name
       && p.expr == q.expr
       && p.attrs.Attr.kind = q.attrs.Attr.kind
       && p.attrs.Attr.visibility = q.attrs.Attr.visibility
  in
  String.equal (Grammar.start a) (Grammar.start b)
  && List.compare_lengths (Grammar.productions a) (Grammar.productions b) = 0
  && List.for_all2 same (Grammar.productions a) (Grammar.productions b)

(* Every query goes through here: the cached facts are kept for the
   grammar they were computed for, and for one that differs from it in
   memo hints only, and dropped for any other. *)
let sync t g =
  match t.grammar with
  | Some cached when cached == g -> ()
  | Some cached when same_facts cached g -> t.grammar <- Some g
  | _ ->
      t.grammar <- Some g;
      t.analysis <- None;
      t.ref_counts <- None;
      t.terminals <- None

let analysis t g =
  sync t g;
  match t.analysis with
  | Some a -> a
  | None ->
      let a = Analysis.analyze g in
      t.analysis <- Some a;
      t.computations <- t.computations + 1;
      a

let reachable t g = Analysis.reachable (analysis t g)

(* --- reference counts, one sweep ---------------------------------------- *)

let compute_ref_counts g =
  let tbl = Hashtbl.create 64 in
  let bump n = Hashtbl.replace tbl n (1 + Option.value ~default:0 (Hashtbl.find_opt tbl n)) in
  List.iter
    (fun (p : Production.t) ->
      Expr.fold
        (fun () (e : Expr.t) ->
          match e.it with Expr.Ref n -> bump n | _ -> ())
        () p.expr)
    (Grammar.productions g);
  bump (Grammar.start g);
  tbl

let ref_count t g n =
  sync t g;
  let tbl =
    match t.ref_counts with
    | Some tbl -> tbl
    | None ->
        let tbl = compute_ref_counts g in
        t.ref_counts <- Some tbl;
        tbl
  in
  Option.value ~default:0 (Hashtbl.find_opt tbl n)

(* --- terminal level ------------------------------------------------------ *)

(* A production is terminal when it never builds a tree node and only
   references other terminal productions: character-level machinery.
   Computed as a greatest fixed point (start optimistic, knock out). *)
let compute_terminals g =
  let prods = Grammar.productions g in
  let tbl = Hashtbl.create 64 in
  let locally_ok (p : Production.t) =
    (match p.attrs.Attr.kind with
    | Attr.Generic -> false
    | Attr.Plain | Attr.Text | Attr.Void -> true)
    && Expr.fold
         (fun acc (e : Expr.t) ->
           acc
           && match e.it with
              | Expr.Node _ | Expr.Record _ | Expr.Member _ -> false
              | _ -> true)
         true p.expr
  in
  List.iter (fun (p : Production.t) -> Hashtbl.replace tbl p.name (locally_ok p)) prods;
  let lookup n = try Hashtbl.find tbl n with Not_found -> false in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (p : Production.t) ->
        if Hashtbl.find tbl p.name then
          if not (List.for_all lookup (Expr.refs p.expr)) then (
            Hashtbl.replace tbl p.name false;
            changed := true))
      prods
  done;
  Hashtbl.fold (fun n ok acc -> if ok then SSet.add n acc else acc) tbl SSet.empty

let terminals t g =
  sync t g;
  match t.terminals with
  | Some s -> s
  | None ->
      let s = compute_terminals g in
      t.terminals <- Some s;
      s
