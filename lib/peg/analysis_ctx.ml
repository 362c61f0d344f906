type t = {
  mutable current : (Grammar.t * Analysis.t) option;
      (* the grammar last asked about, and the analysis that holds for it *)
  mutable computations : int;
}

let create () = { current = None; computations = 0 }
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

(* The analysis is kept for the grammar it was computed for, and for one
   that differs from it in memo hints only, and replaced for any other. *)
let analysis t g =
  match t.current with
  | Some (cached, a) when cached == g -> a
  | Some (cached, a) when same_facts cached g ->
      t.current <- Some (g, a);
      a
  | _ ->
      let a = Analysis.analyze g in
      t.current <- Some (g, a);
      t.computations <- t.computations + 1;
      a
