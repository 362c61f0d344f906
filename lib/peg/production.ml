open Rats_support

type t = {
  name : string;
  attrs : Attr.t;
  expr : Expr.t;
  loc : Span.t;
  origin : string;
}

let v ?(attrs = Attr.default) ?(loc = Span.dummy) ?(origin = "") name expr =
  { name; attrs; expr; loc; origin }

let with_expr p expr = if expr == p.expr then p else { p with expr }
let with_attrs p attrs = { p with attrs }
let is_public p = p.attrs.Attr.visibility = Attr.Public
let size p = Expr.size p.expr

let equal a b =
  a == b
  || String.equal a.name b.name && Attr.equal a.attrs b.attrs
  && Expr.equal a.expr b.expr
