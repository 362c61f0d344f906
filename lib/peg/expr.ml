open Rats_support

type t = { it : desc; loc : Span.t }

and desc =
  | Empty
  | Fail of string
  | Any
  | Chr of char
  | Str of string
  | Cls of Charset.t
  | Ref of string
  | Seq of t list
  | Alt of alt list
  | Star of t
  | Plus of t
  | Opt of t
  | And of t
  | Not of t
  | Bind of string * t
  | Token of t
  | Node of string * t
  | Drop of t
  | Splice of t
  | Record of string * t
  | Member of string * bool * t

and alt = { label : string option; body : t }

let mk ?(loc = Span.dummy) it = { it; loc }
let empty = mk Empty
let fail ?loc msg = mk ?loc (Fail msg)
let any ?loc () = mk ?loc Any
let chr ?loc c = mk ?loc (Chr c)

let str ?loc s =
  match String.length s with
  | 0 -> mk ?loc Empty
  | 1 -> mk ?loc (Chr s.[0])
  | _ -> mk ?loc (Str s)

let cls ?loc set =
  if Charset.is_empty set then mk ?loc (Fail "character class")
  else if Charset.equal set Charset.full then mk ?loc Any
  else mk ?loc (Cls set)

let range ?loc lo hi = cls ?loc (Charset.range lo hi)
let one_of ?loc s = cls ?loc (Charset.of_string s)
let ref_ ?loc name = mk ?loc (Ref name)

let seq ?loc es =
  let flatten e = match e.it with Seq es -> es | Empty -> [] | _ -> [ e ] in
  match List.concat_map flatten es with
  | [] -> mk ?loc Empty
  | [ e ] -> e
  | es -> mk ?loc (Seq es)

let alt_labeled ?loc alts =
  let flatten a =
    match (a.label, a.body.it) with
    | None, Alt inner -> inner
    | _ -> [ a ]
  in
  match List.concat_map flatten alts with
  | [] -> mk ?loc (Fail "empty choice")
  | [ { label = None; body } ] -> body
  | alts -> mk ?loc (Alt alts)

let alt ?loc es = alt_labeled ?loc (List.map (fun body -> { label = None; body }) es)
let star ?loc e = mk ?loc (Star e)
let plus ?loc e = mk ?loc (Plus e)
let opt ?loc e = mk ?loc (Opt e)
let and_ ?loc e = mk ?loc (And e)
let not_ ?loc e = mk ?loc (Not e)
let bind ?loc name e = mk ?loc (Bind (name, e))
let token ?loc e = mk ?loc (Token e)
let node ?loc name e = mk ?loc (Node (name, e))
let drop ?loc e = mk ?loc (Drop e)
let splice ?loc e = mk ?loc (Splice e)
let record ?loc table e = mk ?loc (Record (table, e))
let member ?loc table positive e = mk ?loc (Member (table, positive, e))

(* [List.map f xs], or [xs] itself when [f] returned every element
   unchanged: a rewrite that changes nothing allocates nothing. *)
let rec map_same f xs =
  match xs with
  | [] -> xs
  | x :: rest ->
      let x' = f x in
      let rest' = map_same f rest in
      if x' == x && rest' == rest then xs else x' :: rest'

let rec map_alts f alts =
  match alts with
  | [] -> alts
  | a :: rest ->
      let body = f a.body in
      let rest' = map_alts f rest in
      if body == a.body && rest' == rest then alts
      else { a with body } :: rest'

(* Written out case by case, so that a call that changes nothing
   allocates nothing, not even a closure. *)
let map_children f e =
  let it =
    match e.it with
    | Empty | Fail _ | Any | Chr _ | Str _ | Cls _ | Ref _ -> e.it
    | Seq es ->
        let es' = map_same f es in
        if es' == es then e.it else Seq es'
    | Alt alts ->
        let alts' = map_alts f alts in
        if alts' == alts then e.it else Alt alts'
    | Star x ->
        let x' = f x in
        if x' == x then e.it else Star x'
    | Plus x ->
        let x' = f x in
        if x' == x then e.it else Plus x'
    | Opt x ->
        let x' = f x in
        if x' == x then e.it else Opt x'
    | And x ->
        let x' = f x in
        if x' == x then e.it else And x'
    | Not x ->
        let x' = f x in
        if x' == x then e.it else Not x'
    | Bind (n, x) ->
        let x' = f x in
        if x' == x then e.it else Bind (n, x')
    | Token x ->
        let x' = f x in
        if x' == x then e.it else Token x'
    | Node (n, x) ->
        let x' = f x in
        if x' == x then e.it else Node (n, x')
    | Drop x ->
        let x' = f x in
        if x' == x then e.it else Drop x'
    | Splice x ->
        let x' = f x in
        if x' == x then e.it else Splice x'
    | Record (t, x) ->
        let x' = f x in
        if x' == x then e.it else Record (t, x')
    | Member (t, p, x) ->
        let x' = f x in
        if x' == x then e.it else Member (t, p, x')
  in
  if it == e.it then e else { e with it }

let iter_children f e =
  match e.it with
  | Empty | Fail _ | Any | Chr _ | Str _ | Cls _ | Ref _ -> ()
  | Seq es -> List.iter f es
  | Alt alts -> List.iter (fun a -> f a.body) alts
  | Star x | Plus x | Opt x | And x | Not x
  | Bind (_, x) | Token x | Node (_, x) | Drop x | Splice x
  | Record (_, x) | Member (_, _, x) ->
      f x

(* The queries below recurse directly, without [iter_children]'s
   closure: they run over every production on every optimizer pass and
   allocate nothing but what they return. *)
let rec fold f acc e =
  let acc = f acc e in
  match e.it with
  | Empty | Fail _ | Any | Chr _ | Str _ | Cls _ | Ref _ -> acc
  | Seq es -> fold_list f acc es
  | Alt alts -> fold_alts f acc alts
  | Star x | Plus x | Opt x | And x | Not x
  | Bind (_, x) | Token x | Node (_, x) | Drop x | Splice x
  | Record (_, x) | Member (_, _, x) ->
      fold f acc x

and fold_list f acc = function
  | [] -> acc
  | e :: rest -> fold_list f (fold f acc e) rest

and fold_alts f acc = function
  | [] -> acc
  | a :: rest -> fold_alts f (fold f acc a.body) rest

(* Names in reverse first-occurrence order; an expression references
   few distinct names, so a list scan deduplicates. *)
let rec refs_rev acc e =
  match e.it with
  | Ref n -> if List.exists (String.equal n) acc then acc else n :: acc
  | Empty | Fail _ | Any | Chr _ | Str _ | Cls _ -> acc
  | Seq es -> refs_list acc es
  | Alt alts -> refs_alts acc alts
  | Star x | Plus x | Opt x | And x | Not x
  | Bind (_, x) | Token x | Node (_, x) | Drop x | Splice x
  | Record (_, x) | Member (_, _, x) ->
      refs_rev acc x

and refs_list acc = function
  | [] -> acc
  | e :: rest -> refs_list (refs_rev acc e) rest

and refs_alts acc = function
  | [] -> acc
  | a :: rest -> refs_alts (refs_rev acc a.body) rest

let refs e = List.rev (refs_rev [] e)

let rec size_from n e =
  let n = n + 1 in
  match e.it with
  | Empty | Fail _ | Any | Chr _ | Str _ | Cls _ | Ref _ -> n
  | Seq es -> size_list n es
  | Alt alts -> size_alts n alts
  | Star x | Plus x | Opt x | And x | Not x
  | Bind (_, x) | Token x | Node (_, x) | Drop x | Splice x
  | Record (_, x) | Member (_, _, x) ->
      size_from n x

and size_list n = function [] -> n | e :: rest -> size_list (size_from n e) rest
and size_alts n = function [] -> n | a :: rest -> size_alts (size_from n a.body) rest

let size e = size_from 0 e

let rec equal a b =
  a == b
  ||
  match (a.it, b.it) with
  | Empty, Empty | Any, Any -> true
  | Fail a, Fail b -> String.equal a b
  | Chr a, Chr b -> Char.equal a b
  | Str a, Str b -> String.equal a b
  | Cls a, Cls b -> Charset.equal a b
  | Ref a, Ref b -> String.equal a b
  | Seq a, Seq b -> List.length a = List.length b && List.for_all2 equal a b
  | Alt a, Alt b ->
      List.length a = List.length b
      && List.for_all2
           (fun x y -> x.label = y.label && equal x.body y.body)
           a b
  | Star a, Star b | Plus a, Plus b | Opt a, Opt b
  | And a, And b | Not a, Not b
  | Token a, Token b | Drop a, Drop b | Splice a, Splice b ->
      equal a b
  | Bind (n, a), Bind (m, b) | Node (n, a), Node (m, b) ->
      String.equal n m && equal a b
  | Record (t, a), Record (u, b) -> String.equal t u && equal a b
  | Member (t, p, a), Member (u, q, b) ->
      String.equal t u && p = q && equal a b
  | ( ( Empty | Fail _ | Any | Chr _ | Str _ | Cls _ | Ref _ | Seq _ | Alt _
      | Star _ | Plus _ | Opt _ | And _ | Not _ | Bind _ | Token _ | Node _
      | Drop _ | Splice _ | Record _ | Member _ ),
      _ ) ->
      false

let rec is_stateful e =
  match e.it with
  | Record _ | Member _ -> true
  | Empty | Fail _ | Any | Chr _ | Str _ | Cls _ | Ref _ -> false
  | Seq es -> List.exists is_stateful es
  | Alt alts -> List.exists (fun a -> is_stateful a.body) alts
  | Star x | Plus x | Opt x | And x | Not x
  | Bind (_, x) | Token x | Node (_, x) | Drop x | Splice x ->
      is_stateful x

let shallow_hash e = Hashtbl.hash_param 3 8 e

module Phys = Hashtbl.Make (struct
  type nonrec t = t

  let equal = ( == )
  let hash = shallow_hash
end)

module Shape = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = shallow_hash
end)

let rename_refs f e =
  let rec go e =
    match e.it with
    | Ref n ->
        let n' = f n in
        if String.equal n' n then e else { e with it = Ref n' }
    | _ -> map_children go e
  in
  go e
