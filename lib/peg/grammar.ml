open Rats_support

type t = {
  start : string;
  prods : Production.t list;
  index : (string, Production.t) Hashtbl.t;
}

let build_index prods =
  let index = Hashtbl.create (List.length prods * 2) in
  List.iter (fun (p : Production.t) -> Hashtbl.replace index p.name p) prods;
  index

let make ?start prods =
  match prods with
  | [] -> Error (Diagnostic.error "grammar has no productions")
  | first :: _ -> (
      let dup =
        let seen = Hashtbl.create 16 in
        List.find_opt
          (fun (p : Production.t) ->
            if Hashtbl.mem seen p.name then true
            else (
              Hashtbl.add seen p.name ();
              false))
          prods
      in
      match dup with
      | Some p ->
          Error
            (Diagnostic.errorf ~span:p.loc "duplicate production %S" p.name)
      | None -> (
          let start =
            match start with
            | Some s -> s
            | None -> (
                match List.find_opt Production.is_public prods with
                | Some p -> p.name
                | None -> first.name)
          in
          let index = build_index prods in
          if not (Hashtbl.mem index start) then
            Error (Diagnostic.errorf "start symbol %S is not defined" start)
          else Ok { start; prods; index }))

let make_exn ?start prods =
  match make ?start prods with
  | Ok g -> g
  | Error d -> raise (Diagnostic.Fail d)

let start g = g.start

let with_start g start =
  if Hashtbl.mem g.index start then Ok { g with start }
  else Error (Diagnostic.errorf "start symbol %S is not defined" start)

let productions g = g.prods
let names g = List.map (fun (p : Production.t) -> p.name) g.prods
let find g name = Hashtbl.find_opt g.index name

let find_exn g name =
  match find g name with
  | Some p -> p
  | None -> invalid_arg (Printf.sprintf "Grammar.find_exn: %S" name)

let mem g name = Hashtbl.mem g.index name
let length g = List.length g.prods
let size g = List.fold_left (fun acc p -> acc + Production.size p) 0 g.prods

(* A transformation that returns every production physically unchanged
   gets [g] back, index and all. *)
let map f g =
  let rec go = function
    | [] -> []
    | p :: rest as l ->
        let q = f p in
        if q != p && not (String.equal q.Production.name p.Production.name)
        then invalid_arg "Grammar.map: transformation renamed a production";
        let rest' = go rest in
        if q == p && rest' == rest then l else q :: rest'
  in
  let prods = go g.prods in
  if prods == g.prods then g else { g with prods; index = build_index prods }

let update g name f =
  if not (mem g name) then
    invalid_arg (Printf.sprintf "Grammar.update: %S not defined" name);
  map (fun p -> if String.equal p.Production.name name then f p else p) g

let add g p =
  if mem g p.Production.name then
    Error
      (Diagnostic.errorf ~span:p.Production.loc
         "duplicate production %S" p.Production.name)
  else
    let prods = g.prods @ [ p ] in
    Ok { g with prods; index = build_index prods }

let remove g name =
  let prods =
    List.filter (fun (p : Production.t) -> not (String.equal p.name name)) g.prods
  in
  { g with prods; index = build_index prods }

let check_closed g =
  List.filter_map
    (fun (p : Production.t) ->
      let missing =
        List.filter (fun r -> not (mem g r)) (Expr.refs p.expr)
      in
      match missing with
      | [] -> None
      | missing ->
          Some
            (Diagnostic.errorf ~span:p.loc
               ~notes:
                 (List.map (Printf.sprintf "undefined nonterminal %S") missing)
               "production %S references undefined nonterminals" p.name))
    g.prods

let restrict g ~keep =
  let kept (p : Production.t) = String.equal p.name g.start || keep p.name in
  if List.for_all kept g.prods then g
  else
    let prods = List.filter kept g.prods in
    { g with prods; index = build_index prods }
