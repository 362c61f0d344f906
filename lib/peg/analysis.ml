open Rats_support
module StringSet = Set.Make (String)

type nullability = Never_empty | May_be_empty

(* Every table is computed on first use: a pass that asks only for
   reachability (inlining, pruning) never pays for the nullable, FIRST,
   stateful and unit fixpoints. *)
type t = {
  grammar : Grammar.t;
  mutable nullable_memo : (string, bool) Hashtbl.t option;
  mutable first_memo : (string, Charset.t) Hashtbl.t option;
  mutable expr_first_memo : (Charset.t * bool) Expr.Phys.t option;
      (* [expr_first] of each expression asked about and of each choice
         alternative met on the way, by node: the inliner shares one
         expansion among all of its sites *)
  mutable stateful_memo : (string, bool) Hashtbl.t option;
  mutable unit_memo : (string, bool) Hashtbl.t option;
  mutable reachable_memo : StringSet.t option;
  mutable recursive_memo : StringSet.t option;
}

let grammar a = a.grammar

(* The fixpoints below sweep the productions until nothing changes;
   the fixpoint reached does not depend on the sweep order. Grammars
   are written top-down, so a production's references mostly follow it,
   and a sweep from the last production back propagates most facts in
   one pass: MiniC's FIRST sets settle in 4 sweeps this way, against 15
   in list order. *)
let sweep_order g = List.rev (Grammar.productions g)

(* --- nullability ------------------------------------------------------- *)

let rec expr_nullable_env lookup (e : Expr.t) =
  match e.it with
  | Expr.Empty -> true
  | Fail _ -> false
  | Any | Chr _ | Str _ | Cls _ -> false
  | Ref n -> lookup n
  | Seq es -> List.for_all (expr_nullable_env lookup) es
  | Alt alts -> List.exists (fun a -> expr_nullable_env lookup a.Expr.body) alts
  | Star _ | Opt _ -> true
  | Plus x -> expr_nullable_env lookup x
  | And _ | Not _ -> true
  | Bind (_, x) | Token x | Node (_, x) | Drop x | Splice x
  | Record (_, x) | Member (_, _, x) ->
      expr_nullable_env lookup x

let compute_nullable g =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun (p : Production.t) -> Hashtbl.replace tbl p.name false)
    (Grammar.productions g);
  let lookup n = try Hashtbl.find tbl n with Not_found -> false in
  let changed = ref true and sweep = sweep_order g in
  while !changed do
    changed := false;
    List.iter
      (fun (p : Production.t) ->
        let v = expr_nullable_env lookup p.expr in
        if v && not (Hashtbl.find tbl p.name) then (
          Hashtbl.replace tbl p.name true;
          changed := true))
      sweep
  done;
  tbl

(* --- FIRST sets -------------------------------------------------------- *)

(* FIRST set and nullability in one walk. [recur] returns the set and
   leaves the nullability in [eps], so a node costs no result tuple.
   With [memo], the expression and every choice alternative met are
   looked up and recorded by node, so a nested choice is walked once
   however many enclosing alternatives are asked about. *)
let expr_first_env ?memo ~first ~nullable (e : Expr.t) =
  let eps = ref false in
  let rec memoized (e : Expr.t) =
    match memo with
    | None -> recur e
    | Some m -> (
        match Expr.Phys.find_opt m e with
        | Some (s, n) ->
            eps := n;
            s
        | None ->
            let s = recur e in
            Expr.Phys.add m e (s, !eps);
            s)
  and recur (e : Expr.t) =
    match e.it with
    | Expr.Empty | And _ | Not _ ->
        eps := true;
        Charset.empty
    | Fail _ ->
        eps := false;
        Charset.empty
    | Any ->
        eps := false;
        Charset.full
    | Chr c ->
        eps := false;
        Charset.singleton c
    | Str s ->
        eps := false;
        Charset.singleton s.[0]
    | Cls set ->
        eps := false;
        set
    | Ref n ->
        eps := nullable n;
        first n
    | Seq es -> seq Charset.empty es
    | Alt alts -> alt Charset.empty false alts
    | Star x | Opt x ->
        let s = recur x in
        eps := true;
        s
    | Plus x | Bind (_, x) | Token x | Node (_, x) | Drop x | Splice x
    | Record (_, x) | Member (_, _, x) ->
        recur x
  and seq set = function
    | [] ->
        eps := true;
        set
    | e :: rest ->
        let set = Charset.union set (recur e) in
        if !eps then seq set rest else set
  and alt set any = function
    | [] ->
        eps := any;
        set
    | a :: rest ->
        let set = Charset.union set (memoized a.Expr.body) in
        alt set (any || !eps) rest
  in
  let s = memoized e in
  (s, !eps)

let compute_first g nullable_tbl =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun (p : Production.t) -> Hashtbl.replace tbl p.name Charset.empty)
    (Grammar.productions g);
  let first n = try Hashtbl.find tbl n with Not_found -> Charset.empty in
  let nullable n = try Hashtbl.find nullable_tbl n with Not_found -> false in
  let changed = ref true and sweep = sweep_order g in
  while !changed do
    changed := false;
    List.iter
      (fun (p : Production.t) ->
        let s, _ = expr_first_env ~first ~nullable p.expr in
        if not (Charset.equal s (first p.name)) then (
          Hashtbl.replace tbl p.name s;
          changed := true))
      sweep
  done;
  tbl

(* --- statefulness ------------------------------------------------------ *)

let compute_stateful g =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun (p : Production.t) ->
      Hashtbl.replace tbl p.name (Expr.is_stateful p.expr))
    (Grammar.productions g);
  let lookup n = try Hashtbl.find tbl n with Not_found -> false in
  let changed = ref true and sweep = sweep_order g in
  while !changed do
    changed := false;
    List.iter
      (fun (p : Production.t) ->
        if not (Hashtbl.find tbl p.name) then
          let v = List.exists lookup (Expr.refs p.expr) in
          if v then (
            Hashtbl.replace tbl p.name true;
            changed := true))
      sweep
  done;
  tbl

(* --- construction ------------------------------------------------------ *)

(* Does an expression always produce [Value.Unit] on success? Computed as
   a greatest fixed point over productions: a [Plain] production whose
   body is unit-valued is itself unit-valued. *)
let rec expr_unit_env lookup (e : Expr.t) =
  match e.it with
  | Expr.Empty | Chr _ | Str _ | And _ | Not _ | Drop _ -> true
  | Fail _ -> true (* never succeeds, so its value is irrelevant *)
  | Any | Cls _ | Token _ | Node _ | Bind _ -> false
  | Ref n -> lookup n
  | Seq es -> List.for_all (expr_unit_env lookup) es
  | Alt alts -> List.for_all (fun x -> expr_unit_env lookup x.Expr.body) alts
  | Star x | Plus x | Opt x -> expr_unit_env lookup x
  | Splice x | Record (_, x) | Member (_, _, x) -> expr_unit_env lookup x

let compute_unit g =
  let tbl = Hashtbl.create 64 in
  (* Optimistic start: Plain and Void productions assumed unit. *)
  List.iter
    (fun (p : Production.t) ->
      let init =
        match p.attrs.Attr.kind with
        | Attr.Void -> true
        | Attr.Plain -> true
        | Attr.Text | Attr.Generic -> false
      in
      Hashtbl.replace tbl p.name init)
    (Grammar.productions g);
  let lookup n = try Hashtbl.find tbl n with Not_found -> false in
  let changed = ref true and sweep = sweep_order g in
  while !changed do
    changed := false;
    List.iter
      (fun (p : Production.t) ->
        if Hashtbl.find tbl p.name && p.attrs.Attr.kind = Attr.Plain then
          if not (expr_unit_env lookup p.expr) then (
            Hashtbl.replace tbl p.name false;
            changed := true))
      sweep
  done;
  tbl

let analyze g =
  {
    grammar = g;
    nullable_memo = None;
    first_memo = None;
    expr_first_memo = None;
    stateful_memo = None;
    unit_memo = None;
    reachable_memo = None;
    recursive_memo = None;
  }

let nullable_tbl a =
  match a.nullable_memo with
  | Some t -> t
  | None ->
      let t = compute_nullable a.grammar in
      a.nullable_memo <- Some t;
      t

let first_tbl a =
  match a.first_memo with
  | Some t -> t
  | None ->
      let t = compute_first a.grammar (nullable_tbl a) in
      a.first_memo <- Some t;
      t

let stateful_tbl a =
  match a.stateful_memo with
  | Some t -> t
  | None ->
      let t = compute_stateful a.grammar in
      a.stateful_memo <- Some t;
      t

let unit_tbl a =
  match a.unit_memo with
  | Some t -> t
  | None ->
      let t = compute_unit a.grammar in
      a.unit_memo <- Some t;
      t

let nullable a n = try Hashtbl.find (nullable_tbl a) n with Not_found -> false

let expr_nullable a e =
  let tbl = nullable_tbl a in
  expr_nullable_env (fun n -> try Hashtbl.find tbl n with Not_found -> false) e

let first a n = try Hashtbl.find (first_tbl a) n with Not_found -> Charset.empty

let expr_first a e =
  let firsts = first_tbl a and nulls = nullable_tbl a in
  let memo =
    match a.expr_first_memo with
    | Some m -> m
    | None ->
        let m = Expr.Phys.create 64 in
        a.expr_first_memo <- Some m;
        m
  in
  expr_first_env ~memo
    ~first:(fun n -> try Hashtbl.find firsts n with Not_found -> Charset.empty)
    ~nullable:(fun n -> try Hashtbl.find nulls n with Not_found -> false)
    e

let stateful a n = try Hashtbl.find (stateful_tbl a) n with Not_found -> false

let expr_yields_unit a e =
  let tbl = unit_tbl a in
  expr_unit_env (fun n -> try Hashtbl.find tbl n with Not_found -> false) e

(* A production's memo slot never needs a value when every successful
   full-mode run of its body leaves [Value.Unit] in the register: Void
   productions (their shape writes Unit unconditionally) and Plain
   productions whose body is statically unit. Text and Generic always
   produce a string or node. Lean (recognizer) hits never read the
   value slot, so only full-mode stores matter — and those run the
   full body, where [expr_yields_unit] is exact. *)
let stores_no_value a (p : Production.t) =
  match p.attrs.Attr.kind with
  | Attr.Void -> true
  | Attr.Plain -> expr_yields_unit a p.expr
  | Attr.Text | Attr.Generic -> false

(* Purely structural: calls (and the table operators, which manage
   value frames of their own) are conservatively excluded — a callee
   body may use the engine's value register as scratch space. *)
let rec preserves_value (e : Expr.t) =
  match e.it with
  | Expr.Empty | Expr.Fail _ | Expr.Any | Expr.Chr _ | Expr.Str _
  | Expr.Cls _ ->
      true
  | Expr.Seq es -> List.for_all preserves_value es
  | Expr.Alt alts ->
      List.for_all (fun (a : Expr.alt) -> preserves_value a.body) alts
  | Expr.Star x | Expr.Plus x | Expr.Opt x | Expr.And x | Expr.Not x
  | Expr.Token x | Expr.Drop x
  | Expr.Bind (_, x) ->
      preserves_value x
  | Expr.Ref _ | Expr.Node _ | Expr.Splice _ | Expr.Record _
  | Expr.Member _ ->
      false

type seq_plan =
  | Collect
  | No_value of Expr.t list
  | One_value of string option * (Expr.t * bool) list

(* [Value.seq] drops unlabeled unit parts and collapses a singleton to
   the part itself, so a sequence with at most one value-bearing part
   needs no collection: the value register already carries the result,
   provided the parts after the value-bearing one leave it alone. *)
let seq_plan a ~lean_values es =
  if
    (not lean_values)
    || List.exists
         (fun (e : Expr.t) ->
           match e.it with Expr.Splice _ -> true | _ -> false)
         es
  then Collect
  else
    let parts =
      List.map
        (fun (e : Expr.t) ->
          match e.it with
          | Expr.Bind (l, inner) -> (Some l, inner, true)
          | _ -> (None, e, not (expr_yields_unit a e)))
        es
    in
    let rec after_value = function
      | [] -> []
      | (_, _, true) :: rest -> List.map (fun (_, e, _) -> e) rest
      | _ :: rest -> after_value rest
    in
    match List.filter (fun (_, _, bearing) -> bearing) parts with
    | [] -> No_value (List.map (fun (_, e, _) -> e) parts)
    | [ (label, _, _) ] when List.for_all preserves_value (after_value parts)
      ->
        One_value (label, List.map (fun (_, e, bearing) -> (e, bearing)) parts)
    | _ -> Collect

(* --- reachability ------------------------------------------------------ *)

let reachable_from a roots =
  let seen = Hashtbl.create 64 in
  let rec visit n =
    if not (Hashtbl.mem seen n) then (
      Hashtbl.add seen n ();
      match Grammar.find a.grammar n with
      | None -> ()
      | Some p -> List.iter visit (Expr.refs p.expr))
  in
  List.iter visit roots;
  Hashtbl.fold (fun n () acc -> StringSet.add n acc) seen StringSet.empty

let reachable a =
  match a.reachable_memo with
  | Some s -> s
  | None ->
      let roots =
        Grammar.start a.grammar
        :: List.filter_map
             (fun (p : Production.t) ->
               if Production.is_public p then Some p.name else None)
             (Grammar.productions a.grammar)
      in
      let s = reachable_from a roots in
      a.reachable_memo <- Some s;
      s

(* Productions on a reference cycle (a self-reference included): the
   strongly connected components of the reference graph, found in one
   Tarjan pass. References to undefined names lead nowhere. *)
let recursive a =
  match a.recursive_memo with
  | Some s -> s
  | None ->
      let index = Hashtbl.create 64 and low = Hashtbl.create 64 in
      let on_stack = Hashtbl.create 64 in
      let stack = ref [] and next = ref 0 and acc = ref StringSet.empty in
      let rec visit n (p : Production.t) =
        Hashtbl.replace index n !next;
        Hashtbl.replace low n !next;
        incr next;
        stack := n :: !stack;
        Hashtbl.replace on_stack n ();
        let self = ref false in
        List.iter
          (fun m ->
            if String.equal m n then self := true;
            match Grammar.find a.grammar m with
            | None -> ()
            | Some q ->
                if not (Hashtbl.mem index m) then (
                  visit m q;
                  Hashtbl.replace low n
                    (min (Hashtbl.find low n) (Hashtbl.find low m)))
                else if Hashtbl.mem on_stack m then
                  Hashtbl.replace low n
                    (min (Hashtbl.find low n) (Hashtbl.find index m)))
          (Expr.refs p.expr);
        if Hashtbl.find low n = Hashtbl.find index n then (
          let rec pop members =
            match !stack with
            | m :: rest ->
                stack := rest;
                Hashtbl.remove on_stack m;
                if String.equal m n then m :: members else pop (m :: members)
            | [] -> members
          in
          match pop [] with
          | [ _ ] when not !self -> ()
          | members -> List.iter (fun m -> acc := StringSet.add m !acc) members)
      in
      List.iter
        (fun (p : Production.t) ->
          if not (Hashtbl.mem index p.name) then visit p.name p)
        (Grammar.productions a.grammar);
      a.recursive_memo <- Some !acc;
      !acc

let ref_count a name =
  let count_in (p : Production.t) =
    Expr.fold
      (fun acc e ->
        match e.Expr.it with
        | Expr.Ref n when String.equal n name -> acc + 1
        | _ -> acc)
      0 p.expr
  in
  let refs =
    List.fold_left
      (fun acc p -> acc + count_in p)
      0
      (Grammar.productions a.grammar)
  in
  if String.equal (Grammar.start a.grammar) name then refs + 1 else refs

(* --- left recursion ----------------------------------------------------- *)

(* Edges of the "invocable at the same input position" relation. Predicates
   parse at the current position, so their bodies contribute edges too. *)
let left_edges a (p : Production.t) =
  let acc = ref StringSet.empty in
  (* Returns true when e may succeed without consuming input, i.e. whatever
     follows e in a sequence is still at the start position. *)
  let rec go (e : Expr.t) =
    match e.it with
    | Expr.Empty -> true
    | Fail _ -> false
    | Any | Chr _ | Str _ | Cls _ -> false
    | Ref n ->
        acc := StringSet.add n !acc;
        nullable a n
    | Seq es ->
        let rec seq = function
          | [] -> true
          | e :: rest -> if go e then seq rest else false
        in
        seq es
    | Alt alts ->
        List.fold_left (fun eps alt -> go alt.Expr.body || eps) false alts
    | Star x ->
        ignore (go x);
        true
    | Plus x -> go x
    | Opt x ->
        ignore (go x);
        true
    | And x | Not x ->
        ignore (go x);
        true
    | Bind (_, x) | Token x | Node (_, x) | Drop x | Splice x
    | Record (_, x) | Member (_, _, x) ->
        go x
  in
  ignore (go p.expr);
  !acc

let left_recursion a =
  let edges = Hashtbl.create 64 in
  List.iter
    (fun (p : Production.t) -> Hashtbl.replace edges p.name (left_edges a p))
    (Grammar.productions a.grammar);
  let color = Hashtbl.create 64 in
  (* 1 = on stack, 2 = done *)
  let exception Cycle of string list in
  let rec visit path n =
    match Hashtbl.find_opt color n with
    | Some 2 -> ()
    | Some _ ->
        let cycle =
          let rec take = function
            | [] -> []
            | x :: rest -> if String.equal x n then [ x ] else x :: take rest
          in
          n :: List.rev (take path)
        in
        raise (Cycle cycle)
    | None ->
        Hashtbl.replace color n 1;
        (match Hashtbl.find_opt edges n with
        | None -> ()
        | Some succ -> StringSet.iter (visit (n :: path)) succ);
        Hashtbl.replace color n 2
  in
  try
    List.iter
      (fun (p : Production.t) -> visit [] p.name)
      (Grammar.productions a.grammar);
    None
  with Cycle c -> Some c

(* --- well-formedness ---------------------------------------------------- *)

let check a =
  let dangling = Grammar.check_closed a.grammar in
  let left_rec =
    match left_recursion a with
    | None -> []
    | Some cycle ->
        [
          Diagnostic.error
            ~notes:[ "cycle: " ^ String.concat " -> " cycle ]
            "grammar is left-recursive; packrat parsing would not terminate";
        ]
  in
  let vacuous =
    List.concat_map
      (fun (p : Production.t) ->
        Expr.fold
          (fun acc (e : Expr.t) ->
            match e.it with
            | Expr.Star x | Expr.Plus x when expr_nullable a x ->
                Diagnostic.errorf ~span:e.loc
                  "repetition over a nullable expression in production %S \
                   would loop forever"
                  p.name
                :: acc
            | _ -> acc)
          [] p.expr)
      (Grammar.productions a.grammar)
  in
  dangling @ left_rec @ vacuous
