open Rats_support
open Rats_peg

type row = {
  pass_name : string;
  pass_time : float;
  prods_before : int;
  prods_after : int;
  nodes_before : int;
  nodes_after : int;
  pass_changed : bool;
}

type outcome = {
  grammar : Grammar.t;
  rows : row list;
  warnings : Diagnostic.t list;
}

let time rows = List.fold_left (fun acc r -> acc +. r.pass_time) 0. rows
let total_time o = time o.rows

let pp_table ppf rows =
  Format.fprintf ppf "  %-14s %9s %7s %7s %8s %8s@." "pass" "time ms"
    "prods" "Δprods" "nodes" "Δnodes";
  List.iter
    (fun r ->
      Format.fprintf ppf "  %-14s %9.3f %7d %+7d %8d %+8d%s@." r.pass_name
        (r.pass_time *. 1000.) r.prods_after
        (r.prods_after - r.prods_before)
        r.nodes_after
        (r.nodes_after - r.nodes_before)
        (if r.pass_changed then "" else "   (no change)"))
    rows;
  Format.fprintf ppf "  %-14s %9.3f@." "total" (time rows *. 1000.)

(* Structural equality, spans and origins ignored: what "this pass
   changed nothing" means for instrumentation. Passes return untouched
   productions (and an untouched grammar) physically unchanged, so
   [Production.equal]'s [==] test settles most of them without a walk. *)
let grammar_equal a b =
  a == b
  || String.equal (Grammar.start a) (Grammar.start b)
     && List.compare_lengths (Grammar.productions a) (Grammar.productions b) = 0
     && List.for_all2 Production.equal (Grammar.productions a)
          (Grammar.productions b)

exception Abort of Diagnostic.t list

let run ?(gate = true) ?(verify = false) ?dump_after passes g =
  let ctx = Analysis_ctx.create () in
  let rows = ref [] in
  (* The size of the grammar the next pass starts from: each grammar
     value is sized once, as one pass's "after" and the next one's
     "before". *)
  let size = ref (-1) in
  let exec g (p : Pass.t) =
    let t0 = Unix.gettimeofday () in
    let g' = p.run ctx g in
    let dt = Unix.gettimeofday () -. t0 in
    let nodes_before = if !size >= 0 then !size else Grammar.size g in
    let nodes_after = if g' == g then nodes_before else Grammar.size g' in
    size := nodes_after;
    rows :=
      {
        pass_name = p.name;
        pass_time = dt;
        prods_before = Grammar.length g;
        prods_after = Grammar.length g';
        nodes_before;
        nodes_after;
        pass_changed = not (grammar_equal g g');
      }
      :: !rows;
    Option.iter (fun f -> f p g') dump_after;
    (if verify then
       match Analysis.check (Analysis_ctx.analysis ctx g') with
       | [] -> ()
       | ds ->
           raise
             (Abort
                (Diagnostic.errorf
                   "optimizer pass %S left the grammar ill-formed" p.name
                 :: ds)));
    g'
  in
  try
    let warnings =
      if not gate then []
      else
        let a = Analysis_ctx.analysis ctx g in
        match List.filter Diagnostic.is_error (Analysis.check a) with
        | _ :: _ as hard -> raise (Abort hard)
        | [] -> Lint.check a
    in
    let g = List.fold_left exec g passes in
    Ok { grammar = g; rows = List.rev !rows; warnings }
  with Abort ds -> Error ds
