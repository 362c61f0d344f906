open Rats_support
open Rats_peg
module Stats = Rats_runtime.Stats

type outcome = {
  grammar : Grammar.t;
  rows : Stats.pass_row list;
  warnings : Diagnostic.t list;
}

let total_time o = List.fold_left (fun acc r -> acc +. r.Stats.pass_time) 0. o.rows

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

let run ?(gate = true) ?(verify = false) ?dump_after ?on_pass passes g =
  let repair, opt =
    List.partition (fun (p : Pass.t) -> p.stage = Pass.Repair) passes
  in
  let ctx = Analysis_ctx.create g in
  let rows = ref [] in
  (* The size of the grammar the next pass starts from: each grammar
     value is sized once, as one pass's "after" and the next one's
     "before". *)
  let size = ref (-1) in
  let exec ~check (p : Pass.t) g =
    let t0 = Unix.gettimeofday () in
    let g' = p.run ctx g in
    let dt = Unix.gettimeofday () -. t0 in
    Analysis_ctx.advance ctx ~invalidates:p.invalidates g';
    let nodes_before = if !size >= 0 then !size else Grammar.size g in
    let nodes_after = if g' == g then nodes_before else Grammar.size g' in
    size := nodes_after;
    let row =
      {
        Stats.pass_name = p.name;
        pass_time = dt;
        prods_before = Grammar.length g;
        prods_after = Grammar.length g';
        nodes_before;
        nodes_after;
        pass_changed = not (grammar_equal g g');
      }
    in
    rows := row :: !rows;
    Option.iter (fun f -> f row) on_pass;
    Option.iter (fun f -> f p g') dump_after;
    (if check then
       match Analysis.check (Analysis_ctx.analysis ctx) with
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
    let g = List.fold_left (fun g p -> exec ~check:false p g) g repair in
    let warnings =
      if not gate then []
      else
        let a = Analysis_ctx.analysis ctx in
        match List.filter Diagnostic.is_error (Analysis.check a) with
        | _ :: _ as hard -> raise (Abort hard)
        | [] -> Lint.check ~analysis:a g
    in
    let g = List.fold_left (fun g p -> exec ~check:verify p g) g opt in
    Ok { grammar = g; rows = List.rev !rows; warnings }
  with Abort ds -> Error ds

let run_exn ?gate ?verify ?dump_after ?on_pass passes g =
  match run ?gate ?verify ?dump_after ?on_pass passes g with
  | Ok o -> o
  | Error ds ->
      raise
        (Diagnostic.Fail
           (match ds with
           | d :: _ -> d
           | [] -> Diagnostic.error "optimizer driver failed"))
