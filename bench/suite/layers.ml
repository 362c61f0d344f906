(* Per-layer metrics of a traced run, derived from the recorder. Compile,
   parse and render numbers come from the workload's own spans (its
   set-up compiles, or the oneshot children); session, batch and cli
   numbers come from spans in any scope, so a workload that does not
   exercise those layers reports what its sweep measured. *)

let metrics =
  [
    ("setup.first_s", "s");
    ("meta.ms", "ms");
    ("resolve.ms", "ms");
    ("resolve.productions", "count");
    ("optimize.driver_ms", "ms");
    ("optimize.transients_ms", "ms");
    ("optimize.terminals_ms", "ms");
    ("optimize.inline_ms", "ms");
    ("optimize.fold_ms", "ms");
    ("optimize.factor_ms", "ms");
    ("optimize.prune_ms", "ms");
    ("optimize.nodes_after", "count");
    ("prepare.ms", "ms");
    ("prepare.memo_slots", "count");
    ("parse.us_per_kb", "us/KB");
    ("parse.alloc_kb_per_kb", "KB/KB");
    ("parse.invocations_per_kb", "1/KB");
    ("parse.memo_hit_ratio", "ratio");
    ("parse.backtracks_per_kb", "1/KB");
    ("render.us_per_kb", "us/KB");
    ("session.apply_edit_us", "us");
    ("session.reparse_ms", "ms");
    ("session.work_ratio", "ratio");
    ("session.cold_fallbacks", "1/op");
    ("batch.overhead_us_per_doc", "us");
    ("batch.retried_share", "ratio");
    ("batch.memo_degraded", "1/doc");
    ("cli.overhead_ms", "ms");
    ("trace.overhead", "ratio");
  ]

let unit_of name = List.assoc name metrics
let sum = List.fold_left ( +. ) 0.
let uniq xs = List.sort_uniq compare xs
let self_ms s = float_of_int (Trace.self_ns s) /. 1e6
let arg key (s : Trace.span) = float_of_int (Option.value ~default:0 (List.assoc_opt key s.args))

(* [grammar]: restrict to one grammar's spans (the per-grammar rows);
   values that only exist for the whole run are then left out. *)
let compute (t : Trace.t) ?grammar ~first_s ~overhead () =
  let mine (s : Trace.span) = match grammar with None -> true | Some g -> s.grammar = g in
  let own name = List.filter (fun (s : Trace.span) -> s.name = name && (not s.sweep) && mine s) t.spans in
  let any name = List.filter (fun (s : Trace.span) -> s.name = name && mine s) t.spans in
  (* compile layers: median per grammar, summed over the grammar set *)
  let set f name =
    let spans = own name in
    sum
      (List.map
         (fun g -> f (List.filter (fun (s : Trace.span) -> s.grammar = g) spans))
         (uniq (List.map (fun (s : Trace.span) -> s.grammar) spans)))
  in
  let set_ms = set (fun ss -> Measure.median (List.map self_ms ss)) in
  let set_arg key = set (fun ss -> List.fold_left (fun m s -> Float.max m (arg key s)) 0. ss) in
  let total key ss = sum (List.map (arg key) ss) in
  let per_kb f ss = f ss /. (total "bytes" ss /. 1024.) in
  let parses = own "parse" in
  let whole v = if grammar = None then Some v else None in
  let counted name = float_of_int (Trace.counted t name) in
  let median_sample name = Measure.median (Trace.sampled t name) in
  List.filter_map
    (fun (name, v) -> Option.map (fun v -> (name, v)) v)
    [
      ("setup.first_s", whole first_s);
      ("meta.ms", Some (set_ms "meta"));
      ("resolve.ms", Some (set_ms "resolve"));
      ("resolve.productions", Some (set_arg "productions" "resolve"));
      ("optimize.driver_ms", Some (set_ms "optimize"));
      ("optimize.transients_ms", Some (set_ms "pass.transients"));
      ("optimize.terminals_ms", Some (set_ms "pass.terminals"));
      ("optimize.inline_ms", Some (set_ms "pass.inline"));
      ("optimize.fold_ms", Some (set_ms "pass.fold"));
      ("optimize.factor_ms", Some (set_ms "pass.factor"));
      ("optimize.prune_ms", Some (set_ms "pass.prune"));
      ("optimize.nodes_after", Some (set_arg "nodes_after" "optimize"));
      ("prepare.ms", Some (set_ms "prepare"));
      ("prepare.memo_slots", Some (set_arg "memo_slots" "prepare"));
      (* per grammar only, and only where the set-up compiles ran traced *)
      ( "prepare.vm_ms",
        if grammar = None || own "prepare.vm" = [] then None else Some (set_ms "prepare.vm") );
      ("parse.us_per_kb", Some (per_kb (fun ss -> 1e3 *. sum (List.map self_ms ss)) parses));
      ("parse.alloc_kb_per_kb", Some (per_kb (fun ss -> total "alloc" ss /. 1024.) parses));
      ("parse.invocations_per_kb", Some (per_kb (total "invocations") parses));
      ( "parse.memo_hit_ratio",
        Some
          (let h = total "memo_hits" parses in
           h /. (h +. total "memo_misses" parses)) );
      ("parse.backtracks_per_kb", Some (per_kb (total "backtracks") parses));
      ("render.us_per_kb", Some (per_kb (fun ss -> 1e3 *. sum (List.map self_ms ss)) (own "render")));
      ("session.apply_edit_us", Some (1e3 *. Measure.median (List.map self_ms (any "apply_edit"))));
      ("session.reparse_ms", Some (Measure.median (List.map self_ms (any "reparse"))));
      ("session.work_ratio", whole (median_sample "session.work_ratio"));
      ( "session.cold_fallbacks",
        whole (counted "session.cold_fallbacks" /. counted "session.reparses") );
      ("batch.overhead_us_per_doc", whole (median_sample "batch.overhead_us"));
      ("batch.retried_share", whole (counted "batch.retried" /. counted "batch.docs"));
      ("batch.memo_degraded", whole (counted "batch.memo_degraded" /. counted "batch.docs"));
      ( "cli.overhead_ms",
        whole (median_sample "cli.rml_ms" -. median_sample "cli.child_ms") );
      ("trace.overhead", whole overhead);
    ]
