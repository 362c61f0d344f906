(* The library pipeline from grammar text to engine, one public entry
   point per layer, each inside its own span: meta (module parser),
   resolve (composition), optimize (the pass driver; each pass in a
   child span, so the optimize span's self time is the driver's own
   bookkeeping), prepare (the well-formedness check, then closure or VM
   lowering). The driver runs with its gate off, as in `rml parse -O`:
   Engine.prepare checks well-formedness anyway, and the oneshot child
   must do exactly the work rml does. *)

open Rats

let fail what ds =
  failwith (what ^ ": " ^ String.concat "; " (List.map Diagnostic.to_string ds))

let ok what = function Ok v -> v | Error ds -> fail what ds

let traced_passes tr =
  List.map
    (fun (p : Pass.t) ->
      { p with run = (fun ctx g -> Trace.span tr ("pass." ^ p.name) (fun () -> p.run ctx g)) })
    (Pipeline.passes ())

let compile ?tr (g : Inputs.grammar) =
  let span name ?args f = Trace.span tr ~grammar:g.name ?args name f in
  let modules =
    span "meta" (fun () ->
        List.concat_map (fun t -> ok "meta" (modules_of_string t)) g.texts)
  in
  let composed =
    span "resolve"
      ~args:(fun c -> [ ("productions", Grammar.length c) ])
      (fun () -> ok "resolve" (compose ~root:g.root modules))
  in
  let optimized =
    span "optimize"
      ~args:(fun o -> [ ("nodes_after", Grammar.size o) ])
      (fun () -> (ok "optimize" (Driver.run ~gate:false (traced_passes tr) composed)).Driver.grammar)
  in
  span "prepare"
    ~args:(fun e -> [ ("memo_slots", Engine.memo_slots e) ])
    (fun () -> ok "prepare" (Engine.prepare ~config:Config.optimized optimized))

(* The parse layer: one [Engine.run], with its counters and the bytes it
   allocated as span attributes. The clocks bracket the call alone;
   returns the outcome and its CPU time in ns, the clock ops are timed
   by. *)
let parse tr ~grammar eng text =
  let a0 = Gc.allocated_bytes () in
  let t0 = Trace.now_ns () in
  let c0 = Measure.cpu_ns () in
  let o = Engine.run eng text in
  let c1 = Measure.cpu_ns () in
  let t1 = Trace.now_ns () in
  let alloc = Gc.allocated_bytes () -. a0 in
  let s = o.stats in
  Trace.add tr ~grammar "parse" ~start_ns:t0 ~end_ns:t1
    ~args:
      [
        ("bytes", String.length text);
        ("alloc", int_of_float alloc);
        ("invocations", s.invocations);
        ("memo_hits", s.memo_hits);
        ("memo_misses", s.memo_misses);
        ("backtracks", s.backtracks);
      ];
  (o, c1 - c0)

(* The render layer: what [rml parse] prints for a tree. [bytes] is the
   size of the parsed input, so render cost compares with parse cost. *)
let render tr ~grammar ~bytes v =
  Trace.span tr ~grammar "render"
    ~args:(fun _ -> [ ("bytes", bytes) ])
    (fun () -> Value.to_string v)
