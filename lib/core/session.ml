open Rats_support
open Rats_runtime

type t = {
  eng : Engine.t;  (* the caller's: cold fallbacks run on it *)
  warm : Engine.t;  (* [Engine.for_session eng]: the incremental runs *)
  start : string option;
  mutable source : Source.t;  (* buffer + patched line-start index *)
  store : Engine.store;
  mutable relocated : int;  (* accumulated across edits since reparse *)
  mutable survivors : int;  (* entries alive after the latest edit *)
  stats : Stats.t;  (* counters of the last reparse *)
  mutable cold_fallbacks : int;
}

let create_source ?start eng source =
  let warm = Engine.for_session eng in
  {
    eng;
    warm;
    start;
    source;
    store = Engine.new_store warm;
    relocated = 0;
    survivors = 0;
    stats = Stats.create ();
    cold_fallbacks = 0;
  }

let create ?(name = "<session>") ?start eng text =
  create_source ?start eng (Source.of_string ~name text)

let source t = t.source
let text t = Source.text t.source
let length t = Source.length t.source

let apply_edit t ~start ~old_len ~replacement =
  (match Source.apply_edit t.source ~start ~old_len ~replacement with
  | s -> t.source <- s
  | exception Invalid_argument _ ->
      invalid_arg "Rats.Session.apply_edit: edit out of bounds");
  let survivors, relocated =
    Engine.edit_store t.warm t.store ~start ~old_len
      ~new_len:(String.length replacement)
  in
  t.survivors <- survivors;
  t.relocated <- t.relocated + relocated

(* Incremental pass first; any failure falls back to a cold parse so
   error reports (farthest position, expected set) are identical to a
   from-scratch parse by construction — memo hits in the incremental
   pass hide part of the expected-set trace. *)
let reparse t =
  (* An observed engine sees the session machinery too: the ring
     shows what the store contributed before the run's own events. *)
  (match Engine.observation t.eng with
  | Some o when t.survivors > 0 || t.relocated > 0 ->
      Observe.session_reuse o ~reused:t.survivors ~relocated:t.relocated
  | _ -> ());
  let o =
    Engine.backstopped (fun () ->
        Engine.run_store_input t.warm t.store ?start:t.start
          (Source.input t.source))
  in
  let reused = t.survivors and relocated = t.relocated in
  t.relocated <- 0;
  t.survivors <- 0;
  let o =
    match o.Engine.result with
    | Ok _ -> o
    | Error _ ->
        t.cold_fallbacks <- t.cold_fallbacks + 1;
        Engine.backstopped (fun () ->
            Engine.run_input t.eng ?start:t.start (Source.input t.source))
  in
  Stats.reset t.stats;
  Stats.add t.stats o.Engine.stats;
  t.stats.Stats.memo_reused <- reused;
  t.stats.Stats.memo_relocated <- relocated;
  o.Engine.result

let stats t = t.stats
let cold_fallbacks t = t.cold_fallbacks
