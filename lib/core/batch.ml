open Rats_support
open Rats_peg
open Rats_runtime

type source =
  | Manifest of string
  | Channel of { ic : in_channel; sep : char }
  | Docs of (string * string) list

type rung = Full | Recognizer

let rung_name = function Full -> "full" | Recognizer -> "recognizer"

type fail_class = Syntax | Resource of string | Io | Internal

type record = {
  r_index : int;
  r_name : string;
  r_bytes : int;
  r_ok : bool;
  r_rung : rung;
  r_retried : bool;
  r_fail : fail_class option;
  r_which : string option;
  r_position : int;
  r_message : string;
  r_ms : float;
  r_memo_degraded : int;
  r_fuel_used : int;
}

type summary = {
  s_docs : int;
  s_ok : int;
  s_failed : int;
  s_degraded : int;
  s_rung_full : int;
  s_rung_recognizer : int;
  s_syntax : int;
  s_resource : int;
  s_io : int;
  s_internal : int;
  s_p50_ms : float;
  s_p99_ms : float;
  s_total_ms : float;
  s_memo_degraded : int;
  s_cold_fallbacks : int;
}

type report = { records : record list; summary : summary }

exception Prep_failed of string

(* ------------------------------------------------------------------ *)
(* The recognizer rung: the same grammar with every production's kind
   erased to [Void]. Kinds only shape semantic values — what matches,
   and where failures point, is untouched — so the erased grammar gives
   the same verdict on every document. What changes is the memo table:
   value-free productions get no arena value slot (the vmap), and the
   value-aware {!Limits.chunk_cost} then charges each position markedly
   less, so the same memo budget memoizes roughly twice the input
   before degrading. A document whose degradation re-runs burned
   through the fuel budget on the full rung gets a genuine second
   chance here. Values are turned off at the grammar level rather than
   through [Config.lean_values] deliberately: the lean entry points
   read the memo but never fill it, and the rung needs the storing
   matchers — just with nothing to store. *)

let recognizer_erase g =
  let prods =
    List.map
      (fun (p : Production.t) ->
        Production.with_attrs p { p.Production.attrs with Attr.kind = Attr.Void })
      (Grammar.productions g)
  in
  match Grammar.make ~start:(Grammar.start g) prods with
  | Ok g -> Some g
  | Error _ -> None

(* ------------------------------------------------------------------ *)
(* Document acquisition *)

let read_doc_file ~cap ~faults path =
  match open_in_bin path with
  | exception Sys_error m -> Error (Faults.Io_fault m)
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> Faults.read_channel ~cap ~faults ic)

let manifest_paths path =
  match open_in_bin path with
  | exception Sys_error m -> Error m
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let rec go acc =
            match In_channel.input_line ic with
            | None -> Ok (List.rev acc)
            | Some line ->
                let line = String.trim line in
                if line = "" || line.[0] = '#' then go acc else go (line :: acc)
            | exception Sys_error m -> Error m
          in
          go [])

(* Stream a delimited channel, yielding one buffered document per
   separator. Per-document buffering is bounded by [cap + 1] bytes —
   every verdict the read path can reach (truncation point, injected
   I/O offset, cap trip) lies at or below that prefix, so the byte
   count past it only needs counting, not keeping. *)
let iter_channel ~sep ~cap ic yield =
  let keep = if cap >= max_int - 1 then max_int else cap + 1 in
  let chunk = Bytes.create 65536 in
  let buf = Buffer.create 4096 in
  let idx = ref 0 in
  let count = ref 0 in
  let flush () =
    yield !idx (Ok (Buffer.contents buf));
    incr idx;
    Buffer.clear buf;
    count := 0
  in
  let rec go () =
    match In_channel.input ic chunk 0 (Bytes.length chunk) with
    | 0 -> if !count > 0 then flush ()
    | n ->
        for i = 0 to n - 1 do
          let c = Bytes.unsafe_get chunk i in
          if c = sep then flush ()
          else begin
            if Buffer.length buf < keep then Buffer.add_char buf c;
            incr count
          end
        done;
        go ()
    | exception Sys_error m ->
        (* the stream itself died mid-document: contain it as that
           document's record and stop *)
        yield !idx (Error (Faults.Io_fault m));
        incr idx
  in
  go ()

(* ------------------------------------------------------------------ *)
(* JSON rendering *)

let fail_name = function
  | Syntax -> "syntax"
  | Resource _ -> "resource"
  | Io -> "io"
  | Internal -> "internal"

let jsonl_of_record r =
  let b = Buffer.create 160 in
  Buffer.add_string b
    (Printf.sprintf
       "{\"doc\":%d,\"name\":%s,\"bytes\":%d,\"status\":\"%s\",\"rung\":\"%s\",\"retried\":%b"
       r.r_index (Json.string r.r_name) r.r_bytes
       (if r.r_ok then "ok" else "fail")
       (rung_name r.r_rung) r.r_retried);
  (match r.r_fail with
  | None -> ()
  | Some f ->
      Buffer.add_string b (Printf.sprintf ",\"kind\":\"%s\"" (fail_name f));
      (match r.r_which with
      | Some w -> Buffer.add_string b (Printf.sprintf ",\"which\":\"%s\"" w)
      | None -> ());
      if r.r_position >= 0 then
        Buffer.add_string b (Printf.sprintf ",\"position\":%d" r.r_position);
      Buffer.add_string b
        (Printf.sprintf ",\"message\":%s" (Json.string r.r_message)));
  Buffer.add_string b
    (Printf.sprintf ",\"ms\":%.3f,\"memo_degraded\":%d,\"fuel_used\":%d}" r.r_ms
       r.r_memo_degraded r.r_fuel_used);
  Buffer.contents b

let jsonl_of_summary s =
  Printf.sprintf
    "{\"summary\":true,\"docs\":%d,\"ok\":%d,\"failed\":%d,\"degraded\":%d,\"rung_full\":%d,\"rung_recognizer\":%d,\"syntax\":%d,\"resource\":%d,\"io\":%d,\"internal\":%d,\"p50_ms\":%.3f,\"p99_ms\":%.3f,\"total_ms\":%.3f,\"memo_degraded\":%d,\"cold_fallbacks\":%d}"
    s.s_docs s.s_ok s.s_failed s.s_degraded s.s_rung_full s.s_rung_recognizer
    s.s_syntax s.s_resource s.s_io s.s_internal s.s_p50_ms s.s_p99_ms
    s.s_total_ms s.s_memo_degraded s.s_cold_fallbacks

let pp_summary ppf s =
  Format.fprintf ppf
    "%d docs: %d ok, %d failed (%d syntax, %d resource, %d io, %d internal), \
     %d degraded (%d answered on recognizer rung); p50 %.3fms p99 %.3fms \
     total %.1fms; memo_degraded %d, cold_fallbacks %d"
    s.s_docs s.s_ok s.s_failed s.s_syntax s.s_resource s.s_io s.s_internal
    s.s_degraded s.s_rung_recognizer s.s_p50_ms s.s_p99_ms s.s_total_ms
    s.s_memo_degraded s.s_cold_fallbacks

let severity = function
  | None -> 0
  | Some Syntax -> 1
  | Some Io -> 2
  | Some (Resource _) -> 3
  | Some Internal -> 4

let exit_code r =
  let s = r.summary in
  if s.s_internal > 0 then 5
  else if s.s_resource > 0 then 4
  else if s.s_syntax > 0 || s.s_io > 0 then 3
  else 0

(* ------------------------------------------------------------------ *)

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.
  else
    let rank = int_of_float (ceil (p *. float_of_int n)) - 1 in
    sorted.(max 0 (min (n - 1) rank))

let summarize records total_ms =
  let records = Array.of_list records in
  let n = Array.length records in
  let count f = Array.fold_left (fun acc r -> if f r then acc + 1 else acc) 0 records in
  let lat = Array.map (fun r -> r.r_ms) records in
  Array.sort compare lat;
  {
    s_docs = n;
    s_ok = count (fun r -> r.r_ok);
    s_failed = count (fun r -> not r.r_ok);
    s_degraded = count (fun r -> r.r_retried);
    s_rung_full = count (fun r -> r.r_rung = Full);
    s_rung_recognizer = count (fun r -> r.r_rung = Recognizer);
    s_syntax = count (fun r -> r.r_fail = Some Syntax);
    s_resource =
      count (fun r -> match r.r_fail with Some (Resource _) -> true | _ -> false);
    s_io = count (fun r -> r.r_fail = Some Io);
    s_internal = count (fun r -> r.r_fail = Some Internal);
    s_p50_ms = percentile lat 0.5;
    s_p99_ms = percentile lat 0.99;
    s_total_ms = total_ms;
    s_memo_degraded =
      Array.fold_left (fun acc r -> acc + r.r_memo_degraded) 0 records;
    s_cold_fallbacks = 0;
  }

(* ------------------------------------------------------------------ *)
(* Telemetry instruments. Registered once per run when (and only when)
   a registry is passed in; the run body guards every record call on
   the [instruments option], so a run without [?metrics] never enters
   the metrics module at all — the PR 5 zero-cost-when-off contract at
   pipeline level. *)

type instruments = {
  i_docs : Metrics.counter array;  (* by status: ok, fail *)
  i_fail : Metrics.counter array;  (* by class, in [fail_index] order *)
  i_rung : Metrics.counter array;  (* full, recognizer *)
  i_retries : Metrics.counter;
  i_latency_us : Metrics.histogram;
  i_fuel : Metrics.histogram;
  i_doc_bytes : Metrics.histogram;
  i_memo_bytes : Metrics.histogram;
  i_gc_minor_words : Metrics.gauge;
  i_gc_major_words : Metrics.gauge;
  i_gc_heap_words : Metrics.gauge;
  i_arena_chunk_cap : Metrics.gauge;
  i_memo_chunks_peak : Metrics.gauge;
}

let fail_index = function Syntax -> 0 | Resource _ -> 1 | Io -> 2 | Internal -> 3

(* Sequenced lets, not a record literal: record fields evaluate
   right-to-left, which would reverse registration — and the exposition
   order — in the registry, and strand the HELP text away from the
   first series of each family. A family's help rides on its first
   series. *)
let instruments_of reg =
  let family ~help name label values =
    Array.of_list
      (List.mapi
         (fun i v ->
           Metrics.counter reg ~labels:[ (label, v) ]
             ?help:(if i = 0 then Some help else None)
             name)
         values)
  in
  let i_docs =
    family ~help:"Documents processed, by final status." "rml_batch_docs_total"
      "status" [ "ok"; "fail" ]
  in
  let i_fail =
    family ~help:"Failed documents, by failure class." "rml_batch_fail_total"
      "class" [ "syntax"; "resource"; "io"; "internal" ]
  in
  let i_rung =
    family ~help:"Documents answered, by degradation-ladder rung."
      "rml_batch_rung_total" "rung" [ "full"; "recognizer" ]
  in
  let i_retries =
    Metrics.counter reg ~help:"Documents the degradation ladder descended for."
      "rml_batch_retries_total"
  in
  let histogram help name = Metrics.histogram reg ~help name in
  let i_latency_us =
    histogram "Per-document wall time, microseconds (retries included)."
      "rml_batch_doc_latency_us"
  in
  let i_fuel =
    histogram "Fuel charged per document, summed across reruns." "rml_batch_doc_fuel"
  in
  let i_doc_bytes =
    histogram "Document size in bytes, as delivered to the parser."
      "rml_batch_doc_bytes"
  in
  let i_memo_bytes =
    histogram "Estimated memo bytes charged per document (chunks x chunk_cost)."
      "rml_batch_doc_memo_bytes"
  in
  let gauge help name = Metrics.gauge reg ~help name in
  let i_gc_minor_words =
    gauge "GC minor words at the last record (live counter)." "rml_gc_minor_words"
  in
  let i_gc_major_words =
    gauge "GC major words as of the last minor collection." "rml_gc_major_words"
  in
  let i_gc_heap_words =
    gauge "GC major-heap words as of the last minor collection." "rml_gc_heap_words"
  in
  let i_arena_chunk_cap =
    gauge "Pooled memo-arena backing chunks (high water)." "rml_arena_chunk_cap"
  in
  let i_memo_chunks_peak =
    gauge "Most memo chunks claimed by a single document." "rml_batch_memo_chunks_peak"
  in
  {
    i_docs; i_fail; i_rung; i_retries; i_latency_us; i_fuel; i_doc_bytes;
    i_memo_bytes; i_gc_minor_words; i_gc_major_words; i_gc_heap_words;
    i_arena_chunk_cap; i_memo_chunks_peak;
  }

let gauge_max g v = if v > Metrics.gauge_value g then Metrics.set g v

(* Everything here is derived from the already-built record (plus the
   run-scoped accumulators), so recording adds no clock reads: the
   JSONL stream is unchanged even under a synthetic test clock. *)
let record_metrics i ~memo_bytes ~memo_chunks ~arena_cap r =
  Metrics.inc i.i_docs.(if r.r_ok then 0 else 1);
  Option.iter (fun f -> Metrics.inc i.i_fail.(fail_index f)) r.r_fail;
  Metrics.inc i.i_rung.(match r.r_rung with Full -> 0 | Recognizer -> 1);
  if r.r_retried then Metrics.inc i.i_retries;
  Metrics.observe i.i_latency_us (int_of_float (r.r_ms *. 1e3));
  Metrics.observe i.i_fuel r.r_fuel_used;
  if r.r_bytes >= 0 then Metrics.observe i.i_doc_bytes r.r_bytes;
  Metrics.observe i.i_memo_bytes memo_bytes;
  gauge_max i.i_memo_chunks_peak memo_chunks;
  gauge_max i.i_arena_chunk_cap arena_cap;
  (* [Gc.minor_words ()] reads the live per-domain counter; the other
     two come from [quick_stat], which OCaml 5 only refreshes at minor
     collections — fine for gauges (a run short enough never to have
     minor-collected has nothing interesting to report there), and it
     means the record path never forces a collection. *)
  Metrics.set i.i_gc_minor_words (int_of_float (Gc.minor_words ()));
  let g = Gc.quick_stat () in
  Metrics.set i.i_gc_major_words (int_of_float g.Gc.major_words);
  Metrics.set i.i_gc_heap_words g.Gc.heap_words

let run ?(config = Config.optimized) ?limits ?start ?deadline_ns
    ?(faults = Faults.none) ?now_ns ?metrics ?spans
    ?(on_record = fun _ -> ()) g src =
  let base_config =
    match limits with Some l -> Config.with_limits l config | None -> config
  in
  let base_limits = base_config.Config.limits in
  let cap = base_limits.Limits.max_input_bytes in
  let raw_now = match now_ns with Some f -> f | None -> Profile.now_ns in
  let inst = Option.map instruments_of metrics in
  (* Spans take their own clock readings; everything is guarded so a
     run without [?spans] reads the clock exactly as often as before
     (synthetic-clock tests depend on the call sequence). *)
  let span_now () = match spans with Some _ -> raw_now () | None -> 0 in
  let span ?cat ?(args = fun () -> []) name t0 =
    Option.iter
      (fun sp ->
        Profile.Spans.span sp ?cat ~name ~args:(args ()) ~ts_ns:t0
          ~dur_ns:(raw_now () - t0))
      spans
  in
  (* Prepare once, up front: a grammar that doesn't build is the run's
     only error — after this point every failure is a record. Each body
     compiles on the first document that calls it. *)
  let t_compile = span_now () in
  let prepared = Engine.prepare ~config:base_config g in
  span "compile" t_compile;
  match prepared with
  | Error ds -> Error ds
  | Ok full ->
      let rec_grammar = recognizer_erase g in
      (* The recognizer rung compiles on first use; budgets are set per
         run ([Engine.with_limits]), so two engines serve every
         document, slice and fault cap. *)
      let recognizer =
        lazy
          (let rg = Option.get rec_grammar in
           let t0 = span_now () in
           match Engine.prepare ~config:{ base_config with Config.lean_values = false } rg with
           | Ok e ->
               span "compile-rung" ~args:(fun () -> [ ("rung", rung_name Recognizer) ]) t0;
               e
           | Error ds ->
               raise (Prep_failed (String.concat "; " (List.map Diagnostic.to_string ds))))
      in
      let engine_for = function
        | Full -> full
        | Recognizer -> Lazy.force recognizer
      in
      let records_rev = ref [] in
      let t_run0 = raw_now () in
      let process idx name payload =
        let t0 = raw_now () in
        let dfaults = Faults.active_for faults idx in
        let capped fault budget = Option.fold (fault dfaults) ~none:budget ~some:(min budget) in
        let eff =
          {
            base_limits with
            Limits.fuel = capped Faults.fuel_cap base_limits.Limits.fuel;
            max_memo_bytes = capped Faults.memo_cap base_limits.Limits.max_memo_bytes;
          }
        in
        (match spans with
        | Some sp when dfaults <> [] ->
            Profile.Spans.instant sp ~name:"fault"
              ~args:
                [
                  ("doc", string_of_int idx);
                  ("faults", String.concat "," (List.map Faults.fault_to_string dfaults));
                ]
              ~ts_ns:t0
        | _ -> ());
        let degraded = ref 0 and fuel = ref 0 in
        let mbytes = ref 0 and mchunks = ref 0 in
        let note eng (o : Engine.outcome) =
          degraded := !degraded + o.Engine.stats.Stats.memo_degraded;
          fuel := !fuel + o.Engine.stats.Stats.fuel_used;
          let chunks = o.Engine.stats.Stats.chunks_allocated in
          if Option.is_some inst && chunks > 0 then begin
            let cost =
              Limits.chunk_cost ~value_slots:(Engine.memo_value_slots eng)
                (Engine.memo_slots eng)
            in
            mbytes := !mbytes + (chunks * cost);
            mchunks := !mchunks + chunks
          end
        in
        let mk ?(rung = Full) ?(retried = false) ?(bytes = -1) ?fail ?which
            ?(position = -1) ?(message = "") () =
          let ms = float_of_int (raw_now () - t0) /. 1e6 in
          {
            r_index = idx;
            r_name = name;
            r_bytes = bytes;
            r_ok = (fail = None);
            r_rung = rung;
            r_retried = retried;
            r_fail = fail;
            r_which = which;
            r_position = position;
            r_message = message;
            r_ms = ms;
            r_memo_degraded = !degraded;
            r_fuel_used = !fuel;
          }
        in
        let r =
          try
            match payload with
            | Error (Faults.Too_large _ as re) ->
                mk
                  ~fail:(Resource "input")
                  ~which:"input"
                  ~message:(Faults.read_error_message re)
                  ()
            | Error (Faults.Io_fault m) -> mk ~fail:Io ~message:m ()
            | Ok contents ->
                let bytes = String.length contents in
                let input = Input.of_string contents in
                let skew = Faults.clock_skew_ns dfaults in
                (* first reading arms the deadline unskewed; every poll
                   after it sees the injected clock step *)
                let armed = ref false in
                let clock () =
                  let t = raw_now () in
                  if skew <> 0 && !armed then t + skew
                  else (
                    armed := true;
                    t)
                in
                let deadline = Option.map (fun d -> clock () + d) deadline_ns in
                let run_once rung eng =
                  (* the erased grammar keeps every production name, so
                     the start override applies to both rungs *)
                  let ta = span_now () in
                  let o =
                    Engine.backstopped (fun () ->
                        Engine.run_input eng ?start input)
                  in
                  span "attempt" ~cat:"attempt"
                    ~args:(fun () -> [ ("doc", string_of_int idx); ("rung", rung_name rung) ])
                    ta;
                  note eng o;
                  o
                in
                let attempt rung =
                  let eng = Engine.with_limits (engine_for rung) eff in
                  match deadline with
                  | None -> (run_once rung eng, false)
                  | Some deadline_ns ->
                      Engine.with_deadline ~now_ns:clock ~deadline_ns eng
                        (run_once rung)
                in
                let finish ~rung ~retried (o : Engine.outcome) expired =
                  match o.Engine.result with
                  | Ok _ -> mk ~rung ~retried ~bytes ()
                  | Error e ->
                      let fail, which =
                        if expired then (Resource "deadline", Some "deadline")
                        else
                          match Parse_error.exhausted_which e with
                          | Some w ->
                              let n = Limits.which_name w in
                              (Resource n, Some n)
                          | None -> (Syntax, None)
                      in
                      mk ~rung ~retried ~bytes ~fail ?which
                        ~position:e.Parse_error.position
                        ~message:(Parse_error.message e) ()
                in
                let o1, expired1 = attempt Full in
                let retryable =
                  (not expired1)
                  && rec_grammar <> None
                  && (match o1.Engine.result with
                     | Error e -> (
                         match Parse_error.exhausted_which e with
                         | Some (Limits.Fuel | Limits.Depth | Limits.Memory) ->
                             true
                         | _ -> false)
                     | Ok _ -> false)
                in
                if not retryable then finish ~rung:Full ~retried:false o1 expired1
                else
                  let o2, expired2 = attempt Recognizer in
                  finish ~rung:Recognizer ~retried:true o2 expired2
          with
          | Stack_overflow ->
              mk ~fail:(Resource "depth") ~which:"depth"
                ~message:(Limits.which_message Limits.Depth) ()
          | Out_of_memory ->
              mk ~fail:(Resource "memory") ~which:"memory"
                ~message:(Limits.which_message Limits.Memory) ()
          | Prep_failed m -> mk ~fail:Internal ~message:m ()
          | e -> mk ~fail:Internal ~message:(Printexc.to_string e) ()
        in
        records_rev := r :: !records_rev;
        (* Metrics are derived from the finished record plus the
           run-scoped accumulators — no clock reads of their own, so a
           metrics-only run leaves the JSONL stream byte-identical even
           under a synthetic clock. *)
        (match inst with
        | None -> ()
        | Some i ->
            record_metrics i ~memo_bytes:!mbytes ~memo_chunks:!mchunks
              ~arena_cap:(Engine.arena_cap full) r);
        (match spans with
        | None -> ()
        | Some sp ->
            Profile.Spans.span sp ~cat:"doc" ~name:r.r_name
              ~args:
                [
                  ("doc", string_of_int idx);
                  ("status", if r.r_ok then "ok" else "fail");
                  ("rung", rung_name r.r_rung);
                ]
              ~ts_ns:t0
              ~dur_ns:(int_of_float (r.r_ms *. 1e6)));
        on_record r
      in
      let run_docs () =
        match src with
        | Docs docs ->
            List.iteri
              (fun i (name, raw) ->
                process i name
                  (Faults.apply_to_string ~cap
                     ~faults:(Faults.active_for faults i) raw))
              docs;
            Ok ()
        | Manifest path -> (
            match manifest_paths path with
            | Error m ->
                Error
                  [ Diagnostic.error (Printf.sprintf "cannot read manifest %s: %s" path m) ]
            | Ok paths ->
                List.iteri
                  (fun i p ->
                    process i p
                      (read_doc_file ~cap
                         ~faults:(Faults.active_for faults i) p))
                  paths;
                Ok ())
        | Channel { ic; sep } ->
            iter_channel ~sep ~cap ic (fun i payload ->
                let name = Printf.sprintf "<stream:%d>" i in
                match payload with
                | Error _ as e -> process i name e
                | Ok raw ->
                    process i name
                      (Faults.apply_to_string ~cap
                         ~faults:(Faults.active_for faults i) raw));
            Ok ()
      in
      (match run_docs () with
      | Error ds -> Error ds
      | Ok () ->
          let total_ms = float_of_int (raw_now () - t_run0) /. 1e6 in
          let records = List.rev !records_rev in
          Ok { records; summary = summarize records total_ms })
