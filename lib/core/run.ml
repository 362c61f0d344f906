open Rats_support
open Rats_peg
open Rats_runtime

let exit_usage = 2
let exit_parse = 3
let exit_resource = 4
let exit_internal = 5

exception Input_over_cap of int

let guarded f =
  let fail code msg =
    Format.eprintf "%s@." msg;
    code
  in
  try f () with
  | Input_over_cap cap ->
      fail exit_resource
        (Printf.sprintf "rml: %s (%d-byte cap)" (Limits.which_message Limits.Input) cap)
  | Diagnostic.Fail d -> fail exit_parse (Diagnostic.to_string d)
  | Sys_error msg -> fail exit_parse ("rml: " ^ msg)
  | Stack_overflow -> fail exit_resource "rml: stack overflow"
  | Out_of_memory -> fail exit_resource "rml: out of memory"
  | e -> fail exit_internal ("rml: internal error: " ^ Printexc.to_string e)

let print_errors ds =
  List.iter (fun d -> Format.eprintf "%s@." (Diagnostic.to_string d)) ds;
  exit_parse

(* --- grammars ----------------------------------------------------------- *)

type builtin = { texts : string list; root : string }

let builtins =
  let open Rats_grammars in
  [
    ("calc", { texts = Calc.texts; root = "calc.Main" });
    ("json", { texts = Json.texts; root = "json.Main" });
    ("minic", { texts = Minic.texts; root = "c.Program" });
    ("minic-ext", { texts = Minic.texts @ Minic.extension_texts; root = "cx.Program" });
    ("minijava", { texts = Minijava.texts; root = "j.Program" });
    ("rats", { texts = Metagrammar.texts; root = "rats.Syntax" });
    ("path", { texts = Path.texts; root = "path.Main" });
  ]

let ( let* ) = Result.bind
let one r = Result.map_error (fun d -> [ d ]) r

let modules_of_string ?name text = one (Rats_meta.Parser.parse_modules_string ?name text)

let modules_of_file path =
  match Source.read_file path with
  | Error msg -> Error [ Diagnostic.error msg ]
  | Ok src -> one (Rats_meta.Parser.parse_modules src)

let load_modules files builtin =
  let* texts =
    match (files, builtin) with
    | [], None -> Error [ Diagnostic.error "no grammar files and no --builtin given" ]
    | _, None -> Ok []
    | _, Some name -> (
        match List.assoc_opt name builtins with
        | Some b -> Ok b.texts
        | None -> Error [ Diagnostic.errorf "unknown built-in grammar %S" name ])
  in
  List.fold_left
    (fun acc load ->
      let* ms = acc in
      let* more = load () in
      Ok (ms @ more))
    (Ok [])
    (List.map (fun t () -> modules_of_string t) texts
    @ List.map (fun f () -> modules_of_file f) files)

let compose_modules ?start ?args ~root modules =
  let* lib = Rats_modules.Resolve.library modules in
  let* g, _ = Rats_modules.Resolve.resolve lib ~root ?args ?start () in
  Ok g

type grammar = {
  files : string list;
  builtin : string option;
  root : string option;
  start : string option;
  leftrec : bool;
  optimize : bool;
  recognize : bool;
  config : Config.t;
  limits : Limits.t;
}

let default =
  { files = []; builtin = None; root = None; start = None; leftrec = false;
    optimize = false; recognize = false; config = Config.optimized;
    limits = Limits.unlimited }

let compose (gs : grammar) =
  let* modules = load_modules gs.files gs.builtin in
  let root_of name = Option.map (fun (b : builtin) -> b.root) (List.assoc_opt name builtins) in
  match (gs.root, Option.bind gs.builtin root_of) with
  | Some root, _ | None, Some root -> compose_modules ?start:gs.start ~root modules
  | None, None -> Error [ Diagnostic.error "no --root given" ]

type snapshot = string -> optimized:bool -> Analysis.t option

let analysis_of ?snapshot (gs : grammar) =
  let composed () =
    let* g = compose gs in
    let g = if gs.leftrec then Rats_optimize.Passes.eliminate_left_recursion g else g in
    Ok (Analysis.analyze (if gs.optimize then Rats_optimize.Pipeline.optimize g else g))
  in
  let* a =
    match (snapshot, gs) with
    (* a snapshot stands for exactly what [-b NAME [-O]] composes: no
       files, the built-in's own root and start, no -L repair *)
    | Some find, { builtin = Some name; files = []; root = None; start = None; leftrec = false; _ }
      -> (
        match find name ~optimized:gs.optimize with Some a -> Ok a | None -> composed ())
    | _ -> composed ()
  in
  (* whole-grammar kind erasure, up front: everything downstream sees an
     ordinary grammar that happens to be all-Void, and facts of its own *)
  if not gs.recognize then Ok a
  else
    match Batch.recognizer_erase (Analysis.grammar a) with
    | Some g -> Ok (Analysis.analyze g)
    | None -> Error [ Diagnostic.error "recognizer erasure produced an ill-formed grammar" ]

let grammar_of ?snapshot gs = Result.map Analysis.grammar (analysis_of ?snapshot gs)

(* --- specs -------------------------------------------------------------- *)

type input = File of string | Mapped of string | Stdin
type show = { quiet : bool; stats : bool; stats_json : bool }
type flame_format = Speedscope | Chrome

type observe =
  | Watch of { profile : bool; ring : int option; timeout : float option }
  | Enter_exit
  | Profile of { top : int; flame : (string * flame_format) option }
  | Events of { ring : int; last : int option }

type batch = {
  source : string;
  sep : char;
  faults : Faults.t;
  doc_timeout : float option;
  metrics : string option;
  trace_out : string option;
  progress : bool;
}

type mode =
  | Document of { input : input; observe : observe; show : show }
  | Edits of { input : input; script : string; profile : bool; ring : int option; show : show }
  | Batch of batch
  | Corpus of { paths : string list; strict : bool }

type t = { grammar : grammar; mode : mode }

type flags = {
  input : string option;
  stdin : bool;
  mmap : bool;
  edits : string option;
  trace : bool;
  profile : bool;
  trace_ring : int option;
  timeout : float option;
  quiet : bool;
  stats : bool;
  stats_json : bool;
  batch : string option;
  batch_sep : char option;
  faults : string option;
  doc_timeout : float option;
  metrics : string option;
  trace_out : string option;
  progress : bool;
}

let no_flags =
  { input = None; stdin = false; mmap = false; edits = None; trace = false;
    profile = false; trace_ring = None; timeout = None; quiet = false; stats = false;
    stats_json = false; batch = None; batch_sep = None; faults = None;
    doc_timeout = None; metrics = None; trace_out = None; progress = false }

let of_flags (grammar : grammar) (f : flags) =
  let given = Option.is_some in
  let batch = given f.batch in
  let refused =
    [
      ( batch
        && (given f.input || f.stdin || f.mmap || given f.edits || f.trace || f.profile
           || given f.trace_ring || given f.timeout),
        "--batch is incompatible with \
         --input/--stdin/--mmap/--edits/--trace/--profile/--trace-ring/--timeout (use \
         --doc-timeout for per-document deadlines)" );
      ( batch && f.stats_json,
        "--stats-json requires a single-document parse (batch records carry their own \
         counters)" );
      (batch && f.stats, "--stats requires a single-document parse (see --metrics)");
      ( batch
        && Option.fold f.metrics ~none:false ~some:(fun m ->
               not (Filename.check_suffix m ".prom" || Filename.check_suffix m ".json")),
        "--metrics FILE must end in .prom or .json" );
    ]
    @ List.map
        (fun (set, flag) -> ((not batch) && set, flag ^ " requires --batch"))
        [
          (given f.faults, "--faults"); (given f.doc_timeout, "--doc-timeout");
          (given f.metrics, "--metrics"); (given f.trace_out, "--trace-out");
          (f.progress, "--progress"); (given f.batch_sep, "--batch-sep");
        ]
    @ [
        ( grammar.recognize && given f.edits,
          "--recognize is incompatible with --edits (recognizer runs build no values \
           to reparse incrementally)" );
        ( given f.edits && (f.trace || given f.timeout),
          "--edits is incompatible with --trace/--timeout" );
        ( f.trace && (f.profile || given f.trace_ring || given f.timeout),
          "--trace is incompatible with --profile/--trace-ring/--timeout" );
      ]
  in
  match (List.find_opt fst refused, f.batch) with
  | Some (_, msg), _ -> Error msg
  | None, Some source ->
      let* faults = Option.fold f.faults ~none:(Ok Faults.none) ~some:Faults.of_spec in
      let sep = Option.value f.batch_sep ~default:'\000' in
      let { doc_timeout; metrics; trace_out; progress; _ } = f in
      Ok
        {
          grammar;
          mode = Batch { source; sep; faults; doc_timeout; metrics; trace_out; progress };
        }
  | None, None ->
      let* input =
        match (f.input, f.stdin) with
        | None, false -> Error "no input (use -i FILE, -i - or --stdin)"
        | Some p, true when p <> "-" -> Error "both --input and --stdin given"
        | (Some "-", _ | None, true) when f.mmap ->
            Error "--mmap cannot map standard input (pipes have no length)"
        | Some "-", _ | None, true -> Ok Stdin
        | Some p, _ -> Ok (if f.mmap then Mapped p else File p)
      in
      let show = { quiet = f.quiet; stats = f.stats; stats_json = f.stats_json } in
      let profile = f.profile and ring = f.trace_ring in
      let mode =
        match f.edits with
        | Some script -> Edits { input; script; profile; ring; show }
        | None when f.trace -> Document { input; observe = Enter_exit; show }
        | None ->
            Document { input; observe = Watch { profile; ring; timeout = f.timeout }; show }
      in
      Ok { grammar; mode }

(* --- running ------------------------------------------------------------ *)

let read ~cap = function
  | Stdin -> (
      (* bounded and chunked: stops as soon as the stream passes the cap *)
      match Faults.read_channel ~cap In_channel.stdin with
      | Ok text -> Source.of_string ~name:"<stdin>" text
      | Error (Faults.Too_large cap) -> raise (Input_over_cap cap)
      | Error (Faults.Io_fault m) -> raise (Sys_error m))
  | File path -> Source.of_string ~name:path (In_channel.with_open_bin path In_channel.input_all)
  | Mapped path -> (
      match Source.map_file path with Ok s -> s | Error msg -> raise (Sys_error msg))

let ring_want n =
  { Observe.off with Observe.events = true; ring_bytes = max 1 n * Observe.event_bytes }

let want = function
  | Watch { profile; ring; _ } ->
      { (Option.fold ring ~none:Observe.off ~some:ring_want) with Observe.profile }
  | Enter_exit -> Observe.off
  | Profile _ -> { Observe.off with Observe.profile = true }
  | Events { ring; _ } -> ring_want ring

(* Prepare once under the spec's configuration and observation, from the
   facts [a] holds; every run gets the spec's budgets through
   [Engine.with_limits]. *)
let with_engine (gs : grammar) want a k =
  let config = if Observe.enabled want then Config.with_observe want gs.config else gs.config in
  match Engine.prepare_analysis ~config a with
  | Error ds -> print_errors ds
  | Ok eng -> k (Engine.with_limits eng gs.limits)

let observation eng = Option.get (Engine.observation eng)

(* The tail every document-shaped run shares: counters, the stdout side
   of the observation, the tree or the error, the stderr side. *)
let report ~(show : show) ~observe ~source eng stats result =
  if show.stats then Format.printf "stats: %a@." Stats.pp stats;
  if show.stats_json then print_endline (Stats.to_json stats);
  let profile () = Option.get (Observe.profile (observation eng)) in
  let events ppf last =
    Format.fprintf ppf "%a"
      (Observe.pp_events ~input:(Source.text source) ?last)
      (observation eng)
  in
  (match observe with
  | Watch { profile = true; _ } -> Format.printf "%a" (Profile.pp_table ?top:None) (profile ())
  | Profile { top; _ } ->
      let top = if top <= 0 then None else Some top in
      Format.printf "%a" (Profile.pp_table ?top) (profile ())
  | Events { last; _ } -> events Format.std_formatter last
  | Watch _ | Enter_exit -> ());
  let code =
    match result with
    | Ok v ->
        if not show.quiet then (
          Value.output stdout v;
          print_newline ());
        0
    | Error e ->
        Format.eprintf "%s@." (Parse_error.to_string ~source e);
        (match observe with Watch { ring = Some _; _ } -> events Format.err_formatter None | _ -> ());
        if Parse_error.exhausted_which e <> None then exit_resource else exit_parse
  in
  (match observe with
  | Profile { flame; _ } ->
      let p = profile () in
      Option.iter
        (fun (path, format) ->
          let doc =
            match format with
            | Speedscope ->
                let name = Source.name source in
                Profile.to_speedscope ~name:(if name = "<stdin>" then "stdin" else name) p
            | Chrome -> Profile.to_chrome p
          in
          Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc doc);
          Format.eprintf "rml: wrote %s@." path)
        flame;
      if Profile.truncated p then
        Format.eprintf "note: flame event log truncated; the table stays exact@."
  | _ -> ());
  code

(* [rml parse --trace]: production enter/exit events, capped at 500 lines *)
let print_trace_event shown (e : Engine.trace_event) =
  incr shown;
  if !shown <= 500 then
    Format.printf "%s%s %s @%d%s@."
      (String.make (min e.depth 40) ' ')
      (match e.outcome with None -> ">" | Some p when p >= 0 -> "<" | Some _ -> "x")
      e.prod e.at
      (match e.outcome with Some p when p >= 0 -> Printf.sprintf " -> %d" p | _ -> "")
  else if !shown = 501 then Format.printf "... (trace truncated)@."

let document (gs : grammar) a ~input ~observe ~show eng =
  let source = read ~cap:gs.limits.Limits.max_input_bytes input in
  let finish (out : Engine.outcome) = report ~show ~observe ~source eng out.stats out.result in
  match observe with
  | Enter_exit -> (
      let on_event = print_trace_event (ref 0) in
      match Engine.trace ~config:(Engine.config eng) ~on_event a (Source.text source) with
      | Error ds -> print_errors ds
      | Ok out -> finish out)
  | Watch { timeout = Some seconds; _ } ->
      (* the monotonic clock: wall-clock steps can neither hang the loop
         nor trip it *)
      let deadline_ns = Profile.now_ns () + int_of_float (seconds *. 1e9) in
      let out, expired =
        Engine.with_deadline ~now_ns:Profile.now_ns ~deadline_ns eng (fun e ->
            Engine.run_input e (Source.input source))
      in
      if expired then Format.eprintf "rml: timeout of %gs exceeded@." seconds;
      finish out
  | _ -> finish (Engine.run_input eng (Source.input source))

(* Edit scripts: one edit per line, [START OLD_LEN TEXT] — replace
   OLD_LEN bytes at byte offset START with TEXT, the rest of the line
   after the second space (absent for pure deletions), with \n \t \r \\
   decoded. Blank lines and lines starting with '#' are skipped. *)

let unescape_edit_text s =
  let b = Buffer.create (String.length s) in
  let n = String.length s in
  let rec go i =
    if i + 1 < n && s.[i] = '\\' then (
      (match List.assoc_opt s.[i + 1] [ ('n', '\n'); ('t', '\t'); ('r', '\r'); ('\\', '\\') ] with
      | Some c -> Buffer.add_char b c
      | None -> Buffer.add_string b (String.sub s i 2));
      go (i + 2))
    else if i < n then (
      Buffer.add_char b s.[i];
      go (i + 1))
  in
  go 0;
  Buffer.contents b

let parse_edit_line line =
  match String.split_on_char ' ' line with
  | start :: old_len :: text -> (
      match (int_of_string_opt start, int_of_string_opt old_len) with
      | Some s, Some o when s >= 0 && o >= 0 ->
          Some (s, o, unescape_edit_text (String.concat " " text))
      | _ -> None)
  | _ -> None

let edits (gs : grammar) ~input ~script ~observe ~show eng =
  let source = read ~cap:gs.limits.Limits.max_input_bytes input in
  (* same buffer, session-conventional name; zero-copy for a mapped
     source until the first edit (copy on write) *)
  let session = Session.create_source eng (Source.of_input ~name:"<buffer>" (Source.input source)) in
  let reparse label =
    let result = Session.reparse session in
    let st = Session.stats session in
    (match result with
    | Ok _ ->
        Format.printf "%s: ok (%d bytes, reused=%d relocated=%d)@." label
          (Session.length session) st.Stats.memo_reused st.Stats.memo_relocated
    | Error e -> Format.printf "%s: %s@." label (Parse_error.message e));
    result
  in
  let rec replay n last = function
    | [] -> Ok last
    | raw :: rest -> (
        (* tolerate CRLF edit scripts *)
        let k = String.length raw in
        let line = if k > 0 && raw.[k - 1] = '\r' then String.sub raw 0 (k - 1) else raw in
        if String.trim line = "" || line.[0] = '#' then replay n last rest
        else
          match parse_edit_line line with
          | None -> Error line
          | Some (start, old_len, replacement) -> (
              match Session.apply_edit session ~start ~old_len ~replacement with
              | () -> replay (n + 1) (reparse (Printf.sprintf "edit %d" (n + 1))) rest
              | exception Invalid_argument _ -> Error line))
  in
  let initial = reparse "initial" in
  let lines = String.split_on_char '\n' (In_channel.with_open_bin script In_channel.input_all) in
  match replay 0 initial lines with
  | Error line ->
      Format.eprintf "rml: bad edit: %s@." line;
      exit_usage
  | Ok last ->
      (* the session's source: line starts patched across the script *)
      report ~show ~observe ~source:(Session.source session) eng (Session.stats session) last

let corpus ~paths ~strict eng =
  let files =
    List.concat_map
      (fun p ->
        if not (Sys.is_directory p) then [ p ]
        else
          Sys.readdir p |> Array.to_list |> List.sort String.compare
          |> List.map (Filename.concat p)
          |> List.filter (fun f -> not (Sys.is_directory f)))
      paths
  in
  if files = [] then (
    Format.eprintf "rml: no corpus inputs (use --corpus FILE-or-DIR)@.";
    exit_usage)
  else
    let parses path =
      Result.is_ok (Engine.run_input eng (Source.input (read ~cap:max_int (File path)))).result
    in
    let ok = List.length (List.filter parses files) in
    Format.printf "corpus: %d inputs (%d ok, %d failed)@." (List.length files) ok
      (List.length files - ok);
    let o = observation eng in
    Format.printf "%a" Observe.pp_coverage o;
    let dead_prods, dead_arms = Observe.unexercised o in
    if strict && (dead_prods <> [] || dead_arms <> []) then 1 else 0

(* A live stderr line: documents done (of the manifest's total), rate,
   latency quantiles so far, and the worst failure class seen. It reads
   the latency histogram [Batch.run] records into the same registry. *)
let heartbeat reg (b : batch) =
  let lat = lazy (Metrics.histogram reg "rml_batch_doc_latency_us") in
  let total =
    if b.source = "-" then None
    else Result.to_option (Result.map List.length (Batch.manifest_paths b.source))
  in
  let t0 = Profile.now_ns () in
  let done_ = ref 0 and last_emit = ref t0 and worst = ref None in
  let emit () =
    let now = Profile.now_ns () in
    let dt = float_of_int (now - t0) /. 1e9 in
    let h = Lazy.force lat in
    Printf.eprintf "progress: %d%s docs, %.1f docs/s, p50 %.3fms p99 %.3fms, worst %s\n%!"
      !done_
      (Option.fold total ~none:"" ~some:(Printf.sprintf "/%d"))
      (if dt <= 0. then 0. else float_of_int !done_ /. dt)
      (Metrics.quantile h 0.5 /. 1000.)
      (Metrics.quantile h 0.99 /. 1000.)
      (Option.fold !worst ~none:"none" ~some:Batch.fail_name);
    last_emit := now
  in
  let on (r : Batch.record) =
    incr done_;
    if Batch.severity r.r_fail > Batch.severity !worst then worst := r.r_fail;
    if !done_ mod 64 = 0 || Profile.now_ns () - !last_emit >= 1_000_000_000 then emit ()
  in
  (on, emit)

let batch (gs : grammar) (b : batch) g =
  (* one registry serves the --metrics export and the heartbeat; with
     neither, Batch.run never enters the record path *)
  let reg = if b.metrics <> None || b.progress then Some (Metrics.create ()) else None in
  let spans = Option.map (fun _ -> Profile.Spans.create ()) b.trace_out in
  let beat, beat_done =
    match reg with Some reg when b.progress -> heartbeat reg b | _ -> (ignore, ignore)
  in
  let on_record r =
    print_endline (Batch.jsonl_of_record r);
    beat r
  in
  let source =
    if b.source = "-" then Batch.Channel { ic = stdin; sep = b.sep } else Batch.Manifest b.source
  in
  let deadline_ns = Option.map (fun s -> int_of_float (s *. 1e9)) b.doc_timeout in
  match
    Batch.run ~config:gs.config ~limits:gs.limits ?deadline_ns ~faults:b.faults ?metrics:reg
      ?spans ~on_record g source
  with
  | Error ds -> print_errors ds
  | Ok report ->
      beat_done ();
      let write path body =
        Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc body)
      in
      (match (b.metrics, reg) with
      | Some path, Some reg ->
          write path
            (if Filename.check_suffix path ".prom" then Metrics.to_prometheus reg
             else Metrics.to_json reg)
      | _ -> ());
      Option.iter (fun sp -> write (Option.get b.trace_out) (Profile.Spans.to_chrome sp)) spans;
      print_endline (Batch.jsonl_of_summary report.summary);
      Format.eprintf "batch: %a@." Batch.pp_summary report.summary;
      Batch.exit_code report

let exec ?snapshot { grammar = gs; mode } =
  guarded @@ fun () ->
  match analysis_of ?snapshot gs with
  | Error ds -> print_errors ds
  | Ok a -> (
      match mode with
      | Document { input; observe; show } ->
          with_engine gs (want observe) a (document gs a ~input ~observe ~show)
      | Edits { input; script; profile; ring; show } ->
          let observe = Watch { profile; ring; timeout = None } in
          with_engine gs (want observe) a (edits gs ~input ~script ~observe ~show)
      | Batch b -> batch gs b (Analysis.grammar a)
      | Corpus { paths; strict } ->
          with_engine gs { Observe.off with Observe.coverage = true } a (corpus ~paths ~strict))
