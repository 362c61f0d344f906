(* The four workloads. Each is a closed loop with one client: the next op
   starts when the previous one has returned and been checked.

   The layer code (a CLI spawn, a batch stream, a session edit) is shared
   between the workload whose op it is and the traced "sweeps" that run
   it on the other workloads' documents, so every traced run reports
   every layer. *)

open Rats
module M = Measure

type ctx = {
  seed : int;
  smoke : bool;  (** tiny inputs and op counts, for the test rule *)
  rml : string;  (** the rml binary *)
  self : string;  (** this binary, for [oneshot-child] *)
  work : string;  (** scratch directory for documents written to disk *)
}

type plan = {
  fingerprint : string;
  warmup : float;  (** share of the measured time spent warming up *)
  block : Trace.t option -> M.op list;
  finish : unit -> M.op list;  (** checks on the final state *)
  peak_rss_mb : unit -> float;
  reference : unit -> float;
      (** the reference's CPU time (Measure.reference), where the ops run *)
  docs : (string * string) list;  (** (grammar, text) for the sweeps *)
  cleanup : unit -> unit;
}

let rec mkdir_p d =
  if not (Sys.file_exists d) then (
    mkdir_p (Filename.dirname d);
    try Sys.mkdir d 0o755 with Sys_error _ when Sys.file_exists d -> ())

let write_file path text =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc text)

let vm_hwm_mb () =
  In_channel.with_open_text "/proc/self/status" In_channel.input_all
  |> String.split_on_char '\n'
  |> List.find_map (fun l ->
         match String.split_on_char ':' l with
         | [ "VmHWM"; v ] ->
             Scanf.sscanf_opt (String.trim v) "%d kB" (fun kb ->
                 float_of_int kb /. 1024.)
         | _ -> None)
  |> Option.value ~default:Float.nan

(* A seeded shuffle: the order of one block's ops. *)
let shuffle r a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = Rng.int r (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  a

let op ?(timed = true) ~cls ~bytes ~ok ms = { M.ms; bytes; ok; cls; timed }

(* --- cli layer: one `rml parse` process ------------------------------------ *)

let rml_args g file = [ "parse"; "-O"; "-b"; g; "-i"; file ]

(* What `rml parse` must print: the hand parser's tree for calc/json,
   some tree for another accepted document, nothing (and exit 3) for a
   rejected one. [out = None]: any non-empty output. *)
type cli_expect = { code : int; out : string option }

let cli_expect g text =
  match Inputs.hand_parse g text with
  | Some (Error _) -> { code = 3; out = Some "" }
  | Some (Ok v) when g = "calc" || g = "json" ->
      { code = 0; out = Some (Value.to_string v ^ "\n") }
  | _ -> { code = 0; out = None }

let cli_agrees e (p : Proc.result) =
  p.code = e.code && match e.out with Some o -> p.out = o | None -> p.out <> ""

(* The op's time is the rml process's CPU time. Traced, the op also runs
   [rmlbench oneshot-child], the same pipeline through library calls in
   a fresh process, whose spans are imported; the cli layer compares the
   two processes' wall times, as the spans do. *)
let cli_op ctx tr ~g ~file ~expect =
  Trace.new_op tr;
  let t0 = M.now_ns () in
  let p = Trace.span tr ~grammar:g "rml" (fun () -> Proc.run ctx.rml (rml_args g file)) in
  Trace.sample tr "cli.rml_ms" (M.ms_since t0);
  let ok =
    cli_agrees expect p
    &&
    match tr with
    | None -> true
    | Some _ ->
        let t1 = M.now_ns () in
        let c =
          Trace.span tr ~grammar:g "child" (fun () ->
              let c = Proc.run ctx.self [ "oneshot-child"; g; file ] in
              Trace.import tr c.err;
              c)
        in
        Trace.sample tr "cli.child_ms" (M.ms_since t1);
        cli_agrees expect c
  in
  (p.cpu_ms, ok)

(* --- batch layer: one Batch.run stream ---------------------------------------- *)

type bdoc = { text : string; cls : string; check : Batch.record -> bool }

(* A document's latency is the CPU time between the callback that
   reported the previous document and the one that reports it; the
   first document also carries the compile and is checked but not timed.
   Traced, each document is parsed again on a bare engine with the
   same limits, and the difference is the batch layer's overhead. *)
let batch_run tr ~g ~grammar ~bare docs =
  let ops = ref [] in
  let lat = Array.make (Array.length docs) 0 in
  (* the wall clock only places the traced spans *)
  let wall () = if tr = None then 0 else M.now_ns () in
  let prev = ref (wall ()) and prev_cpu = ref (M.cpu_ns ()) in
  let on_record (r : Batch.record) =
    let c = M.cpu_ns () and t = wall () in
    let i = r.r_index in
    let d = docs.(i) in
    if i > 0 then begin
      Trace.new_op tr;
      Trace.add tr ~grammar:g "batch.doc" ~start_ns:!prev ~end_ns:t
        ~args:[ ("bytes", String.length d.text); ("retried", Bool.to_int r.r_retried) ];
      Trace.count tr "batch.docs" 1;
      Trace.count tr "batch.retried" (Bool.to_int r.r_retried);
      Trace.count tr "batch.memo_degraded" r.r_memo_degraded;
      lat.(i) <- c - !prev_cpu
    end;
    ops :=
      op ~timed:(i > 0) ~cls:d.cls ~bytes:(String.length d.text) ~ok:(d.check r)
        (float_of_int (c - !prev_cpu) /. 1e6)
      :: !ops;
    prev := wall ();
    prev_cpu := M.cpu_ns ()
  in
  let src = Batch.Docs (Array.to_list (Array.mapi (fun i d -> (string_of_int i, d.text)) docs)) in
  (match Batch.run ~limits:Limits.hardened ~on_record grammar src with
  | Ok _ -> ()
  | Error ds -> Compile.fail "batch" ds);
  if tr <> None then (
    (* like the batch's own first document, an untimed parse sizes the
       bare engine's memo arena *)
    ignore (Engine.run bare docs.(0).text);
    Array.iteri
      (fun i d ->
        if i > 0 then begin
          let o, bare_ns = Compile.parse tr ~grammar:g bare d.text in
          Trace.sample tr "batch.overhead_us" (float_of_int (lat.(i) - bare_ns) /. 1e3);
          match o.result with
          | Ok v -> ignore (Compile.render tr ~grammar:g ~bytes:(String.length d.text) v)
          | Error _ -> ()
        end)
      docs);
  List.rev !ops

let hardened eng =
  Compile.ok "prepare"
    (Engine.prepare
       ~config:(Config.with_limits Limits.hardened Config.optimized)
       (Engine.grammar eng))

(* --- session layer: one edit and reparse -------------------------------------- *)

let session_op tr ~g s (e : Inputs.edit) =
  Trace.new_op tr;
  let fallbacks = Session.cold_fallbacks s in
  let t0 = M.cpu_ns () in
  Trace.span tr ~grammar:g "apply_edit" (fun () ->
      Session.apply_edit s ~start:e.start ~old_len:e.old_len ~replacement:e.repl);
  let r =
    Trace.span tr ~grammar:g "reparse"
      ~args:(fun _ ->
        let st = Session.stats s in
        [ ("invocations", st.invocations); ("memo_reused", st.memo_reused) ])
      (fun () -> Session.reparse s)
  in
  let ms = M.cpu_ms_since t0 in
  Trace.count tr "session.reparses" 1;
  Trace.count tr "session.cold_fallbacks" (Session.cold_fallbacks s - fallbacks);
  (r, ms)

(* Traced only: a cold parse of the same buffer, for the share of work
   the session saved, and the tree rendered as rml would print it. *)
let session_probe tr ~g eng s r =
  let warm = (Session.stats s).invocations in
  let o, _ = Compile.parse tr ~grammar:g eng (Session.text s) in
  if o.stats.invocations > 0 then
    Trace.sample tr "session.work_ratio"
      (float_of_int warm /. float_of_int o.stats.invocations);
  match r with
  | Ok v -> ignore (Compile.render tr ~grammar:g ~bytes:(Session.length s) v)
  | Error _ -> ()

(* --- oneshot ------------------------------------------------------------------ *)

let oneshot ctx _engines =
  let per = if ctx.smoke then 1 else 24 in
  let dir = Filename.concat ctx.work (Printf.sprintf "oneshot-%d" (Unix.getpid ())) in
  mkdir_p dir;
  let pool =
    Array.of_list
      (List.map
         (fun g ->
           ( g,
             Array.init per (fun i ->
                 let text = Inputs.oneshot_doc ctx.seed g i in
                 let file = Filename.concat dir (Printf.sprintf "%s-%d.txt" g i) in
                 write_file file text;
                 (file, text, lazy (cli_expect g text))) ))
         Inputs.all)
  in
  let r = Inputs.rng ctx.seed "oneshot" 0 in
  (* block k runs document k mod 24 of each grammar, so that every round
     of about 25 blocks runs the whole pool *)
  let next = ref 0 in
  let run tr (g, docs) =
    let file, text, expect = docs.(!next mod Array.length docs) in
    let ms, ok = cli_op ctx tr ~g ~file ~expect:(Lazy.force expect) in
    op ~cls:g ~bytes:(String.length text) ~ok ms
  in
  (* the largest rml process: each grammar's largest document, measured
     through [rmlbench rss] *)
  let peak_rss_mb () =
    Array.fold_left
      (fun m (g, docs) ->
        let file, _, _ =
          Array.fold_left
            (fun ((_, a, _) as x) ((_, b, _) as y) ->
              if String.length b > String.length a then y else x)
            docs.(0) docs
        in
        let p = Proc.run ctx.self ("rss" :: ctx.rml :: rml_args g file) in
        Float.max m (float_of_string (String.trim p.out) /. 1024.))
      0. pool
  in
  (* users pay the cold start on every run: one discarded spawn only *)
  ignore (run None pool.(0));
  {
    fingerprint =
      Inputs.digest
        (Inputs.grammar_digest Inputs.all
        :: List.concat_map
             (fun (_, docs) -> Array.to_list (Array.map (fun (_, t, _) -> t) docs))
             (Array.to_list pool));
    warmup = 0.;
    block =
      (fun tr ->
        let ops = Array.to_list (Array.map (run tr) (shuffle r pool)) in
        incr next;
        ops);
    finish = (fun () -> []);
    peak_rss_mb;
    reference =
      (fun () -> float_of_string (String.trim (Proc.run ctx.self [ "reference" ]).out));
    docs =
      List.concat_map
        (fun (g, d) ->
          List.map (fun (_, t, _) -> (g, t)) (Array.to_list (Array.sub d 0 (min 4 per))))
        (Array.to_list pool);
    cleanup =
      (fun () ->
        Array.iter (fun (_, d) -> Array.iter (fun (f, _, _) -> Sys.remove f) d) pool;
        Sys.rmdir dir);
  }

(* --- bulk --------------------------------------------------------------------- *)

(* Eight documents per (grammar, size); a block parses one of each pair
   once, so every block is the whole mix and successive blocks rotate
   through the copies. A round of about eight blocks parses about 120
   distinct documents, so its quantiles do not hang on a few documents
   of one seed. *)
let bulk ctx engines =
  let sizes = if ctx.smoke then [ 2 ] else [ 8; 32; 128 ] in
  let copies = Array.init (if ctx.smoke then 1 else 8) (fun c ->
    List.concat_map
      (fun kb ->
        List.map
          (fun g ->
            let tag = Printf.sprintf "bulk%d-%d" kb c in
            let text = Inputs.accepted ctx.seed tag g ~bytes:(kb * 1024) in
            (g, text, Inputs.oracle g text))
          Inputs.all)
      sizes)
  in
  let docs = List.concat (Array.to_list copies) in
  let next = ref 0 in
  let run tr (g, text, expect) =
    let eng = List.assoc g engines in
    Trace.new_op tr;
    let t0 = M.cpu_ns () in
    let o =
      match tr with
      | None -> Engine.run eng text
      | Some _ -> fst (Compile.parse tr ~grammar:g eng text)
    in
    let ms = M.cpu_ms_since t0 in
    (match o.result with
    | Ok v when tr <> None ->
        ignore (Compile.render tr ~grammar:g ~bytes:(String.length text) v)
    | _ -> ());
    op ~cls:g ~bytes:(String.length text) ~ok:(Inputs.agrees expect o.result) ms
  in
  {
    fingerprint =
      Inputs.digest (Inputs.grammar_digest Inputs.all :: List.map (fun (_, t, _) -> t) docs);
    warmup = 0.05;
    block =
      (fun tr ->
        let c = copies.(!next mod Array.length copies) in
        incr next;
        List.map (run tr) c);
    finish = (fun () -> []);
    peak_rss_mb = vm_hwm_mb;
    reference = M.reference_ms;
    docs =
      List.filter_map
        (fun (g, t, _) -> if String.length t < 16 * 1024 then Some (g, t) else None)
        copies.(0);
    cleanup = ignore;
  }

(* --- batch -------------------------------------------------------------------- *)

let batch_check (e : Inputs.batch_expect) (r : Batch.record) =
  match (e, r.r_fail) with
  | Parses, None -> r.r_ok
  | Syntax_error, Some Batch.Syntax -> true
  | Over_depth, Some (Batch.Resource "depth") -> true
  | _ -> false

let batch ctx engines =
  let streams = if ctx.smoke then 2 else 80 in
  let per = if ctx.smoke then 20 else 500 in
  let stream k = Inputs.batch_stream ctx.seed ~docs:per k in
  let fingerprint =
    Inputs.digest
      (Inputs.grammar_digest [ "calc"; "json" ]
      :: List.init streams (fun k ->
             let _, docs = stream k in
             Inputs.digest (Array.to_list (Array.map (fun (d : Inputs.batch_doc) -> d.text) docs))))
  in
  let bare = List.map (fun (g, e) -> (g, lazy (hardened e))) engines in
  let next = ref 0 in
  let run tr =
    let g, docs = stream (!next mod streams) in
    incr next;
    let docs =
      Array.map (fun (d : Inputs.batch_doc) -> { text = d.text; cls = d.cls; check = batch_check d.bexpect }) docs
    in
    batch_run tr ~g ~grammar:(Engine.grammar (List.assoc g engines))
      ~bare:(Lazy.force (List.assoc g bare)) docs
  in
  {
    fingerprint;
    warmup = 0.05;
    (* a calc stream and a json stream, so every round has both in equal
       numbers *)
    block = (fun tr -> let a = run tr in a @ run tr);
    finish = (fun () -> []);
    peak_rss_mb = vm_hwm_mb;
    reference = M.reference_ms;
    docs =
      List.concat_map
        (fun k ->
          let g, docs = stream k in
          Array.to_list docs
          |> List.filter (fun (d : Inputs.batch_doc) -> d.cls = "valid")
          |> List.filteri (fun i _ -> i < 8)
          |> List.map (fun (d : Inputs.batch_doc) -> (g, d.text)))
        [ 0; 1 ];
    cleanup = ignore;
  }

(* --- edit --------------------------------------------------------------------- *)

let edit_grammars = [| "minijava"; "json" |]

let edit ctx engines =
  let kb = if ctx.smoke then 4 else 64 in
  let initial =
    Array.map (fun g -> Inputs.accepted ctx.seed "edit" g ~bytes:(kb * 1024)) edit_grammars
  in
  let script = Inputs.edit_script ctx.seed initial ~ops:(if ctx.smoke then 40 else 6000) in
  let engs = Array.map (fun g -> List.assoc g engines) edit_grammars in
  let sessions = Array.map2 (fun e t -> Session.create e t) engs initial in
  let shadow = Array.copy initial in
  let pos = ref 0 in
  (* a new session's first reparse is cold; it fills the store untimed *)
  let reset () =
    Array.iteri
      (fun i t ->
        sessions.(i) <- Session.create engs.(i) t;
        ignore (Session.reparse sessions.(i));
        shadow.(i) <- t)
      initial;
    pos := 0
  in
  reset ();
  let check i =
    Session.text sessions.(i) = shadow.(i)
    && (edit_grammars.(i) <> "minijava"
       || Inputs.(agrees (oracle "minijava" shadow.(i)) (Session.reparse sessions.(i))))
  in
  let run tr =
    if !pos = Array.length script then reset ();
    let e = script.(!pos) in
    incr pos;
    let i = e.sess and g = edit_grammars.(e.sess) in
    let s = sessions.(i) in
    let r, ms = session_op tr ~g s e in
    shadow.(i) <- Inputs.splice shadow.(i) e;
    (* JSON is checked on every op; the MiniJava hand parser costs
       ~18 ms per 64 KB, so MiniJava is checked on a seeded 1 in 20 *)
    let ok =
      if g = "json" then Inputs.(agrees (oracle g shadow.(i)) r) && Session.text s = shadow.(i)
      else if Hashtbl.hash (ctx.seed, !pos) mod 20 = 0 then
        Inputs.(agrees (oracle g shadow.(i)) r) && Session.text s = shadow.(i)
      else true
    in
    if tr <> None && !pos mod 10 = 0 then session_probe tr ~g engs.(i) s r;
    op ~cls:g ~bytes:(Session.length s) ~ok ms
  in
  {
    fingerprint =
      Inputs.digest
        (Inputs.grammar_digest (Array.to_list edit_grammars)
        :: Inputs.edit_digest script :: Array.to_list initial);
    warmup = 0.05;
    block = (fun tr -> List.init 4 (fun _ -> run tr));
    finish =
      (fun () ->
        List.init 2 (fun i ->
            op ~timed:false ~cls:(edit_grammars.(i) ^ "-final") ~bytes:0 ~ok:(check i) 0.));
    peak_rss_mb = vm_hwm_mb;
    reference = M.reference_ms;
    docs = Array.to_list (Array.mapi (fun i t -> (edit_grammars.(i), t)) initial);
    cleanup = ignore;
  }

(* --- sweeps: the other layers, on this workload's documents ------------------ *)

(* The first document of each grammar, three times over (once in smoke
   runs). *)
let cli_sweep ctx tr docs =
  let dir = Filename.concat ctx.work (Printf.sprintf "sweep-%d" (Unix.getpid ())) in
  mkdir_p dir;
  let firsts =
    List.rev
      (List.fold_left
         (fun acc (g, t) -> if List.mem_assoc g acc then acc else (g, t) :: acc)
         [] docs)
  in
  List.iter
    (fun (g, text) ->
      let file = Filename.concat dir (g ^ ".txt") in
      write_file file text;
      for _ = 1 to if ctx.smoke then 1 else 3 do
        ignore (cli_op ctx tr ~g ~file ~expect:(cli_expect g text))
      done;
      Sys.remove file)
    firsts;
  Sys.rmdir dir

let batch_sweep tr engines docs =
  List.iter
    (fun (g, eng) ->
      let mine = List.filter_map (fun (g', t) -> if g' = g then Some t else None) docs in
      match mine with
      | [] -> ()
      | first :: _ ->
          let check _ = true in
          let docs =
            Array.of_list (List.map (fun text -> { text; cls = g; check }) (first :: mine))
          in
          ignore (batch_run tr ~g ~grammar:(Engine.grammar eng) ~bare:(hardened eng) docs))
    engines

let session_sweep seed tr engines docs =
  List.iter
    (fun (g, text) ->
      let eng = List.assoc g engines in
      let s = Session.create eng text in
      ignore (Session.reparse s);
      let r = Inputs.rng seed "sweep" 0 in
      let pending = ref None in
      let shadow = ref text in
      for i = 1 to 20 do
        let e = Inputs.next_edit r !shadow ~pending ~sess:0 ~break:(i = 10) in
        shadow := Inputs.splice !shadow e;
        let res, _ = session_op tr ~g s e in
        session_probe tr ~g eng s res
      done)
    docs
