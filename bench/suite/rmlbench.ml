(* rmlbench: the end-to-end and per-layer benchmark of rats-ml.

     rmlbench run [--workload W] [--seed N] [--seconds S] [--trace FILE]
                  [--out R.json] [--rml PATH] [--work DIR] [--smoke]
     rmlbench compare A.json B.json
     rmlbench oneshot-child GRAMMAR FILE
     rmlbench reference
     rmlbench rss PROG ARGS...

   [run] builds nothing: it expects `dune build bin/rml.exe
   bench/suite/rmlbench.exe` to have run. It prints every metric with
   its unit, checks every output against the hand-written oracles, and
   ends with one JSON line {correct, attempted, failed, metrics}: the
   end-to-end metrics, or with --trace the per-layer ones. See
   README.md for the workloads and what each metric should move. *)

module M = Measure
module W = Workloads

(* name, unit, better, bound: the regression bound is the share of the
   parent's median by which a metric may worsen. BENCHMARK.json carries
   the same table; README.md says why the bounds are this wide. *)
let end_to_end =
  [
    ("setup_s", "s", "lower", 0.25);
    ("op_cpu_ms_p50", "ms", "lower", 0.25);
    ("op_cpu_ms_p90", "ms", "lower", 0.25);
    ("ops_per_cpu_s", "1/s", "higher", 0.25);
    ("mb_per_cpu_s", "MB/s", "higher", 0.25);
    ("peak_rss_mb", "MB", "lower", 0.25);
  ]

let workloads = [ "oneshot"; "bulk"; "batch"; "edit" ]

let grammars_of = function
  | "batch" -> [ "calc"; "json" ]
  | "edit" -> Array.to_list W.edit_grammars
  | _ -> Inputs.all

let plan_of = function
  | "oneshot" -> W.oneshot
  | "bulk" -> W.bulk
  | "batch" -> W.batch
  | "edit" -> W.edit
  | w -> invalid_arg ("unknown workload " ^ w)

let stats xs = (M.median xs, M.quantile xs 0.25, M.quantile xs 0.75)

let num f = Json.Num f
let metric ~unit v = Json.Obj [ ("value", num v); ("unit", Json.Str unit) ]

exception Refused of string

(* One workload, in this process: set-up compiles, then the op loop for
   [seconds] in rounds. With a recorder, untraced and traced rounds
   alternate, so both see the same machine and the same warm state: the
   untraced ones give the end-to-end numbers and the baseline for
   trace.overhead. The sweeps follow. *)
let run_workload (ctx : W.ctx) ~seconds ~tr name =
  let grammars = grammars_of name in
  (* oneshot takes its compile-layer spans from the child processes *)
  let setup_tr = if name = "oneshot" then None else tr in
  (* traced, each compile is followed by an untimed VM lowering of the
     same grammars, for the per-grammar prepare.vm_ms rows *)
  let compile_set () =
    Trace.new_op setup_tr;
    let t0 = M.cpu_ns () in
    let engines =
      List.map (fun g -> (g, Compile.compile ?tr:setup_tr (Inputs.grammar g))) grammars
    in
    let s = float_of_int (M.cpu_ns () - t0) /. 1e9 in
    let s = s *. M.speed_scale (M.reference_ms ()) in
    if setup_tr <> None then
      List.iter
        (fun (g, e) ->
          Trace.span setup_tr ~grammar:g "prepare.vm" (fun () ->
              ignore (Rats.Engine.prepare ~config:Rats.Config.vm (Rats.Engine.grammar e))))
        engines;
    (s, engines)
  in
  (* setup_s is the median CPU time of 11 compiles, each at nominal speed
     by the reference that follows it, all made before the workload
     allocates anything: between rounds, a compile would also pay the
     GC work owed by the workload's heap (edit's spread rose from 8% to
     30%) *)
  let first_s, engines = compile_set () in
  let setup_times =
    first_s :: List.init (if ctx.smoke then 0 else 10) (fun _ -> fst (compile_set ()))
  in
  let plan = (plan_of name) ctx engines in
  Fun.protect ~finally:plan.cleanup @@ fun () ->
  let pinned = List.assoc name (if ctx.smoke then Inputs.pinned_smoke else Inputs.pinned) in
  if ctx.seed = Inputs.pinned_seed && plan.fingerprint <> pinned then
    raise
      (Refused
         (Printf.sprintf
            "%s: input fingerprint %s does not match the pinned %s; the corpus \
             generators or grammar texts changed what this workload measures"
            name plan.fingerprint pinned));
  let tally = M.tally () in
  let n = if ctx.smoke then 1 else 5 in
  let tr_of r = if r mod 2 = 1 then tr else None in
  let results, reference =
    M.rounds ~tally ~reference:plan.reference ~warmup:(plan.warmup *. seconds) ~seconds
      ~rounds:(if tr = None then n else 2 * n)
      (fun r -> plan.block (tr_of r))
  in
  let results = List.mapi (fun r m -> (tr_of r <> None, m)) (Array.to_list results) in
  let untraced = List.filter_map (fun (t, m) -> if t then None else Some m) results in
  let per_round key = List.map (List.assoc key) untraced in
  let layers =
    Option.map
      (fun t ->
        let traced = List.filter_map (fun (t, m) -> if t then Some m else None) results in
        let p50 rs = M.median (List.map (List.assoc "op_cpu_ms_p50") rs) in
        let overhead = (p50 traced /. p50 untraced) -. 1. in
        Trace.set_sweep tr true;
        if name <> "oneshot" then W.cli_sweep ctx tr plan.docs;
        if name <> "batch" then W.batch_sweep tr engines plan.docs;
        if name <> "edit" then W.session_sweep ctx.seed tr engines plan.docs;
        Trace.set_sweep tr false;
        ( Layers.compute t ~first_s ~overhead (),
          List.map (fun g -> (g, Layers.compute t ~grammar:g ~first_s ~overhead ())) grammars ))
      tr
  in
  M.count tally (plan.finish ());
  let e2e =
    List.map
      (fun (key, unit, better, bound) ->
        let values =
          match key with
          | "setup_s" -> setup_times
          | "peak_rss_mb" -> [ plan.peak_rss_mb () ]
          | k -> per_round k
        in
        let v, q1, q3 = stats values in
        (key, unit, better, bound, v, q1, q3, values))
      end_to_end
  in
  (plan.fingerprint, tally, reference, e2e, layers)

(* --- output ----------------------------------------------------------------- *)

let print_workload name fingerprint (tally : M.tally) reference e2e layers =
  Printf.printf "== %s  (fingerprint %s)\n" name fingerprint;
  Printf.printf "  reference %.4f ms CPU (nominal %.1f): times below are scaled by %.4f\n"
    reference M.nominal_ms (M.speed_scale reference);
  Printf.printf "  ops attempted %d, failed %d, failed_share %.6f\n" tally.attempted
    tally.failed
    (float_of_int tally.failed /. float_of_int (max 1 tally.attempted));
  Hashtbl.to_seq tally.classes |> List.of_seq |> List.sort compare
  |> List.iter (fun (cls, (a, f)) -> Printf.printf "    class %-24s %7d ops %5d failed\n" cls a f);
  List.iter
    (fun (key, unit, _, _, v, q1, q3, values) ->
      Printf.printf "  %-14s %12.4f %-5s  [q1 %.4f q3 %.4f, n=%d]\n" key v unit q1 q3
        (List.length values))
    e2e;
  Option.iter
    (fun (whole, by_grammar) ->
      List.iter
        (fun (k, v) -> Printf.printf "  %-28s %12.4f %s\n" k v (Layers.unit_of k))
        whole;
      List.iter
        (fun (g, rows) ->
          Printf.printf "  -- %s:" g;
          List.iter (fun (k, v) -> Printf.printf " %s=%.4g" k v) rows;
          print_newline ())
        by_grammar)
    layers

let workload_json fingerprint (tally : M.tally) reference e2e layers =
  Json.Obj
    ([
       ("fingerprint", Json.Str fingerprint);
       ("reference_ms", num reference);
       ("attempted", num (float_of_int tally.attempted));
       ("failed", num (float_of_int tally.failed));
       ( "classes",
         Json.Obj
           (Hashtbl.to_seq tally.classes |> List.of_seq |> List.sort compare
           |> List.map (fun (cls, (a, f)) ->
                  ( cls,
                    Json.Obj [ ("attempted", num (float_of_int a)); ("failed", num (float_of_int f)) ] )))
       );
       ( "metrics",
         Json.Obj
           (List.map
              (fun (key, unit, better, bound, v, q1, q3, values) ->
                ( key,
                  Json.Obj
                    [
                      ("value", num v);
                      ("unit", Json.Str unit);
                      ("better", Json.Str better);
                      ("bound", num bound);
                      ("q1", num q1);
                      ("q3", num q3);
                      ("values", Json.Arr (List.map num values));
                    ] ))
              e2e) );
     ]
    @
    match layers with
    | None -> []
    | Some (whole, by_grammar) ->
        [
          ("layers", Json.Obj (List.map (fun (k, v) -> (k, metric ~unit:(Layers.unit_of k) v)) whole));
          ( "layers_by_grammar",
            Json.Obj
              (List.map
                 (fun (g, rows) -> (g, Json.Obj (List.map (fun (k, v) -> (k, num v)) rows)))
                 by_grammar) );
        ])

(* The machine-readable last line, {correct, attempted, failed, metrics}:
   end-to-end metrics, or the per-layer ones of a traced run; with
   several workloads each name is prefixed by its workload. *)
let summary_line results =
  let total k = List.fold_left (fun a (_, r) -> a +. Json.num (Json.member k r)) 0. results in
  let prefix n = if List.length results = 1 then "" else n ^ "." in
  let metrics =
    List.concat_map
      (fun (n, r) ->
        let rows =
          match (Json.member "layers" r, Json.member "metrics" r) with
          | Some (Json.Obj l), _ | None, Some (Json.Obj l) -> l
          | _ -> []
        in
        List.map
          (fun (k, m) ->
            ( prefix n ^ k,
              Json.Obj [ ("value", num (Json.num (Json.member "value" m))); ("unit", Option.get (Json.member "unit" m)) ] ))
          rows)
      results
  in
  Json.to_string
    (Json.Obj
       [
         ("correct", Json.Bool (total "failed" = 0.));
         ("attempted", num (total "attempted"));
         ("failed", num (total "failed"));
         ("metrics", Json.Obj metrics);
       ])

let run args =
  let workload = ref None and seed = ref 1 and seconds = ref 20. in
  let trace = ref None and out = ref None and smoke = ref false in
  let rml = ref "_build/default/bin/rml.exe" and work = ref "_build/rmlbench" in
  Arg.parse_argv ~current:(ref 0) args
    [
      ("--workload", Arg.String (fun w -> workload := Some w), "W oneshot, bulk, batch or edit (default: all)");
      ("--seed", Arg.Set_int seed, "N input seed (default 1)");
      ("--seconds", Arg.Set_float seconds, "S measured seconds per workload (default 20)");
      ("--trace", Arg.String (fun f -> trace := Some f), "FILE traced run: per-layer metrics, chrome trace to FILE");
      ("--out", Arg.String (fun f -> out := Some f), "FILE write the results as JSON");
      ("--rml", Arg.Set_string rml, "PATH the rml binary");
      ("--work", Arg.Set_string work, "DIR scratch directory for documents on disk");
      ("--smoke", Arg.Set smoke, " tiny inputs and op counts; exit 1 if an op fails");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "rmlbench run [options]";
  let names =
    match !workload with
    | None -> workloads
    | Some w when List.mem w workloads -> [ w ]
    | Some w -> raise (Arg.Bad ("unknown workload " ^ w))
  in
  if not (Sys.file_exists !rml) then
    raise
      (Refused
         (!rml ^ " not found; run `dune build bin/rml.exe bench/suite/rmlbench.exe` first"));
  W.mkdir_p !work;
  let results =
    match names with
    | [ name ] ->
        let ctx =
          { W.seed = !seed; smoke = !smoke; rml = !rml; self = Sys.executable_name; work = !work }
        in
        let tr = Option.map (fun _ -> Trace.create ()) !trace in
        let fp, tally, reference, e2e, layers = run_workload ctx ~seconds:!seconds ~tr name in
        print_workload name fp tally reference e2e layers;
        Option.iter (fun f -> W.write_file f (Trace.to_chrome [ (name, Option.get tr) ])) !trace;
        [ (name, workload_json fp tally reference e2e layers) ]
    | names ->
        (* each workload in a fresh process of its own, so peak RSS and
           heap state are that workload's alone; --trace F becomes one
           F.<workload>.json per workload *)
        List.map
          (fun w ->
            let out_w = Filename.concat !work (Printf.sprintf "run-%d-%s.json" (Unix.getpid ()) w) in
            let argv =
              [ "run"; "--workload"; w; "--seed"; string_of_int !seed; "--seconds";
                Printf.sprintf "%g" !seconds; "--rml"; !rml; "--work"; !work; "--out"; out_w ]
              @ (match !trace with
                | Some f -> [ "--trace"; Filename.remove_extension f ^ "." ^ w ^ ".json" ]
                | None -> [])
              @ if !smoke then [ "--smoke" ] else []
            in
            flush stdout;
            let pid =
              Unix.create_process Sys.executable_name
                (Array.of_list (Sys.executable_name :: argv))
                Unix.stdin Unix.stdout Unix.stderr
            in
            (match Proc.wait4 pid with
            | 0, _, _ -> ()
            | code, _, _ -> raise (Refused (Printf.sprintf "workload %s exited with %d" w code)));
            let j = Json.of_string (In_channel.with_open_bin out_w In_channel.input_all) in
            Sys.remove out_w;
            (w, Option.get (Option.bind (Json.member "workloads" j) (Json.member w))))
          names
  in
  Option.iter
    (fun f ->
      W.write_file f
        (Json.to_string
           (Json.Obj
              [
                ("seed", num (float_of_int !seed));
                ("seconds", num !seconds);
                ("workloads", Json.Obj results);
              ])
        ^ "\n"))
    !out;
  print_endline (summary_line results);
  let failed = List.exists (fun (_, r) -> Json.num (Json.member "failed" r) > 0.) results in
  if !smoke && failed then 1 else 0

(* --- compare ---------------------------------------------------------------- *)

(* One row per workload x end-to-end metric. A row is unresolved when
   either run's own quartile spread (across its rounds) exceeds the
   bound; otherwise it regressed when B is worse than A by more than the
   bound. Exit 1 on a regression or differing inputs/failures. *)
let compare_files a b =
  let load f = Json.of_string (In_channel.with_open_bin f In_channel.input_all) in
  let wa = Json.member "workloads" (load a) and wb = Json.member "workloads" (load b) in
  let bad = ref false in
  Printf.printf "%-8s %-12s %12s %12s %8s %6s  %s\n" "workload" "metric" "A" "B" "delta" "bound" "verdict";
  List.iter
    (fun w ->
      match (Option.bind wa (Json.member w), Option.bind wb (Json.member w)) with
      | Some ra, Some rb ->
          let str k r = match Json.member k r with Some (Json.Str s) -> s | _ -> "" in
          let share r =
            Json.num (Json.member "failed" r) /. Json.num (Json.member "attempted" r)
          in
          if str "fingerprint" ra <> str "fingerprint" rb then (
            bad := true;
            Printf.printf "%-8s inputs differ: fingerprint %s vs %s\n" w (str "fingerprint" ra)
              (str "fingerprint" rb));
          if share ra <> share rb then (
            bad := true;
            Printf.printf "%-8s failed_share differs: %g vs %g\n" w (share ra) (share rb));
          List.iter
            (fun (key, _, better, bound) ->
              let get r k =
                Json.num
                  (Option.bind (Option.bind (Json.member "metrics" r) (Json.member key)) (Json.member k))
              in
              let va = get ra "value" and vb = get rb "value" in
              let spread r = (get r "q3" -. get r "q1") /. get r "value" in
              let worse = (if better = "lower" then vb -. va else va -. vb) /. va in
              let verdict =
                if spread ra > bound || spread rb > bound then "unresolved"
                else if worse > bound then (bad := true; "REGRESSED")
                else "ok"
              in
              Printf.printf "%-8s %-12s %12.4f %12.4f %+7.2f%% %5.0f%%  %s\n" w key va vb
                (100. *. (vb -. va) /. va) (100. *. bound) verdict)
            end_to_end
      | _ -> ())
    workloads;
  if !bad then 1 else 0

(* --- oneshot child ------------------------------------------------------------ *)

(* The pipeline `rml parse -O -b G -i FILE` runs, through library calls
   in a fresh process: same output on stdout, its spans on stderr. *)
let oneshot_child g file =
  let t = Trace.create () in
  let tr = Some t in
  let eng = Compile.compile ?tr (Inputs.grammar g) in
  let text = In_channel.with_open_bin file In_channel.input_all in
  let o, _ = Compile.parse tr ~grammar:g eng text in
  let code =
    match o.result with
    | Ok v ->
        print_string (Compile.render tr ~grammar:g ~bytes:(String.length text) v);
        print_newline ();
        0
    | Error _ -> 3
  in
  prerr_string (Trace.to_lines t);
  code

(* The reference (Measure.reference) timed in a fresh process, after one
   untimed run that faults in the minor heap: oneshot's ops run in child
   processes, which may run on another CPU than the benchmark and see
   another host speed. *)
let reference () =
  ignore (M.reference_ms ());
  Printf.printf "%.6f\n" (M.reference_ms ());
  0

(* --- peak RSS of another program ----------------------------------------------
   A child's ru_maxrss starts from its parent's memory high-water mark
   (Linux carries the pre-exec address space into it), so an `rml`
   spawned straight from the benchmark would report the benchmark's
   peak. This small fresh process forks, execs PROG with its output
   discarded, and prints PROG's own peak in KiB. *)
let rss prog args =
  match Unix.fork () with
  | 0 -> (
      let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
      Unix.dup2 null Unix.stdout;
      Unix.dup2 null Unix.stderr;
      try Unix.execv prog (Array.of_list (prog :: args)) with _ -> Unix._exit 127)
  | pid ->
      let code, kb, _ = Proc.wait4 pid in
      Printf.printf "%d\n" kb;
      code

let () =
  let argv = Sys.argv in
  let usage () =
    prerr_endline
      "usage: rmlbench run [options] | rmlbench compare A.json B.json | rmlbench \
       oneshot-child GRAMMAR FILE | rmlbench reference | rmlbench rss PROG ARGS...";
    2
  in
  exit
    (try
       match Array.to_list argv with
       | _ :: "run" :: _ -> run (Array.sub argv 1 (Array.length argv - 1))
       | [ _; "compare"; a; b ] -> compare_files a b
       | [ _; "oneshot-child"; g; file ] -> oneshot_child g file
       | [ _; "reference" ] -> reference ()
       | _ :: "rss" :: prog :: args -> rss prog args
       | _ -> usage ()
     with
    | Arg.Bad m | Arg.Help m ->
        prerr_string m;
        2
    | Refused m ->
        prerr_endline ("rmlbench: " ^ m);
        1)
