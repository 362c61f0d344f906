(* Regression gate over two bench JSON files.

   Usage: check_regression BASELINE.json CURRENT.json

   BASELINE is the committed BENCH_*.json trajectory point that CI
   passes (named in .github/workflows/ci.yml); CURRENT is a fresh
   [bench/main.exe --json] run of E2, E3, E5, E8, E9, E10 and E11. The
   gate is [table] below: one entry per (experiment, series) names the
   key fields that match a baseline row to a current row and the gates
   that pair must pass. The loop iterates the BASELINE rows, so a
   baseline predating an experiment contributes no checks for it. A
   keyed row the CURRENT file lacks fails as "row missing". Every
   matched row is one check of its corpus: [bytes], when both rows
   record it and it is not a key, must be unchanged. Exit code 1 on any
   failure, 2 on unreadable input. The gate kinds:

   - [Exact]: counters that do not depend on the host (memo entries and
     hits, invocations, reused entries, coverage arms, ladder rescues)
     must not change in either direction; a deliberate change
     re-baselines them.
   - [Bounded]: bytes allocated per parse may grow by at most
     [alloc_pct], or by less than 8192 bytes so kilobyte-sized rows do
     not trip on jitter. The deep-recursion naive/packrat E2 rows are
     not gated: OCaml 5's fiber-stack segments add megabyte-level
     run-to-run noise there.
   - [Time]: wall-clock medians are never compared across machines.
     Each is normalized within its own file: by another column of the
     same row (E5 warm over cold, E8/E11 on over off), by the same
     column of a sibling row (E2 over the hand-written parser, E9
     mapped over copying), or is a ratio column already (E3 over the
     naive rung, E10 degraded over cold). It may grow by at most
     [time_pct]; on shared hosts these ratios still swing by tens of
     percent, so this is a coarse smoke bound.
   - Structural gates read the CURRENT row alone: [Off_gate] (the
     bench's own zero-cost-off verdict), [Mmap_le_copy], [All_rescued]
     and [No_failed]. [Flat] holds per group of CURRENT rows (the key
     without its last field, the input size) that allocation does not
     grow with input.

   Bounded and time gates never fail on an improvement. Files are read
   with the repository's hand-written JSON parser, which does not
   depend on the engine. *)

open Rats_peg

type field = S of string | N of float

let scalar = function
  | Value.Node { name = "Str"; children = [ (_, Value.Str s) ]; _ } -> Some (S s)
  | Value.Node { name = "Num"; children = [ (_, Value.Str s) ]; _ } ->
      Some (N (float_of_string s))
  | _ -> None

(* The elements of a JSON array or object node. *)
let elements = function
  | [ (_, first); (_, Value.List rest) ] -> first :: rest
  | _ -> []

(* The records of a JSON array, each as its scalar fields. *)
let load path =
  let fail msg =
    Printf.eprintf "%s: %s\n" path msg;
    exit 2
  in
  let member = function
    | Value.Node { name = "Member"; children = [ (_, Value.Str k); (_, v) ]; _ }
      ->
        Option.map (fun v -> (k, v)) (scalar v)
    | _ -> None
  in
  let record = function
    | Value.Node { name = "Object"; children; _ } ->
        Some (List.filter_map member (elements children))
    | _ -> None
  in
  match
    Rats_grammars.Json.parse_hand
      (In_channel.with_open_bin path In_channel.input_all)
  with
  | Ok (Value.Node { name = "Array"; children; _ }) ->
      List.filter_map record (elements children)
  | Ok _ -> fail "expected a JSON array of records"
  | Error msg -> fail msg

let num row f = match List.assoc_opt f row with Some (N x) -> Some x | _ -> None
let str row f = match List.assoc_opt f row with Some (S s) -> Some s | _ -> None

(* --- the table ------------------------------------------------------------ *)

type norm =
  | Ratio  (** the column is a ratio already *)
  | Per of string  (** over another column of the same row *)
  | Sibling of string * string
      (** over the same column of the row whose key field [k] reads [v];
          the sibling row itself is not gated *)

type gate =
  | Bounded of string
      (** an allocation column: grows by at most [alloc_pct] or by less
          than 8192 bytes *)
  | Exact of string  (** a deterministic counter: unchanged *)
  | Time of string * string * norm  (** metric name, column, normalizer *)
  | Off_gate of string  (** [off_gate] is not "fail"; what a fail means *)
  | Mmap_le_copy  (** allocates at most the copying row + 8192 bytes *)
  | All_rescued  (** [rung_recognizer = docs] *)
  | No_failed  (** [failed = 0] *)
  | Flat  (** per group, max bytes/parse <= 1.25 * min + 16384 *)
  | Only of string * string list * gate
      (** the gate, on rows whose field reads one of the values *)

type entry = {
  exp : string;
  series : string option;  (** [None]: any series *)
  name : string;  (** label prefix *)
  keys : string list;
  tag : string;  (** appended to the label of the row's checks *)
  gates : gate list;
}

let entry ?series ?name ?(tag = "") exp keys gates =
  { exp; series; name = Option.value name ~default:exp; keys; tag; gates }

let time_pct = 50.0
let alloc_pct = 10.0
let per_parse = "allocated_bytes_per_parse"

let table =
  [
    entry "e2" [ "series"; "parser" ]
      [
        Time
          ("median_ms (norm)", "median_ms", Sibling ("parser", "hand-written"));
        Only
          ("parser", [ "optimized interpreter"; "hand-written" ], Bounded per_parse);
      ];
    entry "e5" [ "grammar"; "backend" ]
      [
        Time ("warm/cold (norm)", "median_warm_ms", Per "median_cold_ms");
        Bounded "allocated_bytes_per_reparse";
        Exact "reused";
        Exact "relocated";
        Exact "memo_degraded";
        Exact "cold_fallbacks";
      ];
    entry "e3" ~series:"minic-ladder" [ "rung" ]
      [
        Time ("ratio vs naive", "ratio", Ratio);
        Exact "memo_entries";
        Exact "invocations";
        Exact "memo_hits";
        Exact "productions";
      ];
    entry "e3" ~series:"passes" ~name:"e3 pass" [ "pass" ]
      [ Exact "prods_after"; Exact "nodes_after" ];
    entry "e8" ~series:"overhead" [ "backend" ]
      [
        Off_gate "dormant observability costs time";
        Time ("on/off (norm)", "on_ms", Per "off_ms");
      ];
    entry "e8" ~series:"coverage" ~name:"e8 coverage" []
      [ Exact "prods_hit"; Exact "prods"; Exact "arms_matched"; Exact "arms" ];
    entry "e9" ~series:"mmap-vs-copy" [ "grammar"; "mode" ]
      [
        Bounded per_parse;
        Mmap_le_copy;
        Time ("mmap/copy (norm)", "median_ms", Sibling ("mode", "copy"));
      ];
    entry "e9" ~series:"recognizer-alloc" [ "grammar"; "bytes" ]
      [ Flat; Bounded per_parse ];
    entry "e9" ~series:"voidified-recognizer-alloc" ~name:"e9 voidified"
      [ "grammar"; "backend"; "bytes" ]
      [ Flat; Bounded per_parse ];
    entry "e10" ~series:"ladder" [ "backend"; "mode" ]
      [
        Only ("mode", [ "degraded" ], All_rescued);
        Only
          ("mode", [ "degraded" ], Time ("degraded/cold (norm)", "vs_cold", Ratio));
        Exact "retried";
        Exact "memo_degraded";
        Exact "cold_fallbacks";
      ];
    entry "e10" ~series:"throughput" ~tag:"/throughput" [ "backend" ]
      [ No_failed ];
    entry "e11" ~series:"overhead" [ "backend" ]
      [
        Off_gate "pipeline telemetry costs more than 3%";
        Time ("on/off (norm)", "on_ms", Per "off_ms");
      ];
    entry "e11" ~series:"reconcile" ~name:"e11 reconcile" [ "backend" ]
      [ Exact "ok"; Exact "hist_count" ];
  ]

(* --- the loop ------------------------------------------------------------- *)

let failures = ref 0
let checks = ref 0

let fail fmt =
  incr failures;
  Printf.printf ("FAIL " ^^ fmt ^^ "\n")

let report label metric ~pct ~slack base cur =
  incr checks;
  let d = (cur -. base) /. base *. 100.0 in
  if base > 0.0 && d > pct && not (cur -. base < slack) then
    fail "%-46s %-18s %12.3f -> %12.3f  (%+.1f%% > %.0f%%)" label metric base cur
      d pct

let key e row =
  let fields = List.filter_map (fun k -> List.assoc_opt k row) e.keys in
  if
    str row "experiment" = Some e.exp
    && (e.series = None || str row "series" = e.series)
    && List.compare_lengths fields e.keys = 0
  then Some fields
  else None

(* "e2 calc/naive interpreter", "e9 voidified calc/closure@12241". *)
let label name = function
  | [] -> name
  | key ->
      name ^ " "
      ^ String.concat ""
          (List.mapi
             (fun i -> function
               | S s -> if i = 0 then s else "/" ^ s
               | N x -> Printf.sprintf "@%d" (int_of_float x))
             key)

let sibling e key (k, v) =
  List.map2 (fun k' x -> if k' = k then S v else x) e.keys key

let flat e curs =
  let group k = List.filteri (fun i _ -> i < List.length k - 1) k in
  List.sort_uniq compare (List.map (fun (k, _) -> group k) curs)
  |> List.iter (fun g ->
         match
           List.filter_map
             (fun (k, c) -> if group k = g then num c per_parse else None)
             curs
         with
         | [] -> ()
         | a :: rest ->
             incr checks;
             let mn = List.fold_left min a rest
             and mx = List.fold_left max a rest in
             if mx > (mn *. 1.25) +. 16384.0 then
               fail "%s: recognizer allocation grows with input (%.0f .. %.0f \
                     bytes/parse)"
                 (label e.name g) mn mx)

let rec check e ~bases ~curs key label b c = function
  | Only (f, vs, g) -> (
      match str c f with
      | Some v when List.mem v vs -> check e ~bases ~curs key label b c g
      | _ -> ())
  | Bounded col -> (
      match (num b col, num c col) with
      | Some x, Some y ->
          report label "alloc_bytes" ~pct:alloc_pct ~slack:8192.0 x y
      | _ -> ())
  | Exact col -> (
      match (num b col, num c col) with
      | Some x, Some y ->
          incr checks;
          if x <> y then
            fail "%-46s %-18s %12.0f -> %12.0f  (must not change)" label col x y
      | _ -> ())
  | Time (metric, col, norm) -> (
      let on rows k = Option.bind (List.assoc_opt k rows) (fun r -> num r col) in
      let xd, yd =
        match norm with
        | Ratio -> (Some 1.0, Some 1.0)
        | Per d -> (num b d, num c d)
        | Sibling (k, v) ->
            let sk = sibling e key (k, v) in
            if sk = key then (None, None) else (on bases sk, on curs sk)
      in
      match (num b col, num c col, xd, yd) with
      | Some x, Some y, Some xd, Some yd when xd > 0.0 && yd > 0.0 ->
          report label metric ~pct:time_pct ~slack:neg_infinity (x /. xd)
            (y /. yd)
      | _ -> ())
  | Off_gate why ->
      if str c "off_gate" = Some "fail" then
        fail "%s: off_gate = fail (%s)" label why
  | Mmap_le_copy -> (
      let sk = sibling e key ("mode", "copy") in
      match (List.assoc_opt sk curs, num c per_parse) with
      | Some copy, Some y when sk <> key -> (
          match num copy per_parse with
          | Some z when y > z +. 8192.0 ->
              fail
                "%s: mapped parse allocates more than copy (%.0f > %.0f bytes)"
                label y z
          | _ -> ())
      | _ -> ())
  | All_rescued -> (
      match (num c "docs", num c "rung_recognizer") with
      | Some d, Some r when r <> d ->
          fail "%s: only %d of %d documents rescued on the recognizer rung" label
            (int_of_float r) (int_of_float d)
      | _ -> ())
  | No_failed -> (
      match num c "failed" with
      | Some f when f > 0.0 ->
          fail "%s: %d documents failed in a clean corpus" label (int_of_float f)
      | _ -> ())
  | Flat -> ()

let () =
  let baseline_path, current_path =
    match Sys.argv with
    | [| _; b; c |] -> (b, c)
    | _ ->
        prerr_endline "usage: check_regression BASELINE.json CURRENT.json";
        exit 2
  in
  let baseline = load baseline_path and current = load current_path in
  List.iter
    (fun e ->
      let keyed rows =
        List.filter_map (fun r -> Option.map (fun k -> (k, r)) (key e r)) rows
      in
      let bases = keyed baseline and curs = keyed current in
      if List.mem Flat e.gates then flat e curs;
      List.iter
        (fun (k, b) ->
          match List.assoc_opt k curs with
          | None ->
              incr checks;
              fail "%s: row missing from %s" (label e.name k) current_path
          | Some c ->
              let label = label e.name k ^ e.tag in
              if not (List.mem "bytes" e.keys) then (
                incr checks;
                match (num b "bytes", num c "bytes") with
                | Some x, Some y when x <> y ->
                    fail "%s: corpus changed (%d -> %d bytes)" label
                      (int_of_float x) (int_of_float y)
                | _ -> ());
              List.iter (check e ~bases ~curs k label b c) e.gates)
        bases)
    table;
  if !failures = 0 then (
    Printf.printf
      "ok: %d checks against %s, no regression beyond %.0f%% (time) / %.0f%% \
       (alloc)\n"
      !checks baseline_path time_pct alloc_pct;
    exit 0)
  else (
    Printf.printf "%d of %d checks regressed\n" !failures !checks;
    exit 1)
