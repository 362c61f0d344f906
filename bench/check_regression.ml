(* Median-regression gate over two bench JSON files.

   Usage:
     check_regression BASELINE.json CURRENT.json
       [--time-threshold PCT] [--alloc-threshold PCT]

   Compares the E2, E3, E5, E8, E9 and E10 records of CURRENT against
   BASELINE (the committed BENCH_*.json trajectory point that CI
   passes, named in .github/workflows/ci.yml) and exits nonzero if any
   tracked metric regressed past its threshold. Improvements never
   fail. Every block iterates the BASELINE rows, so a baseline
   predating an experiment simply contributes no checks for it (e.g.
   pre-E10 baselines make the E10 block a no-op). The methodology
   follows E8: each
   bench row is already the median of interleaved timed runs, and raw
   wall-clock medians are not compared across machines — E2 times are
   normalized by the same series' hand-written baseline row, E5 warm
   times by the same row's cold parse, E3 rung times by the naive rung
   (the "ratio" column), E8 observed times by the same backend's
   observe-off run, and E9 mapped times by the same grammar's copying
   run — so only a relative slowdown of the code under test trips the
   gate.

   Allocation columns are bytes per parse and machine-independent, so
   they get the tight default threshold — except the deep-recursion
   closure rows (naive/packrat interpreters), where OCaml 5's
   fiber-stack segment allocation adds megabyte-level run-to-run noise;
   those rows are exempt. A small absolute slack keeps kilobyte-sized
   rows from tripping on jitter. *)

(* --- minimal JSON reader (flat records of strings and numbers) --------- *)

type json =
  | Str of string
  | Num of float
  | Bool of bool
  | Null
  | Arr of json list
  | Obj of (string * json) list

exception Bad of string

let parse_json (s : string) : json =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let fail msg = raise (Bad (Printf.sprintf "%s at byte %d" msg !pos)) in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    if peek () = Some c then advance ()
    else fail (Printf.sprintf "expected %c" c)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' -> (
          advance ();
          match peek () with
          | Some 'n' ->
              Buffer.add_char buf '\n';
              advance ();
              go ()
          | Some 't' ->
              Buffer.add_char buf '\t';
              advance ();
              go ()
          | Some 'u' ->
              advance ();
              if !pos + 4 > n then fail "bad \\u escape";
              let code = int_of_string ("0x" ^ String.sub s !pos 4) in
              pos := !pos + 4;
              if code < 128 then Buffer.add_char buf (Char.chr code)
              else Buffer.add_char buf '?';
              go ()
          | Some c ->
              Buffer.add_char buf c;
              advance ();
              go ()
          | None -> fail "unterminated escape")
      | Some c ->
          Buffer.add_char buf c;
          advance ();
          go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let num_char = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while (match peek () with Some c -> num_char c | None -> false) do
      advance ()
    done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> f
    | None -> fail "bad number"
  in
  let literal word v =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word
    then (
      pos := !pos + String.length word;
      v)
    else fail ("expected " ^ word)
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '"' -> Str (parse_string ())
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then (
          advance ();
          Obj [])
        else
          let rec members acc =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                members ((k, v) :: acc)
            | Some '}' ->
                advance ();
                Obj (List.rev ((k, v) :: acc))
            | _ -> fail "expected , or }"
          in
          members []
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then (
          advance ();
          Arr [])
        else
          let rec items acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                items (v :: acc)
            | Some ']' ->
                advance ();
                Arr (List.rev (v :: acc))
            | _ -> fail "expected , or ]"
          in
          items []
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> Num (parse_number ())
    | None -> fail "unexpected end of input"
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

(* --- record access ------------------------------------------------------ *)

let load path =
  let text = In_channel.with_open_bin path In_channel.input_all in
  match parse_json text with
  | Arr rows ->
      List.filter_map (function Obj fields -> Some fields | _ -> None) rows
  | _ ->
      Printf.eprintf "%s: expected a JSON array of records\n" path;
      exit 2
  | exception Bad msg ->
      Printf.eprintf "%s: %s\n" path msg;
      exit 2

let str fields k =
  match List.assoc_opt k fields with Some (Str s) -> Some s | _ -> None

let num fields k =
  match List.assoc_opt k fields with Some (Num f) -> Some f | _ -> None

let experiment fields = Option.value ~default:"" (str fields "experiment")

(* --- the gate ----------------------------------------------------------- *)

let failures = ref 0
let checks = ref 0

let report ~label ~metric ~base ~cur ~threshold ~slack_ok =
  incr checks;
  let pct = (cur -. base) /. base *. 100.0 in
  if base > 0.0 && pct > threshold && not slack_ok then (
    incr failures;
    Printf.printf "FAIL %-46s %-18s %12.3f -> %12.3f  (%+.1f%% > %.0f%%)\n"
      label metric base cur pct threshold)

let () =
  let time_threshold = ref 10.0 in
  let alloc_threshold = ref 10.0 in
  let args = ref [] in
  let rec parse_args = function
    | "--time-threshold" :: v :: rest ->
        time_threshold := float_of_string v;
        parse_args rest
    | "--alloc-threshold" :: v :: rest ->
        alloc_threshold := float_of_string v;
        parse_args rest
    | a :: rest ->
        args := a :: !args;
        parse_args rest
    | [] -> ()
  in
  parse_args (List.tl (Array.to_list Sys.argv));
  let baseline_path, current_path =
    match List.rev !args with
    | [ b; c ] -> (b, c)
    | _ ->
        prerr_endline
          "usage: check_regression BASELINE.json CURRENT.json \
           [--time-threshold PCT] [--alloc-threshold PCT]";
        exit 2
  in
  let baseline = load baseline_path and current = load current_path in

  (* E2: match by (series, parser). *)
  let e2_key fields =
    match (str fields "series", str fields "parser") with
    | Some s, Some p when experiment fields = "e2" -> Some (s, p)
    | _ -> None
  in
  let e2_rows rows = List.filter_map (fun f -> Option.map (fun k -> (k, f)) (e2_key f)) rows in
  let base_e2 = e2_rows baseline and cur_e2 = e2_rows current in
  let handwritten rows series =
    List.assoc_opt (series, "hand-written") rows
  in
  (* Deterministic-allocation rows; the deep-recursion closure rows are
     exempt (fiber-stack segment noise). *)
  let alloc_tracked = function
    | "optimized interpreter" | "hand-written" -> true
    | _ -> false
  in
  List.iter
    (fun ((series, parser), bf) ->
      match List.assoc_opt (series, parser) cur_e2 with
      | None ->
          incr checks;
          incr failures;
          Printf.printf "FAIL e2 %s/%s: row missing from %s\n" series parser
            current_path
      | Some cf -> (
          let label = Printf.sprintf "e2 %s/%s" series parser in
          incr checks;
          (match (num bf "bytes", num cf "bytes") with
          | Some a, Some b when a <> b ->
              incr failures;
              Printf.printf "FAIL %s: corpus changed (%d -> %d bytes)\n" label
                (int_of_float a) (int_of_float b)
          | _ -> ());
          (match
             ( num bf "median_ms",
               num cf "median_ms",
               handwritten base_e2 series,
               handwritten cur_e2 series )
           with
          | Some bm, Some cm, Some bh, Some ch
            when parser <> "hand-written" -> (
              match (num bh "median_ms", num ch "median_ms") with
              | Some bhm, Some chm when bhm > 0.0 && chm > 0.0 ->
                  report ~label ~metric:"median_ms (norm)" ~base:(bm /. bhm)
                    ~cur:(cm /. chm) ~threshold:!time_threshold ~slack_ok:false
              | _ ->
                  report ~label ~metric:"median_ms" ~base:bm ~cur:cm
                    ~threshold:!time_threshold ~slack_ok:false)
          | Some bm, Some cm, _, _ when parser <> "hand-written" ->
              report ~label ~metric:"median_ms" ~base:bm ~cur:cm
                ~threshold:!time_threshold ~slack_ok:false
          | _ -> ());
          match (num bf "allocated_bytes_per_parse", num cf "allocated_bytes_per_parse") with
          | Some ba, Some ca when alloc_tracked parser ->
              report ~label ~metric:"alloc_bytes" ~base:ba ~cur:ca
                ~threshold:!alloc_threshold
                ~slack_ok:(ca -. ba < 8192.0)
          | _ -> ()))
    base_e2;

  (* E5: match by (grammar, backend); warm medians are normalized by the
     same row's cold median so machine speed cancels. *)
  let e5_key fields =
    match (str fields "grammar", str fields "backend") with
    | Some g, Some b when experiment fields = "e5" -> Some (g, b)
    | _ -> None
  in
  let e5_rows rows = List.filter_map (fun f -> Option.map (fun k -> (k, f)) (e5_key f)) rows in
  let base_e5 = e5_rows baseline and cur_e5 = e5_rows current in
  List.iter
    (fun ((grammar, backend), bf) ->
      match List.assoc_opt (grammar, backend) cur_e5 with
      | None ->
          incr checks;
          incr failures;
          Printf.printf "FAIL e5 %s/%s: row missing from %s\n" grammar backend
            current_path
      | Some cf -> (
          let label = Printf.sprintf "e5 %s/%s" grammar backend in
          incr checks;
          (match (num bf "bytes", num cf "bytes") with
          | Some a, Some b when a <> b ->
              incr failures;
              Printf.printf "FAIL %s: corpus changed (%d -> %d bytes)\n" label
                (int_of_float a) (int_of_float b)
          | _ -> ());
          (match
             ( num bf "median_warm_ms",
               num bf "median_cold_ms",
               num cf "median_warm_ms",
               num cf "median_cold_ms" )
           with
          | Some bw, Some bc, Some cw, Some cc when bc > 0.0 && cc > 0.0 ->
              report ~label ~metric:"warm/cold (norm)" ~base:(bw /. bc)
                ~cur:(cw /. cc) ~threshold:!time_threshold ~slack_ok:false
          | _ -> ());
          match
            ( num bf "allocated_bytes_per_reparse",
              num cf "allocated_bytes_per_reparse" )
          with
          | Some ba, Some ca ->
              report ~label ~metric:"alloc_bytes" ~base:ba ~cur:ca
                ~threshold:!alloc_threshold
                ~slack_ok:(ca -. ba < 8192.0)
          | _ -> ()))
    base_e5;

  (* E3: match by rung. The "ratio" column is each rung's time over the
     naive rung of the same run, so machine speed cancels; the memo
     counters are deterministic for the fixed corpus. *)
  let e3_key fields =
    match str fields "rung" with
    | Some r
      when experiment fields = "e3" && str fields "series" = Some "minic-ladder"
      ->
        Some r
    | _ -> None
  in
  let e3_rows rows =
    List.filter_map (fun f -> Option.map (fun k -> (k, f)) (e3_key f)) rows
  in
  let base_e3 = e3_rows baseline and cur_e3 = e3_rows current in
  List.iter
    (fun (rung, bf) ->
      match List.assoc_opt rung cur_e3 with
      | None ->
          incr checks;
          incr failures;
          Printf.printf "FAIL e3 %s: row missing from %s\n" rung current_path
      | Some cf -> (
          let label = Printf.sprintf "e3 %s" rung in
          incr checks;
          (match (num bf "ratio", num cf "ratio") with
          | Some br, Some cr when br > 0.0 ->
              report ~label ~metric:"ratio vs naive" ~base:br ~cur:cr
                ~threshold:!time_threshold ~slack_ok:false
          | _ -> ());
          match (num bf "memo_entries", num cf "memo_entries") with
          | Some be, Some ce ->
              report ~label ~metric:"memo_entries" ~base:be ~cur:ce
                ~threshold:!alloc_threshold ~slack_ok:(ce -. be < 64.0)
          | _ -> ()))
    base_e3;

  (* E8: match by backend. Structural gate first — the bench itself
     computes off_gate by comparing the observe-off run against a
     build with no observability code at all; "fail" there means
     dormant instrumentation leaked into the hot path. Then the
     observe-on cost, normalized by the same backend's off run. *)
  let e8_key fields =
    match str fields "backend" with
    | Some b
      when experiment fields = "e8" && str fields "series" = Some "overhead" ->
        Some b
    | _ -> None
  in
  let e8_rows rows =
    List.filter_map (fun f -> Option.map (fun k -> (k, f)) (e8_key f)) rows
  in
  let base_e8 = e8_rows baseline and cur_e8 = e8_rows current in
  List.iter
    (fun (backend, bf) ->
      match List.assoc_opt backend cur_e8 with
      | None ->
          incr checks;
          incr failures;
          Printf.printf "FAIL e8 %s: row missing from %s\n" backend current_path
      | Some cf -> (
          let label = Printf.sprintf "e8 %s" backend in
          incr checks;
          (match str cf "off_gate" with
          | Some "fail" ->
              incr failures;
              Printf.printf
                "FAIL %s: off_gate = fail (dormant observability costs time)\n"
                label
          | _ -> ());
          match
            ( num bf "on_ms",
              num bf "off_ms",
              num cf "on_ms",
              num cf "off_ms" )
          with
          | Some bon, Some boff, Some con, Some coff
            when boff > 0.0 && coff > 0.0 ->
              report ~label ~metric:"on/off (norm)" ~base:(bon /. boff)
                ~cur:(con /. coff) ~threshold:!time_threshold ~slack_ok:false
          | _ -> ()))
    base_e8;

  (* E9 mmap-vs-copy: match by (grammar, mode). Structural gate: a
     mapped parse must not allocate more than the copying parse of the
     same grammar (the file-sized heap copy is the whole point). Mapped
     time is normalized by the same grammar's copy row. *)
  let e9mc_key fields =
    match (str fields "grammar", str fields "mode") with
    | Some g, Some m
      when experiment fields = "e9" && str fields "series" = Some "mmap-vs-copy"
      ->
        Some (g, m)
    | _ -> None
  in
  let e9mc_rows rows =
    List.filter_map (fun f -> Option.map (fun k -> (k, f)) (e9mc_key f)) rows
  in
  let base_e9mc = e9mc_rows baseline and cur_e9mc = e9mc_rows current in
  List.iter
    (fun ((grammar, mode), bf) ->
      match List.assoc_opt (grammar, mode) cur_e9mc with
      | None ->
          incr checks;
          incr failures;
          Printf.printf "FAIL e9 %s/%s: row missing from %s\n" grammar mode
            current_path
      | Some cf -> (
          let label = Printf.sprintf "e9 %s/%s" grammar mode in
          incr checks;
          (match
             ( num bf "allocated_bytes_per_parse",
               num cf "allocated_bytes_per_parse" )
           with
          | Some ba, Some ca ->
              report ~label ~metric:"alloc_bytes" ~base:ba ~cur:ca
                ~threshold:!alloc_threshold ~slack_ok:(ca -. ba < 8192.0)
          | _ -> ());
          if mode = "mmap" then (
            (match
               ( List.assoc_opt (grammar, "copy") cur_e9mc,
                 num cf "allocated_bytes_per_parse" )
             with
            | Some copy_cf, Some ca -> (
                match num copy_cf "allocated_bytes_per_parse" with
                | Some copy_a when ca > copy_a +. 8192.0 ->
                    incr failures;
                    Printf.printf
                      "FAIL %s: mapped parse allocates more than copy \
                       (%.0f > %.0f bytes)\n"
                      label ca copy_a
                | _ -> ())
            | _ -> ());
            match
              ( num bf "median_ms",
                num cf "median_ms",
                List.assoc_opt (grammar, "copy") base_e9mc,
                List.assoc_opt (grammar, "copy") cur_e9mc )
            with
            | Some bm, Some cm, Some bcopy, Some ccopy -> (
                match (num bcopy "median_ms", num ccopy "median_ms") with
                | Some bcm, Some ccm when bcm > 0.0 && ccm > 0.0 ->
                    report ~label ~metric:"mmap/copy (norm)" ~base:(bm /. bcm)
                      ~cur:(cm /. ccm) ~threshold:!time_threshold
                      ~slack_ok:false
                | _ -> ())
            | _ -> ())))
    base_e9mc;

  (* E9 recognizer-alloc: the in-file claim is size-independence — per
     grammar, bytes/parse at the largest input must stay within a
     whisker of the smallest. Cross-file, each row is also compared
     against the baseline's. *)
  let e9ra_key fields =
    match (str fields "grammar", num fields "bytes") with
    | Some g, Some b
      when experiment fields = "e9"
           && str fields "series" = Some "recognizer-alloc" ->
        Some (g, b)
    | _ -> None
  in
  let e9ra_rows rows =
    List.filter_map (fun f -> Option.map (fun k -> (k, f)) (e9ra_key f)) rows
  in
  let base_e9ra = e9ra_rows baseline and cur_e9ra = e9ra_rows current in
  let grammars =
    List.sort_uniq compare (List.map (fun ((g, _), _) -> g) cur_e9ra)
  in
  List.iter
    (fun g ->
      let allocs =
        List.filter_map
          (fun ((g', _), f) ->
            if g' = g then num f "allocated_bytes_per_parse" else None)
          cur_e9ra
      in
      match allocs with
      | [] -> ()
      | a :: rest ->
          incr checks;
          let mn = List.fold_left min a rest
          and mx = List.fold_left max a rest in
          if mx > (mn *. 1.25) +. 16384.0 then (
            incr failures;
            Printf.printf
              "FAIL e9 %s: recognizer allocation grows with input \
               (%.0f .. %.0f bytes/parse)\n"
              g mn mx))
    grammars;
  List.iter
    (fun ((g, bytes), bf) ->
      match List.assoc_opt (g, bytes) cur_e9ra with
      | None ->
          incr checks;
          incr failures;
          Printf.printf "FAIL e9 %s@%d: row missing from %s\n" g
            (int_of_float bytes) current_path
      | Some cf -> (
          match
            ( num bf "allocated_bytes_per_parse",
              num cf "allocated_bytes_per_parse" )
          with
          | Some ba, Some ca ->
              report
                ~label:(Printf.sprintf "e9 %s@%d" g (int_of_float bytes))
                ~metric:"alloc_bytes" ~base:ba ~cur:ca
                ~threshold:!alloc_threshold ~slack_ok:(ca -. ba < 8192.0)
          | _ -> ()))
    base_e9ra;

  (* E9 voidified-recognizer-alloc: the real calc and MiniJava grammars
     with every kind erased (what [--recognize] and the degradation
     ladder run). Same size-independence claim as above, but held per
     (grammar, backend) since each engine reports its own constant;
     the in-file flatness gate runs on CURRENT alone, so a pre-PR9
     baseline contributes no rows yet cannot mask a fresh leak.
     Cross-file, each row's bytes/parse is compared against the
     baseline's when the baseline has it. *)
  let e9va_key fields =
    match
      (str fields "grammar", str fields "backend", num fields "bytes")
    with
    | Some g, Some b, Some n
      when experiment fields = "e9"
           && str fields "series" = Some "voidified-recognizer-alloc" ->
        Some (g, b, n)
    | _ -> None
  in
  let e9va_rows rows =
    List.filter_map (fun f -> Option.map (fun k -> (k, f)) (e9va_key f)) rows
  in
  let base_e9va = e9va_rows baseline and cur_e9va = e9va_rows current in
  let series =
    List.sort_uniq compare (List.map (fun ((g, b, _), _) -> (g, b)) cur_e9va)
  in
  List.iter
    (fun (g, b) ->
      let allocs =
        List.filter_map
          (fun ((g', b', _), f) ->
            if g' = g && b' = b then num f "allocated_bytes_per_parse"
            else None)
          cur_e9va
      in
      match allocs with
      | [] -> ()
      | a :: rest ->
          incr checks;
          let mn = List.fold_left min a rest
          and mx = List.fold_left max a rest in
          if mx > (mn *. 1.25) +. 16384.0 then (
            incr failures;
            Printf.printf
              "FAIL e9 voidified %s/%s: recognizer allocation grows with \
               input (%.0f .. %.0f bytes/parse)\n"
              g b mn mx))
    series;
  List.iter
    (fun ((g, b, bytes), bf) ->
      match List.assoc_opt (g, b, bytes) cur_e9va with
      | None ->
          incr checks;
          incr failures;
          Printf.printf "FAIL e9 voidified %s/%s@%d: row missing from %s\n" g b
            (int_of_float bytes) current_path
      | Some cf -> (
          match
            ( num bf "allocated_bytes_per_parse",
              num cf "allocated_bytes_per_parse" )
          with
          | Some ba, Some ca ->
              report
                ~label:
                  (Printf.sprintf "e9 voidified %s/%s@%d" g b
                     (int_of_float bytes))
                ~metric:"alloc_bytes" ~base:ba ~cur:ca
                ~threshold:!alloc_threshold ~slack_ok:(ca -. ba < 8192.0)
          | _ -> ()))
    base_e9va;

  (* E10 ladder: match by (backend, mode). Raw batch throughput is
     machine-bound, so the timed gate is the in-run "vs_cold" ratio —
     the degraded run's median over the same backend's cold median,
     i.e. the price of descending the ladder. The counters are
     deterministic for the fixed corpus: every degraded document must
     still be rescued on the recognizer rung, and the summed
     memo-degradation count must not drift. *)
  let e10l_key fields =
    match (str fields "backend", str fields "mode") with
    | Some b, Some m
      when experiment fields = "e10" && str fields "series" = Some "ladder" ->
        Some (b, m)
    | _ -> None
  in
  let e10l_rows rows =
    List.filter_map (fun f -> Option.map (fun k -> (k, f)) (e10l_key f)) rows
  in
  let base_e10l = e10l_rows baseline and cur_e10l = e10l_rows current in
  List.iter
    (fun ((backend, mode), bf) ->
      match List.assoc_opt (backend, mode) cur_e10l with
      | None ->
          incr checks;
          incr failures;
          Printf.printf "FAIL e10 %s/%s: row missing from %s\n" backend mode
            current_path
      | Some cf ->
          let label = Printf.sprintf "e10 %s/%s" backend mode in
          incr checks;
          (match (num cf "docs", num cf "rung_recognizer") with
          | Some d, Some r when mode = "degraded" && r <> d ->
              incr failures;
              Printf.printf
                "FAIL %s: only %d of %d documents rescued on the recognizer \
                 rung\n"
                label (int_of_float r) (int_of_float d)
          | _ -> ());
          (if mode = "degraded" then
             match (num bf "vs_cold", num cf "vs_cold") with
             | Some br, Some cr when br > 0.0 ->
                 report ~label ~metric:"degraded/cold (norm)" ~base:br ~cur:cr
                   ~threshold:!time_threshold ~slack_ok:false
             | _ -> ());
          (match (num bf "memo_degraded", num cf "memo_degraded") with
          | Some bm, Some cm ->
              report ~label ~metric:"memo_degraded" ~base:bm ~cur:cm
                ~threshold:!alloc_threshold ~slack_ok:(cm -. bm < 64.0)
          | _ -> ()))
    base_e10l;

  (* E10 throughput: structural only — the batch corpus must stay
     all-ok (one failed document means per-document isolation or the
     grammar changed underfoot), and the corpus itself must not drift. *)
  let e10t_key fields =
    match str fields "backend" with
    | Some b
      when experiment fields = "e10" && str fields "series" = Some "throughput"
      ->
        Some b
    | _ -> None
  in
  let e10t_rows rows =
    List.filter_map (fun f -> Option.map (fun k -> (k, f)) (e10t_key f)) rows
  in
  let base_e10t = e10t_rows baseline and cur_e10t = e10t_rows current in
  List.iter
    (fun (backend, bf) ->
      match List.assoc_opt backend cur_e10t with
      | None ->
          incr checks;
          incr failures;
          Printf.printf "FAIL e10 %s: row missing from %s\n" backend
            current_path
      | Some cf ->
          let label = Printf.sprintf "e10 %s/throughput" backend in
          incr checks;
          (match (num bf "bytes", num cf "bytes") with
          | Some a, Some b when a <> b ->
              incr failures;
              Printf.printf "FAIL %s: corpus changed (%d -> %d bytes)\n" label
                (int_of_float a) (int_of_float b)
          | _ -> ());
          (match num cf "failed" with
          | Some f when f > 0.0 ->
              incr failures;
              Printf.printf "FAIL %s: %d documents failed in a clean corpus\n"
                label (int_of_float f)
          | _ -> ()))
    base_e10t;

  (* E11: match by backend. Structural gate first — the bench computes
     off_gate from the median of ABBA-paired metrics-on vs metrics-off
     batch runs; "fail" means pipeline telemetry costs more than 3%
     even when derived purely from finished records. Then the
     cross-file check: the on/off ratio against the baseline's, so
     machine speed cancels. A baseline predating E11 contributes no
     rows and the block is a no-op. *)
  let e11_key fields =
    match str fields "backend" with
    | Some b
      when experiment fields = "e11" && str fields "series" = Some "overhead" ->
        Some b
    | _ -> None
  in
  let e11_rows rows =
    List.filter_map (fun f -> Option.map (fun k -> (k, f)) (e11_key f)) rows
  in
  let base_e11 = e11_rows baseline and cur_e11 = e11_rows current in
  List.iter
    (fun (backend, bf) ->
      match List.assoc_opt backend cur_e11 with
      | None ->
          incr checks;
          incr failures;
          Printf.printf "FAIL e11 %s: row missing from %s\n" backend
            current_path
      | Some cf -> (
          let label = Printf.sprintf "e11 %s" backend in
          incr checks;
          (match str cf "off_gate" with
          | Some "fail" ->
              incr failures;
              Printf.printf
                "FAIL %s: off_gate = fail (pipeline telemetry costs more \
                 than 3%%)\n"
                label
          | _ -> ());
          match
            (num bf "on_ms", num bf "off_ms", num cf "on_ms", num cf "off_ms")
          with
          | Some bon, Some boff, Some con, Some coff
            when boff > 0.0 && coff > 0.0 ->
              report ~label ~metric:"on/off (norm)" ~base:(bon /. boff)
                ~cur:(con /. coff) ~threshold:!time_threshold ~slack_ok:false
          | _ -> ()))
    base_e11;

  if !failures = 0 then (
    Printf.printf "ok: %d checks against %s, no regression beyond %.0f%% \
                   (time) / %.0f%% (alloc)\n"
      !checks baseline_path !time_threshold !alloc_threshold;
    exit 0)
  else (
    Printf.printf "%d of %d checks regressed\n" !failures !checks;
    exit 1)
