(* The observability layer: profiler, trace ring, coverage, and the
   zero-cost-when-off contract. The random-grammar properties (profiler
   sums, observation changing nothing) live in test_props.ml; these are
   the directed cases. *)

open Rats

let check = Alcotest.check
let test name f = Alcotest.test_case name `Quick f
let b = Grammar.make_exn
let configs = [ ("optimized", Config.optimized) ]
let governed config = Config.with_limits (Limits.v ~fuel:100_000 ()) config

let contains hay needle =
  let n = String.length hay and m = String.length needle in
  let rec go i = i + m <= n && (String.sub hay i m = needle || go (i + 1)) in
  m = 0 || go 0

let obs_of eng =
  match Engine.observation eng with
  | Some o -> o
  | None -> Alcotest.fail "observed engine reports no sink"

(* S = A+ ; A = 'a' / 'b' / 'z' — test corpora never contain 'z', so its
   arm is deliberately dead. *)
let dead_arm_grammar () =
  let open Builder in
  b [ prod "S" (plus (e "A")); prod "A" (alt [ c 'a'; c 'b'; c 'z' ]) ]

(* S = '(' S ')' / 'x' — drives depth and fuel on nested input. *)
let nest_grammar () =
  let open Builder in
  b [ prod "S" (seq [ c '('; e "S"; c ')' ] <|> c 'x') ]

let nest_input depth = String.make depth '(' ^ "x" ^ String.make depth ')'

(* --- Stats schema ------------------------------------------------------------ *)

(* The record literal is the point: adding a counter to Stats.t without
   visiting this test is a compile error, which is exactly when the
   add/fields/pp audit below must be re-run. *)
let all_ones () : Stats.t =
  {
    Stats.invocations = 1;
    memo_hits = 1;
    memo_misses = 1;
    memo_stores = 1;
    chunks_allocated = 1;
    chunk_slots = 1;
    backtracks = 1;
    state_snapshots = 1;
    memo_degraded = 1;
    fuel_used = 1;
    memo_reused = 1;
    memo_relocated = 1;
  }

let stats_tests =
  [
    test "add doubles every counter" (fun () ->
        let acc = Stats.create () in
        Stats.add acc (all_ones ());
        Stats.add acc (all_ones ());
        List.iter
          (fun (name, v) -> check Alcotest.int name 2 v)
          (Stats.fields acc));
    test "fields schema is stable, in order, zero-inclusive" (fun () ->
        check
          Alcotest.(list string)
          "names"
          [
            "invocations"; "hits"; "misses"; "stores"; "chunks"; "slots";
            "backtracks"; "snapshots"; "fuel-used"; "memo-degraded";
            "memo-reused"; "memo-relocated";
          ]
          (List.map fst (Stats.fields (Stats.create ()))));
    test "pp renders every field even at zero" (fun () ->
        let rendered = Format.asprintf "%a" Stats.pp (Stats.create ()) in
        List.iter
          (fun (name, _) ->
            if not (contains rendered (name ^ "=")) then
              Alcotest.failf "pp output misses %s" name)
          (Stats.fields (Stats.create ())));
  ]

(* --- zero cost when off ------------------------------------------------------ *)

let off_tests =
  [
    test "observation is None when every capability is off" (fun () ->
        List.iter
          (fun (label, config) ->
            let eng = Engine.prepare_exn ~config (dead_arm_grammar ()) in
            if Engine.observation eng <> None then
              Alcotest.failf "[%s] unobserved engine has a sink" label)
          configs);
  ]

(* --- profiler ---------------------------------------------------------------- *)

let profile_tests =
  [
    test "counts, table, and flamegraph exports" (fun () ->
        List.iter
          (fun (label, config) ->
            let config =
              Config.with_observe (Observe.all ()) (governed config)
            in
            let eng = Engine.prepare_exn ~config (dead_arm_grammar ()) in
            let out = Engine.run eng "abab" in
            (match out.Engine.result with
            | Ok _ -> ()
            | Error e ->
                Alcotest.failf "[%s] %s" label (Parse_error.message e));
            let o = obs_of eng in
            let p =
              match Observe.profile o with
              | Some p -> p
              | None -> Alcotest.fail "no profile"
            in
            check Alcotest.int
              (label ^ ": invocation sum")
              out.Engine.stats.Stats.invocations
              (Profile.invocation_sum p);
            let rows = Profile.rows p in
            if rows = [] then Alcotest.failf "[%s] empty profile" label;
            List.iter
              (fun (r : Profile.row) ->
                if r.Profile.row_self_ns > r.Profile.row_total_ns then
                  Alcotest.failf "[%s] %s: self > total" label
                    r.Profile.row_name)
              rows;
            let table = Format.asprintf "%a" (Profile.pp_table ~top:5) p in
            if not (contains table "S") then
              Alcotest.failf "[%s] table misses the start production" label;
            let sp = Profile.to_speedscope p in
            List.iter
              (fun needle ->
                if not (contains sp needle) then
                  Alcotest.failf "[%s] speedscope misses %s" label needle)
              [
                "https://www.speedscope.app/file-format-schema.json";
                "\"frames\"";
                "\"type\":\"evented\"";
              ];
            let ch = Profile.to_chrome p in
            if
              not
                (String.length ch >= 2
                && ch.[0] = '['
                && ch.[String.length ch - 1] = ']'
                && contains ch "\"ph\"")
            then Alcotest.failf "[%s] chrome export malformed" label)
          configs);
    test "finalize closes frames abandoned by a fuel trip" (fun () ->
        List.iter
          (fun (label, config) ->
            let config =
              Config.with_observe (Observe.all ())
                (Config.with_limits (Limits.v ~fuel:40 ()) config)
            in
            let eng = Engine.prepare_exn ~config (nest_grammar ()) in
            let out = Engine.run eng (nest_input 100) in
            (match out.Engine.result with
            | Error e when Parse_error.exhausted_which e = Some Limits.Fuel ->
                ()
            | _ -> Alcotest.failf "[%s] expected a fuel trip" label);
            let p =
              match Observe.profile (obs_of eng) with
              | Some p -> p
              | None -> Alcotest.fail "no profile"
            in
            (* A balanced event log is what keeps flamegraphs well-formed
               after aborted runs: every open event got a close. *)
            if Profile.events_logged p mod 2 <> 0 then
              Alcotest.failf "[%s] unbalanced flame event log" label)
          configs);
  ]

(* --- coverage ---------------------------------------------------------------- *)

let coverage_tests =
  [
    test "a deliberately dead alternative is flagged" (fun () ->
        List.iter
          (fun (label, config) ->
            let config =
              Config.with_observe (Observe.all ()) (governed config)
            in
            let eng = Engine.prepare_exn ~config (dead_arm_grammar ()) in
            List.iter
              (fun s -> ignore (Engine.run eng s))
              [ "ab"; "ba"; "bb" ];
            let o = obs_of eng in
            let ph, np, am, na = Observe.coverage_summary o in
            check Alcotest.int (label ^ ": all prods hit") np ph;
            if not (am < na) then
              Alcotest.failf "[%s] every arm matched?" label;
            let dead_prods, dead_arms = Observe.unexercised o in
            check Alcotest.(list int) (label ^ ": no dead prods") [] dead_prods;
            if dead_arms = [] then Alcotest.failf "[%s] no dead arms" label;
            (* The 'z' arm of A is the dead one. *)
            let described =
              List.exists
                (fun a ->
                  let arm = Provenance.arm (Observe.provenance o) a in
                  contains arm.Provenance.arm_desc "z")
                dead_arms
            in
            if not described then
              Alcotest.failf "[%s] dead arm is not the 'z' arm" label;
            let report = Format.asprintf "%a" Observe.pp_coverage o in
            if not (contains report "unexercised alternative") then
              Alcotest.failf "[%s] report misses the dead alternative" label)
          configs);
    test "coverage accumulates across runs of one sink" (fun () ->
        List.iter
          (fun (label, config) ->
            let config =
              Config.with_observe (Observe.all ()) (governed config)
            in
            let eng = Engine.prepare_exn ~config (dead_arm_grammar ()) in
            ignore (Engine.run eng "aa");
            let _, _, am1, _ = Observe.coverage_summary (obs_of eng) in
            ignore (Engine.run eng "bb");
            let _, _, am2, _ = Observe.coverage_summary (obs_of eng) in
            if not (am2 > am1) then
              Alcotest.failf "[%s] second corpus file added no coverage" label)
          configs);
  ]

(* --- trace ring -------------------------------------------------------------- *)

let ring_only n base =
  Config.with_observe
    {
      Observe.off with
      Observe.events = true;
      ring_bytes = n * Observe.event_bytes;
    }
    base

let ring_tests =
  [
    test "events bracket a successful parse" (fun () ->
        List.iter
          (fun (label, config) ->
            let eng =
              Engine.prepare_exn
                ~config:(ring_only 4096 (governed config))
                (dead_arm_grammar ())
            in
            ignore (Engine.run eng "ab");
            let o = obs_of eng in
            let evs = Observe.events o in
            check Alcotest.int
              (label ^ ": nothing overwritten")
              (Observe.events_seen o) (List.length evs);
            (match evs with
            | first :: _ ->
                if
                  not
                    (first.Observe.kind = Observe.Enter
                    && first.Observe.pos = 0)
                then Alcotest.failf "[%s] first event is not enter@0" label
            | [] -> Alcotest.failf "[%s] empty ring" label);
            match List.rev evs with
            | last :: _ ->
                if last.Observe.kind <> Observe.Exit_ok then
                  Alcotest.failf "[%s] last event is not exit-ok" label
            | [] -> ())
          configs);
    test "the ring is bounded: old events are overwritten in place" (fun () ->
        List.iter
          (fun (label, config) ->
            let eng =
              Engine.prepare_exn
                ~config:(ring_only 16 (governed config))
                (nest_grammar ())
            in
            ignore (Engine.run eng (nest_input 50));
            let o = obs_of eng in
            check Alcotest.int (label ^ ": capacity") 16
              (Observe.ring_capacity o);
            if List.length (Observe.events o) > 16 then
              Alcotest.failf "[%s] ring exceeded its capacity" label;
            if Observe.events_seen o <= 16 then
              Alcotest.failf "[%s] expected overwritten events" label)
          configs);
    test "tracing charges no fuel and no memo budget" (fun () ->
        (* Satellite regression: the ring dump on Resource_exhausted must
           not change what the parse consumed — byte-identical governor
           accounting with and without observation. *)
        let g = nest_grammar () in
        let input = nest_input 200 in
        List.iter
          (fun (label, config) ->
            let base =
              Config.with_limits
                (Limits.v ~fuel:150 ~max_memo_bytes:2048 ())
                config
            in
            let plain = Engine.prepare_exn ~config:base g in
            let traced = Engine.prepare_exn ~config:(ring_only 64 base) g in
            let a = Engine.run plain input in
            let t = Engine.run traced input in
            check Alcotest.int (label ^ ": consumed") a.Engine.consumed
              t.Engine.consumed;
            check Alcotest.int (label ^ ": fuel")
              a.Engine.stats.Stats.fuel_used t.Engine.stats.Stats.fuel_used;
            check Alcotest.int
              (label ^ ": memo-degraded")
              a.Engine.stats.Stats.memo_degraded
              t.Engine.stats.Stats.memo_degraded;
            (match (a.Engine.result, t.Engine.result) with
            | Error ea, Error et ->
                check Alcotest.bool (label ^ ": both fuel trips") true
                  (Parse_error.exhausted_which ea = Some Limits.Fuel
                  && Parse_error.exhausted_which et = Some Limits.Fuel)
            | _ -> Alcotest.failf "[%s] expected both runs to trip" label);
            let evs = Observe.events (obs_of traced) in
            match List.rev evs with
            | last :: _ ->
                if last.Observe.kind <> Observe.Govern_trip then
                  Alcotest.failf "[%s] last ring event is not the trip" label
            | [] -> Alcotest.failf "[%s] empty ring after trip" label)
          configs);
    test "pp_events renders positions and source excerpts" (fun () ->
        let eng =
          Engine.prepare_exn
            ~config:(ring_only 4096 (governed Config.optimized))
            (dead_arm_grammar ())
        in
        ignore (Engine.run eng "ab");
        let dump =
          Format.asprintf "%a"
            (Observe.pp_events ~input:"ab" ?last:None)
            (obs_of eng)
        in
        List.iter
          (fun needle ->
            if not (contains dump needle) then
              Alcotest.failf "dump misses %s" needle)
          [ "enter"; "exit-ok"; "(1:1)" ]);
  ]

(* --- sessions ---------------------------------------------------------------- *)

let session_tests =
  [
    test "reparse pushes a memo-reuse ring event" (fun () ->
        let open Builder in
        let g =
          b
            [
              prod "S" (e "N" @: star (c '+' @: e "N"));
              prod "N" (plus (r '0' '9'));
            ]
        in
        List.iter
          (fun (label, config) ->
            let eng =
              Engine.prepare_exn ~config:(ring_only 4096 (governed config)) g
            in
            let sess = Session.create eng "12+34+56" in
            (match Session.reparse sess with
            | Ok _ -> ()
            | Error e ->
                Alcotest.failf "[%s] cold: %s" label (Parse_error.message e));
            let is_reuse ev = ev.Observe.kind = Observe.Memo_reuse in
            if List.exists is_reuse (Observe.events (obs_of eng)) then
              Alcotest.failf "[%s] cold parse claimed reuse" label;
            Session.apply_edit sess ~start:7 ~old_len:1 ~replacement:"9";
            (match Session.reparse sess with
            | Ok _ -> ()
            | Error e ->
                Alcotest.failf "[%s] warm: %s" label (Parse_error.message e));
            match
              List.find_opt is_reuse (Observe.events (obs_of eng))
            with
            | Some ev ->
                (* pos carries the reused count, aux the relocated one. *)
                if ev.Observe.pos <= 0 then
                  Alcotest.failf "[%s] reuse event counts nothing" label
            | None -> Alcotest.failf "[%s] no memo-reuse event" label)
          configs);
  ]

(* --- provenance -------------------------------------------------------------- *)

let provenance_tests =
  [
    test "identity assignment is deterministic" (fun () ->
        let g = Pipeline.optimize (Grammars.Minijava.grammar ()) in
        let p1 = Provenance.of_grammar g in
        let p2 = Provenance.of_grammar g in
        check Alcotest.int "nprods" (Provenance.nprods p1)
          (Provenance.nprods p2);
        check Alcotest.int "narms" (Provenance.narms p1) (Provenance.narms p2);
        for i = 0 to Provenance.nprods p1 - 1 do
          check Alcotest.string "name" (Provenance.prod_name p1 i)
            (Provenance.prod_name p2 i)
        done);
    test "arms_of recovers ids by physical identity" (fun () ->
        let g = dead_arm_grammar () in
        let prov = Provenance.of_grammar g in
        let alts =
          match (Grammar.find_exn g "A").Production.expr.Expr.it with
          | Expr.Alt alts -> alts
          | _ -> Alcotest.fail "A is not a choice"
        in
        let base = Provenance.arms_of prov alts in
        if base < 0 then Alcotest.fail "arms not found";
        let a = Provenance.arm prov base in
        check Alcotest.int "arm index" 0 a.Provenance.arm_index;
        (* A structurally equal but physically distinct list is unknown. *)
        let copy =
          List.map (fun (x : Expr.alt) -> { x with Expr.label = x.Expr.label })
            alts
        in
        check Alcotest.int "foreign list" (-1) (Provenance.arms_of prov copy));
  ]

let () =
  Alcotest.run "observe"
    [
      ("stats", stats_tests);
      ("zero-cost-off", off_tests);
      ("profiler", profile_tests);
      ("coverage", coverage_tests);
      ("trace-ring", ring_tests);
      ("sessions", session_tests);
      ("provenance", provenance_tests);
    ]
