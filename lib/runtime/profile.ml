(* The profiling sink. Time comes from bechamel's monotonic clock
   (CLOCK_MONOTONIC, nanoseconds, noalloc) — the same source the bench
   harness trusts. All state is flat int arrays; an enter/exit costs two
   clock reads and a handful of array writes, and nothing here charges
   fuel or the memo byte budget (the governor regression test depends on
   that). *)

let now () = Int64.to_int (Monotonic_clock.now ())
let now_ns = now

(* Flamegraph events stop being logged past this many entries (~48 MB of
   arrays); counters keep accumulating so tables stay exact. *)
let event_cap = 2_000_000

type t = {
  names : string array;
  calls : int array;
  hits : int array;
  fails : int array;
  self_ns : int array;
  total_ns : int array;
  on_stack : int array;  (* live activations per production (recursion) *)
  (* frame stack *)
  mutable f_prod : int array;
  mutable f_t0 : int array;  (* entry timestamp, relative to t_start *)
  mutable f_child : int array;  (* time attributed to callees so far *)
  mutable fsp : int;
  (* event log: kind 'O'/'C', production, timestamp *)
  mutable ev_kind : Bytes.t;
  mutable ev_prod : int array;
  mutable ev_ts : int array;
  mutable ev_n : int;
  mutable ev_truncated : bool;
  mutable t_start : int;
      (* the clock's origin; moved forward past every excluded span *)
}

let create ~names =
  let n = Array.length names in
  {
    names;
    calls = Array.make n 0;
    hits = Array.make n 0;
    fails = Array.make n 0;
    self_ns = Array.make n 0;
    total_ns = Array.make n 0;
    on_stack = Array.make n 0;
    f_prod = Array.make 256 0;
    f_t0 = Array.make 256 0;
    f_child = Array.make 256 0;
    fsp = 0;
    ev_kind = Bytes.make 1024 '\000';
    ev_prod = Array.make 1024 0;
    ev_ts = Array.make 1024 0;
    ev_n = 0;
    ev_truncated = false;
    t_start = now ();
  }

let grow_int a =
  let b = Array.make (2 * Array.length a) 0 in
  Array.blit a 0 b 0 (Array.length a);
  b

let log_event t kind prod ts =
  if t.ev_n >= event_cap then t.ev_truncated <- true
  else (
    (if t.ev_n = Array.length t.ev_prod then (
       let cap = 2 * t.ev_n in
       let k = Bytes.make cap '\000' in
       Bytes.blit t.ev_kind 0 k 0 t.ev_n;
       t.ev_kind <- k;
       t.ev_prod <- grow_int t.ev_prod;
       t.ev_ts <- grow_int t.ev_ts));
    Bytes.unsafe_set t.ev_kind t.ev_n kind;
    Array.unsafe_set t.ev_prod t.ev_n prod;
    Array.unsafe_set t.ev_ts t.ev_n ts;
    t.ev_n <- t.ev_n + 1)

let enter t prod =
  let ts = now () - t.t_start in
  t.calls.(prod) <- t.calls.(prod) + 1;
  t.on_stack.(prod) <- t.on_stack.(prod) + 1;
  (if t.fsp = Array.length t.f_prod then (
     t.f_prod <- grow_int t.f_prod;
     t.f_t0 <- grow_int t.f_t0;
     t.f_child <- grow_int t.f_child));
  let sp = t.fsp in
  Array.unsafe_set t.f_prod sp prod;
  Array.unsafe_set t.f_t0 sp ts;
  Array.unsafe_set t.f_child sp 0;
  t.fsp <- sp + 1;
  log_event t 'O' prod ts

(* Close the top frame at timestamp [ts]: self = elapsed - callee time;
   total only when the outermost activation of a recursive production
   closes (so recursion is not double-counted). *)
let close_top t ts =
  t.fsp <- t.fsp - 1;
  let sp = t.fsp in
  let prod = Array.unsafe_get t.f_prod sp in
  let dt = ts - Array.unsafe_get t.f_t0 sp in
  t.self_ns.(prod) <- t.self_ns.(prod) + dt - Array.unsafe_get t.f_child sp;
  t.on_stack.(prod) <- t.on_stack.(prod) - 1;
  if t.on_stack.(prod) = 0 then t.total_ns.(prod) <- t.total_ns.(prod) + dt;
  if sp > 0 then
    Array.unsafe_set t.f_child (sp - 1)
      (Array.unsafe_get t.f_child (sp - 1) + dt);
  log_event t 'C' prod ts;
  prod

let exit t prod ~ok ~hit =
  let ts = now () - t.t_start in
  let popped = close_top t ts in
  assert (popped = prod);
  if hit then t.hits.(prod) <- t.hits.(prod) + 1;
  if not ok then t.fails.(prod) <- t.fails.(prod) + 1

(* Moving the origin forward by the span leaves it out of every frame
   open across it and of every later timestamp. *)
let exclude t ~since = t.t_start <- t.t_start + (now () - since)

let finalize t =
  let ts = now () - t.t_start in
  while t.fsp > 0 do
    ignore (close_top t ts)
  done

(* --- reporting ---------------------------------------------------------- *)

type row = {
  row_prod : int;
  row_name : string;
  row_calls : int;
  row_hits : int;
  row_fails : int;
  row_self_ns : int;
  row_total_ns : int;
}

let rows t =
  let out = ref [] in
  Array.iteri
    (fun i calls ->
      if calls > 0 then
        out :=
          {
            row_prod = i;
            row_name = t.names.(i);
            row_calls = calls;
            row_hits = t.hits.(i);
            row_fails = t.fails.(i);
            row_self_ns = t.self_ns.(i);
            row_total_ns = t.total_ns.(i);
          }
          :: !out)
    t.calls;
  List.sort (fun a b -> compare b.row_self_ns a.row_self_ns) !out

let invocation_sum t = Array.fold_left ( + ) 0 t.calls

let pp_table ?top ppf t =
  let all = rows t in
  let shown = match top with None -> all | Some n -> List.filteri (fun i _ -> i < n) all in
  let total_self =
    List.fold_left (fun acc r -> acc + r.row_self_ns) 0 all
  in
  Format.fprintf ppf "  %-28s %10s %9s %8s %10s %10s %6s@." "production"
    "calls" "hits" "fails" "self ms" "total ms" "self%";
  List.iter
    (fun r ->
      Format.fprintf ppf "  %-28s %10d %9d %8d %10.3f %10.3f %5.1f%%@."
        r.row_name r.row_calls r.row_hits r.row_fails
        (float_of_int r.row_self_ns /. 1e6)
        (float_of_int r.row_total_ns /. 1e6)
        (if total_self = 0 then 0.
         else 100. *. float_of_int r.row_self_ns /. float_of_int total_self))
    shown;
  let omitted = List.length all - List.length shown in
  if omitted > 0 then
    Format.fprintf ppf "  ... %d more production%s@." omitted
      (if omitted = 1 then "" else "s");
  if t.ev_truncated then
    Format.fprintf ppf "  (event log truncated at %d events)@." event_cap

let events_logged t = t.ev_n
let truncated t = t.ev_truncated

(* --- flamegraph export --------------------------------------------------- *)

module Json = Rats_support.Json

(* Speedscope "evented" profile: frames are productions, events are the
   logged open/close pairs. [finalize] guarantees balance. *)
let to_speedscope ?(name = "rats parse") t =
  let b = Buffer.create (t.ev_n * 32) in
  Buffer.add_string b
    "{\"$schema\":\"https://www.speedscope.app/file-format-schema.json\",";
  Buffer.add_string b "\"shared\":{\"frames\":[";
  Array.iteri
    (fun i n ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b "{\"name\":";
      Json.add_string b n;
      Buffer.add_char b '}')
    t.names;
  Buffer.add_string b "]},\"profiles\":[{\"type\":\"evented\",\"name\":";
  Json.add_string b name;
  Buffer.add_string b ",\"unit\":\"nanoseconds\",\"startValue\":0,";
  let end_value = if t.ev_n = 0 then 0 else t.ev_ts.(t.ev_n - 1) in
  Buffer.add_string b (Printf.sprintf "\"endValue\":%d,\"events\":[" end_value);
  for i = 0 to t.ev_n - 1 do
    if i > 0 then Buffer.add_char b ',';
    Buffer.add_string b
      (Printf.sprintf "{\"type\":\"%c\",\"frame\":%d,\"at\":%d}"
         (Bytes.get t.ev_kind i) t.ev_prod.(i) t.ev_ts.(i))
  done;
  Buffer.add_string b "]}],\"name\":";
  Json.add_string b name;
  Buffer.add_string b ",\"activeProfileIndex\":0}";
  Buffer.contents b

(* --- batch-level spans --------------------------------------------------- *)

module Spans = struct
  type event = {
    e_name : string;
    e_cat : string;
    e_args : (string * string) list;
    e_ts : int;  (* absolute now_ns reading *)
    e_dur : int;  (* -1 = instant marker *)
  }

  type t = { mutable rev : event list; mutable n : int }

  let create () = { rev = []; n = 0 }

  let span ?(cat = "batch") ?(args = []) t ~name ~ts_ns ~dur_ns =
    t.rev <-
      { e_name = name; e_cat = cat; e_args = args; e_ts = ts_ns; e_dur = dur_ns }
      :: t.rev;
    t.n <- t.n + 1

  let instant ?(cat = "batch") ?(args = []) t ~name ~ts_ns =
    t.rev <-
      { e_name = name; e_cat = cat; e_args = args; e_ts = ts_ns; e_dur = -1 }
      :: t.rev;
    t.n <- t.n + 1

  let count t = t.n

  let to_chrome t =
    let events = List.rev t.rev in
    let t0 =
      List.fold_left (fun acc e -> min acc e.e_ts) max_int events
    in
    let b = Buffer.create (t.n * 96) in
    Buffer.add_char b '[';
    List.iteri
      (fun i e ->
        if i > 0 then Buffer.add_char b ',';
        Buffer.add_string b "{\"name\":";
        Json.add_string b e.e_name;
        Buffer.add_string b ",\"cat\":";
        Json.add_string b e.e_cat;
        Buffer.add_string b
          (Printf.sprintf ",\"ph\":\"%s\",\"ts\":%.3f"
             (if e.e_dur < 0 then "i" else "X")
             (float_of_int (e.e_ts - t0) /. 1e3));
        if e.e_dur >= 0 then
          Buffer.add_string b
            (Printf.sprintf ",\"dur\":%.3f" (float_of_int e.e_dur /. 1e3))
        else Buffer.add_string b ",\"s\":\"t\"";
        Buffer.add_string b ",\"pid\":1,\"tid\":1";
        if e.e_args <> [] then begin
          Buffer.add_string b ",\"args\":{";
          List.iteri
            (fun j (k, v) ->
              if j > 0 then Buffer.add_char b ',';
              Json.add_string b k;
              Buffer.add_char b ':';
              Json.add_string b v)
            e.e_args;
          Buffer.add_char b '}'
        end;
        Buffer.add_char b '}')
      events;
    Buffer.add_char b ']';
    Buffer.contents b
end

let to_chrome t =
  let b = Buffer.create (t.ev_n * 48) in
  Buffer.add_char b '[';
  for i = 0 to t.ev_n - 1 do
    if i > 0 then Buffer.add_char b ',';
    Buffer.add_string b "{\"name\":";
    Json.add_string b t.names.(t.ev_prod.(i));
    Buffer.add_string b
      (Printf.sprintf
         ",\"cat\":\"parse\",\"ph\":\"%c\",\"ts\":%.3f,\"pid\":1,\"tid\":1}"
         (if Bytes.get t.ev_kind i = 'O' then 'B' else 'E')
         (float_of_int t.ev_ts.(i) /. 1e3))
  done;
  Buffer.add_char b ']';
  Buffer.contents b
