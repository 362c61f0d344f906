(* The engine's observation sink. Everything is
   preallocated at [create]: pushing a ring event is four int writes
   into a flat array, coverage marks are single array increments, and
   profiling delegates to [Profile]. Nothing here charges fuel or the
   memo byte budget — the trace ring must be able to describe a
   resource trip without changing where the trip happens. *)

open Rats_peg

type want = {
  profile : bool;
  coverage : bool;
  events : bool;
  ring_bytes : int;
}

let off = { profile = false; coverage = false; events = false; ring_bytes = 0 }

let default_ring_bytes = 64 * 1024

let all ?(ring_bytes = default_ring_bytes) () =
  { profile = true; coverage = true; events = true; ring_bytes }

let enabled w = w.profile || w.coverage || w.events

(* One ring slot: kind + id + pos + aux, flat ints. *)
let event_ints = 4
let event_bytes = event_ints * 8

type kind =
  | Enter
  | Exit_ok
  | Exit_fail
  | Memo_hit
  | Memo_reuse
  | Backtrack
  | Govern_trip

let kind_code = function
  | Enter -> 0
  | Exit_ok -> 1
  | Exit_fail -> 2
  | Memo_hit -> 3
  | Memo_reuse -> 4
  | Backtrack -> 5
  | Govern_trip -> 6

let kind_of_code = function
  | 0 -> Enter
  | 1 -> Exit_ok
  | 2 -> Exit_fail
  | 3 -> Memo_hit
  | 4 -> Memo_reuse
  | 5 -> Backtrack
  | _ -> Govern_trip

let kind_name = function
  | Enter -> "enter"
  | Exit_ok -> "exit-ok"
  | Exit_fail -> "exit-fail"
  | Memo_hit -> "memo-hit"
  | Memo_reuse -> "memo-reuse"
  | Backtrack -> "backtrack"
  | Govern_trip -> "govern-trip"

type event = { kind : kind; id : int; pos : int; aux : int }

type t = {
  want : want;
  prov : Provenance.t;
  profile : Profile.t option;
  (* coverage counters; empty arrays when coverage is off *)
  prod_hits : int array;
  alts_tried : int array;
  alts_matched : int array;
  (* the ring: [cap] slots of [event_ints] ints; [seen] counts every
     push, so [seen mod cap] is the next slot and [seen - cap] events
     have been overwritten *)
  ring : int array;
  cap : int;
  mutable seen : int;
}

let create w prov =
  let cap = if w.events then max 16 (w.ring_bytes / event_bytes) else 0 in
  {
    want = w;
    prov;
    profile =
      (if w.profile then
         Some
           (Profile.create
              ~names:
                (Array.init (Provenance.nprods prov) (Provenance.prod_name prov)))
       else None);
    prod_hits =
      (if w.coverage then Array.make (max 1 (Provenance.nprods prov)) 0
       else [||]);
    alts_tried =
      (if w.coverage then Array.make (max 1 (Provenance.narms prov)) 0
       else [||]);
    alts_matched =
      (if w.coverage then Array.make (max 1 (Provenance.narms prov)) 0
       else [||]);
    ring = Array.make (cap * event_ints) 0;
    cap;
    seen = 0;
  }

let want t = t.want
let provenance t = t.prov
let profile t = t.profile

let push t kind id pos aux =
  if t.cap > 0 then (
    let base = t.seen mod t.cap * event_ints in
    Array.unsafe_set t.ring base (kind_code kind);
    Array.unsafe_set t.ring (base + 1) id;
    Array.unsafe_set t.ring (base + 2) pos;
    Array.unsafe_set t.ring (base + 3) aux;
    t.seen <- t.seen + 1)

let enter t prod pos =
  if t.want.coverage then t.prod_hits.(prod) <- t.prod_hits.(prod) + 1;
  (match t.profile with Some p -> Profile.enter p prod | None -> ());
  push t Enter prod pos (-1)

let exit t prod pos ~stop =
  (match t.profile with
  | Some p -> Profile.exit p prod ~ok:(stop >= 0) ~hit:false
  | None -> ());
  push t (if stop >= 0 then Exit_ok else Exit_fail) prod pos stop

let memo_hit t prod pos ~stop =
  (match t.profile with
  | Some p -> Profile.exit p prod ~ok:(stop >= 0) ~hit:true
  | None -> ());
  push t Memo_hit prod pos stop

let alt_tried t arm =
  if arm >= 0 && t.want.coverage then
    t.alts_tried.(arm) <- t.alts_tried.(arm) + 1

let alt_matched t arm =
  if arm >= 0 && t.want.coverage then
    t.alts_matched.(arm) <- t.alts_matched.(arm) + 1

let backtrack t pos = push t Backtrack (-1) pos (-1)

let session_reuse t ~reused ~relocated =
  push t Memo_reuse (-1) reused relocated

let which_ord = function
  | Limits.Fuel -> 0
  | Limits.Depth -> 1
  | Limits.Memory -> 2
  | Limits.Input -> 3

let which_of_ord = function
  | 0 -> Limits.Fuel
  | 1 -> Limits.Depth
  | 2 -> Limits.Memory
  | _ -> Limits.Input

let trip t which at = push t Govern_trip (which_ord which) at (-1)

let finalize t =
  match t.profile with Some p -> Profile.finalize p | None -> ()

(* --- reading the ring ---------------------------------------------------- *)

let events_seen t = t.seen
let ring_capacity t = t.cap

let events t =
  let n = min t.seen t.cap in
  List.init n (fun i ->
      let idx = t.seen - n + i in
      let base = idx mod t.cap * event_ints in
      {
        kind = kind_of_code t.ring.(base);
        id = t.ring.(base + 1);
        pos = t.ring.(base + 2);
        aux = t.ring.(base + 3);
      })

let pp_events ?input ?last ppf t =
  let evs = events t in
  let evs =
    match last with
    | Some n when List.length evs > n ->
        List.filteri (fun i _ -> i >= List.length evs - n) evs
    | _ -> evs
  in
  let dropped = t.seen - List.length evs in
  if dropped > 0 then
    Format.fprintf ppf "... %d earlier event%s not retained@." dropped
      (if dropped = 1 then "" else "s");
  let src = Option.map (fun s -> Rats_support.Source.of_string s) input in
  let last_pos = ref (-2) in
  List.iteri
    (fun i ev ->
      let seq = t.seen - List.length evs + i in
      let name =
        if ev.id >= 0 && ev.id < Provenance.nprods t.prov then
          Provenance.prod_name t.prov ev.id
        else ""
      in
      (match ev.kind with
      | Enter ->
          Format.fprintf ppf "%6d  %-11s %-24s @@ %d" seq "enter" name ev.pos
      | Exit_ok ->
          Format.fprintf ppf "%6d  %-11s %-24s @@ %d -> %d" seq "exit-ok" name
            ev.pos ev.aux
      | Exit_fail ->
          Format.fprintf ppf "%6d  %-11s %-24s @@ %d" seq "exit-fail" name
            ev.pos
      | Memo_hit ->
          Format.fprintf ppf "%6d  %-11s %-24s @@ %d %s" seq "memo-hit" name
            ev.pos
            (if ev.aux >= 0 then Printf.sprintf "-> %d" ev.aux else "(failure)")
      | Memo_reuse ->
          Format.fprintf ppf "%6d  %-11s reused %d entries (%d relocated)" seq
            "memo-reuse" ev.pos ev.aux
      | Backtrack ->
          Format.fprintf ppf "%6d  %-11s %-24s @@ %d" seq "backtrack" "" ev.pos
      | Govern_trip ->
          Format.fprintf ppf "%6d  %-11s %s budget exhausted @@ %d" seq
            "govern-trip"
            (Limits.which_name (which_of_ord ev.id))
            ev.pos);
      (match src with
      | Some src when ev.kind <> Memo_reuse ->
          let loc = Rats_support.Source.location src ev.pos in
          Format.fprintf ppf "  (%d:%d)" loc.Rats_support.Source.line
            loc.Rats_support.Source.col
      | _ -> ());
      Format.fprintf ppf "@.";
      match src with
      | Some src
        when ev.pos <> !last_pos && ev.kind <> Memo_reuse
             && ev.pos <= Rats_support.Source.length src ->
          last_pos := ev.pos;
          Format.fprintf ppf "        %a@."
            (Rats_support.Source.pp_excerpt src)
            (Rats_support.Span.v ~start_:ev.pos ~stop:ev.pos)
      | _ -> ())
    evs

(* --- coverage ------------------------------------------------------------ *)

let prod_covered t i = t.want.coverage && t.prod_hits.(i) > 0
let arm_tried t i = t.want.coverage && t.alts_tried.(i) > 0
let arm_matched t i = t.want.coverage && t.alts_matched.(i) > 0

let coverage_summary t =
  let nprods = Provenance.nprods t.prov in
  let narms = Provenance.narms t.prov in
  let ph = ref 0 and am = ref 0 in
  for i = 0 to nprods - 1 do
    if t.prod_hits.(i) > 0 then incr ph
  done;
  for i = 0 to narms - 1 do
    if t.alts_matched.(i) > 0 then incr am
  done;
  (!ph, nprods, !am, narms)

let unexercised t =
  let prods = ref [] and arms = ref [] in
  for i = Provenance.nprods t.prov - 1 downto 0 do
    if t.prod_hits.(i) = 0 then prods := i :: !prods
  done;
  for i = Provenance.narms t.prov - 1 downto 0 do
    if t.alts_matched.(i) = 0 then arms := i :: !arms
  done;
  (!prods, !arms)

let pp_coverage ppf t =
  let ph, np, am, na = coverage_summary t in
  Format.fprintf ppf "productions exercised: %d/%d@." ph np;
  Format.fprintf ppf "alternatives matched:  %d/%d@." am na;
  let dead_prods, dead_arms = unexercised t in
  List.iter
    (fun i ->
      let origin = Provenance.prod_origin t.prov i in
      Format.fprintf ppf "unexercised production: %s%s@."
        (Provenance.prod_name t.prov i)
        (if origin = "" then "" else "  [module " ^ origin ^ "]"))
    dead_prods;
  List.iter
    (fun i ->
      let a = Provenance.arm t.prov i in
      let origin = Provenance.prod_origin t.prov a.Provenance.arm_prod in
      Format.fprintf ppf "unexercised alternative: %a = %s%s%s@."
        (Provenance.pp_arm t.prov) i
        (Pretty.describe a.Provenance.arm_body)
        (if arm_tried t i then "" else "  (never tried)")
        (if origin = "" then "" else "  [module " ^ origin ^ "]"))
    dead_arms
