open Rats_support
open Rats_peg
module SMap = Map.Make (String)
module SSet = Set.Make (String)

(* --- run-time state ----------------------------------------------------- *)

(* The memo lives in the structure of a [Memo_store.t] — a chunk
   arena or a hash table; see memo_store.mli and memo_arena.mli for
   the layout and the entry encoding. *)

type st = {
  input : Input.t;
  len : int;
  mutable value : Value.t;
  mutable parts : (string option * Value.t) list;
      (* the parts a general sequence collected, in match order *)
  fail_trace : Expected.t;
  mutable tables : SSet.t SMap.t;  (* stateful-parsing tables *)
  mutable version : int;  (* bumped on every table change or rollback *)
  stats : Stats.t;
  memo : Memo_store.t;  (* charged memo bytes live in [memo.bytes] *)
  mem : Memo_store.mem;  (* [memo.mem], read on every memoized call *)
  mutable examined : int;
  (* farthest input position the current memoized invocation has looked
     at; saved/reset at memoized entry, max-merged back at return *)
  (* resource governor *)
  mutable fuel : int;  (* remaining invocation budget, counts down *)
  mutable depth : int;  (* live invocation nesting *)
  memo_limit : int;
  max_depth : int;
  mutable tripped : (Limits.which * int) option;
  mutable quiet : int;  (* predicate-body nesting; suppresses recording *)
}

(* Raised when a budget runs out; [st.tripped] carries which and where.
   Unlike ordinary failure (-1 returns) this aborts the whole run —
   backtracking into another alternative would keep burning the budget
   that is already gone. *)
exception Exhausted

type fn = st -> int -> int
(* Returns the new position, or -1 on failure. Value-building matchers
   additionally set [st.value]. *)

(* Failures inside a predicate body never reach the farthest-failure
   trace: a body failure is not a parse failure (for [!x] it means the
   predicate succeeds), and recording there would let a doomed
   alternative's lookahead push the reported position past bytes the
   parse never consumed — positions the FIRST-set dispatch optimization
   (which soundly skips such alternatives) can never reach. The
   predicate itself records at its entry position instead.

   For the same reason nothing computed inside a predicate body is
   memoized: a hit outside the predicate would replay the outcome
   without the failures its computation never recorded, and report an
   earlier farthest failure than an unmemoized parse does. Lookups
   inside predicates still read entries made outside them. *)
let record st pos id =
  if st.quiet = 0 then Expected.record st.fail_trace pos id

(* Note that position [p] was examined. Unlike [record] this is never
   suppressed inside predicates and never rewound on backtracking: an
   entry's outcome depends on every byte any of its alternatives or
   lookaheads inspected, including the end-of-input check (so [p] may
   equal [st.len]). *)
let look st p = if p > st.examined then st.examined <- p

(* Restore the state tables to a snapshot; a physical change bumps the
   version so that memo entries of stateful productions stop matching. *)
let restore_tables st saved =
  if st.tables != saved then (
    st.tables <- saved;
    st.version <- st.version + 1;
    st.stats.Stats.state_snapshots <- st.stats.Stats.state_snapshots + 1)

(* --- compilation -------------------------------------------------------- *)

(* Character classes and FIRST-set dispatch guards probe bitmaps
   lowered by [Charmap]. *)
let bitmap_mem bm c = Bytes.unsafe_get bm (Char.code c) <> '\000'

(* Expression nodes by identity: a node compiled again is found
   without comparing trees. [Expr.shallow_hash] reads a few values of
   a node where [Hashtbl.hash] walks ten, which cost about 5% of a cold
   MiniC run. *)
module Phys = Expr.Phys

(* Everything compiling a body reads or writes. Bodies compile on
   first call, possibly while other domains run the parser, so every
   field that changes after [prepare] (the names, the charmap, the
   [Phys] tables, [chr_bms], [installed], the slots of [full] and
   [recs], and the analysis's tables) is touched only under [lock]. *)
type compile_ctx = {
  analysis : Analysis.t;
  config : Config.t;
  prods : Production.t array;
  ids : (string, int) Hashtbl.t;
  slots : int array;  (* production -> memo slot; -1 = none *)
  vmap : int array;  (* memo slot -> arena value slot; -1 = value-free *)
  full : fn array;  (* per-production value-building matchers *)
  recs : fn array;  (* per-production recognizers *)
  installed : Bytes.t;
      (* [2i]: [full.(i)] is compiled; [2i + 1]: [recs.(i)] is *)
  names : Expected.names;  (* every description a matcher can record *)
  lock : Mutex.t;  (* [Expected.lock names]: one per parser *)
  hook : (string -> fn -> fn) option;  (* around each value-building call *)
  charsets : Charmap.t;
      (* one lowering per distinct set, shared by the full and the
         recognizer compilation of every body *)
  obs : Observe.t option;
      (* when set, choice compilation marks alternative coverage and
         pushes backtrack events; call instrumentation lives in the
         per-production wrappers of [production_fn] instead *)
  preds : int Phys.t;  (* predicate node -> id of its description *)
  full_fns : fn Phys.t;  (* composite node -> its value-building matcher *)
  lean_fns : fn Phys.t;  (* composite node -> its recognizer *)
  chr_bms : Bytes.t array;
      (* byte -> the one-byte test's bitmap of a [Chr] of it, made on
         first use; [no_bitmap] until then *)
}

type t = {
  cfg : Config.t;
  gram : Grammar.t;
  nslots : int;
  nvslots : int;  (* memo slots that carry a value *)
  pool : Memo_store.t option Atomic.t;
      (* store-less runs' memo store, parked (without values) between
         runs and taken with [Atomic.exchange]: never shared by two *)
  trace_pool : Expected.t option Atomic.t;
      (* farthest-failure tracker parked between runs, like [pool] *)
  obs : Observe.t option;  (* observation sink, [Config.observe] enabled only *)
  ctx : compile_ctx;
}

let no_bitmap = Bytes.empty

(* A body that matches exactly one byte when [bm] admits it and
   records [id] at that byte otherwise: a class, a character or [.],
   possibly under wrappers that a lean matcher makes transparent. *)
type byte_test = { bm : Bytes.t; id : int }

(* --- hoisted hot loops --------------------------------------------------- *)

(* The iteration of every composite matcher lives up here, as closed
   top-level functions, not as [let rec] loops inside the matcher
   closures: a local recursive function with free variables allocates
   its closure block on every invocation of the enclosing matcher,
   which on the lean (recognizer) path was the whole allocation —
   linear in input. A closed top-level function is statically
   allocated, so these loops cost nothing per call. *)

(* Longest prefix of [s] matching at [pos]; every inspected index is
   marked examined, including the mismatching one. *)
let rec str_scan st (s : string) n pos i =
  if i >= n then i
  else if
    (look st (pos + i);
     pos + i < st.len
     && Input.unsafe_get st.input (pos + i) = String.unsafe_get s i)
  then str_scan st s n pos (i + 1)
  else i

let rec seq_loop (fns : fn array) n st i pos =
  if i >= n then pos
  else
    let p = (Array.unsafe_get fns i) st pos in
    if p < 0 then -1 else seq_loop fns n st (i + 1) p

let rec star_loop (fx : fn) st pos =
  let saved = st.tables in
  let p = fx st pos in
  if p < 0 then (
    restore_tables st saved;
    pos)
  else if p = pos then pos (* no progress; stop to guarantee termination *)
  else star_loop fx st p

let list_of_rev = function
  | [] -> Value.empty_list
  | acc -> Value.List (List.rev acc)

let rec star_collect (fx : fn) st pos acc =
  let saved = st.tables in
  let p = fx st pos in
  if p < 0 then (
    restore_tables st saved;
    st.value <- list_of_rev acc;
    pos)
  else if p = pos then (
    st.value <- list_of_rev acc;
    pos)
  else star_collect fx st p (st.value :: acc)

(* Sequence tails produced by [compile_tail] carry their parts in a node
   with this reserved name, so splicing never confuses "one value that
   happens to be a tuple" with "the parts of a tail". *)
let tail_name = "#tail"

let tail_parts = function
  | Value.Node n when String.equal n.name tail_name -> n.children
  | _ -> assert false

(* The general value-building sequence: run parts [i..n) from [pos]
   and, on success, leave their labeled values in [st.parts], in match
   order (unlabeled units carry nothing; a splice contributes a tail's
   parts). The list is consed on the way back out of the recursion, so
   it needs no reversal; the recursion is as deep as the sequence is
   long. *)
let rec seq_collect (parts : (string option * fn * bool) array) n st i pos =
  if i >= n then (
    st.parts <- [];
    pos)
  else
    let label, fn, splice = Array.unsafe_get parts i in
    let p = fn st pos in
    if p < 0 then -1
    else
      let v = st.value in
      let q = seq_collect parts n st (i + 1) p in
      (if q >= 0 then
         if splice then st.parts <- tail_parts v @ st.parts
         else
           match (label, v) with
           | None, Value.Unit -> ()
           | None, _ when v == Value.empty_list ->
               st.parts <- Value.empty_part :: st.parts
           | _ -> st.parts <- (label, v) :: st.parts);
      q

(* The FIRST-set dispatch guard: an alternative whose FIRST set
   excludes the next byte cannot match, so it is skipped, recording
   what it expected ([first_id]) as its own failure would have. *)
let alt_first_viable st pos (first : Bytes.t) eps first_id =
  eps
  || (look st pos;
      pos < st.len && bitmap_mem first (Input.unsafe_get st.input pos))
  || (record st pos first_id;
      false)

let rec alt_loop (compiled : (fn * Bytes.t * bool * int) array) n dispatch st
    saved pos i =
  if i >= n then -1
  else
    let fn, first, eps, first_id = Array.unsafe_get compiled i in
    if dispatch && not (alt_first_viable st pos first eps first_id) then
      alt_loop compiled n dispatch st saved pos (i + 1)
    else
      let p = fn st pos in
      if p >= 0 then p
      else (
        restore_tables st saved;
        st.stats.Stats.backtracks <- st.stats.Stats.backtracks + 1;
        alt_loop compiled n dispatch st saved pos (i + 1))

(* --- fused one-byte terminals ---------------------------------------------

   A repetition, option or predicate whose body is a one-byte test
   ([byte_test]) runs without calling the body's closure. Each fused
   form makes the same [look] and [record] calls as the closures it
   replaces, up to [look]'s monotonicity: a body closure looks at every
   byte it tests, so a run of them is one [look] at the last. A
   one-byte body changes no state table, so there is nothing to
   restore; and a fused predicate skips only its body's [record],
   which the predicate's [quiet] would have suppressed. *)

(* First position at or after [q] whose byte [bm] rejects, or [len]:
   one closed loop per input representation. *)
let rec span_str (s : string) len bm q =
  if q < len && bitmap_mem bm (String.unsafe_get s q) then
    span_str s len bm (q + 1)
  else q

let rec span_big (b : Input.bigstring) len bm q =
  if q < len && bitmap_mem bm (Bigarray.Array1.unsafe_get b q) then
    span_big b len bm (q + 1)
  else q

let[@inline] span st bm q =
  match st.input with
  | Input.Str s -> span_str s st.len bm q
  | Input.Big b -> span_big b st.len bm q

(* [x*]: every byte [x] admits, then the failing test at the stop. *)
let span_star st { bm; id } pos =
  let q = span st bm pos in
  look st q;
  record st q id;
  q

(* [x+]: [x*] that fails when it matches nothing. *)
let span_plus st t pos =
  let q = span_star st t pos in
  if q = pos then -1 else q

(* Whether the one-byte test admits the byte at [pos]. *)
let[@inline] probe st { bm; _ } pos =
  look st pos;
  pos < st.len && bitmap_mem bm (Input.unsafe_get st.input pos)

(* Every byte, for [.]'s test. *)
let all_bytes = Bytes.make 256 '\001'

(* The id of a predicate's description, one per predicate node: the
   full and the recognizer compilation of a body share its nodes. *)
let pred_desc_id ctx (e : Expr.t) ~positive body =
  match Phys.find_opt ctx.preds e with
  | Some id -> id
  | None ->
      let id = Expected.fresh_pred ctx.names ~positive body in
      Phys.add ctx.preds e id;
      id

(* Peel a top-level Bind to expose the label a sequence records. *)
let peel_bind (e : Expr.t) =
  match e.it with Expr.Bind (l, inner) -> (Some l, inner) | _ -> (None, e)

(* [e]'s one-byte test when it is one: a pattern match and the lookup
   the terminal's own matcher makes, interning exactly the description
   that matcher interns. Not cached: the repetitions, options and
   predicates that ask are themselves compiled once per node
   ([compile]). *)
let rec byte_test ctx (e : Expr.t) =
  match e.it with
  | Expr.Cls set ->
      let bm, id = Charmap.lower ctx.charsets set in
      Some { bm; id }
  | Expr.Chr c ->
      let bm =
        let b = Char.code c in
        let bm = ctx.chr_bms.(b) in
        if bm != no_bitmap then bm
        else
          let bm = Bytes.make 256 '\000' in
          Bytes.set bm b '\001';
          ctx.chr_bms.(b) <- bm;
          bm
      in
      Some { bm; id = Expected.intern_char ctx.names c }
  | Expr.Any ->
      let id = Expected.intern ctx.names "any character" in
      Some { bm = all_bytes; id }
  | Expr.Drop x | Expr.Token x | Expr.Bind (_, x) | Expr.Node (_, x) ->
      byte_test ctx x
  | _ -> None

(* A composite node is compiled once per node and mode. The inliner
   places one expansion at every site that referenced it, so a shared
   node's matcher serves all of its sites, and so does its set of
   coverage arms: observed and unobserved engines compile alike. A
   leaf's matcher costs no more than the lookup, so leaves are compiled
   in place. *)
let rec compile ctx ~lean (e : Expr.t) : fn =
  match e.it with
  | Expr.Empty | Expr.Fail _ | Expr.Any | Expr.Chr _ | Expr.Str _
  | Expr.Cls _ | Expr.Ref _ ->
      compile_expr ctx ~lean e
  | _ -> (
      let memo = if lean then ctx.lean_fns else ctx.full_fns in
      match Phys.find_opt memo e with
      | Some fn -> fn
      | None ->
          let fn = compile_expr ctx ~lean e in
          Phys.add memo e fn;
          fn)

and compile_expr ctx ~lean (e : Expr.t) : fn =
  match e.it with
  | Expr.Empty ->
      if lean then fun _ _pos -> _pos
      else
        fun st pos ->
        st.value <- Value.Unit;
        pos
  | Expr.Fail msg ->
      let id = Expected.intern ctx.names msg in
      fun st pos ->
        record st pos id;
        -1
  | Expr.Any ->
      let id = Expected.intern ctx.names "any character" in
      if lean then
        fun st pos ->
          look st pos;
          if pos < st.len then pos + 1
          else (
            record st pos id;
            -1)
      else
        fun st pos ->
          look st pos;
          if pos < st.len then (
            st.value <- Value.Chr (Input.unsafe_get st.input pos);
            pos + 1)
          else (
            record st pos id;
            -1)
  | Expr.Chr c ->
      let id = Expected.intern_char ctx.names c in
      let set_unit = not lean in
      fun st pos ->
        look st pos;
        if pos < st.len && Input.unsafe_get st.input pos = c then (
          if set_unit then st.value <- Value.Unit;
          pos + 1)
        else (
          record st pos id;
          -1)
  | Expr.Str s ->
      let n = String.length s in
      let id = Expected.intern_literal ctx.names s in
      let set_unit = not lean in
      fun st pos ->
        (* Record failures at the first mismatching byte, so the farthest
           position reflects how much of the literal matched. *)
        let m = str_scan st s n pos 0 in
        if m >= n then (
          if set_unit then st.value <- Value.Unit;
          pos + n)
        else (
          record st (pos + m) id;
          -1)
  | Expr.Cls set ->
      let bm, id = Charmap.lower ctx.charsets set in
      if lean then
        fun st pos ->
          look st pos;
          if pos < st.len && bitmap_mem bm (Input.unsafe_get st.input pos)
          then pos + 1
          else (
            record st pos id;
            -1)
      else
        fun st pos ->
          look st pos;
          if pos < st.len then (
            let c = Input.unsafe_get st.input pos in
            if bitmap_mem bm c then (
              st.value <- Value.Chr c;
              pos + 1)
            else (
              record st pos id;
              -1))
          else (
            record st pos id;
            -1)
  | Expr.Ref name ->
      let id =
        match Hashtbl.find_opt ctx.ids name with
        | Some id -> id
        | None ->
            (* unreachable: prepare's [Analysis.check] rejects a
               reference to an undefined production *)
            Diagnostic.failf "engine: undefined production %S" name
      in
      let fns = if lean then ctx.recs else ctx.full in
      fun st pos -> fns.(id) st pos
  | Expr.Seq es -> compile_seq ctx ~lean es
  | Expr.Alt alts -> compile_alt ctx ~lean alts
  | Expr.Star x ->
      if (not lean) && Analysis.expr_yields_unit ctx.analysis x then (
        let fx = compile_star ctx ~lean:true x in
        fun st pos ->
          let p = fx st pos in
          st.value <- Value.Unit;
          p)
      else compile_star ctx ~lean x
  | Expr.Plus x ->
      (* A statically void body collects nothing, as in [compile_star]. *)
      if lean || Analysis.expr_yields_unit ctx.analysis x then (
        let fx =
          match byte_test ctx x with
          | Some t -> fun st pos -> span_plus st t pos
          | None ->
              let fx = compile ctx ~lean:true x in
              fun st pos ->
                let p = fx st pos in
                if p < 0 then -1 else star_loop fx st p
        in
        if lean then fx
        else
          fun st pos ->
            let p = fx st pos in
            if p >= 0 then st.value <- Value.Unit;
            p)
      else
        let fx = compile ctx ~lean x in
        fun st pos ->
          let p = fx st pos in
          if p < 0 then -1 else star_collect fx st p [ st.value ]
  | Expr.Opt x -> (
      match byte_test ctx x with
      | Some t when lean || Analysis.expr_yields_unit ctx.analysis x ->
          fun st pos ->
            if not lean then st.value <- Value.Unit;
            if probe st t pos then pos + 1
            else (
              record st pos t.id;
              pos)
      | _ ->
          let fx = compile ctx ~lean x in
          fun st pos ->
            let saved = st.tables in
            let p = fx st pos in
            if p >= 0 then p
            else (
              restore_tables st saved;
              if not lean then st.value <- Value.Unit;
              pos))
  | Expr.And x | Expr.Not x -> (
      (* A predicate runs its body quietly and rolls back its state; [&x]
         succeeds where the body does, [!x] where it fails. A one-byte
         body is one probe. *)
      let positive = match e.it with Expr.And _ -> true | _ -> false in
      match byte_test ctx x with
      | Some t ->
          let id = pred_desc_id ctx e ~positive x in
          fun st pos ->
            if probe st t pos <> positive then (
              record st pos id;
              -1)
            else (
              if not lean then st.value <- Value.Unit;
              pos)
      | None ->
          let fx =
            compile ctx ~lean:(lean || ctx.config.Config.lean_values) x
          in
          let id = pred_desc_id ctx e ~positive x in
          fun st pos ->
            let saved = st.tables in
            st.quiet <- st.quiet + 1;
            let p = fx st pos in
            st.quiet <- st.quiet - 1;
            restore_tables st saved;
            if (p >= 0) <> positive then (
              record st pos id;
              -1)
            else (
              if not lean then st.value <- Value.Unit;
              pos))
  | Expr.Bind (label, x) ->
      let fx = compile ctx ~lean x in
      if lean then fx
      else
        let label = Some label in
        fun st pos ->
          let p = fx st pos in
          if p < 0 then -1
          else (
            st.value <- Value.bind label st.value;
            p)
  | Expr.Token x ->
      let fx = compile ctx ~lean:(lean || ctx.config.Config.lean_values) x in
      if lean then fx
      else
        fun st pos ->
          let p = fx st pos in
          if p < 0 then -1
          else (
            st.value <- Value.Str (Input.sub_string st.input pos (p - pos));
            p)
  | Expr.Node (name, x) ->
      if lean then compile ctx ~lean x else compile_node ctx name x
  | Expr.Drop x ->
      let fx = compile ctx ~lean:(lean || ctx.config.Config.lean_values) x in
      if lean then fx
      else
        fun st pos ->
          let p = fx st pos in
          if p < 0 then -1
          else (
            st.value <- Value.Unit;
            p)
  | Expr.Splice x ->
      if lean then compile ctx ~lean:true x
      else
        (* Standalone splice: evaluate in tail mode, then collapse the
           parts exactly as a sequence value would. *)
        let fx = compile_tail ctx x in
        fun st pos ->
          let p = fx st pos in
          if p < 0 then -1
          else (
            st.value <- Value.seq (tail_parts st.value);
            p)
  | Expr.Record (table, x) ->
      let fx = compile ctx ~lean x in
      fun st pos ->
        let p = fx st pos in
        if p < 0 then -1
        else (
          let text = Input.sub_string st.input pos (p - pos) in
          let set =
            Option.value (SMap.find_opt table st.tables) ~default:SSet.empty
          in
          st.tables <- SMap.add table (SSet.add text set) st.tables;
          st.version <- st.version + 1;
          p)
  | Expr.Member (table, positive, x) ->
      let fx = compile ctx ~lean x in
      let id =
        Expected.intern ctx.names
          (if positive then Printf.sprintf "a name recorded in %s" table
           else Printf.sprintf "a name not recorded in %s" table)
      in
      fun st pos ->
        let p = fx st pos in
        if p < 0 then -1
        else
          let text = Input.sub_string st.input pos (p - pos) in
          let set =
            Option.value (SMap.find_opt table st.tables) ~default:SSet.empty
          in
          if SSet.mem text set = positive then p
          else (
            record st pos id;
            -1)

(* A [Node] wrapper or generic production named [name] around [e]:
   a collecting sequence builds the node itself from its parts, a
   choice hands the same rule to each alternative, and any other body
   is wrapped. Each way builds exactly [Value.node name
   (Value.components v)] for the value [v] [e] alone would yield,
   spanning what [e] matched. *)
and compile_node ctx name (e : Expr.t) : fn =
  let wrap () =
    let fx = compile ctx ~lean:false e in
    fun st pos ->
      let p = fx st pos in
      if p < 0 then -1
      else (
        st.value <-
          Value.node_at ~start_:pos ~stop:p name (Value.components st.value);
        p)
  in
  match e.it with
  | Expr.Seq es -> (
      match
        Analysis.seq_plan ctx.analysis
          ~lean_values:ctx.config.Config.lean_values es
      with
      | Analysis.Collect ->
          compile_collect ctx es (fun start_ stop parts ->
              Value.node_of_parts_at ~start_ ~stop name parts)
      | Analysis.No_value _ | Analysis.One_value _ -> wrap ())
  | Expr.Alt alts -> compile_alt ctx ~lean:false ~node:name alts
  | _ -> wrap ()

(* A sequence that collects its parts and builds its value with
   [finish] from its start, its stop and the parts. *)
and compile_collect ctx es finish =
  let parts =
    Array.of_list
      (List.map
         (fun (e : Expr.t) ->
           match e.it with
           | Expr.Splice inner -> (None, compile_tail ctx inner, true)
           | _ ->
               let label, inner = peel_bind e in
               (label, compile ctx ~lean:false inner, false))
         es)
  in
  let n = Array.length parts in
  fun st pos ->
    let p = seq_collect parts n st 0 pos in
    if p >= 0 then st.value <- finish pos p st.parts;
    p

and compile_seq ctx ~lean es =
  let chain fns finish =
    let fns = Array.of_list fns in
    let n = Array.length fns in
    fun st pos ->
      let p = seq_loop fns n st 0 pos in
      if p >= 0 then finish st pos p;
      p
  in
  if lean then (
    let fns = Array.of_list (List.map (compile ctx ~lean:true) es) in
    let n = Array.length fns in
    fun st pos -> seq_loop fns n st 0 pos)
  else
    match
      Analysis.seq_plan ctx.analysis
        ~lean_values:ctx.config.Config.lean_values es
    with
    | Analysis.Collect ->
        compile_collect ctx es (fun start_ stop parts ->
            Value.seq_at ~start_ ~stop parts)
    | Analysis.No_value bodies ->
        chain
          (List.map (compile ctx ~lean:true) bodies)
          (fun st _ _ -> st.value <- Value.Unit)
    | Analysis.One_value (label, parts) ->
        chain
          (List.map
             (fun (body, bearing) -> compile ctx ~lean:(not bearing) body)
             parts)
          (match label with
          | None -> fun _ _ _ -> ()
          | Some _ ->
              (* the tuple a collecting sequence would build, span included *)
              fun st pos p ->
                st.value <-
                  Value.seq_at ~start_:pos ~stop:p [ (label, st.value) ])

and compile_tail ctx (e : Expr.t) : fn =
  (* Compile [e] as a sequence tail: the value is always a [tail_name]
     node holding the labeled parts, with none of [Value.seq]'s
     collapsing. Produced only by the prefix-factoring optimizer. *)
  match e.it with
  | Expr.Alt alts -> compile_alt ctx ~lean:false ~tail:true alts
  | Expr.Seq es ->
      compile_collect ctx es (fun start_ stop parts ->
          Value.node_at ~start_ ~stop tail_name parts)
  | Expr.Empty ->
      fun st pos ->
        st.value <- Value.node tail_name [];
        pos
  | _ ->
      let label, inner = peel_bind e in
      let fx = compile ctx ~lean:false inner in
      fun st pos ->
        let p = fx st pos in
        if p < 0 then -1
        else (
          st.value <-
            Value.node_at ~start_:pos ~stop:p tail_name
              (match (label, st.value) with
              | None, Value.Unit -> []
              | _ -> [ (label, st.value) ]);
          p)

and compile_alt ctx ~lean ?(tail = false) ?node alts =
  let dispatch = ctx.config.Config.dispatch in
  let compile_branch body =
    match node with
    | _ when tail -> compile_tail ctx body
    | Some name -> compile_node ctx name body
    | None -> compile ctx ~lean body
  in
  let compiled =
    Array.of_list
      (List.map
         (fun (a : Expr.alt) ->
           let first, eps = Analysis.expr_first ctx.analysis a.body in
           let bm, first_id = Charmap.lower ctx.charsets first in
           (compile_branch a.body, bm, eps, first_id))
         alts)
  in
  let n = Array.length compiled in
  match ctx.obs with
  | Some o
    when (Observe.want o).Observe.coverage || (Observe.want o).Observe.events
    ->
      (* Instrumented twin of the closure below: marks per-alternative
         coverage and pushes backtrack events. Arms are identified by
         the physical [alts] node, so both compilations of a body agree
         on ids; -1 (an alternative list outside the registered
         grammar) makes the marks no-ops. Backtrack events fire only
         when a later alternative remains to resume, even though the
         [backtracks] counter keeps including last-arm failures. *)
      let base = Provenance.arms_of (Observe.provenance o) alts in
      let arm i = if base < 0 then -1 else base + i in
      fun st pos ->
        let saved = st.tables in
        let rec go i =
          if i >= n then -1
          else
            let fn, first, eps, first_id = compiled.(i) in
            if dispatch && not (alt_first_viable st pos first eps first_id)
            then go (i + 1)
            else (
              Observe.alt_tried o (arm i);
              let p = fn st pos in
              if p >= 0 then (
                Observe.alt_matched o (arm i);
                p)
              else (
                restore_tables st saved;
                st.stats.Stats.backtracks <- st.stats.Stats.backtracks + 1;
                if i < n - 1 then Observe.backtrack o pos;
                go (i + 1)))
        in
        go 0
  | _ -> fun st pos -> alt_loop compiled n dispatch st st.tables pos 0

and compile_star ctx ~lean x =
  (* A repetition over a statically void body collects no values and
     yields Unit — matching what a sequence would do with the units. *)
  let lean = lean || Analysis.expr_yields_unit ctx.analysis x in
  match if lean then byte_test ctx x else None with
  | Some t -> fun st pos -> span_star st t pos
  | None ->
      let fx = compile ctx ~lean x in
      if lean then fun st pos -> star_loop fx st pos
      else fun st pos -> star_collect fx st pos []

(* --- the memo protocol --------------------------------------------------- *)

(* Governor hooks, always compiled in: unlimited budgets are [max_int]
   sentinels, so the ungoverned path costs one decrement and two
   compares per invocation. Fuel is charged once per invocation before
   the memo lookup; depth is entered only when a body actually runs (a
   memo hit does not nest). *)
let[@inline] charge st pos =
  st.stats.Stats.invocations <- st.stats.Stats.invocations + 1;
  st.fuel <- st.fuel - 1;
  if st.fuel < 0 then (
    st.tripped <- Some (Limits.Fuel, pos);
    raise Exhausted)

let[@inline] enter st pos =
  if st.depth >= st.max_depth then (
    st.tripped <- Some (Limits.Depth, pos);
    raise Exhausted);
  st.depth <- st.depth + 1

(* Shape a production's raw body value according to its kind. A generic
   body builds its own node ([compile_node]), so its shape is the
   identity. *)
let[@inline] shape st (kind : Attr.kind) pos p =
  match kind with
  | Attr.Plain | Attr.Generic -> ()
  | Attr.Text ->
      st.value <- Value.Str (Input.sub_string st.input pos (p - pos))
  | Attr.Void -> st.value <- Value.Unit

(* The body of an invocation that missed or has no memo: entered, so
   that it counts against the depth budget while it runs. *)
let[@inline] run_body (body : fn) st pos =
  enter st pos;
  let p = body st pos in
  st.depth <- st.depth - 1;
  p

(* An invocation without a memo slot: the body alone, shaped when
   [value]. Transient productions take this path on every call. *)
let[@inline] plain_call ~value kind body st pos =
  charge st pos;
  let p = run_body body st pos in
  if value && p >= 0 then shape st kind pos p;
  p

type mode =
  | Value  (* value-building: a hit restores the value, a miss stores it *)
  | Value_free  (* recognizer on a chunk slot that stores no value *)
  | Read_only  (* other recognizers: never store, claim or count a miss *)

(* Charge one chunk or table entry against the memo budget, unless the
   budget has no room for it. *)
let[@inline] charge_memo st =
  let m = st.memo in
  m.Memo_store.bytes + m.Memo_store.cost <= st.memo_limit
  && (m.Memo_store.bytes <- m.Memo_store.bytes + m.Memo_store.cost;
      true)

(* A memo miss's body run: counted, with [examined] reset to just
   before [pos] so the entry records only what its own computation
   looked at, and the value shaped. The caller saves [examined] first
   and max-merges it back after storing. *)
let[@inline] miss_body ~mode kind body st pos =
  st.stats.Stats.memo_misses <- st.stats.Stats.memo_misses + 1;
  st.examined <- pos - 1;
  let p = run_body body st pos in
  if mode = Value && p >= 0 then shape st kind pos p;
  p

(* A chunk cell packs an entry's result and examined extent
   (memo_arena.mli, "A cell is one word"). These repeat
   [Memo_arena.res], [ext] and [cell] so that they inline into
   [memo_call]: dune's dev profile compiles with [-opaque], which makes
   every call into another module an out-of-line one. *)
let[@inline] cell_res c = (c lsl 31) asr 31
let[@inline] cell_ext c = c lsr 32
let[@inline] cell ~res ~ext = (ext lsl 32) lor (res land 0xFFFF_FFFF)

(* The memo protocol, written once. A memoized invocation counts
   itself, charges fuel and looks up its entry; a hit replays the
   entry's examined extent. A miss counts itself, enters, runs the body
   ([miss_body]), then stores the entry — or counts a degradation when
   the memo budget is spent — and max-merges [examined] back. Nothing is
   stored inside a predicate body ([quiet]). Under chunks the budget is
   checked when the position claims its chunk, before the body runs; a
   position without one degrades even inside a predicate.

   A recognizer cannot build the value an entry of a value slot holds,
   so its calls there are [Read_only].

   [table] and [mode] must be literal constants at every call site:
   inlined, the untaken branches fold away and each instantiation is the
   closure its strategy and mode need, calling no closure but the body.
   The arena's rows are re-read through [a] after the body, which may
   have grown them. *)
let[@inline] memo_call ~table ~mode ~slot ~vslot ~stateful kind body st pos =
  charge st pos;
  let stats = st.stats in
  if table then (
    let h = match st.mem with Memo_store.Table h -> h | _ -> assert false in
    let key = (pos * st.memo.Memo_store.nslots) + slot in
    match Hashtbl.find_opt h key with
    | Some (r, v, ver, ext) when (not stateful) || ver = st.version ->
        stats.Stats.memo_hits <- stats.Stats.memo_hits + 1;
        look st (pos + ext - 1);
        if r < 0 then -1
        else (
          if mode = Value then st.value <- v;
          pos + r)
    | _ when mode = Read_only -> run_body body st pos
    | _ ->
        let ver0 = st.version and saved = st.examined in
        let p = miss_body ~mode kind body st pos in
        (if st.quiet = 0 then
           if not (charge_memo st) then
             stats.Stats.memo_degraded <- stats.Stats.memo_degraded + 1
           else (
             Hashtbl.replace h key
               ( (if p >= 0 then p - pos else -1),
                 (if p >= 0 && mode = Value then st.value else Value.Unit),
                 ver0,
                 st.examined - pos + 1 );
             stats.Stats.memo_stores <- stats.Stats.memo_stores + 1));
        look st saved;
        p)
  else
    let a = match st.mem with Memo_store.Chunks a -> a | _ -> assert false in
    let c = a.Memo_arena.idx.{pos} in
    let c =
      if c >= 0 || mode = Read_only || not (charge_memo st) then c
      else (
        stats.Stats.chunks_allocated <- stats.Stats.chunks_allocated + 1;
        stats.Stats.chunk_slots <- stats.Stats.chunk_slots + a.Memo_arena.nslots;
        Memo_arena.alloc a pos)
    in
    let base = (c * a.Memo_arena.nslots) + slot
    and vbase = (c * a.Memo_arena.nvslots) + vslot in
    let x = if c >= 0 then a.Memo_arena.cells.{base} else 0 in
    let r = cell_res x in
    if r <> 0 && ((not stateful) || a.Memo_arena.vers.{base} = st.version)
    then (
      stats.Stats.memo_hits <- stats.Stats.memo_hits + 1;
      look st (pos + cell_ext x - 1);
      if r < 0 then -1
      else (
        if mode = Value then
          st.value <-
            (if vslot >= 0 then a.Memo_arena.vals.(vbase) else Value.Unit);
        pos + r - 1))
    else if mode = Read_only then run_body body st pos
    else
      let ver0 = st.version and saved = st.examined in
      let p = miss_body ~mode kind body st pos in
      if c < 0 then
        stats.Stats.memo_degraded <- stats.Stats.memo_degraded + 1
      else if st.quiet = 0 then (
        let ext = st.examined - pos + 1 in
        a.Memo_arena.cells.{base} <-
          cell ~res:(if p >= 0 then p - pos + 1 else -1) ~ext;
        if mode = Value && vslot >= 0 && p >= 0 then
          a.Memo_arena.vals.(vbase) <- st.value;
        if stateful then a.Memo_arena.vers.{base} <- ver0;
        if ext > a.Memo_arena.cmax.{c} then a.Memo_arena.cmax.{c} <- ext;
        stats.Stats.memo_stores <- stats.Stats.memo_stores + 1);
      look st saved;
      p

(* --- preparation -------------------------------------------------------- *)

(* A production gets a memo slot unless the configuration memoizes
   nothing or it is transient and transients are honoured; [extra]
   names the transient productions that get one anyway. *)
let assign_slots ?(extra = fun _ -> false) cfg prods =
  let next = ref 0 in
  let slots =
    Array.map
      (fun (p : Production.t) ->
        let memoizable =
          match cfg.Config.memo with
          | Config.No_memo -> false
          | Config.Hashtable | Config.Chunked -> (
              match p.attrs.Attr.memo with
              | Attr.Memo_always -> true
              | Attr.Memo_never -> (not cfg.Config.honor_transient) || extra p
              | Attr.Memo_auto -> true)
        in
        if memoizable then (
          let s = !next in
          incr next;
          s)
        else -1)
      prods
  in
  (slots, !next)

(* Value slots: a memoized production whose stored value is statically
   [Value.Unit] gets none — hits restore Unit instead of reading the
   arena. *)
let value_slots analysis prods slots nslots =
  let vmap = Array.make nslots (-1) in
  let nvslots = ref 0 in
  Array.iteri
    (fun i (p : Production.t) ->
      let s = slots.(i) in
      if s >= 0 && not (Analysis.stores_no_value analysis p) then (
        vmap.(s) <- !nvslots;
        incr nvslots))
    prods;
  (vmap, !nvslots)

(* Observation wrapper, around both the value-building and the
   recognizer entry. A call was a memo hit exactly when the inner call
   bumped [memo_hits] without running a body — detected as a counter
   delta so the memo protocol stays untouched. The enter event precedes
   the inner call's fuel charge, so a fuel trip leaves the doomed
   invocation visible in the ring; its open profile frame is closed by
   [Observe.finalize] at the run epilogue. *)
let wrap_obs o i (fn : fn) : fn =
 fun st pos ->
  Observe.enter o i pos;
  let stats = st.stats in
  let inv0 = stats.Stats.invocations and hit0 = stats.Stats.memo_hits in
  let p' = fn st pos in
  if stats.Stats.memo_hits = hit0 + 1 && stats.Stats.invocations = inv0 + 1
  then Observe.memo_hit o i pos ~stop:p'
  else Observe.exit o i pos ~stop:p';
  p'

(* Production [i]'s matcher in one mode: its body compiled and wrapped
   in the memo protocol its slot calls for, the observation and, for
   the value-building entry, the hook. *)
let production_fn ctx ~lean i : fn =
  let config = ctx.config and p = ctx.prods.(i) in
  let kind = p.attrs.Attr.kind in
  let slot = ctx.slots.(i) in
  let vslot = if slot >= 0 then ctx.vmap.(slot) else -1 in
  (* Memo entries of stateful productions are only valid at the state
     version they were computed at. A hit can therefore never hide a
     state change: any run that mutated the tables bumped the version
     past its own entry stamp. *)
  let stateful = Analysis.stateful ctx.analysis p.name in
  let memo = if slot < 0 then Config.No_memo else config.Config.memo in
  let fn : fn =
    if lean then
      let body_rec = compile ctx ~lean:true p.expr in
      match memo with
      | Config.No_memo -> fun st pos -> plain_call ~value:false kind body_rec st pos
      | Config.Hashtable ->
          fun st pos ->
            memo_call ~table:true ~mode:Read_only ~slot ~vslot ~stateful kind
              body_rec st pos
      | Config.Chunked when vslot < 0 ->
          (* A value-free slot stores nothing but the result, so a
             recognizer's entry is indistinguishable from a
             value-building one's: recognizer calls get the whole
             protocol, chunk claims and stores included. *)
          fun st pos ->
            memo_call ~table:false ~mode:Value_free ~slot ~vslot ~stateful kind
              body_rec st pos
      | Config.Chunked ->
          fun st pos ->
            memo_call ~table:false ~mode:Read_only ~slot ~vslot ~stateful kind
              body_rec st pos
    else
      let body_full =
        if kind = Attr.Generic then compile_node ctx p.name p.expr
        else
          compile ctx
            ~lean:(config.Config.lean_values && (kind = Attr.Text || kind = Attr.Void))
            p.expr
      in
      match memo with
      | Config.No_memo -> fun st pos -> plain_call ~value:true kind body_full st pos
      | Config.Hashtable ->
          fun st pos ->
            memo_call ~table:true ~mode:Value ~slot ~vslot ~stateful kind body_full
              st pos
      | Config.Chunked ->
          fun st pos ->
            memo_call ~table:false ~mode:Value ~slot ~vslot ~stateful kind body_full
              st pos
  in
  let fn = match ctx.obs with None -> fn | Some o -> wrap_obs o i fn in
  match ctx.hook with
  | Some h when not lean -> h p.Production.name fn
  | _ -> fn

(* Production [i]'s matcher in one mode, compiled and stored in its
   slot by the first caller; a later or concurrent caller gets the
   stored one. The slot store is the last write of the critical
   section (docs/INTERNALS.md, "Compile on first call"). A profiled
   engine leaves the compile span off its clock, so the open frames of
   the callers are not charged for it. *)
let install ctx ~lean i =
  Mutex.protect ctx.lock @@ fun () ->
  let fns = if lean then ctx.recs else ctx.full in
  let flag = (2 * i) + Bool.to_int lean in
  if Bytes.get ctx.installed flag <> '\000' then fns.(i)
  else
    let fn =
      match Option.bind ctx.obs Observe.profile with
      | None -> production_fn ctx ~lean i
      | Some prof ->
          let since = Profile.now_ns () in
          let fn = production_fn ctx ~lean i in
          Profile.exclude prof ~since;
          fn
    in
    Bytes.set ctx.installed flag '\001';
    fns.(i) <- fn;
    fn

(* What a slot holds until its first call: compile, store, call. *)
let stub ctx ~lean i : fn = fun st pos -> (install ctx ~lean i) st pos

(* [ctx] under the memo slots [slots], with no body compiled: fresh
   matcher arrays of stubs that compile on first call, and fresh
   composite tables, since a compiled reference reads its own
   context's matcher array. *)
let uncompiled ctx ~slots ~vmap =
  let n = Array.length ctx.prods in
  let dummy : fn = fun _ _ -> -1 in
  let ctx =
    {
      ctx with
      slots;
      vmap;
      full = Array.make n dummy;
      recs = Array.make n dummy;
      installed = Bytes.make (2 * n) '\000';
      full_fns = Phys.create 256;
      lean_fns = Phys.create 256;
    }
  in
  for i = 0 to n - 1 do
    ctx.full.(i) <- stub ctx ~lean:false i;
    ctx.recs.(i) <- stub ctx ~lean:true i
  done;
  ctx

(* Nothing is compiled here: [Analysis.check]'s [Grammar.check_closed]
   rules out the one error compiling could raise (an undefined
   production), and each body compiles on its first call ([stub]). *)
let prepare_hooked ?hook ?(config = Config.optimized) analysis =
  match Analysis.check analysis with
  | _ :: _ as ds -> Error ds
  | [] ->
      let gram = Analysis.grammar analysis in
      let prods = Array.of_list (Grammar.productions gram) in
      let nprods = Array.length prods in
      let ids = Hashtbl.create (nprods * 2) in
      Array.iteri
        (fun i (p : Production.t) -> Hashtbl.replace ids p.name i)
        prods;
      let slots, nslots = assign_slots config prods in
      let vmap, nvslots = value_slots analysis prods slots nslots in
      let names = Expected.names () in
      let obs =
        if Observe.enabled config.Config.observe then
          Some (Observe.create config.Config.observe (Provenance.of_grammar gram))
        else None
      in
      (* the slots and matchers are [uncompiled]'s to fill in *)
      let ctx =
        {
          analysis;
          config;
          prods;
          ids;
          slots = [||];
          vmap = [||];
          full = [||];
          recs = [||];
          installed = Bytes.empty;
          names;
          lock = Expected.lock names;
          hook;
          charsets = Charmap.create names;
          obs;
          preds = Phys.create 64;
          full_fns = Phys.create 1;
          lean_fns = Phys.create 1;
          chr_bms = Array.make 256 no_bitmap;
        }
      in
      Ok
        {
          cfg = config;
          gram;
          nslots;
          nvslots;
          pool = Atomic.make None;
          trace_pool = Atomic.make None;
          obs;
          ctx = uncompiled ctx ~slots ~vmap;
        }

let compile_all t =
  for i = 0 to Array.length t.ctx.prods - 1 do
    let (_ : fn) = install t.ctx ~lean:false i in
    let (_ : fn) = install t.ctx ~lean:true i in
    ()
  done

let compiled_bodies t =
  Mutex.protect t.ctx.lock @@ fun () ->
  let full = ref 0 and recs = ref 0 in
  Bytes.iteri
    (fun flag c ->
      if c <> '\000' then if flag land 1 = 0 then incr full else incr recs)
    t.ctx.installed;
  (!full, !recs)

(* The session slot rule: a transient production that is not a
   terminal, on no reference cycle, not stateful and not the start
   production gets a slot too. One parse calls such a production at
   most once per position, which is why transient marking dropped its
   slot; a session calls it again at the same, possibly relocated,
   position on every reparse, so the entry pays from the second run
   on. Memoizing more is always sound (the entry protocol is the same
   for every slot); a stateful entry would never hit across runs (its
   stamp is stale by construction), so it gets none. *)
let for_session t =
  let ctx = t.ctx and cfg = t.cfg in
  if cfg.Config.memo = Config.No_memo || not cfg.Config.honor_transient then t
  else
    let slots, nslots, vmap, nvslots =
      Mutex.protect ctx.lock @@ fun () ->
      let a = ctx.analysis and start = Grammar.start t.gram in
      let terminals = Analysis_ctx.terminals (Analysis_ctx.create ()) t.gram in
      let cyclic = Analysis.recursive a in
      let extra (p : Production.t) =
        (not (String.equal p.name start))
        && (not (Analysis.StringSet.mem p.name terminals))
        && (not (Analysis.StringSet.mem p.name cyclic))
        && not (Analysis.stateful a p.name)
      in
      let slots, nslots = assign_slots ~extra cfg ctx.prods in
      let vmap, nvslots = value_slots a ctx.prods slots nslots in
      (slots, nslots, vmap, nvslots)
    in
    if nslots = t.nslots then t
    else
      {
        t with
        nslots;
        nvslots;
        pool = Atomic.make None;
        ctx = uncompiled ctx ~slots ~vmap;
      }

let prepare_analysis ?config analysis = prepare_hooked ?config analysis
let prepare ?config gram = prepare_analysis ?config (Analysis.analyze gram)

let prepare_exn ?config gram =
  match prepare ?config gram with
  | Ok t -> t
  | Error (d :: _) -> raise (Diagnostic.Fail d)
  | Error [] -> assert false

let config t = t.cfg

(* Budgets are read only when a run starts (see [run_with]), so a copy
   with other limits shares everything compiled, the parked stores and
   the observation sink. *)
let with_limits t limits = { t with cfg = Config.with_limits limits t.cfg }
let grammar t = t.gram
let memo_slots t = t.nslots
let memo_value_slots t = t.nvslots

let arena_cap t =
  match Atomic.get t.pool with
  | Some { Memo_store.mem = Chunks a; _ } -> a.Memo_arena.cap
  | _ -> 0

let observation (t : t) = t.obs

(* --- running ------------------------------------------------------------ *)

type outcome = {
  result : (Value.t, Parse_error.t) result;
  stats : Stats.t;
  consumed : int;
}

(* The outcome of a run stopped by a budget before any parsing. *)
let exhausted which ~at =
  {
    result = Error (Parse_error.resource_exhausted ~which ~at ~consumed:0 ());
    stats = Stats.create ();
    consumed = -1;
  }

type store = Memo_store.t

(* An arena carries a version row only when some memoized production
   is stateful. Asked when a store is made, not at prepare, so that a
   run-time grammar derives the statefulness fact where it did before,
   on its first run; under the lock, since that derives it. *)
let new_store t =
  let ctx = t.ctx in
  let versioned =
    Mutex.protect ctx.lock @@ fun () ->
    let v = ref false in
    Array.iteri
      (fun i (p : Production.t) ->
        if ctx.slots.(i) >= 0 && Analysis.stateful ctx.analysis p.name then
          v := true)
      ctx.prods;
    !v
  in
  Memo_store.create t.cfg.Config.memo ~nslots:t.nslots ~vmap:ctx.vmap ~versioned
let edit_store _ = Memo_store.edit

let run_with t ?store ?start ~require_eof input =
  let start_id =
    let name = Option.value start ~default:(Grammar.start t.gram) in
    match Hashtbl.find_opt t.ctx.ids name with
    | Some id -> id
    | None -> Diagnostic.failf "no production named %S" name
  in
  let limits = t.cfg.Config.limits in
  let len = Input.length input in
  if len > limits.Limits.max_input_bytes then (
    Option.iter
      (fun o -> Observe.trip o Limits.Input limits.Limits.max_input_bytes)
      t.obs;
    exhausted Limits.Input ~at:limits.Limits.max_input_bytes)
  else
    (* A store-less run takes the engine's parked store, or builds one
       when there is none — on first use, or while another domain's run
       holds it. *)
    let memo =
      match store with
      | Some s -> s
      | None -> (
          match Atomic.exchange t.pool None with
          | Some s -> s
          | None -> new_store t)
    in
    Memo_store.sync memo ~len;
    let trace =
      match Atomic.exchange t.trace_pool None with
      | Some tr ->
          Expected.reset tr;
          tr
      | None -> Expected.create t.ctx.names
    in
    let st =
      {
        input;
        len;
        value = Value.Unit;
        parts = [];
        fail_trace = trace;
        tables = SMap.empty;
        version = memo.Memo_store.version + 1;
        stats = Stats.create ();
        memo;
        mem = memo.Memo_store.mem;
        examined = -1;
        fuel = limits.Limits.fuel;
        depth = 0;
        memo_limit = Memo_store.budget memo ~len limits.Limits.max_memo_bytes;
        max_depth = limits.Limits.max_depth;
        tripped = None;
        quiet = 0;
      }
    in
    let p =
      try t.ctx.full.(start_id) st 0 with
      | Exhausted -> -1
      | Stack_overflow ->
          (* last-resort backstop: an ungoverned (or under-governed) run
             hit the OS stack before any depth budget *)
          st.tripped <-
            Some (Limits.Depth, max (Expected.farthest st.fail_trace) 0);
          -1
      | Out_of_memory ->
          st.tripped <-
            Some (Limits.Memory, max (Expected.farthest st.fail_trace) 0);
          -1
    in
    (* clamp: a fuel trip leaves st.fuel at -1; report the budget, not
       budget + 1 *)
    st.stats.Stats.fuel_used <- limits.Limits.fuel - max st.fuel 0;
    memo.Memo_store.version <- st.version;
    (* Park the engine's store for the next run, minus any parse results:
       the final value lives in [st.value], so dropping the memo's value
       references here costs nothing observable. *)
    if Option.is_none store then (
      Memo_store.park memo;
      Atomic.set t.pool (Some memo));
    (* The trip event and frame cleanup happen after the run body, off
       any budget: the ring must describe an exhausted run without
       changing where it tripped. *)
    (match t.obs with
    | None -> ()
    | Some o ->
        Option.iter (fun (which, at) -> Observe.trip o which at) st.tripped;
        Observe.finalize o);
    let result =
      match st.tripped with
      | Some (which, at) -> Error (Expected.exhausted st.fail_trace ~which ~at)
      | None ->
          Expected.result st.fail_trace ~len:st.len ~require_eof ~stop:p
            st.value
    in
    Atomic.set t.trace_pool (Some trace);
    { result; stats = st.stats; consumed = p }

let run_input t ?start ?(require_eof = true) input =
  run_with t ?start ~require_eof input

let run t ?start ?require_eof input =
  run_input t ?start ?require_eof (Input.of_string input)

let parse t ?start input = (run t ?start input).result
let accepts t ?start input = Result.is_ok (parse t ?start input)

let run_store_input t store ?start ?(require_eof = true) input =
  run_with t ~store ?start ~require_eof input

let run_store t store ?start ?require_eof input =
  run_store_input t store ?start ?require_eof (Input.of_string input)

(* The run converts runaway recursion and allocation inside the parse
   itself; this catches what escapes it. *)
let backstopped run =
  try run () with
  | Stack_overflow -> exhausted Limits.Depth ~at:0
  | Out_of_memory -> exhausted Limits.Memory ~at:0

(* Runs are deterministic, so a rerun under a bigger slice costs only
   time. *)
let with_deadline ~now_ns ~deadline_ns t run =
  let limits = t.cfg.Config.limits in
  let budget = limits.Limits.fuel in
  let rec go slice =
    let o = run (with_limits t { limits with Limits.fuel = slice }) in
    match o.result with
    | Error e when Parse_error.exhausted_which e = Some Limits.Fuel && slice < budget ->
        if now_ns () >= deadline_ns then (o, true)
        else go (if slice > budget / 2 then budget else slice * 2)
    | _ -> (o, false)
  in
  go (min budget 65536)

(* --- tracing -------------------------------------------------------------- *)

type trace_event = {
  prod : string;
  at : int;
  depth : int;
  outcome : int option;
}

let trace ?config ?start ?require_eof ~on_event gram input =
  let depth = ref 0 in
  let hook name fn : fn =
   fun st pos ->
    on_event { prod = name; at = pos; depth = !depth; outcome = None };
    incr depth;
    let p = fn st pos in
    decr depth;
    on_event { prod = name; at = pos; depth = !depth; outcome = Some p };
    p
  in
  match prepare_hooked ~hook ?config (Analysis.analyze gram) with
  | Error ds -> Error ds
  | Ok eng -> Ok (run eng ?start ?require_eof input)
