open Rats_support
open Rats_peg
module SMap = Map.Make (String)
module SSet = Set.Make (String)

(* --- run-time state ----------------------------------------------------- *)

(* Memo chunks (res encoding: 0 unset, -1 memoized failure, consumed+1
   memoized success, offsets relative to the chunk's position; vers =
   state-version stamps; exts = examined extents) live in a
   [Memo_arena.t] — flat parallel arrays recycled across runs instead
   of a boxed record per visited position. See memo_arena.mli for the
   layout and invariants. *)

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
  table_memo : (int, int * Value.t * int * int) Hashtbl.t;
  (* key = pos * nslots + slot; value = (consumed or -1, value, version,
     examined extent) — offsets relative to pos, like chunk entries *)
  arena : Memo_arena.t;  (* chunk storage; a cold dummy when unused *)
  mutable examined : int;
  (* farthest input position the current memoized invocation has looked
     at; saved/reset at memoized entry, max-merged back at return *)
  (* resource governor *)
  mutable fuel : int;  (* remaining invocation budget, counts down *)
  mutable depth : int;  (* live invocation nesting *)
  mutable memo_bytes : int;  (* approximate memo storage charged so far *)
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

type scratch = {
  sc_arena : Memo_arena.t;
  sc_table : (int, int * Value.t * int * int) Hashtbl.t;
}
(* Memo storage for store-less runs, parked on the engine between runs
   so back-to-back parses reuse one arena and one bucket table instead
   of allocating fresh ones per parse. Parked scratch holds no values
   (cleared on release), so an idle engine retains no parse results. *)

type t = {
  cfg : Config.t;
  gram : Grammar.t;
  ids : (string, int) Hashtbl.t;
  full : fn array;  (* per-production value-building matchers *)
  recs : fn array;  (* per-production recognizers *)
  slots : int array;  (* memo slot per production; -1 = not memoized *)
  nslots : int;
  nvslots : int;  (* memo slots that carry a value *)
  vmap : int array;  (* memo slot -> arena value slot; -1 = value-free *)
  dummy_arena : Memo_arena.t;  (* cold placeholder for unmemoized runs *)
  mutable pool : scratch option;
  obs : Observe.t option;  (* observation sink, [Config.observe] enabled only *)
}

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
let record st pos desc =
  if st.quiet = 0 then Expected.record st.fail_trace pos desc

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

type compile_ctx = {
  parser : t;
  analysis : Analysis.t;
  config : Config.t;
  charsets : Charmap.t;
      (* one lowering per distinct set, shared by the full and the
         recognizer compilation of every body *)
  obs : Observe.t option;
      (* when set, choice compilation marks alternative coverage and
         pushes backtrack events; call instrumentation lives in the
         per-production wrappers of [prepare_hooked] instead *)
}

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
  | Value.Node n when String.equal n.Value.name tail_name -> n.Value.children
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

let alt_first_viable st pos (first : Bytes.t) eps =
  eps
  || (look st pos;
      pos < st.len && bitmap_mem first (Input.unsafe_get st.input pos))

let rec alt_loop (compiled : (fn * Bytes.t * bool * string) array) n dispatch
    st saved pos i =
  if i >= n then -1
  else
    let fn, first, eps, desc = Array.unsafe_get compiled i in
    if dispatch && not (alt_first_viable st pos first eps) then (
      record st pos desc;
      alt_loop compiled n dispatch st saved pos (i + 1))
    else
      let p = fn st pos in
      if p >= 0 then p
      else (
        restore_tables st saved;
        st.stats.Stats.backtracks <- st.stats.Stats.backtracks + 1;
        alt_loop compiled n dispatch st saved pos (i + 1))

let truncate_desc s =
  if String.length s <= 40 then s else String.sub s 0 37 ^ "..."

(* Expected-set description of a predicate body: a one-byte body is
   described as its matcher is. *)
let pred_body_desc (x : Expr.t) =
  match x.it with
  | Expr.Chr c -> Pretty.quote_char c
  | Expr.Cls set -> Charset.to_string set
  | Expr.Any -> "any character"
  | _ -> truncate_desc (Pretty.expr_to_string x)

(* Peel a top-level Bind to expose the label a sequence records. *)
let peel_bind (e : Expr.t) =
  match e.it with Expr.Bind (l, inner) -> (Some l, inner) | _ -> (None, e)

let rec compile ctx ~lean (e : Expr.t) : fn =
  match e.it with
  | Expr.Empty ->
      if lean then fun _ _pos -> _pos
      else
        fun st pos ->
        st.value <- Value.Unit;
        pos
  | Expr.Fail msg ->
      fun st pos ->
        record st pos msg;
        -1
  | Expr.Any ->
      let desc = "any character" in
      if lean then
        fun st pos ->
          look st pos;
          if pos < st.len then pos + 1
          else (
            record st pos desc;
            -1)
      else
        fun st pos ->
          look st pos;
          if pos < st.len then (
            st.value <- Value.Chr (Input.unsafe_get st.input pos);
            pos + 1)
          else (
            record st pos desc;
            -1)
  | Expr.Chr c ->
      let desc = Pretty.quote_char c in
      let set_unit = not lean in
      fun st pos ->
        look st pos;
        if pos < st.len && Input.unsafe_get st.input pos = c then (
          if set_unit then st.value <- Value.Unit;
          pos + 1)
        else (
          record st pos desc;
          -1)
  | Expr.Str s ->
      let n = String.length s in
      let desc = Pretty.quote_string s in
      let set_unit = not lean in
      fun st pos ->
        (* Record failures at the first mismatching byte, so the farthest
           position reflects how much of the literal matched. *)
        let m = str_scan st s n pos 0 in
        if m >= n then (
          if set_unit then st.value <- Value.Unit;
          pos + n)
        else (
          record st (pos + m) desc;
          -1)
  | Expr.Cls set ->
      let bm, desc = Charmap.lower ctx.charsets set in
      if lean then
        fun st pos ->
          look st pos;
          if pos < st.len && bitmap_mem bm (Input.unsafe_get st.input pos)
          then pos + 1
          else (
            record st pos desc;
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
              record st pos desc;
              -1))
          else (
            record st pos desc;
            -1)
  | Expr.Ref name ->
      let id =
        match Hashtbl.find_opt ctx.parser.ids name with
        | Some id -> id
        | None -> Diagnostic.failf "engine: undefined production %S" name
      in
      let fns = if lean then ctx.parser.recs else ctx.parser.full in
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
      if (not lean) && Analysis.expr_yields_unit ctx.analysis x then (
        let fx = compile ctx ~lean:true x in
        fun st pos ->
          let p = fx st pos in
          if p < 0 then -1
          else (
            let p' = star_loop fx st p in
            st.value <- Value.Unit;
            p'))
      else
        let fx = compile ctx ~lean x in
        if lean then
          fun st pos ->
            let p = fx st pos in
            if p < 0 then -1 else star_loop fx st p
        else
          fun st pos ->
            let p = fx st pos in
            if p < 0 then -1 else star_collect fx st p [ st.value ]
  | Expr.Opt x ->
      let fx = compile ctx ~lean x in
      fun st pos ->
        let saved = st.tables in
        let p = fx st pos in
        if p >= 0 then p
        else (
          restore_tables st saved;
          if not lean then st.value <- Value.Unit;
          pos)
  | Expr.And x ->
      let fx = compile ctx ~lean:(lean || ctx.config.Config.lean_values) x in
      let desc = "&" ^ pred_body_desc x in
      fun st pos ->
        let saved = st.tables in
        st.quiet <- st.quiet + 1;
        let p = fx st pos in
        st.quiet <- st.quiet - 1;
        restore_tables st saved;
        if p < 0 then (
          record st pos desc;
          -1)
        else (
          if not lean then st.value <- Value.Unit;
          pos)
  | Expr.Not x ->
      let fx = compile ctx ~lean:(lean || ctx.config.Config.lean_values) x in
      let desc = "not " ^ truncate_desc (Pretty.expr_to_string x) in
      fun st pos ->
        let saved = st.tables in
        st.quiet <- st.quiet + 1;
        let p = fx st pos in
        st.quiet <- st.quiet - 1;
        restore_tables st saved;
        if p >= 0 then (
          record st pos desc;
          -1)
        else (
          if not lean then st.value <- Value.Unit;
          pos)
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
      let desc =
        if positive then Printf.sprintf "a name recorded in %s" table
        else Printf.sprintf "a name not recorded in %s" table
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
            record st pos desc;
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
          Value.node ~span:(Span.v ~start_:pos ~stop:p) name
            (Value.components st.value);
        p)
  in
  match e.it with
  | Expr.Seq es -> (
      match
        Analysis.seq_plan ctx.analysis
          ~lean_values:ctx.config.Config.lean_values es
      with
      | Analysis.Collect ->
          compile_collect ctx es (fun span parts ->
              Value.node_of_parts ~span name parts)
      | Analysis.No_value _ | Analysis.One_value _ -> wrap ())
  | Expr.Alt alts -> compile_alt ctx ~lean:false ~node:name alts
  | _ -> wrap ()

(* A sequence that collects its parts and builds its value with
   [finish] from its span and the parts. *)
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
    if p >= 0 then st.value <- finish (Span.v ~start_:pos ~stop:p) st.parts;
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
        compile_collect ctx es (fun span parts -> Value.seq ~span parts)
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
                  Value.seq ~span:(Span.v ~start_:pos ~stop:p)
                    [ (label, st.value) ])

and compile_tail ctx (e : Expr.t) : fn =
  (* Compile [e] as a sequence tail: the value is always a [tail_name]
     node holding the labeled parts, with none of [Value.seq]'s
     collapsing. Produced only by the prefix-factoring optimizer. *)
  match e.it with
  | Expr.Alt alts -> compile_alt ctx ~lean:false ~tail:true alts
  | Expr.Seq es ->
      compile_collect ctx es (fun span parts -> Value.node ~span tail_name parts)
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
            Value.node ~span:(Span.v ~start_:pos ~stop:p) tail_name
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
           let bm, desc = Charmap.lower ctx.charsets first in
           (compile_branch a.body, bm, eps, desc))
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
            let fn, first, eps, desc = compiled.(i) in
            if
              dispatch && (not eps)
              && (look st pos;
                  pos >= st.len
                  || not (bitmap_mem first (Input.unsafe_get st.input pos)))
            then (
              record st pos desc;
              go (i + 1))
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
  let fx = compile ctx ~lean x in
  if lean then fun st pos -> star_loop fx st pos
  else fun st pos -> star_collect fx st pos []

(* Shape a production's raw body value according to its kind. A generic
   body builds its own node ([compile_node]), so its shape is the
   identity. *)
let shape (p : Production.t) =
  match p.attrs.Attr.kind with
  | Attr.Plain | Attr.Generic -> fun st _pos0 _pos1 -> ignore st
  | Attr.Text ->
      fun st pos0 pos1 -> st.value <- Value.Str (Input.sub_string st.input pos0 (pos1 - pos0))
  | Attr.Void -> fun st _pos0 _pos1 -> st.value <- Value.Unit

(* --- preparation -------------------------------------------------------- *)

let assign_slots cfg prods =
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
              | Attr.Memo_never -> not cfg.Config.honor_transient
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

let prepare_hooked ?hook ?(config = Config.optimized) gram =
  let analysis = Analysis.analyze gram in
  match Analysis.check analysis with
  | _ :: _ as ds -> Error ds
  | [] ->
      let prods = Array.of_list (Grammar.productions gram) in
      let nprods = Array.length prods in
      let ids = Hashtbl.create (nprods * 2) in
      Array.iteri
        (fun i (p : Production.t) -> Hashtbl.replace ids p.name i)
        prods;
      let slots, nslots = assign_slots config prods in
      (* Value slots: a memoized production whose stored value is
         statically [Value.Unit] gets none — hits restore Unit instead
         of reading the arena. *)
      let vmap = Array.make nslots (-1) in
      let nvslots = ref 0 in
      Array.iteri
        (fun i (p : Production.t) ->
          let s = slots.(i) in
          if s >= 0 && not (Analysis.stores_no_value analysis p) then (
            vmap.(s) <- !nvslots;
            incr nvslots))
        prods;
      let nvslots = !nvslots in
      let dummy : fn = fun _ _ -> -1 in
      let obs =
        if Observe.enabled config.Config.observe then
          Some (Observe.create config.Config.observe (Provenance.of_grammar gram))
        else None
      in
      let parser =
        {
          cfg = config;
          gram;
          ids;
          full = Array.make nprods dummy;
          recs = Array.make nprods dummy;
          slots;
          nslots;
          nvslots;
          vmap;
          dummy_arena = Memo_arena.create ~nslots:0 ~vmap:[||];
          pool = None;
          obs;
        }
      in
      let ctx =
        { parser; analysis; config; charsets = Charmap.create (); obs }
      in
      (* Governor hooks, always compiled in: unlimited budgets are
         [max_int] sentinels, so the ungoverned path costs one decrement
         and two compares per invocation. Fuel is charged once per
         invocation before the memo lookup; depth is entered only when a
         body actually runs (a memo hit does not nest). *)
      let limits = config.Config.limits in
      let max_depth = limits.Limits.max_depth in
      let memo_limit = limits.Limits.max_memo_bytes in
      let chunk_cost = Limits.chunk_cost ~value_slots:nvslots nslots in
      let charge st pos =
        st.fuel <- st.fuel - 1;
        if st.fuel < 0 then (
          st.tripped <- Some (Limits.Fuel, pos);
          raise Exhausted)
      in
      let enter st pos =
        if st.depth >= max_depth then (
          st.tripped <- Some (Limits.Depth, pos);
          raise Exhausted);
        st.depth <- st.depth + 1
      in
      (try
         Array.iteri
           (fun i (p : Production.t) ->
             let lean_body =
               config.Config.lean_values
               && (p.attrs.Attr.kind = Attr.Text
                  || p.attrs.Attr.kind = Attr.Void)
             in
             let body_full =
               if p.attrs.Attr.kind = Attr.Generic then
                 compile_node ctx p.name p.expr
               else compile ctx ~lean:lean_body p.expr
             in
             let body_rec = compile ctx ~lean:true p.expr in
             let shape_fn = shape p in
             let slot = slots.(i) in
             (* Memo entries of stateful productions are only valid at the
                state version they were computed at. A hit can therefore
                never hide a state change: any run that mutated the tables
                bumped the version past its own entry stamp. *)
             let stateful = Analysis.stateful analysis p.name in
             let full_fn =
               match (config.Config.memo, slot) with
               | Config.No_memo, _ | _, -1 ->
                   fun st pos ->
                     st.stats.Stats.invocations <-
                       st.stats.Stats.invocations + 1;
                     charge st pos;
                     enter st pos;
                     let p' = body_full st pos in
                     st.depth <- st.depth - 1;
                     if p' >= 0 then shape_fn st pos p';
                     p'
               | Config.Hashtable, slot ->
                   fun st pos ->
                     st.stats.Stats.invocations <-
                       st.stats.Stats.invocations + 1;
                     charge st pos;
                     let key = (pos * nslots) + slot in
                     (match Hashtbl.find_opt st.table_memo key with
                     | Some (r, v, ver, ext)
                       when (not stateful) || ver = st.version ->
                         st.stats.Stats.memo_hits <-
                           st.stats.Stats.memo_hits + 1;
                         look st (pos + ext - 1);
                         if r >= 0 then (
                           st.value <- v;
                           pos + r)
                         else -1
                     | _ ->
                         st.stats.Stats.memo_misses <-
                           st.stats.Stats.memo_misses + 1;
                         enter st pos;
                         let ver0 = st.version in
                         let saved_ext = st.examined in
                         st.examined <- pos - 1;
                         let p' = body_full st pos in
                         st.depth <- st.depth - 1;
                         if p' >= 0 then shape_fn st pos p';
                         if st.quiet > 0 then ()
                         else if
                           st.memo_bytes + Limits.table_entry_cost
                           > memo_limit
                         then
                           st.stats.Stats.memo_degraded <-
                             st.stats.Stats.memo_degraded + 1
                         else (
                           st.memo_bytes <-
                             st.memo_bytes + Limits.table_entry_cost;
                           Hashtbl.replace st.table_memo key
                             ( (if p' >= 0 then p' - pos else -1),
                               (if p' >= 0 then st.value else Value.Unit),
                               ver0,
                               st.examined - pos + 1 );
                           st.stats.Stats.memo_stores <-
                             st.stats.Stats.memo_stores + 1);
                         look st saved_ext;
                         p')
               | Config.Chunked, slot ->
                   let vslot = vmap.(slot) in
                   fun st pos ->
                     st.stats.Stats.invocations <-
                       st.stats.Stats.invocations + 1;
                     charge st pos;
                     let a = st.arena in
                     let c =
                       let c = a.Memo_arena.idx.(pos) in
                       if c >= 0 then c
                       else if st.memo_bytes + chunk_cost > memo_limit then
                         -1
                       else (
                         let c = Memo_arena.alloc a pos in
                         st.memo_bytes <- st.memo_bytes + chunk_cost;
                         st.stats.Stats.chunks_allocated <-
                           st.stats.Stats.chunks_allocated + 1;
                         st.stats.Stats.chunk_slots <-
                           st.stats.Stats.chunk_slots + nslots;
                         c)
                     in
                     if c >= 0 then (
                       let base = (c * nslots) + slot in
                       let r = a.Memo_arena.res.(base) in
                       if
                         r <> 0
                         && ((not stateful)
                            || a.Memo_arena.vers.(base) = st.version)
                       then (
                         st.stats.Stats.memo_hits <-
                           st.stats.Stats.memo_hits + 1;
                         look st (pos + a.Memo_arena.exts.(base) - 1);
                         if r > 0 then (
                           st.value <-
                             (if vslot >= 0 then
                                a.Memo_arena.vals.((c * nvslots) + vslot)
                              else Value.Unit);
                           pos + r - 1)
                         else -1)
                       else (
                         st.stats.Stats.memo_misses <-
                           st.stats.Stats.memo_misses + 1;
                         enter st pos;
                         let ver0 = st.version in
                         let saved_ext = st.examined in
                         st.examined <- pos - 1;
                         let p' = body_full st pos in
                         st.depth <- st.depth - 1;
                         if p' >= 0 then shape_fn st pos p';
                         (* the body may have grown the arena: re-read
                            the rows through [a], never cache them *)
                         if st.quiet = 0 then (
                           if p' >= 0 then (
                             a.Memo_arena.res.(base) <- p' - pos + 1;
                             if vslot >= 0 then
                               a.Memo_arena.vals.((c * nvslots) + vslot) <-
                                 st.value)
                           else a.Memo_arena.res.(base) <- -1;
                           a.Memo_arena.vers.(base) <- ver0;
                           let ext = st.examined - pos + 1 in
                           a.Memo_arena.exts.(base) <- ext;
                           if ext > a.Memo_arena.cmax.(c) then
                             a.Memo_arena.cmax.(c) <- ext;
                           st.stats.Stats.memo_stores <-
                             st.stats.Stats.memo_stores + 1);
                         look st saved_ext;
                         p'))
                     else (
                       (* memo budget exhausted: no chunk for this
                          position — parse un-memoized and move on *)
                       st.stats.Stats.memo_misses <-
                         st.stats.Stats.memo_misses + 1;
                       enter st pos;
                       let p' = body_full st pos in
                       st.depth <- st.depth - 1;
                       if p' >= 0 then shape_fn st pos p';
                       st.stats.Stats.memo_degraded <-
                         st.stats.Stats.memo_degraded + 1;
                       p')
             in
             let rec_fn =
               match (config.Config.memo, slot) with
               | Config.No_memo, _ | _, -1 ->
                   fun st pos ->
                     st.stats.Stats.invocations <-
                       st.stats.Stats.invocations + 1;
                     charge st pos;
                     enter st pos;
                     let p' = body_rec st pos in
                     st.depth <- st.depth - 1;
                     p'
               | Config.Hashtable, slot ->
                   fun st pos ->
                     st.stats.Stats.invocations <-
                       st.stats.Stats.invocations + 1;
                     charge st pos;
                     let key = (pos * nslots) + slot in
                     (match Hashtbl.find_opt st.table_memo key with
                     | Some (r, _, ver, ext)
                       when (not stateful) || ver = st.version ->
                         st.stats.Stats.memo_hits <-
                           st.stats.Stats.memo_hits + 1;
                         look st (pos + ext - 1);
                         if r >= 0 then pos + r else -1
                     | _ ->
                         enter st pos;
                         let p' = body_rec st pos in
                         st.depth <- st.depth - 1;
                         p')
               | Config.Chunked, slot when vmap.(slot) < 0 ->
                   (* A value-free slot stores nothing but the result,
                      so an entry written by a recognizer run is
                      indistinguishable from a full-mode one — lean
                      calls to these productions get the whole memo
                      protocol, allocation and stores included. *)
                   fun st pos ->
                     st.stats.Stats.invocations <-
                       st.stats.Stats.invocations + 1;
                     charge st pos;
                     let a = st.arena in
                     let c =
                       let c = a.Memo_arena.idx.(pos) in
                       if c >= 0 then c
                       else if st.memo_bytes + chunk_cost > memo_limit then
                         -1
                       else (
                         let c = Memo_arena.alloc a pos in
                         st.memo_bytes <- st.memo_bytes + chunk_cost;
                         st.stats.Stats.chunks_allocated <-
                           st.stats.Stats.chunks_allocated + 1;
                         st.stats.Stats.chunk_slots <-
                           st.stats.Stats.chunk_slots + nslots;
                         c)
                     in
                     if c >= 0 then (
                       let base = (c * nslots) + slot in
                       let r = a.Memo_arena.res.(base) in
                       if
                         r <> 0
                         && ((not stateful)
                            || a.Memo_arena.vers.(base) = st.version)
                       then (
                         st.stats.Stats.memo_hits <-
                           st.stats.Stats.memo_hits + 1;
                         look st (pos + a.Memo_arena.exts.(base) - 1);
                         if r > 0 then pos + r - 1 else -1)
                       else (
                         st.stats.Stats.memo_misses <-
                           st.stats.Stats.memo_misses + 1;
                         enter st pos;
                         let ver0 = st.version in
                         let saved_ext = st.examined in
                         st.examined <- pos - 1;
                         let p' = body_rec st pos in
                         st.depth <- st.depth - 1;
                         if st.quiet = 0 then (
                           a.Memo_arena.res.(base) <-
                             (if p' >= 0 then p' - pos + 1 else -1);
                           a.Memo_arena.vers.(base) <- ver0;
                           let ext = st.examined - pos + 1 in
                           a.Memo_arena.exts.(base) <- ext;
                           if ext > a.Memo_arena.cmax.(c) then
                             a.Memo_arena.cmax.(c) <- ext;
                           st.stats.Stats.memo_stores <-
                             st.stats.Stats.memo_stores + 1);
                         look st saved_ext;
                         p'))
                     else (
                       st.stats.Stats.memo_misses <-
                         st.stats.Stats.memo_misses + 1;
                       enter st pos;
                       let p' = body_rec st pos in
                       st.depth <- st.depth - 1;
                       st.stats.Stats.memo_degraded <-
                         st.stats.Stats.memo_degraded + 1;
                       p')
               | Config.Chunked, slot ->
                   fun st pos ->
                     st.stats.Stats.invocations <-
                       st.stats.Stats.invocations + 1;
                     charge st pos;
                     let a = st.arena in
                     let c = a.Memo_arena.idx.(pos) in
                     let base = if c >= 0 then (c * nslots) + slot else 0 in
                     if
                       c >= 0
                       && a.Memo_arena.res.(base) <> 0
                       && ((not stateful)
                          || a.Memo_arena.vers.(base) = st.version)
                     then (
                       st.stats.Stats.memo_hits <-
                         st.stats.Stats.memo_hits + 1;
                       look st (pos + a.Memo_arena.exts.(base) - 1);
                       let r = a.Memo_arena.res.(base) in
                       if r > 0 then pos + r - 1 else -1)
                     else (
                       enter st pos;
                       let p' = body_rec st pos in
                       st.depth <- st.depth - 1;
                       p')
             in
             (* Observation wrapper, around both the value-building and
                the recognizer entry. A call was a memo hit exactly when
                the inner call bumped [memo_hits] without running a body
                — detected as a counter delta so the nine memo/entry
                arms above stay untouched. The enter event precedes the
                inner call's fuel charge, so a fuel trip leaves the doomed
                invocation visible in the ring; its open profile frame
                is closed by [Observe.finalize] at the run epilogue. *)
             let wrap_obs o i (fn : fn) : fn =
              fun st pos ->
               Observe.enter o i pos;
               let stats = st.stats in
               let inv0 = stats.Stats.invocations
               and hit0 = stats.Stats.memo_hits in
               let p' = fn st pos in
               if
                 stats.Stats.memo_hits = hit0 + 1
                 && stats.Stats.invocations = inv0 + 1
               then Observe.memo_hit o i pos ~stop:p'
               else Observe.exit o i pos ~stop:p';
               p'
             in
             let full_fn, rec_fn =
               match obs with
               | None -> (full_fn, rec_fn)
               | Some o -> (wrap_obs o i full_fn, wrap_obs o i rec_fn)
             in
             let full_fn =
               match hook with
               | None -> full_fn
               | Some h -> h p.Production.name full_fn
             in
             parser.full.(i) <- full_fn;
             parser.recs.(i) <- rec_fn)
           prods;
         Ok parser
       with Diagnostic.Fail d -> Error [ d ])

let prepare ?config gram = prepare_hooked ?config gram

let prepare_exn ?config gram =
  match prepare ?config gram with
  | Ok t -> t
  | Error (d :: _) -> raise (Diagnostic.Fail d)
  | Error [] -> assert false

let config t = t.cfg
let grammar t = t.gram
let memo_slots t = t.nslots
let memo_value_slots t = t.nvslots

let arena_cap t =
  match t.pool with Some sc -> sc.sc_arena.Memo_arena.cap | None -> 0

let observation (t : t) = t.obs

(* --- running ------------------------------------------------------------ *)

type outcome = {
  result : (Value.t, Parse_error.t) result;
  stats : Stats.t;
  consumed : int;
}

(* --- persistent memo stores (incremental sessions) ----------------------- *)

(* A store keeps the memo structures of the last run so a
   later run over an edited buffer can reuse them. [c_len] is the input
   length the entries were computed against (-1 until the first run);
   [c_version] persists the state-version counter across runs so stale
   stateful entries can never stamp-match a later run's versions. *)
type store = {
  c_arena : Memo_arena.t;
  c_table : (int, int * Value.t * int * int) Hashtbl.t;
  mutable c_bytes : int;
  mutable c_len : int;
  mutable c_version : int;
}

(* Apply an edit to the store: entries that only examined bytes strictly
   before the damage are kept in place, entries at or past its end are
   relocated by the length delta, everything else is dropped. Offsets
   inside entries are position-relative, so relocation moves pointers
   without rewriting entry contents. Returns (surviving, relocated)
   entry counts — chunks for chunked memo, table entries otherwise. *)
let edit_store t (s : store) ~start ~old_len ~new_len =
  let reused = ref 0 and relocated = ref 0 in
  if s.c_len >= 0 then (
    if start < 0 || old_len < 0 || new_len < 0 || start + old_len > s.c_len
    then invalid_arg "Engine.edit_store: edit out of bounds";
    let delta = new_len - old_len in
    (match t.cfg.Config.memo with
    | Config.No_memo -> ()
    | Config.Chunked ->
        (* entries strictly before the damage survive if they looked at
           nothing damaged; entries at or past its end relocate by the
           delta (relative encodings make that a pure re-index); the
           rest are reclaimed into the arena's free list *)
        let r, l = Memo_arena.edit s.c_arena ~start ~old_len ~new_len in
        reused := r;
        relocated := l;
        s.c_bytes <- r * Limits.chunk_cost ~value_slots:t.nvslots t.nslots
    | Config.Hashtable ->
        if t.nslots > 0 then (
          let entries =
            Hashtbl.fold (fun k e acc -> (k, e) :: acc) s.c_table []
          in
          Hashtbl.reset s.c_table;
          let dmg = start + old_len in
          List.iter
            (fun (key, ((_, _, _, ext) as e)) ->
              let pos = key / t.nslots in
              if pos < start && pos + ext <= start then (
                Hashtbl.replace s.c_table key e;
                incr reused)
              else if pos >= dmg then (
                Hashtbl.replace s.c_table (key + (delta * t.nslots)) e;
                incr reused;
                if delta <> 0 then incr relocated))
            entries;
          s.c_bytes <-
            Hashtbl.length s.c_table * Limits.table_entry_cost));
    s.c_len <- s.c_len + delta);
  (!reused, !relocated)

let run_with t ?store ?start ~require_eof input =
  let start_id =
    match start with
    | None -> Hashtbl.find t.ids (Grammar.start t.gram)
    | Some name -> (
        match Hashtbl.find_opt t.ids name with
        | Some id -> id
        | None ->
            raise
              (Diagnostic.Fail
                 (Diagnostic.errorf "no production named %S" name)))
  in
  let limits = t.cfg.Config.limits in
  if Input.length input > limits.Limits.max_input_bytes then (
    (match t.obs with
    | Some o -> Observe.trip o Limits.Input limits.Limits.max_input_bytes
    | None -> ());
    {
      result =
        Error
          (Parse_error.resource_exhausted ~which:Limits.Input
             ~at:limits.Limits.max_input_bytes ~consumed:0 ());
      stats = Stats.create ();
      consumed = -1;
    })
  else
    let len = Input.length input in
    (* Sync a persistent store to this input: entries only carry over
       when the store was edited to exactly this length (Session does
       that); any mismatch resets it rather than risking stale hits. *)
    (match store with
    | None -> ()
    | Some s ->
        let usable =
          s.c_len = len
          &&
          match t.cfg.Config.memo with
          | Config.Chunked -> s.c_arena.Memo_arena.idx_len = len + 1
          | _ -> true
        in
        if not usable then (
          Hashtbl.reset s.c_table;
          (match t.cfg.Config.memo with
          | Config.Chunked -> Memo_arena.reset s.c_arena ~len
          | _ -> ());
          s.c_bytes <- 0;
          s.c_len <- len));
    (* Store-less memoized runs borrow the engine's parked scratch (or
       build one on first use / when re-entered concurrently). *)
    let scratch =
      match store with
      | Some _ -> None
      | None -> (
          match t.cfg.Config.memo with
          | Config.No_memo -> None
          | Config.Hashtable | Config.Chunked ->
              let sc =
                match t.pool with
                | Some sc ->
                    t.pool <- None;
                    sc
                | None ->
                    {
                      sc_arena =
                        Memo_arena.create ~nslots:t.nslots ~vmap:t.vmap;
                      sc_table = Hashtbl.create 1024;
                    }
              in
              (match t.cfg.Config.memo with
              | Config.Chunked -> Memo_arena.reset sc.sc_arena ~len
              | _ -> Hashtbl.clear sc.sc_table);
              Some sc)
    in
    let st =
      {
        input;
        len;
        value = Value.Unit;
        parts = [];
        fail_trace = Expected.create ();
        tables = SMap.empty;
        version = (match store with Some s -> s.c_version + 1 | None -> 0);
        stats = Stats.create ();
        table_memo =
          (match (store, scratch) with
          | Some s, _ -> s.c_table
          | None, Some sc -> sc.sc_table
          | None, None -> Hashtbl.create 1);
        arena =
          (match (store, scratch) with
          | Some s, _ -> s.c_arena
          | None, Some sc -> sc.sc_arena
          | None, None -> t.dummy_arena);
        examined = -1;
        fuel = limits.Limits.fuel;
        depth = 0;
        memo_bytes = (match store with Some s -> s.c_bytes | None -> 0);
        tripped = None;
        quiet = 0;
      }
    in
    let p =
      try t.full.(start_id) st 0 with
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
    (match store with
    | None -> ()
    | Some s ->
        s.c_bytes <- st.memo_bytes;
        s.c_version <- st.version);
    (* Park the scratch for the next run, minus any parse results: the
       final value lives in [st.value], so dropping the memo's value
       references here costs nothing observable. *)
    (match scratch with
    | None -> ()
    | Some sc ->
        (match t.cfg.Config.memo with
        | Config.Chunked -> Memo_arena.release_values sc.sc_arena
        | _ -> ());
        Hashtbl.clear sc.sc_table;
        t.pool <- Some sc);
    (* The trip event and frame cleanup happen after the run body, off
       any budget: the ring must describe an exhausted run without
       changing where it tripped. *)
    (match t.obs with
    | None -> ()
    | Some o ->
        (match st.tripped with
        | Some (which, at) -> Observe.trip o which at
        | None -> ());
        Observe.finalize o);
    let result =
      match st.tripped with
      | Some (which, at) -> Error (Expected.exhausted st.fail_trace ~which ~at)
      | None ->
          Expected.result st.fail_trace ~len:st.len ~require_eof ~stop:p
            st.value
    in
    { result; stats = st.stats; consumed = p }

let run_input t ?start ?(require_eof = true) input =
  run_with t ?start ~require_eof input

let run t ?start ?require_eof input =
  run_input t ?start ?require_eof (Input.of_string input)

let parse t ?start input = (run t ?start input).result
let accepts t ?start input = Result.is_ok (parse t ?start input)

let new_store t =
  {
    c_arena = Memo_arena.create ~nslots:t.nslots ~vmap:t.vmap;
    c_table = Hashtbl.create 256;
    c_bytes = 0;
    c_len = -1;
    c_version = 0;
  }

let run_store_input t store ?start ?(require_eof = true) input =
  run_with t ~store ?start ~require_eof input

let run_store t store ?start ?require_eof input =
  run_store_input t store ?start ?require_eof (Input.of_string input)

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
  match prepare_hooked ~hook ?config gram with
  | Error ds -> Error ds
  | Ok eng -> Ok (run eng ?start ?require_eof input)
