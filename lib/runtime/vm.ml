open Rats_support
open Rats_peg
module SMap = Map.Make (String)
module SSet = Set.Make (String)

(* The bytecode back end. The compiler below flattens the optimized PEG
   IR into one instruction array per grammar; the interpreter runs it
   with an explicit, unified backtrack/call stack instead of OCaml
   closures and [-1] returns. Both back ends must stay observationally
   equivalent — values, success offsets, farthest-failure positions and
   expected sets — which the property suite enforces; when in doubt,
   [Engine] is the executable specification. *)

(* --- instruction set ----------------------------------------------------- *)

type instr =
  (* matching; the string is the expected-set description *)
  | IChar of char * string * bool  (* set value register to Unit? *)
  | IStr of string * string * bool
  | ISet of Bytes.t * string * bool  (* 256-byte bitmap; set Chr value? *)
  | IAny of string * bool
  | ITestSet of Bytes.t * int * string
      (* FIRST-set dispatch: record + jump when the next byte cannot
         start the alternative; falls through otherwise *)
  (* fused lexical forms: a charset star without a backtrack entry and
     predicates over one-byte lookahead. [Chr]/[Any] bodies reuse these
     with singleton / full bitmaps. *)
  | ISpan of Bytes.t * string
  | ITestNot of Bytes.t * string  (* "not ..." desc *)
  | ITestAnd of Bytes.t * string
  | IDispatch of Bytes.t * int array * int
      (* one-lookup choice dispatch: the byte indexes an alternative
         (255 = none viable), the int array maps indices to entry
         addresses past the per-alternative tests, the last int is the
         end-of-input entry. The trace replay falls through to the
         [ITestSet] chain instead so skipped alternatives record their
         expected sets exactly like the closure engine. *)
  (* control flow *)
  | IJump of int
  | IChoice of int * bool  (* handler address; count failures as backtracks? *)
  | ICommit of int
  | IStarStep of int * bool  (* loop head; append value to the top frame? *)
  | IBackCommit of int  (* and-predicate success: rewind, jump *)
  | IFailTwice of string  (* not-predicate success: rewind, record, fail *)
  | IFail of string option  (* record (when described) and fail *)
  | IOptSet of Bytes.t * string * int
      (* fused optional one-byte matcher; the int is the value mode:
         0 lean, 1 set Unit on a match, 2 set the matched Chr *)
  (* calls, specialized at compile time by the memo strategy so the
     interpreter never re-examines the configuration. The bool is true
     for a call from a lean context: the callee's value is dead, so
     neither a memo hit nor the return writes the value register (the
     return entry's tag carries the flag to the matching return) *)
  | ICall of int * bool  (* production id, lean *)
  | ICallChunk of int * int * int * bool * bool
      (* prod, slot, vslot, stateful, lean; vslot is the arena value
         slot (-1 = value-free production: a hit restores Unit) *)
  | ICallTbl of int * int * bool * bool  (* prod, slot, stateful, lean *)
  | IRet  (* shape the value, return; no memo entry *)
  | IRetChunk of int * int  (* slot, vslot *)
  | IRetTbl of int  (* slot *)
  | IHalt
  (* resource governor brackets around inlined production bodies, so
     fuel and depth count the inlined invocation exactly as the closure
     engine (which always calls) does. Emitted only under finite
     limits — ungoverned programs pay nothing for inlined calls. *)
  | IGovern
  | ILeave
  (* observed twins, emitted instead of the plain forms when the
     configuration enables observation — so an unobserved program is
     byte-identical to what it always was. Call/ret twins bracket the
     invocation with profiler frames and ring events; [IObsEnter]/
     [IObsLeave] bracket an inlined production body the same way (its
     stack entry lets the failure path close the frame exactly where an
     un-inlined call would have), charging the work to the origin
     production; [IObsAlt] marks per-alternative coverage. *)
  | IObsCall of int * bool  (* production id, lean *)
  | IObsCallChunk of int * int * int * bool * bool
      (* prod, slot, vslot, stateful, lean *)
  | IObsCallTbl of int * int * bool * bool
  | IObsRet
  | IObsRetChunk of int * int  (* slot, vslot *)
  | IObsRetTbl of int
  | IObsEnter of int  (* production id of the inlined body *)
  | IObsLeave
  | IObsAlt of int * bool  (* global arm id; matched? (tried otherwise) *)
  (* predicate-body bracket: recording inside a body never reaches the
     farthest-failure trace (the predicate records at its entry point
     instead), matching the closure engine — see [record] there. The
     failure path out of a body lands on the bracket's choice handler,
     which re-opens recording with [IQuiet false]. *)
  | IQuiet of bool
  (* value construction *)
  | ISetUnit
  | IPushMark  (* open a frame remembering the current offset *)
  | IAppend of string option  (* labeled sequence part into the top frame *)
  | IAppendSplice  (* splice a #tail node's parts into the top frame *)
  | IAppendList  (* repetition element into the top frame *)
  | IPopSeq
  | IPopTail
  | IPopTail1 of string option
  | IPopList
  | IPopToken
  | IPopNode of string
  | IWrapBind of string
  | ISpliceCollapse
  (* stateful parsing *)
  | IRecord of string
  | IMember of string * bool * string

type shape = Shape_plain | Shape_generic of string | Shape_text | Shape_void

type scratch = {
  sc_arena : Memo_arena.t;
  sc_table : (int, int * Value.t * int * int) Hashtbl.t;
  mutable sc_code : int array;
  mutable sc_pos : int array;
  mutable sc_aux0 : int array;
  mutable sc_aux1 : int array;
  mutable sc_depth : int array;
  mutable sc_tables : SSet.t SMap.t array;
  mutable sc_fstart : int array;
  mutable sc_fbase : int array;
  mutable sc_plabel : string option array;
  mutable sc_pvalue : Value.t array;
}
(* Everything a run needs besides the input: the unified stack, the
   value-frame and parts stacks, and (for store-less runs) memo
   storage. Parked on the program between runs so back-to-back parses
   reuse one set of buffers instead of allocating ~20 arrays per parse.
   A parked scratch holds no value references — release clears them. *)

type t = {
  cfg : Config.t;
  gram : Grammar.t;
  code : instr array;
  ids : (string, int) Hashtbl.t;
  names : string array;
  stubs : int array;  (* per-production [ICall; IHalt] entry point *)
  entries : int array;  (* per-production body address *)
  slots : int array;  (* memo slot per production; -1 = not memoized *)
  stateful : bool array;
  shapes : shape array;
  nslots : int;
  vmap : int array;  (* memo slot -> arena value slot; -1 = value-free *)
  nvslots : int;
  mutable pool : scratch option;
  obs : Observe.t option;
      (* observation sink, [Config.observe] enabled only; accumulates
         across every run of this program *)
}

(* Sequence tails carry their parts in a node with this reserved name;
   must match the closure engine's convention exactly. *)
let tail_name = "#tail"

let tail_parts = function
  | Value.Node n when String.equal n.Value.name tail_name -> n.Value.children
  | _ -> assert false

let bitmap_mem bm c = Bytes.unsafe_get bm (Char.code c) <> '\000'

(* --- compilation --------------------------------------------------------- *)

type buf = { mutable code : instr array; mutable n : int }

let buf_create () = { code = Array.make 256 IHalt; n = 0 }

let emit_instr b i =
  if b.n = Array.length b.code then (
    let bigger = Array.make (2 * b.n) IHalt in
    Array.blit b.code 0 bigger 0 b.n;
    b.code <- bigger);
  b.code.(b.n) <- i;
  b.n <- b.n + 1

let here b = b.n

(* Reserve a slot for a forward jump; patch once the target is known. *)
let reserve b =
  let at = here b in
  emit_instr b IHalt;
  at

let patch b at i = b.code.(at) <- i

type ctx = {
  buf : buf;
  analysis : Analysis.t;
  config : Config.t;
  charsets : Charmap.t;  (* one lowering per distinct set *)
  prod_ids : (string, int) Hashtbl.t;
  prods : Production.t array;
  slots : int array;
  vmap : int array;  (* memo slot -> value slot, -1 = value-free *)
  stateful : bool array;
  inlinable : bool array;
      (* non-memoized, non-recursive, small: emitted at the call site
         instead of through ICall/IRet — the closure engine cannot do
         this without duplicating closures, the bytecode can *)
  mutable inline_depth : int;
  governed : bool;  (* finite limits: bracket inlined bodies *)
  obs : Observe.t option;
      (* when set, calls and returns emit their observed twins, inlined
         bodies get [IObsEnter]/[IObsLeave] brackets, and (under
         coverage) choices get per-alternative [IObsAlt] marks *)
}

let truncate_desc s =
  if String.length s <= 40 then s else String.sub s 0 37 ^ "..."

let peel_bind (e : Expr.t) =
  match e.it with Expr.Bind (l, inner) -> (Some l, inner) | _ -> (None, e)

(* One-byte matchers that the fused forms above can stand in for, as a
   bitmap plus the expected-set description their failure records. *)
let fused_bitmap ctx (e : Expr.t) =
  match e.it with
  | Expr.Chr c ->
      let bm = Bytes.make 256 '\000' in
      Bytes.set bm (Char.code c) '\001';
      Some (bm, Pretty.quote_char c, false)
  | Expr.Cls set ->
      let bm, desc = Charmap.lower ctx.charsets set in
      Some (bm, desc, true)
  | Expr.Any -> Some (Bytes.make 256 '\001', "any character", true)
  | _ -> None

let rec emit ctx ~lean (e : Expr.t) =
  let b = ctx.buf in
  match e.it with
  | Expr.Empty -> if not lean then emit_instr b ISetUnit
  | Expr.Fail msg -> emit_instr b (IFail (Some msg))
  | Expr.Any -> emit_instr b (IAny ("any character", not lean))
  | Expr.Chr c -> emit_instr b (IChar (c, Pretty.quote_char c, not lean))
  | Expr.Str s -> emit_instr b (IStr (s, Pretty.quote_string s, not lean))
  | Expr.Cls set ->
      let bm, desc = Charmap.lower ctx.charsets set in
      emit_instr b (ISet (bm, desc, not lean))
  | Expr.Ref name -> (
      match Hashtbl.find_opt ctx.prod_ids name with
      | Some id ->
          if ctx.inlinable.(id) && ctx.inline_depth < 3 then
            emit_inline ctx ~lean id
          else emit_call ctx ~lean id
      | None -> Diagnostic.failf "vm: undefined production %S" name)
  | Expr.Seq es -> emit_seq ctx ~lean ~tail:false es
  | Expr.Alt alts -> emit_alt ctx ~lean ~tail:false alts
  | Expr.Star x -> (
      let lean' = lean || Analysis.expr_yields_unit ctx.analysis x in
      match if lean' then fused_bitmap ctx x else None with
      | Some (bm, desc, _) ->
          emit_instr b (ISpan (bm, desc));
          if not lean then emit_instr b ISetUnit
      | None ->
          if lean' then (
            emit_star_loop ctx ~collect:false x;
            if not lean then emit_instr b ISetUnit)
          else (
            emit_instr b IPushMark;
            emit_star_loop ctx ~collect:true x;
            emit_instr b IPopList))
  | Expr.Plus x -> (
      let lean' = lean || Analysis.expr_yields_unit ctx.analysis x in
      match if lean' then fused_bitmap ctx x else None with
      | Some (bm, desc, _) ->
          emit ctx ~lean:true x;
          emit_instr b (ISpan (bm, desc));
          if not lean then emit_instr b ISetUnit
      | None ->
          if lean' then (
            emit ctx ~lean:true x;
            emit_star_loop ctx ~collect:false x;
            if not lean then emit_instr b ISetUnit)
          else (
            emit_instr b IPushMark;
            emit ctx ~lean:false x;
            emit_instr b IAppendList;
            emit_star_loop ctx ~collect:true x;
            emit_instr b IPopList))
  | Expr.Opt x -> (
      match fused_bitmap ctx x with
      | Some (bm, desc, chr_valued) ->
          let mode = if lean then 0 else if chr_valued then 2 else 1 in
          emit_instr b (IOptSet (bm, desc, mode))
      | None ->
          let choice = reserve b in
          emit ctx ~lean x;
          let commit = reserve b in
          patch b choice (IChoice (here b, false));
          if not lean then emit_instr b ISetUnit;
          patch b commit (ICommit (here b)))
  | Expr.And x -> (
      match fused_bitmap ctx x with
      | Some (bm, desc, _) ->
          emit_instr b (ITestAnd (bm, "&" ^ desc));
          if not lean then emit_instr b ISetUnit
      | None ->
          (* choice L1; quiet+; <x>; quiet-; backcommit L2;
             L1: quiet-; fail "&x"; L2: *)
          let desc = "&" ^ truncate_desc (Pretty.expr_to_string x) in
          let choice = reserve b in
          emit_instr b (IQuiet true);
          emit ctx ~lean:(lean || ctx.config.Config.lean_values) x;
          emit_instr b (IQuiet false);
          let back = reserve b in
          patch b choice (IChoice (here b, false));
          emit_instr b (IQuiet false);
          emit_instr b (IFail (Some desc));
          patch b back (IBackCommit (here b));
          if not lean then emit_instr b ISetUnit)
  | Expr.Not x -> (
      let desc = "not " ^ truncate_desc (Pretty.expr_to_string x) in
      match fused_bitmap ctx x with
      | Some (bm, _, _) ->
          emit_instr b (ITestNot (bm, desc));
          if not lean then emit_instr b ISetUnit
      | None ->
          (* choice L1; quiet+; <x>; quiet-; failtwice "not x"; L1: quiet- *)
          let choice = reserve b in
          emit_instr b (IQuiet true);
          emit ctx ~lean:(lean || ctx.config.Config.lean_values) x;
          emit_instr b (IQuiet false);
          emit_instr b (IFailTwice desc);
          patch b choice (IChoice (here b, false));
          emit_instr b (IQuiet false);
          if not lean then emit_instr b ISetUnit)
  | Expr.Bind (label, x) ->
      emit ctx ~lean x;
      if not lean then emit_instr b (IWrapBind label)
  | Expr.Token x ->
      if lean then emit ctx ~lean:true x
      else (
        emit_instr b IPushMark;
        emit ctx ~lean:ctx.config.Config.lean_values x;
        emit_instr b IPopToken)
  | Expr.Node (name, x) ->
      if lean then emit ctx ~lean:true x
      else (
        emit_instr b IPushMark;
        emit ctx ~lean:false x;
        emit_instr b (IPopNode name))
  | Expr.Drop x ->
      emit ctx ~lean:(lean || ctx.config.Config.lean_values) x;
      if not lean then emit_instr b ISetUnit
  | Expr.Splice x ->
      if lean then emit ctx ~lean:true x
      else (
        emit_tail ctx x;
        emit_instr b ISpliceCollapse)
  | Expr.Record (table, x) ->
      emit_instr b IPushMark;
      emit ctx ~lean x;
      emit_instr b (IRecord table)
  | Expr.Member (table, positive, x) ->
      let desc =
        if positive then Printf.sprintf "a name recorded in %s" table
        else Printf.sprintf "a name not recorded in %s" table
      in
      emit_instr b IPushMark;
      emit ctx ~lean x;
      emit_instr b (IMember (table, positive, desc))

(* A call specialized by what [ICall] would have to look up anyway:
   the memo slot and strategy are fixed per (production, config). *)
and emit_call ctx ~lean id =
  let b = ctx.buf in
  let slot = ctx.slots.(id) in
  let observed = ctx.obs <> None in
  if slot < 0 then
    emit_instr b (if observed then IObsCall (id, lean) else ICall (id, lean))
  else
    match ctx.config.Config.memo with
    | Config.No_memo ->
        emit_instr b (if observed then IObsCall (id, lean) else ICall (id, lean))
    | Config.Chunked ->
        emit_instr b
          (if observed then
             IObsCallChunk (id, slot, ctx.vmap.(slot), ctx.stateful.(id), lean)
           else ICallChunk (id, slot, ctx.vmap.(slot), ctx.stateful.(id), lean))
    | Config.Hashtable ->
        emit_instr b
          (if observed then IObsCallTbl (id, slot, ctx.stateful.(id), lean)
           else ICallTbl (id, slot, ctx.stateful.(id), lean))

(* An inlined production body: reproduce exactly what [ICall]+[IRet]
   would do to the value register, minus the call frame and the memo
   traffic (inlinable productions have no memo slot). In a lean context
   the shape is dead, so the body runs lean whatever the kind. *)
and emit_inline ctx ~lean id =
  let b = ctx.buf in
  let p = ctx.prods.(id) in
  ctx.inline_depth <- ctx.inline_depth + 1;
  (* observation brackets outside the governor brackets: the enter event
     precedes the fuel charge, exactly like an observed call *)
  if ctx.obs <> None then emit_instr b (IObsEnter id);
  if ctx.governed then emit_instr b IGovern;
  (if lean then emit ctx ~lean:true p.Production.expr
   else
     match p.Production.attrs.Attr.kind with
     | Attr.Plain -> emit ctx ~lean:false p.Production.expr
     | Attr.Generic ->
         emit_instr b IPushMark;
         emit ctx ~lean:false p.Production.expr;
         emit_instr b (IPopNode p.Production.name)
     | Attr.Text ->
         emit_instr b IPushMark;
         emit ctx ~lean:true p.Production.expr;
         emit_instr b IPopToken
     | Attr.Void ->
         emit ctx ~lean:true p.Production.expr;
         emit_instr b ISetUnit);
  if ctx.governed then emit_instr b ILeave;
  if ctx.obs <> None then emit_instr b IObsLeave;
  ctx.inline_depth <- ctx.inline_depth - 1

(* The iteration of [Star]/[Plus]: choice over the body with a partial
   commit that re-arms the handler at each consumed iteration. The frame
   (when collecting) is managed by the caller. *)
and emit_star_loop ctx ~collect x =
  let b = ctx.buf in
  let choice = reserve b in
  let body = here b in
  emit ctx ~lean:(not collect) x;
  (* jumps back to the body: the step re-arms the handler in place *)
  emit_instr b (IStarStep (body, collect));
  (* both the handler and the no-progress exit land here *)
  patch b choice (IChoice (here b, false))

and emit_seq ctx ~lean ~tail es =
  let b = ctx.buf in
  let general () =
    emit_instr b IPushMark;
    List.iter
      (fun (e : Expr.t) ->
        match e.it with
        | Expr.Splice inner ->
            emit_tail ctx inner;
            emit_instr b IAppendSplice
        | _ ->
            let label, inner = peel_bind e in
            emit ctx ~lean:false inner;
            emit_instr b (IAppend label))
      es;
    emit_instr b (if tail then IPopTail else IPopSeq)
  in
  if lean then List.iter (emit ctx ~lean:true) es
  else if
    tail
    || (not ctx.config.Config.lean_values)
    || List.exists
         (fun (e : Expr.t) ->
           match e.it with Expr.Splice _ -> true | _ -> false)
         es
  then general ()
  else
    (* [Value.seq] drops unlabeled unit parts and collapses a singleton
       to the part itself (lib/peg/value.ml), so a sequence with at most
       one value-bearing part needs no collection frame: the value
       register already carries the result — provided the parts after
       the value-bearing one leave the register alone. *)
    let parts =
      List.map
        (fun e ->
          let label, inner = peel_bind e in
          ( label,
            inner,
            label <> None || not (Analysis.expr_yields_unit ctx.analysis inner)
          ))
        es
    in
    let rec after_value = function
      | [] -> []
      | (_, _, true) :: rest -> List.map (fun (_, i, _) -> i) rest
      | _ :: rest -> after_value rest
    in
    match List.filter (fun (_, _, bearing) -> bearing) parts with
    | [] ->
        List.iter (fun (_, inner, _) -> emit ctx ~lean:true inner) parts;
        emit_instr b ISetUnit
    | [ (label, _, _) ]
      when List.for_all Analysis.preserves_value (after_value parts) ->
        List.iter
          (fun (_, inner, bearing) -> emit ctx ~lean:(not bearing) inner)
          parts;
        (match label with
        | None -> ()
        | Some l -> emit_instr b (IWrapBind l))
    | _ -> general ()

and emit_tail ctx (e : Expr.t) =
  let b = ctx.buf in
  match e.it with
  | Expr.Alt alts -> emit_alt ctx ~lean:false ~tail:true alts
  | Expr.Seq es -> emit_seq ctx ~lean:false ~tail:true es
  | Expr.Empty ->
      emit_instr b IPushMark;
      emit_instr b IPopTail
  | _ ->
      let label, inner = peel_bind e in
      emit_instr b IPushMark;
      emit ctx ~lean:false inner;
      emit_instr b (IPopTail1 label)

and emit_alt ctx ~lean ~tail alts =
  let b = ctx.buf in
  let emit_branch body =
    if tail then emit_tail ctx body else emit ctx ~lean body
  in
  let dispatch = ctx.config.Config.dispatch in
  let n = List.length alts in
  (* Per-alternative coverage marks, identified by the physical [alts]
     node so every compilation of this choice agrees on ids; -1 (a node
     outside the registered grammar) suppresses the marks. The tried
     mark sits at the alternative's entry — past its dispatch test, so
     a skipped alternative is never marked. *)
  let obs_arm =
    match ctx.obs with
    | Some o when (Observe.want o).Observe.coverage ->
        let base = Provenance.arms_of (Observe.provenance o) alts in
        if base < 0 then None else Some base
    | _ -> None
  in
  let table = if dispatch && n > 1 then Some (reserve b) else None in
  (* per-alternative dispatch info: entry past the test, FIRST-set
     bitmap, nullability — collected to build the one-lookup table *)
  let entries_info = ref [] in
  (* reserved slots to patch once the exit address is known: commits
     (successful non-last alternatives pop their choice entry) and plain
     jumps (the last alternative has none) *)
  let commits = ref [] and jumps = ref [] in
  let fail_at = ref (-1) in
  (match alts with
  | [] -> emit_instr b (IFail (Some "empty choice"))
  | alts ->
      List.iteri
        (fun i (a : Expr.alt) ->
          let last = i = n - 1 in
          let first, eps = Analysis.expr_first ctx.analysis a.body in
          let bm, desc = Charmap.lower ctx.charsets first in
          let test =
            if dispatch && not eps then Some (reserve b, bm, desc) else None
          in
          entries_info := (here b, bm, eps) :: !entries_info;
          (match obs_arm with
          | Some base -> emit_instr b (IObsAlt (base + i, false))
          | None -> ());
          let choice = if last then -1 else reserve b in
          emit_branch a.body;
          (match obs_arm with
          | Some base -> emit_instr b (IObsAlt (base + i, true))
          | None -> ());
          if not last then (
            commits := reserve b :: !commits;
            (* a failed alternative resumes at the next one *)
            patch b choice (IChoice (here b, true)))
          else if test <> None then (
            (* a dispatch skip on the last alternative fails outright;
               jump over the fail on body success *)
            jumps := reserve b :: !jumps;
            fail_at := here b;
            emit_instr b (IFail None));
          match test with
          | None -> ()
          | Some (at, bm, desc) ->
              (* skip target: the next alternative, or the trailing fail *)
              let target = if last then here b - 1 else here b in
              patch b at (ITestSet (bm, target, desc)))
        alts);
  let after = here b in
  List.iter (fun at -> patch b at (ICommit after)) !commits;
  List.iter (fun at -> patch b at (IJump after)) !jumps;
  match table with
  | None -> ()
  | Some at ->
      let infos = Array.of_list (List.rev !entries_info) in
      (* an alternative viable for no byte can only be reached by the
         chain; 255 = no viable alternative, entered at the trailing
         fail (present whenever the last alternative is tested) *)
      let none = if !fail_at >= 0 then !fail_at else after in
      let targets =
        Array.append (Array.map (fun (e, _, _) -> e) infos) [| none |]
      in
      let none_idx = Array.length infos in
      let tbl = Bytes.make 256 (Char.chr none_idx) in
      for byte = 255 downto 0 do
        Array.iteri
          (fun i (_, bm, eps) ->
            if
              Char.code (Bytes.get tbl byte) = none_idx
              && (eps || bitmap_mem bm (Char.chr byte))
            then Bytes.set tbl byte (Char.chr i))
          infos
      done;
      let eof =
        match Array.find_opt (fun (_, _, eps) -> eps) infos with
        | Some (e, _, _) -> e
        | None -> none
      in
      patch b at (IDispatch (tbl, targets, eof))

(* Memo-slot assignment, mirroring the closure engine exactly so both
   back ends agree on what is memoized under every configuration. *)
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

let prepare ?(config = Config.vm) gram =
  let analysis = Analysis.analyze gram in
  match Analysis.check analysis with
  | _ :: _ as ds -> Error ds
  | [] -> (
      let prods = Array.of_list (Grammar.productions gram) in
      let nprods = Array.length prods in
      let ids = Hashtbl.create (nprods * 2) in
      Array.iteri
        (fun i (p : Production.t) -> Hashtbl.replace ids p.name i)
        prods;
      let slots, nslots = assign_slots config prods in
      let recursive = Analysis.recursive analysis in
      let inlinable =
        Array.mapi
          (fun i (p : Production.t) ->
            slots.(i) < 0
            && Expr.size p.expr <= 32
            && not (Analysis.StringSet.mem p.name recursive))
          prods
      in
      let stateful =
        Array.map
          (fun (p : Production.t) -> Analysis.stateful analysis p.name)
          prods
      in
      (* Value-slot map: must mirror the closure engine's assignment
         exactly (same analysis, same production order), so stores made
         by one back end could in principle be replayed by the other. *)
      let vmap = Array.make nslots (-1) in
      let nvslots = ref 0 in
      Array.iteri
        (fun i (p : Production.t) ->
          let s = slots.(i) in
          if s >= 0 && not (Analysis.stores_no_value analysis p) then (
            vmap.(s) <- !nvslots;
            incr nvslots))
        prods;
      let buf = buf_create () in
      let obs =
        if Observe.enabled config.Config.observe then
          Some
            (Observe.create config.Config.observe (Provenance.of_grammar gram))
        else None
      in
      let ctx =
        { buf; analysis; config; charsets = Charmap.create (); prod_ids = ids; prods; slots; vmap;
          stateful; inlinable; inline_depth = 0;
          governed = not (Limits.is_unlimited config.Config.limits); obs }
      in
      let stubs = Array.make nprods 0 in
      let entries = Array.make nprods 0 in
      try
        Array.iteri
          (fun i (_ : Production.t) ->
            stubs.(i) <- here buf;
            emit_call ctx ~lean:false i;
            emit_instr buf IHalt)
          prods;
        Array.iteri
          (fun i (p : Production.t) ->
            entries.(i) <- here buf;
            let lean_body =
              config.Config.lean_values
              && (p.attrs.Attr.kind = Attr.Text
                 || p.attrs.Attr.kind = Attr.Void)
            in
            emit ctx ~lean:lean_body p.expr;
            let observed = obs <> None in
            emit_instr buf
              (if slots.(i) < 0 then if observed then IObsRet else IRet
               else
                 match config.Config.memo with
                 | Config.No_memo -> if observed then IObsRet else IRet
                 | Config.Chunked ->
                     if observed then
                       IObsRetChunk (slots.(i), vmap.(slots.(i)))
                     else IRetChunk (slots.(i), vmap.(slots.(i)))
                 | Config.Hashtable ->
                     if observed then IObsRetTbl slots.(i)
                     else IRetTbl slots.(i)))
          prods;
        Ok
          {
            cfg = config;
            gram;
            code = Array.sub buf.code 0 buf.n;
            ids;
            names = Array.map (fun (p : Production.t) -> p.name) prods;
            stubs;
            entries;
            slots;
            stateful;
            shapes =
              Array.map
                (fun (p : Production.t) ->
                  match p.attrs.Attr.kind with
                  | Attr.Plain -> Shape_plain
                  | Attr.Generic -> Shape_generic p.name
                  | Attr.Text -> Shape_text
                  | Attr.Void -> Shape_void)
                prods;
            nslots;
            vmap;
            nvslots = !nvslots;
            pool = None;
            obs;
          }
      with Diagnostic.Fail d -> Error [ d ])

let prepare_exn ?config gram =
  match prepare ?config gram with
  | Ok t -> t
  | Error (d :: _) -> raise (Diagnostic.Fail d)
  | Error [] -> assert false

let config t = t.cfg
let grammar t = t.gram
let memo_slots t = t.nslots
let memo_value_slots t = t.nvslots
let instruction_count (t : t) = Array.length t.code
let observation (t : t) = t.obs

let arena_cap (t : t) =
  match t.pool with
  | Some sc -> sc.sc_arena.Memo_arena.cap
  | None -> 0

(* --- run-time state ------------------------------------------------------ *)

(* Memo chunks live in a [Memo_arena.t] shared in layout and encoding
   with the closure engine: res 0 unset, -1 memoized failure,
   consumed+1 memoized success — relative to the chunk's position —
   with examined-extent rows ([exts], [cmax] caching their max) that
   decide which entries survive an edit in an incremental session. *)

(* Unified stack entry tags. Backtrack entries hold a resume address and
   the machine state to rewind to; return entries hold the call's return
   address and the memoization context of the production being run. *)
let tag_bt = 0
let tag_bt_alt = 1 (* like tag_bt, but a pop-on-failure counts as a backtrack *)
let tag_ret = 2
let tag_ret_lean = 3 (* return entry of a lean call: no value write *)

(* Observed twins of the return tags, pushed by the [IObs*] call
   instructions so the failure path knows to close the profiler frame
   and push the exit event; and the marker entry of an observed inlined
   body, which exists only to be unwound — [IObsLeave] pops it on
   success, [fail] closes its frame on the way past. *)
let tag_ret_obs = 4
let tag_ret_lean_obs = 5
let tag_obs_inline = 6

type st = {
  input : Input.t;
  len : int;
  trace : bool;
      (* expected-set recording. The first, speculative pass runs with
         recording off; a failing parse is re-run with it on to
         reconstruct the trace (parsing is deterministic, so the replay
         is exact — including the point where a budget trips). The
         success path never pays for error bookkeeping. *)
  mutable pos : int;
  mutable value : Value.t;
  fail_trace : Expected.t;
  mutable tables : SSet.t SMap.t;
  mutable version : int;
  stats : Stats.t;
  table_memo : (int, int * Value.t * int * int) Hashtbl.t;
  (* key = pos * nslots + slot; value = (consumed or -1, value, version,
     examined extent), offsets relative to pos — the closure engine's
     encoding exactly *)
  arena : Memo_arena.t;  (* chunk storage; a cold dummy when unused *)
  mutable examined : int;
  (* farthest input position the current memoized invocation has looked
     at; saved in the return entry (s_depth slot) and max-merged back *)
  (* resource governor; counted at the same points as the closure
     engine so both back ends trip the same limit on the same input *)
  mutable fuel : int;  (* remaining invocation budget, counts down *)
  mutable depth : int;  (* live invocation nesting, inlined included *)
  max_depth : int;
  memo_limit : int;
  mutable memo_bytes : int;
  mutable tripped : (Limits.which * int) option;
  mutable quiet : int;  (* predicate-body nesting; suppresses recording *)
  (* the unified backtrack/call stack, as parallel arrays. Tag and
     address are packed into one unboxed int per entry —
     [(addr lsl 3) lor tag] — so the hottest push/pop paths touch one
     array fewer; the arrays live in a pooled [scratch], preallocated
     and reused across runs. *)
  mutable s_code : int array;  (* packed tag + resume/return address *)
  mutable s_pos : int array;  (* saved offset / call-site offset *)
  mutable s_aux0 : int array;  (* frame height / state version at entry *)
  mutable s_aux1 : int array;  (* top-frame part count / production id *)
  mutable s_depth : int array;  (* governor depth at entry (backtrack) *)
  mutable s_tables : SSet.t SMap.t array;
  mutable sp : int;
  (* the value-frame stack: open sequences, repetitions and marks.
     Collected parts live on one flat stack ([p_label]/[p_value]); a
     frame only remembers its input offset and the parts height at
     entry, so discarding a frame on backtrack is O(1). *)
  mutable f_start : int array;
  mutable f_base : int array;
  mutable fp : int;
  mutable p_label : string option array;
  mutable p_value : Value.t array;
  mutable p_top : int;
}

(* Raised when a budget runs out; [st.tripped] carries which and where.
   Aborts the whole run — backtracking would keep spending a budget
   that is already gone. *)
exception Exhausted

let grow_int a = let b = Array.make (2 * Array.length a) 0 in
  Array.blit a 0 b 0 (Array.length a); b

let grow_any dummy a = let b = Array.make (2 * Array.length a) dummy in
  Array.blit a 0 b 0 (Array.length a); b

let ensure_stack st =
  if st.sp = Array.length st.s_code then (
    st.s_code <- grow_int st.s_code;
    st.s_pos <- grow_int st.s_pos;
    st.s_aux0 <- grow_int st.s_aux0;
    st.s_aux1 <- grow_int st.s_aux1;
    st.s_depth <- grow_int st.s_depth;
    st.s_tables <- grow_any SMap.empty st.s_tables)

let ensure_frames st =
  if st.fp = Array.length st.f_start then (
    st.f_start <- grow_int st.f_start;
    st.f_base <- grow_int st.f_base)

let ensure_parts st =
  if st.p_top = Array.length st.p_value then (
    st.p_label <- grow_any None st.p_label;
    st.p_value <- grow_any Value.Unit st.p_value)

let push_part st label v =
  ensure_parts st;
  let top = st.p_top in
  Array.unsafe_set st.p_label top label;
  Array.unsafe_set st.p_value top v;
  st.p_top <- top + 1

(* The parts collected on top of [base], oldest first, as the list the
   [Value] constructors consume. *)
let parts_above st base =
  let rec build i acc =
    if i < base then acc
    else build (i - 1) ((Array.unsafe_get st.p_label i, Array.unsafe_get st.p_value i) :: acc)
  in
  let parts = build (st.p_top - 1) [] in
  (* release the stack slots so the values don't outlive the frame *)
  Array.fill st.p_value base (st.p_top - base) Value.Unit;
  st.p_top <- base;
  parts

let push_bt st tag addr =
  ensure_stack st;
  let sp = st.sp in
  Array.unsafe_set st.s_code sp ((addr lsl 3) lor tag);
  Array.unsafe_set st.s_pos sp st.pos;
  Array.unsafe_set st.s_aux0 sp st.fp;
  Array.unsafe_set st.s_aux1 sp st.p_top;
  Array.unsafe_set st.s_depth sp st.depth;
  Array.unsafe_set st.s_tables sp st.tables;
  st.sp <- sp + 1;
  if st.sp > st.stats.Stats.vm_stack_peak then
    st.stats.Stats.vm_stack_peak <- st.sp

(* Return entries never restore the state tables (the backtrack entry
   below them does), so they skip the snapshot write entirely. A body is
   about to run, so the depth budget is checked here — the exact point
   the closure engine checks before descending into a body. The caller's
   examined extent is parked in the otherwise-unused [s_depth] slot and
   the register reset, so the callee measures its own extent; the
   matching return (or the failure path) max-merges it back. *)
let push_ret st ~tag ~ret ~prod =
  if st.depth >= st.max_depth then (
    st.tripped <- Some (Limits.Depth, st.pos);
    raise Exhausted);
  st.depth <- st.depth + 1;
  ensure_stack st;
  let sp = st.sp in
  Array.unsafe_set st.s_code sp ((ret lsl 3) lor tag);
  Array.unsafe_set st.s_pos sp st.pos;
  Array.unsafe_set st.s_aux0 sp st.version;
  Array.unsafe_set st.s_aux1 sp prod;
  Array.unsafe_set st.s_depth sp st.examined;
  st.examined <- st.pos - 1;
  st.sp <- sp + 1;
  if st.sp > st.stats.Stats.vm_stack_peak then
    st.stats.Stats.vm_stack_peak <- st.sp

(* The marker entry of an observed inlined body: carries only the
   production id and entry position the exit event needs. It restores
   nothing — the governor brackets and the enclosing backtrack entry
   own that — so the unused slots are cleared, not snapshotted. *)
let push_obs st prod =
  ensure_stack st;
  let sp = st.sp in
  Array.unsafe_set st.s_code sp tag_obs_inline;
  Array.unsafe_set st.s_pos sp st.pos;
  Array.unsafe_set st.s_aux0 sp 0;
  Array.unsafe_set st.s_aux1 sp prod;
  Array.unsafe_set st.s_depth sp 0;
  Array.unsafe_set st.s_tables sp SMap.empty;
  st.sp <- sp + 1;
  if st.sp > st.stats.Stats.vm_stack_peak then
    st.stats.Stats.vm_stack_peak <- st.sp

let push_frame st =
  ensure_frames st;
  let fp = st.fp in
  Array.unsafe_set st.f_start fp st.pos;
  Array.unsafe_set st.f_base fp st.p_top;
  st.fp <- fp + 1

(* Restore the state tables to a snapshot; a physical change bumps the
   version so that memo entries of stateful productions stop matching. *)
let restore_tables st saved =
  if st.tables != saved then (
    st.tables <- saved;
    st.version <- st.version + 1;
    st.stats.Stats.state_snapshots <- st.stats.Stats.state_snapshots + 1)

(* Rewind the frame stack to a backtrack entry's snapshot: discard
   frames opened since and the parts they collected. *)
let rewind_frames st fh ptop =
  if st.p_top > ptop then (
    Array.fill st.p_value ptop (st.p_top - ptop) Value.Unit
    (* release values eagerly *);
    st.p_top <- ptop);
  st.fp <- fh

(* --- the interpreter ------------------------------------------------------ *)

let exec (t : t) (st : st) start_ip =
  let code = t.code in
  let stats = st.stats in
  let inp = st.input in
  let len = st.len in
  let entries = t.entries in
  let nslots = t.nslots in
  let shapes = t.shapes in
  let shaped_value prod pos0 =
    match Array.unsafe_get shapes prod with
    | Shape_plain -> st.value
    | Shape_generic name ->
        Value.node
          ~span:(Span.v ~start_:pos0 ~stop:st.pos)
          name
          (Value.components st.value)
    | Shape_text -> Value.Str (Input.sub_string inp pos0 (st.pos - pos0))
    | Shape_void -> Value.Unit
  in
  let apply_shape prod pos0 =
    match Array.unsafe_get shapes prod with
    | Shape_plain -> ()
    | _ -> st.value <- shaped_value prod pos0
  in
  let trace = st.trace in
  (* The observation sink; [Observe.null] only stands in for the
     typechecker — the [IObs*] instructions that reach for it are never
     emitted without a real sink, and the unobserved hot path never
     touches it. *)
  let observed = t.obs <> None in
  let o = match t.obs with Some o -> o | None -> Observe.null in
  let record pos desc =
    if trace && st.quiet = 0 then Expected.record st.fail_trace pos desc
  in
  (* Note that position [p] was examined (end-of-input checks count, so
     [p] may equal [len]). Never suppressed by [quiet], never rewound on
     backtracking — the closure engine's [look] exactly. *)
  let look p = if p > st.examined then st.examined <- p in
  let charge_fuel () =
    st.fuel <- st.fuel - 1;
    if st.fuel < 0 then (
      st.tripped <- Some (Limits.Fuel, st.pos);
      raise Exhausted)
  in
  (* Store a memoized failure for a production whose body just failed;
     [pos0]/[ver0] come from its return entry. Subject to the memo
     budget exactly like the success-path stores. *)
  let store_failure prod pos0 ver0 ext =
    let slot = t.slots.(prod) in
    if slot >= 0 then
      match t.cfg.Config.memo with
      | Config.No_memo -> ()
      | Config.Hashtable ->
          if st.memo_bytes + Limits.table_entry_cost > st.memo_limit then
            stats.Stats.memo_degraded <- stats.Stats.memo_degraded + 1
          else (
            st.memo_bytes <- st.memo_bytes + Limits.table_entry_cost;
            Hashtbl.replace st.table_memo
              ((pos0 * t.nslots) + slot)
              (-1, Value.Unit, ver0, ext);
            stats.Stats.memo_stores <- stats.Stats.memo_stores + 1)
      | Config.Chunked ->
          let a = st.arena in
          let c = a.Memo_arena.idx.(pos0) in
          if c >= 0 then (
            let base = (c * nslots) + slot in
            a.Memo_arena.res.(base) <- -1;
            a.Memo_arena.vers.(base) <- ver0;
            a.Memo_arena.exts.(base) <- ext;
            if ext > a.Memo_arena.cmax.(c) then a.Memo_arena.cmax.(c) <- ext;
            stats.Stats.memo_stores <- stats.Stats.memo_stores + 1)
          else
            (* the memo budget denied this position a chunk *)
            stats.Stats.memo_degraded <- stats.Stats.memo_degraded + 1
  in
  let chunk_cost = Limits.chunk_cost ~value_slots:t.nvslots t.nslots in
  (* Returns the chunk id for [pos], claiming one from the arena on
     first visit — budget charges and stats exactly as when chunks were
     boxed records; -1 when the memo budget denies the claim. *)
  let chunk_at pos =
    let a = st.arena in
    let c = a.Memo_arena.idx.(pos) in
    if c >= 0 then c
    else if st.memo_bytes + chunk_cost > st.memo_limit then -1
    else (
      let c = Memo_arena.alloc a pos in
      st.memo_bytes <- st.memo_bytes + chunk_cost;
      stats.Stats.chunks_allocated <- stats.Stats.chunks_allocated + 1;
      stats.Stats.chunk_slots <- stats.Stats.chunk_slots + t.nslots;
      c)
  in
  (* Failure: pop the unified stack to the nearest backtrack entry,
     memoizing the failure of every production frame crossed, then
     resume at the entry's handler. Returns -1 when the stack drains —
     the start production itself failed. *)
  let rec fail () =
    if st.sp = 0 then -1
    else (
      st.sp <- st.sp - 1;
      let sp = st.sp in
      let sc = Array.unsafe_get st.s_code sp in
      let tag = sc land 7 in
      if tag = tag_obs_inline then (
        (* an observed inlined body is failing: close its frame exactly
           where the un-inlined call's return entry would have *)
        Observe.exit o
          (Array.unsafe_get st.s_aux1 sp)
          (Array.unsafe_get st.s_pos sp)
          ~stop:(-1);
        fail ())
      else if tag >= tag_ret then (
        (* lean calls to value-carrying slots never store — the closure
           engine's recognizers don't either, and the memo tables must
           evolve identically for the budgets to trip at the same
           point. Lean calls to value-free slots pushed [tag_ret] and
           so store their failures here like any full call. *)
        let pos0 = Array.unsafe_get st.s_pos sp in
        if tag = tag_ret || tag = tag_ret_obs then
          store_failure
            (Array.unsafe_get st.s_aux1 sp)
            pos0
            (Array.unsafe_get st.s_aux0 sp)
            (st.examined - pos0 + 1);
        look (Array.unsafe_get st.s_depth sp);
        if tag >= tag_ret_obs then
          Observe.exit o (Array.unsafe_get st.s_aux1 sp) pos0 ~stop:(-1);
        fail ())
      else (
        let snapshot = Array.unsafe_get st.s_tables sp in
        Array.unsafe_set st.s_tables sp SMap.empty
        (* drop the retained reference *);
        if tag = tag_bt_alt then (
          stats.Stats.backtracks <- stats.Stats.backtracks + 1;
          if observed then
            Observe.backtrack o (Array.unsafe_get st.s_pos sp));
        st.pos <- Array.unsafe_get st.s_pos sp;
        st.depth <- Array.unsafe_get st.s_depth sp;
        restore_tables st snapshot;
        rewind_frames st
          (Array.unsafe_get st.s_aux0 sp)
          (Array.unsafe_get st.s_aux1 sp);
        dispatch (sc asr 3)))
  and dispatch ip =
    stats.Stats.vm_instructions <- stats.Stats.vm_instructions + 1;
    match Array.unsafe_get code ip with
    | IChar (c, desc, set_unit) ->
        look st.pos;
        if st.pos < len && Input.unsafe_get inp st.pos = c then (
          if set_unit then st.value <- Value.Unit;
          st.pos <- st.pos + 1;
          dispatch (ip + 1))
        else (
          record st.pos desc;
          fail ())
    | IStr (s, desc, set_unit) ->
        (* Representation match hoisted out of the per-byte loop so each
           iteration stays a monomorphic compare, as before Input.t.
           Iterative (not a local [let rec]) on purpose: a recursive
           closure capturing the input would be allocated on every
           execution — the one lean-path allocation the VM had. The
           counter ref stays unboxed, as in ISpan. *)
        let n = String.length s in
        let pos0 = st.pos in
        let i = ref 0 in
        (match inp with
        | Input.Str text ->
            while
              !i < n
              && (look (pos0 + !i);
                  pos0 + !i < len
                  && String.unsafe_get text (pos0 + !i)
                     = String.unsafe_get s !i)
            do
              incr i
            done
        | Input.Big b ->
            while
              !i < n
              && (look (pos0 + !i);
                  pos0 + !i < len
                  && Bigarray.Array1.unsafe_get b (pos0 + !i)
                     = String.unsafe_get s !i)
            do
              incr i
            done);
        let matched = !i in
        if matched >= n then (
          if set_unit then st.value <- Value.Unit;
          st.pos <- st.pos + n;
          dispatch (ip + 1))
        else (
          (* Record failures at the first mismatching byte, so the
             farthest position reflects how much of the literal
             matched. *)
          record (st.pos + matched) desc;
          fail ())
    | ISet (bm, desc, set_value) ->
        look st.pos;
        if st.pos < len then (
          let c = Input.unsafe_get inp st.pos in
          if bitmap_mem bm c then (
            if set_value then st.value <- Value.Chr c;
            st.pos <- st.pos + 1;
            dispatch (ip + 1))
          else (
            record st.pos desc;
            fail ()))
        else (
          record st.pos desc;
          fail ())
    | IAny (desc, set_value) ->
        look st.pos;
        if st.pos < len then (
          if set_value then
            st.value <- Value.Chr (Input.unsafe_get inp st.pos);
          st.pos <- st.pos + 1;
          dispatch (ip + 1))
        else (
          record st.pos desc;
          fail ())
    | ITestSet (bm, target, desc) ->
        look st.pos;
        if st.pos < len && bitmap_mem bm (Input.unsafe_get inp st.pos)
        then dispatch (ip + 1)
        else (
          record st.pos desc;
          dispatch target)
    | ISpan (bm, desc) ->
        let i = ref st.pos in
        (match inp with
        | Input.Str text ->
            while !i < len && bitmap_mem bm (String.unsafe_get text !i) do
              incr i
            done
        | Input.Big b ->
            while !i < len && bitmap_mem bm (Bigarray.Array1.unsafe_get b !i) do
              incr i
            done);
        look !i;
        st.pos <- !i;
        (* the iteration that stops the loop fails like the unfused
           body would: it records its expected set where it stopped *)
        record !i desc;
        dispatch (ip + 1)
    | ITestNot (bm, not_desc) ->
        look st.pos;
        if st.pos < len && bitmap_mem bm (Input.unsafe_get inp st.pos)
        then (
          record st.pos not_desc;
          fail ())
        else
          (* the body's failure is what makes the predicate succeed;
             like any predicate-body failure it records nothing *)
          dispatch (ip + 1)
    | ITestAnd (bm, desc) ->
        look st.pos;
        if st.pos < len && bitmap_mem bm (Input.unsafe_get inp st.pos)
        then dispatch (ip + 1)
        else (
          record st.pos desc;
          fail ())
    | IQuiet on ->
        st.quiet <- (st.quiet + if on then 1 else -1);
        dispatch (ip + 1)
    | IDispatch (tbl, targets, eof) ->
        if trace then dispatch (ip + 1)
          (* replay through the test chain to record expected sets *)
        else if (look st.pos; st.pos < len) then
          dispatch
            (Array.unsafe_get targets
               (Char.code
                  (Bytes.unsafe_get tbl
                     (Char.code (Input.unsafe_get inp st.pos)))))
        else dispatch eof
    | IJump target -> dispatch target
    | IChoice (handler, is_alt) ->
        push_bt st (if is_alt then tag_bt_alt else tag_bt) handler;
        dispatch (ip + 1)
    | ICommit target ->
        st.sp <- st.sp - 1;
        Array.unsafe_set st.s_tables st.sp SMap.empty;
        dispatch target
    | IStarStep (loop, append) ->
        let sp = st.sp - 1 in
        if st.pos = Array.unsafe_get st.s_pos sp then (
          (* no progress: stop iterating, keep the state as committed *)
          st.sp <- sp;
          Array.unsafe_set st.s_tables sp SMap.empty;
          dispatch (ip + 1))
        else (
          if append then push_part st None st.value;
          Array.unsafe_set st.s_pos sp st.pos;
          Array.unsafe_set st.s_tables sp st.tables;
          Array.unsafe_set st.s_aux1 sp st.p_top;
          dispatch loop)
    | IBackCommit target ->
        st.sp <- st.sp - 1;
        let sp = st.sp in
        st.pos <- st.s_pos.(sp);
        st.depth <- st.s_depth.(sp);
        restore_tables st st.s_tables.(sp);
        st.s_tables.(sp) <- SMap.empty;
        rewind_frames st st.s_aux0.(sp) st.s_aux1.(sp);
        dispatch target
    | IFailTwice desc ->
        st.sp <- st.sp - 1;
        let sp = st.sp in
        st.pos <- st.s_pos.(sp);
        st.depth <- st.s_depth.(sp);
        restore_tables st st.s_tables.(sp);
        st.s_tables.(sp) <- SMap.empty;
        rewind_frames st st.s_aux0.(sp) st.s_aux1.(sp);
        record st.pos desc;
        fail ()
    | IFail desc ->
        (match desc with Some d -> record st.pos d | None -> ());
        fail ()
    | ICall (prod, lean) ->
        stats.Stats.invocations <- stats.Stats.invocations + 1;
        charge_fuel ();
        push_ret st ~tag:(if lean then tag_ret_lean else tag_ret) ~ret:(ip + 1)
          ~prod;
        dispatch (Array.unsafe_get entries prod)
    | ICallChunk (prod, slot, vslot, stateful, lean) ->
        stats.Stats.invocations <- stats.Stats.invocations + 1;
        charge_fuel ();
        (* Lean calls to a production whose slot carries a value read
           existing memo entries but never allocate a chunk (nor store
           on return) — a recognizer result has no value to store.
           Value-free slots ([vslot < 0]) have nothing to lose: lean
           calls to those run the whole memo protocol, allocation and
           stores included. The closure engine's recognizer entries
           make the identical decision off the same vmap, so the memo
           tables — and with them the budgets — keep evolving in
           lockstep. *)
        let lean = lean && vslot >= 0 in
        let a = st.arena in
        let c =
          if lean then Array.unsafe_get a.Memo_arena.idx st.pos
          else chunk_at st.pos
        in
        let base = if c >= 0 then (c * nslots) + slot else 0 in
        let hit =
          if c >= 0 then (
            let r = Array.unsafe_get a.Memo_arena.res base in
            if
              r <> 0
              && ((not stateful)
                 || Array.unsafe_get a.Memo_arena.vers base = st.version)
            then r
            else 0)
          else 0
        in
        if hit <> 0 then (
          stats.Stats.memo_hits <- stats.Stats.memo_hits + 1;
          look (st.pos + Array.unsafe_get a.Memo_arena.exts base - 1);
          if hit > 0 then (
            if not lean then
              st.value <-
                (if vslot >= 0 then
                   Array.unsafe_get a.Memo_arena.vals
                     ((c * t.nvslots) + vslot)
                 else Value.Unit);
            st.pos <- st.pos + hit - 1;
            dispatch (ip + 1))
          else fail ())
        else (
          stats.Stats.memo_misses <- stats.Stats.memo_misses + 1;
          push_ret st ~tag:(if lean then tag_ret_lean else tag_ret)
            ~ret:(ip + 1) ~prod;
          dispatch (Array.unsafe_get entries prod))
    | ICallTbl (prod, slot, stateful, lean) -> (
        stats.Stats.invocations <- stats.Stats.invocations + 1;
        charge_fuel ();
        let key = (st.pos * nslots) + slot in
        match Hashtbl.find_opt st.table_memo key with
        | Some (r, v, ver, ext) when (not stateful) || ver = st.version ->
            stats.Stats.memo_hits <- stats.Stats.memo_hits + 1;
            look (st.pos + ext - 1);
            if r >= 0 then (
              if not lean then st.value <- v;
              st.pos <- st.pos + r;
              dispatch (ip + 1))
            else fail ()
        | _ ->
            stats.Stats.memo_misses <- stats.Stats.memo_misses + 1;
            push_ret st ~tag:(if lean then tag_ret_lean else tag_ret)
              ~ret:(ip + 1) ~prod;
            dispatch (Array.unsafe_get entries prod))
    | IRet ->
        st.sp <- st.sp - 1;
        st.depth <- st.depth - 1;
        let sp = st.sp in
        let sc = Array.unsafe_get st.s_code sp in
        if sc land 7 = tag_ret then
          apply_shape (Array.unsafe_get st.s_aux1 sp)
            (Array.unsafe_get st.s_pos sp);
        look (Array.unsafe_get st.s_depth sp);
        dispatch (sc asr 3)
    | IRetChunk (slot, vslot) ->
        st.sp <- st.sp - 1;
        st.depth <- st.depth - 1;
        let sp = st.sp in
        let sc = Array.unsafe_get st.s_code sp in
        (if sc land 7 = tag_ret then (
           let pos0 = Array.unsafe_get st.s_pos sp in
           let v = shaped_value (Array.unsafe_get st.s_aux1 sp) pos0 in
           let a = st.arena in
           let c = Array.unsafe_get a.Memo_arena.idx pos0 in
           (if c >= 0 then (
              let base = (c * nslots) + slot in
              Array.unsafe_set a.Memo_arena.res base (st.pos - pos0 + 1);
              if vslot >= 0 then
                Array.unsafe_set a.Memo_arena.vals
                  ((c * t.nvslots) + vslot)
                  v;
              Array.unsafe_set a.Memo_arena.vers base
                (Array.unsafe_get st.s_aux0 sp);
              let ext = st.examined - pos0 + 1 in
              Array.unsafe_set a.Memo_arena.exts base ext;
              if ext > Array.unsafe_get a.Memo_arena.cmax c then
                Array.unsafe_set a.Memo_arena.cmax c ext;
              stats.Stats.memo_stores <- stats.Stats.memo_stores + 1)
            else
              (* the memo budget denied this position a chunk *)
              stats.Stats.memo_degraded <- stats.Stats.memo_degraded + 1);
           st.value <- v));
        look (Array.unsafe_get st.s_depth sp);
        dispatch (sc asr 3)
    | IRetTbl slot ->
        st.sp <- st.sp - 1;
        st.depth <- st.depth - 1;
        let sp = st.sp in
        let sc = Array.unsafe_get st.s_code sp in
        (if sc land 7 = tag_ret then (
           let pos0 = Array.unsafe_get st.s_pos sp in
           let v = shaped_value (Array.unsafe_get st.s_aux1 sp) pos0 in
           (if st.memo_bytes + Limits.table_entry_cost > st.memo_limit then
              stats.Stats.memo_degraded <- stats.Stats.memo_degraded + 1
            else (
              st.memo_bytes <- st.memo_bytes + Limits.table_entry_cost;
              Hashtbl.replace st.table_memo
                ((pos0 * nslots) + slot)
                ( st.pos - pos0,
                  v,
                  Array.unsafe_get st.s_aux0 sp,
                  st.examined - pos0 + 1 );
              stats.Stats.memo_stores <- stats.Stats.memo_stores + 1));
           st.value <- v));
        look (Array.unsafe_get st.s_depth sp);
        dispatch (sc asr 3)
    (* Observed twins. Each mirrors its plain form exactly — the same
       counter bumps, fuel charges, memo traffic and value writes, in
       the same order — with the profiler frame opened before the fuel
       charge (so a trip leaves the doomed invocation in the ring) and
       the exit or memo-hit event pushed where the plain form returns.
       The closure engine's per-production wrappers bracket at the same
       points, which is what makes event streams comparable. *)
    | IObsCall (prod, lean) ->
        Observe.enter o prod st.pos;
        stats.Stats.invocations <- stats.Stats.invocations + 1;
        charge_fuel ();
        push_ret st
          ~tag:(if lean then tag_ret_lean_obs else tag_ret_obs)
          ~ret:(ip + 1) ~prod;
        dispatch (Array.unsafe_get entries prod)
    | IObsCallChunk (prod, slot, vslot, stateful, lean) ->
        let pos0 = st.pos in
        Observe.enter o prod pos0;
        stats.Stats.invocations <- stats.Stats.invocations + 1;
        charge_fuel ();
        (* value-free slots take the storing path even when called
           lean — see [ICallChunk] *)
        let lean = lean && vslot >= 0 in
        let a = st.arena in
        let c =
          if lean then Array.unsafe_get a.Memo_arena.idx pos0
          else chunk_at pos0
        in
        let base = if c >= 0 then (c * nslots) + slot else 0 in
        let hit =
          if c >= 0 then (
            let r = Array.unsafe_get a.Memo_arena.res base in
            if
              r <> 0
              && ((not stateful)
                 || Array.unsafe_get a.Memo_arena.vers base = st.version)
            then r
            else 0)
          else 0
        in
        if hit <> 0 then (
          stats.Stats.memo_hits <- stats.Stats.memo_hits + 1;
          look (pos0 + Array.unsafe_get a.Memo_arena.exts base - 1);
          if hit > 0 then (
            (if not lean then
               st.value <-
                 (if vslot >= 0 then
                    Array.unsafe_get a.Memo_arena.vals
                      ((c * t.nvslots) + vslot)
                  else Value.Unit));
            st.pos <- pos0 + hit - 1;
            Observe.memo_hit o prod pos0 ~stop:st.pos;
            dispatch (ip + 1))
          else (
            Observe.memo_hit o prod pos0 ~stop:(-1);
            fail ()))
        else (
          stats.Stats.memo_misses <- stats.Stats.memo_misses + 1;
          push_ret st
            ~tag:(if lean then tag_ret_lean_obs else tag_ret_obs)
            ~ret:(ip + 1) ~prod;
          dispatch (Array.unsafe_get entries prod))
    | IObsCallTbl (prod, slot, stateful, lean) -> (
        let pos0 = st.pos in
        Observe.enter o prod pos0;
        stats.Stats.invocations <- stats.Stats.invocations + 1;
        charge_fuel ();
        let key = (pos0 * nslots) + slot in
        match Hashtbl.find_opt st.table_memo key with
        | Some (r, v, ver, ext) when (not stateful) || ver = st.version ->
            stats.Stats.memo_hits <- stats.Stats.memo_hits + 1;
            look (pos0 + ext - 1);
            if r >= 0 then (
              if not lean then st.value <- v;
              st.pos <- pos0 + r;
              Observe.memo_hit o prod pos0 ~stop:st.pos;
              dispatch (ip + 1))
            else (
              Observe.memo_hit o prod pos0 ~stop:(-1);
              fail ())
        | _ ->
            stats.Stats.memo_misses <- stats.Stats.memo_misses + 1;
            push_ret st
              ~tag:(if lean then tag_ret_lean_obs else tag_ret_obs)
              ~ret:(ip + 1) ~prod;
            dispatch (Array.unsafe_get entries prod))
    | IObsRet ->
        st.sp <- st.sp - 1;
        st.depth <- st.depth - 1;
        let sp = st.sp in
        let sc = Array.unsafe_get st.s_code sp in
        let prod = Array.unsafe_get st.s_aux1 sp in
        let pos0 = Array.unsafe_get st.s_pos sp in
        if sc land 7 = tag_ret_obs then apply_shape prod pos0;
        look (Array.unsafe_get st.s_depth sp);
        Observe.exit o prod pos0 ~stop:st.pos;
        dispatch (sc asr 3)
    | IObsRetChunk (slot, vslot) ->
        st.sp <- st.sp - 1;
        st.depth <- st.depth - 1;
        let sp = st.sp in
        let sc = Array.unsafe_get st.s_code sp in
        let prod = Array.unsafe_get st.s_aux1 sp in
        let pos0 = Array.unsafe_get st.s_pos sp in
        (if sc land 7 = tag_ret_obs then (
           let v = shaped_value prod pos0 in
           let a = st.arena in
           let c = Array.unsafe_get a.Memo_arena.idx pos0 in
           (if c >= 0 then (
              let base = (c * nslots) + slot in
              Array.unsafe_set a.Memo_arena.res base (st.pos - pos0 + 1);
              if vslot >= 0 then
                Array.unsafe_set a.Memo_arena.vals
                  ((c * t.nvslots) + vslot)
                  v;
              Array.unsafe_set a.Memo_arena.vers base
                (Array.unsafe_get st.s_aux0 sp);
              let ext = st.examined - pos0 + 1 in
              Array.unsafe_set a.Memo_arena.exts base ext;
              if ext > Array.unsafe_get a.Memo_arena.cmax c then
                Array.unsafe_set a.Memo_arena.cmax c ext;
              stats.Stats.memo_stores <- stats.Stats.memo_stores + 1)
            else stats.Stats.memo_degraded <- stats.Stats.memo_degraded + 1);
           st.value <- v));
        look (Array.unsafe_get st.s_depth sp);
        Observe.exit o prod pos0 ~stop:st.pos;
        dispatch (sc asr 3)
    | IObsRetTbl slot ->
        st.sp <- st.sp - 1;
        st.depth <- st.depth - 1;
        let sp = st.sp in
        let sc = Array.unsafe_get st.s_code sp in
        let prod = Array.unsafe_get st.s_aux1 sp in
        let pos0 = Array.unsafe_get st.s_pos sp in
        (if sc land 7 = tag_ret_obs then (
           let v = shaped_value prod pos0 in
           (if st.memo_bytes + Limits.table_entry_cost > st.memo_limit then
              stats.Stats.memo_degraded <- stats.Stats.memo_degraded + 1
            else (
              st.memo_bytes <- st.memo_bytes + Limits.table_entry_cost;
              Hashtbl.replace st.table_memo
                ((pos0 * nslots) + slot)
                ( st.pos - pos0,
                  v,
                  Array.unsafe_get st.s_aux0 sp,
                  st.examined - pos0 + 1 );
              stats.Stats.memo_stores <- stats.Stats.memo_stores + 1));
           st.value <- v));
        look (Array.unsafe_get st.s_depth sp);
        Observe.exit o prod pos0 ~stop:st.pos;
        dispatch (sc asr 3)
    | IObsEnter prod ->
        Observe.enter o prod st.pos;
        push_obs st prod;
        dispatch (ip + 1)
    | IObsLeave ->
        st.sp <- st.sp - 1;
        let sp = st.sp in
        Observe.exit o
          (Array.unsafe_get st.s_aux1 sp)
          (Array.unsafe_get st.s_pos sp)
          ~stop:st.pos;
        dispatch (ip + 1)
    | IObsAlt (arm, matched) ->
        if matched then Observe.alt_matched o arm else Observe.alt_tried o arm;
        dispatch (ip + 1)
    | IOptSet (bm, desc, mode) ->
        look st.pos;
        if st.pos < len && bitmap_mem bm (Input.unsafe_get inp st.pos) then (
          (match mode with
          | 0 -> ()
          | 1 -> st.value <- Value.Unit
          | _ -> st.value <- Value.Chr (Input.unsafe_get inp st.pos));
          st.pos <- st.pos + 1;
          dispatch (ip + 1))
        else (
          record st.pos desc;
          if mode <> 0 then st.value <- Value.Unit;
          dispatch (ip + 1))
    | IHalt -> st.pos
    | IGovern ->
        (* Inlined production body: charge exactly what an ICall to the
           un-inlined production would have charged, so fuel and depth
           accounting agree with the closure engine instruction for
           instruction. *)
        stats.Stats.invocations <- stats.Stats.invocations + 1;
        charge_fuel ();
        if st.depth >= st.max_depth then (
          st.tripped <- Some (Limits.Depth, st.pos);
          raise Exhausted);
        st.depth <- st.depth + 1;
        dispatch (ip + 1)
    | ILeave ->
        st.depth <- st.depth - 1;
        dispatch (ip + 1)
    | ISetUnit ->
        st.value <- Value.Unit;
        dispatch (ip + 1)
    | IPushMark ->
        push_frame st;
        dispatch (ip + 1)
    | IAppend label ->
        (match (label, st.value) with
        | None, Value.Unit -> ()
        | _ -> push_part st label st.value);
        dispatch (ip + 1)
    | IAppendSplice ->
        List.iter (fun (l, v) -> push_part st l v) (tail_parts st.value);
        dispatch (ip + 1)
    | IAppendList ->
        push_part st None st.value;
        dispatch (ip + 1)
    | IPopSeq ->
        st.fp <- st.fp - 1;
        let fp = st.fp in
        st.value <-
          Value.seq
            ~span:(Span.v ~start_:st.f_start.(fp) ~stop:st.pos)
            (parts_above st st.f_base.(fp));
        dispatch (ip + 1)
    | IPopTail ->
        st.fp <- st.fp - 1;
        let fp = st.fp in
        st.value <-
          Value.node
            ~span:(Span.v ~start_:st.f_start.(fp) ~stop:st.pos)
            tail_name
            (parts_above st st.f_base.(fp));
        dispatch (ip + 1)
    | IPopTail1 label ->
        st.fp <- st.fp - 1;
        let fp = st.fp in
        st.value <-
          Value.node
            ~span:(Span.v ~start_:st.f_start.(fp) ~stop:st.pos)
            tail_name
            (match (label, st.value) with
            | None, Value.Unit -> []
            | _ -> [ (label, st.value) ]);
        dispatch (ip + 1)
    | IPopList ->
        st.fp <- st.fp - 1;
        let fp = st.fp in
        st.value <- Value.List (List.map snd (parts_above st st.f_base.(fp)));
        dispatch (ip + 1)
    | IPopToken ->
        st.fp <- st.fp - 1;
        let fp = st.fp in
        st.value <-
          Value.Str (Input.sub_string inp st.f_start.(fp) (st.pos - st.f_start.(fp)));
        dispatch (ip + 1)
    | IPopNode name ->
        st.fp <- st.fp - 1;
        let fp = st.fp in
        st.value <-
          Value.node
            ~span:(Span.v ~start_:st.f_start.(fp) ~stop:st.pos)
            name
            (Value.components st.value);
        dispatch (ip + 1)
    | IWrapBind label ->
        st.value <- Value.seq [ (Some label, st.value) ];
        dispatch (ip + 1)
    | ISpliceCollapse ->
        st.value <- Value.seq (tail_parts st.value);
        dispatch (ip + 1)
    | IRecord table ->
        st.fp <- st.fp - 1;
        let start = st.f_start.(st.fp) in
        let text = Input.sub_string inp start (st.pos - start) in
        let set =
          Option.value (SMap.find_opt table st.tables) ~default:SSet.empty
        in
        st.tables <- SMap.add table (SSet.add text set) st.tables;
        st.version <- st.version + 1;
        dispatch (ip + 1)
    | IMember (table, positive, desc) ->
        st.fp <- st.fp - 1;
        let start = st.f_start.(st.fp) in
        let text = Input.sub_string inp start (st.pos - start) in
        let set =
          Option.value (SMap.find_opt table st.tables) ~default:SSet.empty
        in
        if SSet.mem text set = positive then dispatch (ip + 1)
        else (
          record start desc;
          fail ())
  in
  dispatch start_ip

(* --- running -------------------------------------------------------------- *)

type outcome = {
  result : (Value.t, Parse_error.t) result;
  stats : Stats.t;
  consumed : int;
}

(* A persistent memo store for incremental sessions; mirrors the
   closure engine's [cstore] field for field. *)
type store = {
  v_arena : Memo_arena.t;  (* owned chunk storage, recycled across reparses *)
  v_table : (int, int * Value.t * int * int) Hashtbl.t;
  mutable v_bytes : int;
  mutable v_len : int;  (* input length of the entries; -1 = empty *)
  mutable v_version : int;  (* version counter at the end of the last run *)
}

let new_store (t : t) =
  {
    v_arena = Memo_arena.create ~nslots:t.nslots ~vmap:t.vmap;
    v_table = Hashtbl.create 256;
    v_bytes = 0;
    v_len = -1;
    v_version = 0;
  }

(* Apply an edit to the store — the exact algorithm of the closure
   engine's [edit_cstore]: entries that only examined bytes strictly
   before the damage are kept, entries at or past its end are relocated
   by the length delta (a pointer move, thanks to relative offsets),
   everything else is dropped. Returns (surviving, relocated) counts. *)
let edit_store t (s : store) ~start ~old_len ~new_len =
  let reused = ref 0 and relocated = ref 0 in
  if s.v_len >= 0 then (
    if start < 0 || old_len < 0 || new_len < 0 || start + old_len > s.v_len
    then invalid_arg "Vm.edit_store: edit out of bounds";
    let delta = new_len - old_len in
    (match t.cfg.Config.memo with
    | Config.No_memo -> ()
    | Config.Chunked ->
        let r, l = Memo_arena.edit s.v_arena ~start ~old_len ~new_len in
        reused := r;
        relocated := l;
        s.v_bytes <- r * Limits.chunk_cost ~value_slots:t.nvslots t.nslots
    | Config.Hashtable ->
        if t.nslots > 0 then (
          let entries =
            Hashtbl.fold (fun k e acc -> (k, e) :: acc) s.v_table []
          in
          Hashtbl.reset s.v_table;
          let dmg = start + old_len in
          List.iter
            (fun (key, ((_, _, _, ext) as e)) ->
              let pos = key / t.nslots in
              if pos < start && pos + ext <= start then (
                Hashtbl.replace s.v_table key e;
                incr reused)
              else if pos >= dmg then (
                Hashtbl.replace s.v_table (key + (delta * t.nslots)) e;
                incr reused;
                if delta <> 0 then incr relocated))
            entries;
          s.v_bytes <- Hashtbl.length s.v_table * Limits.table_entry_cost));
    s.v_len <- s.v_len + delta);
  (!reused, !relocated)

(* One preallocated set of run buffers, parked on the program between
   runs ([t.pool]); taking it empties the pool so a reentrant run
   simply allocates a fresh set. *)
let fresh_scratch (t : t) =
  {
    sc_arena = Memo_arena.create ~nslots:t.nslots ~vmap:t.vmap;
    sc_table = Hashtbl.create 1024;
    sc_code = Array.make 256 0;
    sc_pos = Array.make 256 0;
    sc_aux0 = Array.make 256 0;
    sc_aux1 = Array.make 256 0;
    sc_depth = Array.make 256 0;
    sc_tables = Array.make 256 SMap.empty;
    sc_fstart = Array.make 64 0;
    sc_fbase = Array.make 64 0;
    sc_plabel = Array.make 256 None;
    sc_pvalue = Array.make 256 Value.Unit;
  }

let take_scratch (t : t) =
  match t.pool with
  | Some sc ->
      t.pool <- None;
      sc
  | None -> fresh_scratch t

(* The stack arrays are replaced when they grow; write the current
   (largest) ones back so the next run keeps the growth. *)
let stash_stacks (st : st) sc =
  sc.sc_code <- st.s_code;
  sc.sc_pos <- st.s_pos;
  sc.sc_aux0 <- st.s_aux0;
  sc.sc_aux1 <- st.s_aux1;
  sc.sc_depth <- st.s_depth;
  sc.sc_tables <- st.s_tables;
  sc.sc_fstart <- st.f_start;
  sc.sc_fbase <- st.f_base;
  sc.sc_plabel <- st.p_label;
  sc.sc_pvalue <- st.p_value

(* Park the scratch for the next run, dropping every value reference it
   accumulated so pooled buffers never keep parse results alive.
   [own_memo] says the run used the scratch's own memo storage (no
   persistent store): its arena and table must be released too. *)
let release_scratch (t : t) (st : st) sc ~own_memo =
  stash_stacks st sc;
  Array.fill sc.sc_tables 0 (Array.length sc.sc_tables) SMap.empty;
  Array.fill sc.sc_plabel 0 (Array.length sc.sc_plabel) None;
  Array.fill sc.sc_pvalue 0 (Array.length sc.sc_pvalue) Value.Unit;
  if own_memo then (
    Memo_arena.release_values sc.sc_arena;
    (* clear, not reset: keep the grown bucket array *)
    Hashtbl.clear sc.sc_table);
  t.pool <- Some sc

let make_st t ~trace ?store ~scratch:sc input =
  let limits = t.cfg.Config.limits in
  let len = Input.length input in
  (* Sync a persistent store to this input: entries only carry over when
     the store was edited to exactly this length; any mismatch resets
     it rather than risking stale hits. *)
  (match store with
  | None -> ()
  | Some s ->
      let usable =
        s.v_len = len
        &&
        match t.cfg.Config.memo with
        | Config.Chunked -> s.v_arena.Memo_arena.idx_len = len + 1
        | _ -> true
      in
      if not usable then (
        Hashtbl.reset s.v_table;
        (match t.cfg.Config.memo with
        | Config.Chunked -> Memo_arena.reset s.v_arena ~len
        | _ -> ());
        s.v_bytes <- 0;
        s.v_len <- len));
  {
    input;
    len;
    trace;
    pos = 0;
    value = Value.Unit;
    fail_trace = Expected.create ();
    tables = SMap.empty;
    version = (match store with Some s -> s.v_version + 1 | None -> 0);
    stats = Stats.create ();
    fuel = limits.Limits.fuel;
    depth = 0;
    max_depth = limits.Limits.max_depth;
    memo_limit = limits.Limits.max_memo_bytes;
    memo_bytes = (match store with Some s -> s.v_bytes | None -> 0);
    tripped = None;
    quiet = 0;
    table_memo =
      (match store with
      | Some s -> s.v_table
      | None ->
          (* cleared here, not at release, so the traced replay pass
             (which reuses the scratch) also starts cold *)
          if t.cfg.Config.memo = Config.Hashtable then
            Hashtbl.clear sc.sc_table;
          sc.sc_table);
    arena =
      (match store with
      | Some s -> s.v_arena
      | None ->
          if t.cfg.Config.memo = Config.Chunked then
            Memo_arena.reset sc.sc_arena ~len;
          sc.sc_arena);
    examined = -1;
    s_code = sc.sc_code;
    s_pos = sc.sc_pos;
    s_aux0 = sc.sc_aux0;
    s_aux1 = sc.sc_aux1;
    s_depth = sc.sc_depth;
    s_tables = sc.sc_tables;
    sp = 0;
    f_start = sc.sc_fstart;
    f_base = sc.sc_fbase;
    fp = 0;
    p_label = sc.sc_plabel;
    p_value = sc.sc_pvalue;
    p_top = 0;
  }

let resolve_start t start =
  match start with
  | None -> Hashtbl.find t.ids (Grammar.start t.gram)
  | Some name -> (
      match Hashtbl.find_opt t.ids name with
      | Some id -> id
      | None ->
          raise
            (Diagnostic.Fail (Diagnostic.errorf "no production named %S" name)))

(* Run epilogue for an observed program: the govern-trip event (pushed
   here rather than at the raise so [st.tripped]'s clamped position is
   what the ring reports) and profiler-frame cleanup. Off every budget
   by construction — the ring is preallocated. *)
let observe_epilogue (t : t) (st : st) =
  match t.obs with
  | None -> ()
  | Some o ->
      (match st.tripped with
      | Some (which, at) -> Observe.trip o which at
      | None -> ());
      Observe.finalize o

let run_input t ?start ?(require_eof = true) input =
  let start_id = resolve_start t start in
  let limits = t.cfg.Config.limits in
  let observing = t.obs <> None in
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
    (* Resource trips abort the whole run: backtracking into an
       alternative would keep spending budget already known to be
       exhausted. [Stack_overflow]/[Out_of_memory] are last-resort
       backstops for unlimited configs. *)
    let exec_guarded st =
      try exec t st t.stubs.(start_id) with
      | Exhausted -> -1
      | Stack_overflow ->
          st.tripped <-
            Some (Limits.Depth, max (Expected.farthest st.fail_trace) 0);
          -1
      | Out_of_memory ->
          st.tripped <-
            Some (Limits.Memory, max (Expected.farthest st.fail_trace) 0);
          -1
    in
    (* Speculative first pass with no expected-set recording; replay with
       recording on only when the outcome needs a trace to report. Trips
       are deterministic, so a tripped run re-trips identically on the
       replay pass (which starts from a fresh budget). An observed run
       instead records in a single pass — a replay would push every
       event twice into the ring and double the profile. *)
    let sc = take_scratch t in
    let st = make_st t ~trace:observing ~scratch:sc input in
    let p = exec_guarded st in
    let st, p =
      if (not observing) && (p < 0 || (require_eof && p < st.len)) then (
        (* the replay shares the scratch: carry any stack growth over,
           and [make_st] re-colds the memo so the rerun is exact *)
        stash_stacks st sc;
        let st = make_st t ~trace:true ~scratch:sc input in
        let p = exec_guarded st in
        (st, p))
      else (st, p)
    in
    release_scratch t st sc ~own_memo:true;
    observe_epilogue t st;
    (* clamp: a fuel trip leaves st.fuel at -1; report the budget, not
       budget + 1 *)
    st.stats.Stats.fuel_used <- limits.Limits.fuel - max st.fuel 0;
    let result =
      match st.tripped with
      | Some (which, at) -> Error (Expected.exhausted st.fail_trace ~which ~at)
      | None ->
          Expected.result st.fail_trace ~len:st.len ~require_eof ~stop:p
            st.value
    in
    { result; stats = st.stats; consumed = p }

(* Run against a persistent store: one untraced pass that reads and
   refills the store's memo structures. Expected sets are not
   reconstructed here — an incremental failure's trace would be missing
   the entries hidden behind memo hits, so [Rats.Session] re-parses cold
   for exact error parity instead of replaying through the store. *)
let run_store_input t (s : store) ?start ?(require_eof = true) input =
  let start_id = resolve_start t start in
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
  else (
    let sc = take_scratch t in
    let st = make_st t ~trace:(t.obs <> None) ~store:s ~scratch:sc input in
    let p =
      try exec t st t.stubs.(start_id) with
      | Exhausted -> -1
      | Stack_overflow ->
          st.tripped <-
            Some (Limits.Depth, max (Expected.farthest st.fail_trace) 0);
          -1
      | Out_of_memory ->
          st.tripped <-
            Some (Limits.Memory, max (Expected.farthest st.fail_trace) 0);
          -1
    in
    release_scratch t st sc ~own_memo:false;
    observe_epilogue t st;
    st.stats.Stats.fuel_used <- limits.Limits.fuel - max st.fuel 0;
    s.v_bytes <- st.memo_bytes;
    s.v_version <- st.version;
    let result =
      match st.tripped with
      | Some (which, at) -> Error (Expected.exhausted st.fail_trace ~which ~at)
      | None ->
          Expected.result st.fail_trace ~len:st.len ~require_eof ~stop:p
            st.value
    in
    { result; stats = st.stats; consumed = p })

let run t ?start ?require_eof input =
  run_input t ?start ?require_eof (Input.of_string input)

let run_store t s ?start ?require_eof input =
  run_store_input t s ?start ?require_eof (Input.of_string input)

let parse t ?start input = (run t ?start input).result
let accepts t ?start input = Result.is_ok (parse t ?start input)

(* --- disassembly ----------------------------------------------------------- *)

let disassemble t =
  let buf = Buffer.create 4096 in
  let entry_names = Hashtbl.create 16 in
  Array.iteri
    (fun i addr -> Hashtbl.replace entry_names addr t.names.(i))
    t.entries;
  let stub_names = Hashtbl.create 16 in
  Array.iteri
    (fun i addr -> Hashtbl.replace stub_names addr t.names.(i))
    t.stubs;
  let bm_desc bm =
    let n = ref 0 in
    Bytes.iter (fun c -> if c <> '\000' then incr n) bm;
    Printf.sprintf "<%d bytes>" !n
  in
  Array.iteri
    (fun ip instr ->
      (match Hashtbl.find_opt stub_names ip with
      | Some name -> Buffer.add_string buf (Printf.sprintf "; start %s\n" name)
      | None -> ());
      (match Hashtbl.find_opt entry_names ip with
      | Some name -> Buffer.add_string buf (Printf.sprintf "%s:\n" name)
      | None -> ());
      let line =
        match instr with
        | IChar (c, _, u) ->
            Printf.sprintf "char %s%s" (Pretty.quote_char c)
              (if u then "" else " (lean)")
        | IStr (s, _, u) ->
            Printf.sprintf "str %s%s" (Pretty.quote_string s)
              (if u then "" else " (lean)")
        | ISet (bm, desc, v) ->
            Printf.sprintf "set %s %s%s" desc (bm_desc bm)
              (if v then "" else " (lean)")
        | IAny (_, v) -> if v then "any" else "any (lean)"
        | ITestSet (_, tgt, desc) -> Printf.sprintf "test %s else %d" desc tgt
        | IDispatch (_, targets, eof) ->
            Printf.sprintf "dispatch [%s] eof %d"
              (String.concat " "
                 (Array.to_list (Array.map string_of_int targets)))
              eof
        | ISpan (bm, desc) -> Printf.sprintf "span %s %s" desc (bm_desc bm)
        | ITestNot (_, desc) -> Printf.sprintf "test-not %s" desc
        | ITestAnd (_, desc) -> Printf.sprintf "test-and %s" desc
        | IQuiet on -> if on then "quiet+" else "quiet-"
        | IJump tgt -> Printf.sprintf "jump %d" tgt
        | IChoice (h, alt) ->
            Printf.sprintf "choice %d%s" h (if alt then " (alt)" else "")
        | ICommit tgt -> Printf.sprintf "commit %d" tgt
        | IStarStep (l, ap) ->
            Printf.sprintf "star-step %d%s" l (if ap then " (collect)" else "")
        | IBackCommit tgt -> Printf.sprintf "back-commit %d" tgt
        | IFailTwice _ -> "fail-twice"
        | IFail (Some d) -> Printf.sprintf "fail %S" d
        | IFail None -> "fail"
        | ICall (p, _) -> Printf.sprintf "call %s" t.names.(p)
        | ICallChunk (p, slot, _, _, _) | ICallTbl (p, slot, _, _) ->
            Printf.sprintf "call %s [slot %d]" t.names.(p) slot
        | IRet -> "ret"
        | IRetChunk (slot, _) | IRetTbl slot ->
            Printf.sprintf "ret [slot %d]" slot
        | IObsCall (p, _) -> Printf.sprintf "obs-call %s" t.names.(p)
        | IObsCallChunk (p, slot, _, _, _) | IObsCallTbl (p, slot, _, _) ->
            Printf.sprintf "obs-call %s [slot %d]" t.names.(p) slot
        | IObsRet -> "obs-ret"
        | IObsRetChunk (slot, _) | IObsRetTbl slot ->
            Printf.sprintf "obs-ret [slot %d]" slot
        | IObsEnter p -> Printf.sprintf "obs-enter %s" t.names.(p)
        | IObsLeave -> "obs-leave"
        | IObsAlt (a, m) ->
            Printf.sprintf "obs-alt %d %s" a (if m then "matched" else "tried")
        | IOptSet (_, desc, _) -> Printf.sprintf "opt %s" desc
        | IHalt -> "halt"
        | IGovern -> "govern"
        | ILeave -> "leave"
        | ISetUnit -> "set-unit"
        | IPushMark -> "push-mark"
        | IAppend None -> "append"
        | IAppend (Some l) -> Printf.sprintf "append %s:" l
        | IAppendSplice -> "append-splice"
        | IAppendList -> "append-list"
        | IPopSeq -> "pop-seq"
        | IPopTail -> "pop-tail"
        | IPopTail1 None -> "pop-tail1"
        | IPopTail1 (Some l) -> Printf.sprintf "pop-tail1 %s:" l
        | IPopList -> "pop-list"
        | IPopToken -> "pop-token"
        | IPopNode n -> Printf.sprintf "pop-node %s" n
        | IWrapBind l -> Printf.sprintf "wrap-bind %s" l
        | ISpliceCollapse -> "splice-collapse"
        | IRecord tbl -> Printf.sprintf "record %s" tbl
        | IMember (tbl, pos, _) ->
            Printf.sprintf "member %s%s" (if pos then "" else "!") tbl
      in
      Buffer.add_string buf (Printf.sprintf "%5d  %s\n" ip line))
    t.code;
  Buffer.contents buf
