open Rats_support

type t =
  | Unit
  | Chr of char
  | Str of string
  | List of t list
  | Node of {
      name : string;
      children : (string option * t) list;
      start_ : int;
      stop : int;
    }

let node_at ~start_ ~stop name children = Node { name; children; start_; stop }

let node ?(span = Span.dummy) name children =
  Node { name; children; start_ = Span.start span; stop = Span.stop span }

let span = function
  | Node n -> Span.v ~start_:n.start_ ~stop:n.stop
  | Unit | Chr _ | Str _ | List _ -> Span.dummy

let seq_name = "#seq"

let empty_list = List []
let empty_part = (None, empty_list)

(* Unlabeled [Unit] parts carry nothing. The engines never collect
   them, so the common case returns [parts] itself instead of a copy. *)
let keep = function None, Unit -> false | _ -> true

let drop_units parts =
  if List.for_all keep parts then parts else List.filter keep parts

let seq_at ~start_ ~stop parts =
  match drop_units parts with
  | [] -> Unit
  | [ (None, v) ] -> v
  | parts -> Node { name = seq_name; children = parts; start_; stop }

let seq ?(span = Span.dummy) parts =
  seq_at ~start_:(Span.start span) ~stop:(Span.stop span) parts

let bind label v =
  Node { name = seq_name; children = [ (label, v) ]; start_ = 0; stop = 0 }

let is_unit = function Unit -> true | _ -> false

let components = function
  | Unit -> []
  | Node n when n.name = seq_name -> n.children
  | v -> [ (None, v) ]

let node_of_parts_at ~start_ ~stop name parts =
  match drop_units parts with
  | [ (None, v) ] -> Node { name; children = components v; start_; stop }
  | parts -> Node { name; children = parts; start_; stop }

let child v l =
  match v with
  | Node n ->
      List.find_map
        (fun (lbl, c) -> if lbl = Some l then Some c else None)
        n.children
  | _ -> None

let child_exn v l =
  match child v l with
  | Some c -> c
  | None -> invalid_arg (Printf.sprintf "Value.child_exn: no child %S" l)

let nth_child v i =
  match v with
  | Node n -> ( match List.nth_opt n.children i with
    | Some (_, c) -> Some c
    | None -> None)
  | _ -> None

let name = function Node n -> Some n.name | _ -> None

let hex = "0123456789abcdef"

let add_escaped_char b c =
  match c with
  | '"' -> Buffer.add_string b "\\\""
  | '\\' -> Buffer.add_string b "\\\\"
  | '\n' -> Buffer.add_string b "\\n"
  | '\t' -> Buffer.add_string b "\\t"
  | '\r' -> Buffer.add_string b "\\r"
  | c when Char.code c < 32 || Char.code c > 126 ->
      Buffer.add_string b "\\x";
      Buffer.add_char b hex.[Char.code c lsr 4];
      Buffer.add_char b hex.[Char.code c land 15]
  | c -> Buffer.add_char b c

let add_escaped b s = String.iter (add_escaped_char b) s

let escape s =
  let b = Buffer.create (String.length s + 8) in
  add_escaped b s;
  Buffer.contents b

(* Bytes [add_escaped] writes for [c]. *)
let escaped_len = function
  | '"' | '\\' | '\n' | '\t' | '\r' -> 2
  | c when Char.code c < 32 || Char.code c > 126 -> 4
  | _ -> 1

let rec pp ppf = function
  | Unit -> Format.pp_print_string ppf "()"
  | Chr c -> Format.fprintf ppf "'%s'" (escape (String.make 1 c))
  | Str s -> Format.fprintf ppf "\"%s\"" (escape s)
  | List vs ->
      Format.fprintf ppf "@[<hv 1>[%a]@]"
        (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf "@ ") pp)
        vs
  | Node n ->
      Format.fprintf ppf "@[<hv 2>(%s%a)@]" n.name pp_children n.children

and pp_children ppf children =
  List.iter
    (fun (lbl, v) ->
      match lbl with
      | None -> Format.fprintf ppf "@ %a" pp v
      | Some l -> Format.fprintf ppf "@ %s:%a" l pp v)
    children

(* --- direct renderer ------------------------------------------------------

   [to_string] and [output] write the layout [pp] produces through
   [Format.asprintf] without [Format], one line at a time. The contract
   is byte identity with the [Format] printer (margin 78, maximum
   indentation 68), which stays the oracle the tests compare against:

   - a list is an [hv 1] box and a node an [hv 2] box; a box either fits
     and prints flat, with a space at every break, or breaks every break
     onto a new line indented to its opening column plus its offset,
     capped at 68;
   - a box opened past column 68 inside a broken box whose break
     indentation is left of the cursor is first moved to a new line at
     that indentation (Format's "rejected on the left" forced break);
   - a box fits iff its flat width [w] satisfies
     [w < space_left_before && w <= space_left_after], where the spaces
     are the columns left on the line before and after that forced
     break. Format queues the box and fixes its size against the space
     left where it was queued: it gives up on a box whose pending width
     reaches that space (the strict test) before the forced break can
     move it, and otherwise compares the known size with the space left
     after the move (the non-strict test).

   Widths are measured with a cap, so deciding a box costs at most one
   line of lookahead, and a box that fits is written flat with no
   further decisions. *)

(* [width lim acc v] is [acc] plus the flat width of [v] when that sum
   is at most [lim]; otherwise some value above [lim] (the walk stops
   early). *)
let rec width lim acc v =
  if acc > lim then acc
  else
    match v with
    | Unit -> acc + 2
    | Chr c -> acc + 2 + escaped_len c
    | Str s -> str_width lim s (acc + 2) 0
    | List [] -> acc + 2
    | List (v :: vs) -> list_width lim (width lim (acc + 1) v) vs
    | Node n ->
        children_width lim (acc + 1 + String.length n.name) n.children

and str_width lim s acc i =
  if i >= String.length s || acc > lim then acc
  else str_width lim s (acc + escaped_len (String.unsafe_get s i)) (i + 1)

and list_width lim acc = function
  | [] -> acc + 1
  | v :: vs ->
      if acc > lim then acc else list_width lim (width lim (acc + 1) v) vs

and children_width lim acc = function
  | [] -> acc + 1
  | (lbl, v) :: cs ->
      if acc > lim then acc
      else
        let acc =
          match lbl with
          | None -> acc + 1
          | Some l -> acc + 2 + String.length l
        in
        children_width lim (width lim acc v) cs

let rec flat b = function
  | Unit -> Buffer.add_string b "()"
  | Chr c ->
      Buffer.add_char b '\'';
      add_escaped_char b c;
      Buffer.add_char b '\''
  | Str s ->
      Buffer.add_char b '"';
      add_escaped b s;
      Buffer.add_char b '"'
  | List vs ->
      Buffer.add_char b '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char b ' ';
          flat b v)
        vs;
      Buffer.add_char b ']'
  | Node n ->
      Buffer.add_char b '(';
      Buffer.add_string b n.name;
      List.iter
        (fun (lbl, v) ->
          Buffer.add_char b ' ';
          add_label b lbl;
          flat b v)
        n.children;
      Buffer.add_char b ')'

and add_label b = function
  | None -> ()
  | Some l ->
      Buffer.add_string b l;
      Buffer.add_char b ':'

let margin = 78
let max_indent = 68

(* The writer holds the current line only, in a buffer it reuses. At
   each break it hands the finished line, newline included, to [sink]
   and starts the next line in the same buffer, so a render keeps one
   line of output in memory whatever the size of the tree. *)
type writer = { b : Buffer.t; sink : Buffer.t -> unit }

let column w = Buffer.length w.b

let spaces = String.make max_indent ' '

let newline w indent =
  Buffer.add_char w.b '\n';
  w.sink w.b;
  Buffer.clear w.b;
  Buffer.add_substring w.b spaces 0 (min max_indent indent)

(* [render w encl v] writes [v] inside a broken box (or at top level)
   whose break indentation, uncapped, is [encl]. *)
let rec render w encl v =
  match v with
  | Unit | Chr _ | Str _ -> flat w.b v
  | List _ | Node _ ->
      let before = margin - column w in
      if column w > max_indent && column w > encl then newline w encl;
      let after = margin - column w in
      let wd = width after 0 v in
      if wd < before && wd <= after then flat w.b v else broken w v

and broken w v =
  match v with
  | List vs ->
      let ind = column w + 1 in
      Buffer.add_char w.b '[';
      List.iteri
        (fun i v ->
          if i > 0 then newline w ind;
          render w ind v)
        vs;
      Buffer.add_char w.b ']'
  | Node n ->
      let ind = column w + 2 in
      Buffer.add_char w.b '(';
      Buffer.add_string w.b n.name;
      List.iter
        (fun (lbl, v) ->
          newline w ind;
          add_label w.b lbl;
          render w ind v)
        n.children;
      Buffer.add_char w.b ')'
  | Unit | Chr _ | Str _ -> flat w.b v

(* A line is rarely wider than the margin; a longer leaf grows the
   buffer once. *)
let write sink v =
  let w = { b = Buffer.create 256; sink } in
  render w 0 v;
  sink w.b

let to_string v =
  let out = Buffer.create 1024 in
  write (Buffer.add_buffer out) v;
  Buffer.contents out

let output oc v = write (Buffer.output_buffer oc) v

let rec equal a b =
  match (a, b) with
  | Unit, Unit -> true
  | Chr a, Chr b -> a = b
  | Str a, Str b -> String.equal a b
  | List a, List b -> List.length a = List.length b && List.for_all2 equal a b
  | Node a, Node b ->
      String.equal a.name b.name
      && List.length a.children = List.length b.children
      && List.for_all2
           (fun (la, va) (lb, vb) -> la = lb && equal va vb)
           a.children b.children
  | (Unit | Chr _ | Str _ | List _ | Node _), _ -> false

let rec count_nodes = function
  | Unit | Chr _ | Str _ -> 0
  | List vs -> List.fold_left (fun acc v -> acc + count_nodes v) 0 vs
  | Node n ->
      1 + List.fold_left (fun acc (_, v) -> acc + count_nodes v) 0 n.children
