(* A set of bytes as a 256-bit vector: eight immediate ints of 32 bits
   each, word [i] holding bytes [32i .. 32i+31], byte [b] at bit
   [b land 31] of word [b lsr 5]. Words are never boxed, so every
   operation that builds a set allocates exactly one block. The arrays
   are never mutated once returned. *)

type t = int array

let words = 8
let mask = 0xFFFF_FFFF
let empty = Array.make words 0
let full = Array.make words mask

let mem c s =
  let b = Char.code c in
  (Array.unsafe_get s (b lsr 5) lsr (b land 31)) land 1 = 1

(* [set_bit a b] on an array not yet returned to a caller. *)
let set_bit a b =
  let i = b lsr 5 in
  Array.unsafe_set a i (Array.unsafe_get a i lor (1 lsl (b land 31)))

let add c s =
  let a = Array.copy s in
  set_bit a (Char.code c);
  a

let remove c s =
  let b = Char.code c in
  let a = Array.copy s in
  let i = b lsr 5 in
  a.(i) <- a.(i) land lnot (1 lsl (b land 31));
  a

(* Singletons are made once per byte, on first use. Two domains racing
   on an empty entry each store an equal set; either is correct. *)
let singletons = Array.make 256 empty

let singleton c =
  let b = Char.code c in
  let s = singletons.(b) in
  if s != empty then s
  else
    let s = add c empty in
    singletons.(b) <- s;
    s

let range lo hi =
  if hi < lo then empty
  else
    let a = Array.make words 0 in
    for b = Char.code lo to Char.code hi do
      set_bit a b
    done;
    a

let of_string str =
  let a = Array.make words 0 in
  String.iter (fun c -> set_bit a (Char.code c)) str;
  a

let of_list cs =
  let a = Array.make words 0 in
  List.iter (fun c -> set_bit a (Char.code c)) cs;
  a

let map2 f a b =
  let r = Array.make words 0 in
  for i = 0 to words - 1 do
    Array.unsafe_set r i (f (Array.unsafe_get a i) (Array.unsafe_get b i))
  done;
  r

let diff = map2 (fun x y -> x land lnot y)
let complement s = diff full s

(* The word loops below are closed top-level functions, so that a
   query allocates no closure. *)
let rec subset_from a b i =
  i >= words || (a.(i) land lnot b.(i) = 0 && subset_from a b (i + 1))

let subset a b = subset_from a b 0

(* A result equal to an operand is that operand: FIRST sets are mostly
   unions with the empty set or with a subset. *)
let union a b = if subset b a then a else if subset a b then b else map2 ( lor ) a b
let inter a b = if subset a b then a else if subset b a then b else map2 ( land ) a b

let rec popcount acc w = if w = 0 then acc else popcount (acc + 1) (w land (w - 1))

let cardinal s =
  let n = ref 0 in
  for i = 0 to words - 1 do
    n := popcount !n s.(i)
  done;
  !n

let rec equal_from a b i = i >= words || (a.(i) = b.(i) && equal_from a b (i + 1))
let equal a b = a == b || equal_from a b 0

(* Sets ordered as the 256-bit numbers they encode: the set holding the
   highest byte on which the two differ is the greater. *)
let rec compare_from a b i =
  if i < 0 then 0
  else
    let c = Int.compare a.(i) b.(i) in
    if c <> 0 then c else compare_from a b (i - 1)

let compare a b = compare_from a b (words - 1)

let is_empty s = equal s empty

let rec disjoint_from a b i =
  i >= words || (a.(i) land b.(i) = 0 && disjoint_from a b (i + 1))

let disjoint a b = disjoint_from a b 0

(* Walks the set a word at a time: empty words cost one compare. *)
let iter f s =
  let rec bits b x =
    if x <> 0 then (
      if x land 1 = 1 then f (Char.unsafe_chr b);
      bits (b + 1) (x lsr 1))
  in
  for i = 0 to words - 1 do
    bits (32 * i) s.(i)
  done

let fold f s init =
  let acc = ref init in
  iter (fun c -> acc := f c !acc) s;
  !acc

let elements s = List.rev (fold (fun c acc -> c :: acc) s [])
let choose s = match elements s with [] -> None | c :: _ -> Some c

let hash s =
  let h = ref 0 in
  for i = 0 to words - 1 do
    h := (!h * 31) + s.(i)
  done;
  !h land max_int

(* Printing: collapse into ranges, escape the unprintable. *)
let add_escaped b c =
  match c with
  | '\n' -> Buffer.add_string b "\\n"
  | '\t' -> Buffer.add_string b "\\t"
  | '\r' -> Buffer.add_string b "\\r"
  | '\\' -> Buffer.add_string b "\\\\"
  | ']' -> Buffer.add_string b "\\]"
  | '-' -> Buffer.add_string b "\\-"
  | '^' -> Buffer.add_string b "\\^"
  | c when Char.code c >= 32 && Char.code c < 127 -> Buffer.add_char b c
  | c -> Printf.bprintf b "\\x%02x" (Char.code c)

(* Maximal runs of members, ascending, as byte codes. *)
let ranges s =
  let acc = ref [] and lo = ref (-1) and hi = ref (-2) in
  iter
    (fun c ->
      let b = Char.code c in
      if b <> !hi + 1 then (
        if !lo >= 0 then acc := (!lo, !hi) :: !acc;
        lo := b);
      hi := b)
    s;
  if !lo >= 0 then acc := (!lo, !hi) :: !acc;
  List.rev !acc

let to_string s =
  let b = Buffer.create 16 in
  Buffer.add_char b '[';
  List.iter
    (fun (lo, hi) ->
      add_escaped b (Char.chr lo);
      if hi > lo + 1 then Buffer.add_char b '-';
      if hi > lo then add_escaped b (Char.chr hi))
    (ranges s);
  Buffer.add_char b ']';
  Buffer.contents b

let pp ppf s = Format.pp_print_string ppf (to_string s)
