(* A set of bytes as a 256-bit vector: four int64 words. *)

type t = { w0 : int64; w1 : int64; w2 : int64; w3 : int64 }

let empty = { w0 = 0L; w1 = 0L; w2 = 0L; w3 = 0L }
let full = { w0 = -1L; w1 = -1L; w2 = -1L; w3 = -1L }

let word s i =
  match i with 0 -> s.w0 | 1 -> s.w1 | 2 -> s.w2 | _ -> s.w3

let with_word s i w =
  match i with
  | 0 -> { s with w0 = w }
  | 1 -> { s with w1 = w }
  | 2 -> { s with w2 = w }
  | _ -> { s with w3 = w }

let mem c s =
  let b = Char.code c in
  let w = word s (b lsr 6) in
  Int64.logand (Int64.shift_right_logical w (b land 63)) 1L = 1L

let add c s =
  let b = Char.code c in
  let i = b lsr 6 in
  with_word s i (Int64.logor (word s i) (Int64.shift_left 1L (b land 63)))

let remove c s =
  let b = Char.code c in
  let i = b lsr 6 in
  with_word s i
    (Int64.logand (word s i) (Int64.lognot (Int64.shift_left 1L (b land 63))))

let singleton c = add c empty

let range lo hi =
  let rec go acc b =
    if b > Char.code hi then acc else go (add (Char.chr b) acc) (b + 1)
  in
  if hi < lo then empty else go empty (Char.code lo)

let of_string str = String.fold_left (fun acc c -> add c acc) empty str
let of_list cs = List.fold_left (fun acc c -> add c acc) empty cs

let map2 f a b =
  { w0 = f a.w0 b.w0; w1 = f a.w1 b.w1; w2 = f a.w2 b.w2; w3 = f a.w3 b.w3 }

let union = map2 Int64.logor
let inter = map2 Int64.logand
let diff a b = map2 (fun x y -> Int64.logand x (Int64.lognot y)) a b

let complement s =
  { w0 = Int64.lognot s.w0; w1 = Int64.lognot s.w1;
    w2 = Int64.lognot s.w2; w3 = Int64.lognot s.w3 }

let is_empty s = s.w0 = 0L && s.w1 = 0L && s.w2 = 0L && s.w3 = 0L

let popcount64 w =
  let rec go acc w = if w = 0L then acc
    else go (acc + 1) (Int64.logand w (Int64.sub w 1L))
  in
  go 0 w

let cardinal s =
  popcount64 s.w0 + popcount64 s.w1 + popcount64 s.w2 + popcount64 s.w3

let equal a b = a.w0 = b.w0 && a.w1 = b.w1 && a.w2 = b.w2 && a.w3 = b.w3

let compare a b =
  let c = Int64.compare a.w0 b.w0 in
  if c <> 0 then c
  else
    let c = Int64.compare a.w1 b.w1 in
    if c <> 0 then c
    else
      let c = Int64.compare a.w2 b.w2 in
      if c <> 0 then c else Int64.compare a.w3 b.w3

let subset a b = equal (inter a b) a
let disjoint a b = is_empty (inter a b)

(* Walks the set a word at a time, each word as two 32-bit native-int
   halves: empty words cost one compare, and no member test boxes. *)
let iter f s =
  let rec bits b x =
    if x <> 0 then (
      if x land 1 = 1 then f (Char.unsafe_chr b);
      bits (b + 1) (x lsr 1))
  in
  for i = 0 to 3 do
    let w = word s i in
    if w <> 0L then (
      bits (64 * i) (Int64.to_int w land 0xFFFF_FFFF);
      bits ((64 * i) + 32) (Int64.to_int (Int64.shift_right_logical w 32)))
  done

let fold f s init =
  let acc = ref init in
  iter (fun c -> acc := f c !acc) s;
  !acc

let elements s = List.rev (fold (fun c acc -> c :: acc) s [])
let choose s = match elements s with [] -> None | c :: _ -> Some c

let hash s =
  let h w = Int64.to_int (Int64.logxor w (Int64.shift_right_logical w 32)) in
  (h s.w0 * 31 + h s.w1) * 31 + (h s.w2 * 31 + h s.w3)

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

let to_ranges s =
  List.map (fun (lo, hi) -> (Char.chr lo, Char.chr hi)) (ranges s)

let of_ranges rs =
  List.fold_left (fun acc (lo, hi) -> union acc (range lo hi)) empty rs

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
