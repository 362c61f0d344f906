(* Just enough JSON for the result files: a value type, a printer that
   keeps every digit of a float, and a parser for [rmlbench compare]. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

let rec write b = function
  | Null -> Buffer.add_string b "null"
  | Bool x -> Buffer.add_string b (string_of_bool x)
  | Num f when Float.is_integer f && Float.abs f < 1e15 ->
      Printf.bprintf b "%.0f" f
  | Num f when Float.is_finite f -> Printf.bprintf b "%.17g" f
  | Num _ -> Buffer.add_string b "null"
  | Str s -> Printf.bprintf b "\"%s\"" (String.escaped s)
  | Arr xs ->
      Buffer.add_char b '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char b ',';
          write b x)
        xs;
      Buffer.add_char b ']'
  | Obj kvs ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          write b (Str k);
          Buffer.add_char b ':';
          write b v)
        kvs;
      Buffer.add_char b '}'

let to_string v =
  let b = Buffer.create 256 in
  write b v;
  Buffer.contents b

exception Bad of string

let of_string s =
  let n = String.length s in
  let i = ref 0 in
  let peek () = if !i < n then s.[!i] else '\000' in
  let rec skip () =
    if !i < n && (s.[!i] = ' ' || s.[!i] = '\n' || s.[!i] = '\t' || s.[!i] = '\r')
    then (incr i; skip ())
  in
  let expect c =
    skip ();
    if peek () <> c then raise (Bad (Printf.sprintf "expected %c at %d" c !i));
    incr i
  in
  let str () =
    expect '"';
    let b = Buffer.create 16 in
    while peek () <> '"' do
      if !i >= n then raise (Bad "unterminated string");
      if peek () = '\\' then (
        incr i;
        Buffer.add_char b
          (match peek () with 'n' -> '\n' | 't' -> '\t' | c -> c))
      else Buffer.add_char b (peek ());
      incr i
    done;
    incr i;
    Buffer.contents b
  in
  let rec value () =
    skip ();
    match peek () with
    | '{' ->
        incr i;
        skip ();
        if peek () = '}' then (incr i; Obj [])
        else
          let rec fields acc =
            let k = str () in
            expect ':';
            let v = value () in
            skip ();
            if peek () = ',' then (incr i; fields ((k, v) :: acc))
            else (expect '}'; Obj (List.rev ((k, v) :: acc)))
          in
          fields []
    | '[' ->
        incr i;
        skip ();
        if peek () = ']' then (incr i; Arr [])
        else
          let rec items acc =
            let v = value () in
            skip ();
            if peek () = ',' then (incr i; items (v :: acc))
            else (expect ']'; Arr (List.rev (v :: acc)))
          in
          items []
    | '"' -> Str (str ())
    | 't' -> i := !i + 4; Bool true
    | 'f' -> i := !i + 5; Bool false
    | 'n' -> i := !i + 4; Null
    | _ ->
        let j = !i in
        while !i < n && String.contains "+-0123456789.eE" s.[!i] do incr i done;
        (match float_of_string_opt (String.sub s j (!i - j)) with
        | Some f -> Num f
        | None -> raise (Bad (Printf.sprintf "bad value at %d" j)))
  in
  value ()

let member k = function Obj kvs -> List.assoc_opt k kvs | _ -> None
let num = function Some (Num f) -> f | _ -> Float.nan
