(* The pipeline metrics registry. Everything on the record path is an
   int field bump or an int-array cell bump; floats, closures and
   allocation are confined to registration and export. See the .mli for
   the bucket geometry contract. *)

(* --- bucket scheme ------------------------------------------------------ *)

(* Identity buckets for 0..15, then 8 sub-buckets per power-of-two
   octave. Octaves run from msb 4 (values 16..31) to msb 61 (the top of
   the 63-bit int range), so every nonnegative int has a bucket. *)

let first_octave = 4
let last_octave = 61
let nbuckets = 16 + ((last_octave - first_octave + 1) * 8)

(* msb position of [v], for [v >= 16]: a shift loop, not a float log —
   [observe] must not allocate or round. *)
let rec msb_from v m = if v <= 1 then m else msb_from (v lsr 1) (m + 1)

let bucket_of v =
  if v < 16 then if v < 0 then 0 else v
  else
    let m = msb_from (v lsr first_octave) first_octave in
    let sub = (v lsr (m - 3)) land 7 in
    16 + ((m - first_octave) * 8) + sub

let bucket_bounds i =
  if i < 16 then (i, i + 1)
  else
    let oct = first_octave + ((i - 16) / 8) in
    let sub = (i - 16) mod 8 in
    let lo = (8 + sub) lsl (oct - 3) in
    let hi = (9 + sub) lsl (oct - 3) in
    (* the very top bucket's upper bound overflows 2^62; clamp *)
    (lo, if hi <= 0 then max_int else hi)

(* The value a bucket stands for when estimating quantiles: exact below
   16, midpoint above (error ≤ half the ≤12.5% bucket width). *)
let bucket_value i =
  if i < 16 then float_of_int i
  else
    let lo, hi = bucket_bounds i in
    (float_of_int lo +. float_of_int hi) /. 2.

(* --- instruments -------------------------------------------------------- *)

type kind = Counter | Gauge | Histogram

type metric = {
  m_name : string;
  m_labels : (string * string) list;
  m_help : string;
  m_kind : kind;
  mutable m_value : int;  (* counter total / gauge reading *)
  m_buckets : int array;  (* [||] unless histogram *)
  mutable m_sum : int;  (* histogram sum of observations *)
  mutable m_count : int;  (* histogram observation count *)
}

type counter = metric
type gauge = metric
type histogram = metric

type t = {
  mutable rev : metric list;  (* reverse registration order *)
  index : (string * (string * string) list, metric) Hashtbl.t;
}

let create () = { rev = []; index = Hashtbl.create 32 }

let kind_name = function
  | Counter -> "counter"
  | Gauge -> "gauge"
  | Histogram -> "histogram"

let register t ~labels ~help ~kind name =
  match Hashtbl.find_opt t.index (name, labels) with
  | Some m ->
      if m.m_kind <> kind then
        invalid_arg
          (Printf.sprintf "Metrics: %s registered as %s, requested as %s" name
             (kind_name m.m_kind) (kind_name kind));
      m
  | None ->
      let m =
        {
          m_name = name;
          m_labels = labels;
          m_help = help;
          m_kind = kind;
          m_value = 0;
          m_buckets = (if kind = Histogram then Array.make nbuckets 0 else [||]);
          m_sum = 0;
          m_count = 0;
        }
      in
      t.rev <- m :: t.rev;
      Hashtbl.add t.index (name, labels) m;
      m

let counter t ?(labels = []) ?(help = "") name =
  register t ~labels ~help ~kind:Counter name

let gauge t ?(labels = []) ?(help = "") name =
  register t ~labels ~help ~kind:Gauge name

let histogram t ?(labels = []) ?(help = "") name =
  register t ~labels ~help ~kind:Histogram name

(* --- recording (allocation-free) ---------------------------------------- *)

let inc (m : counter) = m.m_value <- m.m_value + 1

let add (m : counter) d =
  if d < 0 then invalid_arg "Metrics.add: counters are monotone";
  m.m_value <- m.m_value + d

let set (m : gauge) v = m.m_value <- v

let observe (m : histogram) v =
  let v = if v < 0 then 0 else v in
  let i = bucket_of v in
  Array.unsafe_set m.m_buckets i (Array.unsafe_get m.m_buckets i + 1);
  m.m_sum <- m.m_sum + v;
  m.m_count <- m.m_count + 1

(* --- reading ------------------------------------------------------------ *)

let counter_value (m : counter) = m.m_value
let gauge_value (m : gauge) = m.m_value
let hist_count (m : histogram) = m.m_count
let hist_sum (m : histogram) = m.m_sum

let quantile (m : histogram) q =
  if m.m_count = 0 then 0.
  else
    let rank =
      let r = int_of_float (ceil (q *. float_of_int m.m_count)) in
      max 1 (min m.m_count r)
    in
    let rec go i cum =
      let cum = cum + m.m_buckets.(i) in
      if cum >= rank || i = nbuckets - 1 then bucket_value i else go (i + 1) cum
    in
    go 0 0

(* --- merge -------------------------------------------------------------- *)

let merge ~into src =
  List.iter
    (fun (s : metric) ->
      let d =
        register into ~labels:s.m_labels ~help:s.m_help ~kind:s.m_kind s.m_name
      in
      match s.m_kind with
      | Counter -> d.m_value <- d.m_value + s.m_value
      | Gauge -> d.m_value <- max d.m_value s.m_value
      | Histogram ->
          for i = 0 to nbuckets - 1 do
            d.m_buckets.(i) <- d.m_buckets.(i) + s.m_buckets.(i)
          done;
          d.m_sum <- d.m_sum + s.m_sum;
          d.m_count <- d.m_count + s.m_count)
    (List.rev src.rev)

(* --- export ------------------------------------------------------------- *)

let escape_label b s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    s

(* [name{k="v",...}] with [extra] appended to the label set (the
   histogram [le]); families with no labels render bare. *)
let add_series b name labels extra =
  Buffer.add_string b name;
  if labels <> [] || extra <> [] then begin
    Buffer.add_char b '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char b ',';
        Buffer.add_string b k;
        Buffer.add_string b "=\"";
        escape_label b v;
        Buffer.add_char b '"')
      (labels @ extra);
    Buffer.add_char b '}'
  end

(* Families in first-registration order, each family's series grouped —
   the exposition format requires one HELP/TYPE block per family. *)
let families t =
  let order = ref [] in
  let byname = Hashtbl.create 16 in
  List.iter
    (fun m ->
      match Hashtbl.find_opt byname m.m_name with
      | Some l -> Hashtbl.replace byname m.m_name (m :: l)
      | None ->
          order := m.m_name :: !order;
          Hashtbl.add byname m.m_name [ m ])
    (List.rev t.rev);
  List.rev_map (fun name -> (name, List.rev (Hashtbl.find byname name))) !order

let to_prometheus t =
  let b = Buffer.create 1024 in
  List.iter
    (fun (name, members) ->
      let repr = List.hd members in
      if repr.m_help <> "" then begin
        Buffer.add_string b "# HELP ";
        Buffer.add_string b name;
        Buffer.add_char b ' ';
        Buffer.add_string b repr.m_help;
        Buffer.add_char b '\n'
      end;
      Buffer.add_string b "# TYPE ";
      Buffer.add_string b name;
      Buffer.add_char b ' ';
      Buffer.add_string b (kind_name repr.m_kind);
      Buffer.add_char b '\n';
      List.iter
        (fun m ->
          match m.m_kind with
          | Counter | Gauge ->
              add_series b name m.m_labels [];
              Buffer.add_string b (Printf.sprintf " %d\n" m.m_value)
          | Histogram ->
              let cum = ref 0 in
              for i = 0 to nbuckets - 1 do
                if m.m_buckets.(i) > 0 then begin
                  cum := !cum + m.m_buckets.(i);
                  let _, hi = bucket_bounds i in
                  add_series b (name ^ "_bucket") m.m_labels
                    [ ("le", string_of_int (hi - 1)) ];
                  Buffer.add_string b (Printf.sprintf " %d\n" !cum)
                end
              done;
              add_series b (name ^ "_bucket") m.m_labels [ ("le", "+Inf") ];
              Buffer.add_string b (Printf.sprintf " %d\n" m.m_count);
              add_series b (name ^ "_sum") m.m_labels [];
              Buffer.add_string b (Printf.sprintf " %d\n" m.m_sum);
              add_series b (name ^ "_count") m.m_labels [];
              Buffer.add_string b (Printf.sprintf " %d\n" m.m_count))
        members)
    (families t);
  Buffer.contents b

module Json = Rats_support.Json

let to_json t =
  let b = Buffer.create 1024 in
  Buffer.add_char b '[';
  List.iteri
    (fun i m ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b "{\"name\":";
      Json.add_string b m.m_name;
      if m.m_labels <> [] then begin
        Buffer.add_string b ",\"labels\":{";
        List.iteri
          (fun j (k, v) ->
            if j > 0 then Buffer.add_char b ',';
            Json.add_string b k;
            Buffer.add_char b ':';
            Json.add_string b v)
          m.m_labels;
        Buffer.add_char b '}'
      end;
      Buffer.add_string b ",\"kind\":";
      Json.add_string b (kind_name m.m_kind);
      (match m.m_kind with
      | Counter | Gauge ->
          Buffer.add_string b (Printf.sprintf ",\"value\":%d" m.m_value)
      | Histogram ->
          Buffer.add_string b
            (Printf.sprintf ",\"count\":%d,\"sum\":%d" m.m_count m.m_sum);
          Buffer.add_string b
            (Printf.sprintf ",\"p50\":%.3f,\"p90\":%.3f,\"p99\":%.3f"
               (quantile m 0.5) (quantile m 0.9) (quantile m 0.99));
          Buffer.add_string b ",\"buckets\":[";
          let first = ref true in
          for i = 0 to nbuckets - 1 do
            if m.m_buckets.(i) > 0 then begin
              if not !first then Buffer.add_char b ',';
              first := false;
              let _, hi = bucket_bounds i in
              Buffer.add_string b
                (Printf.sprintf "[%d,%d]" (hi - 1) m.m_buckets.(i))
            end
          done;
          Buffer.add_char b ']');
      Buffer.add_char b '}')
    (List.rev t.rev);
  Buffer.add_char b ']';
  Buffer.contents b
