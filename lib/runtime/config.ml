type memo_strategy = No_memo | Hashtable | Chunked

type t = {
  memo : memo_strategy;
  honor_transient : bool;
  dispatch : bool;
  lean_values : bool;
  limits : Limits.t;
  observe : Observe.want;
}

let naive =
  { memo = No_memo; honor_transient = false; dispatch = false;
    lean_values = false; limits = Limits.unlimited; observe = Observe.off }

let packrat =
  { memo = Hashtable; honor_transient = false; dispatch = false;
    lean_values = false; limits = Limits.unlimited; observe = Observe.off }

let optimized =
  { memo = Chunked; honor_transient = true; dispatch = true;
    lean_values = true; limits = Limits.unlimited; observe = Observe.off }

let vm = optimized

let v ?(memo = Hashtable) ?(honor_transient = false) ?(dispatch = false)
    ?(lean_values = false) ?(limits = Limits.unlimited) ?(observe = Observe.off)
    () =
  { memo; honor_transient; dispatch; lean_values; limits; observe }

let with_limits limits c = { c with limits }
let with_observe observe c = { c with observe }

let memo_name = function
  | No_memo -> "none"
  | Hashtable -> "hashtable"
  | Chunked -> "chunked"

let describe c =
  let flags =
    List.filter_map
      (fun (b, n) -> if b then Some n else None)
      [
        (c.honor_transient, "transient");
        (c.dispatch, "dispatch");
        (c.lean_values, "lean-values");
        (Observe.enabled c.observe, "observed");
      ]
  in
  Printf.sprintf "memo=%s%s%s" (memo_name c.memo)
    (match flags with [] -> "" | fs -> " " ^ String.concat " " fs)
    (if Limits.is_unlimited c.limits then ""
     else " [" ^ Limits.describe c.limits ^ "]")

let pp ppf c = Format.pp_print_string ppf (describe c)
