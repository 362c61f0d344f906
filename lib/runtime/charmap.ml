open Rats_peg

module Tbl = Hashtbl.Make (struct
  type t = Charset.t

  let equal = Charset.equal
  let hash = Charset.hash
end)

type t = { names : Expected.names; sets : (Bytes.t * int) Tbl.t }

let create names = { names; sets = Tbl.create 64 }

let lower t set =
  match Tbl.find_opt t.sets set with
  | Some l -> l
  | None ->
      let bm = Bytes.make 256 '\000' in
      Charset.iter (fun c -> Bytes.unsafe_set bm (Char.code c) '\001') set;
      let l = (bm, Expected.fresh t.names (Charset.to_string set)) in
      Tbl.add t.sets set l;
      l
