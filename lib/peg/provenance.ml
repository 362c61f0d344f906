(* Identity assignment for observation: production ids in definition
   order (the id space the engine already uses) and global arm ids
   from a deterministic pre-order walk over every production body.
   Arm lookup is by physical identity of the [Expr.alt] list — the same
   node compiled twice (matcher + recognizer) maps to the same ids. *)

type arm = {
  arm_prod : int;
  arm_choice : int;
  arm_index : int;
  arm_label : string option;
  arm_desc : string;
}

(* Physical-identity table over alt lists. [Hashtbl.hash] is structural
   (and depth-bounded), which is a valid hash for (==) equality: equal
   pointers always hash equally. *)
module Alts = Hashtbl.Make (struct
  type t = Expr.alt list

  let equal = ( == )
  let hash = Hashtbl.hash
end)

type t = {
  names : string array;
  origins : string array;
  arms : arm array;
  bases : int Alts.t;  (** alt list -> arm id of its first arm *)
  ids : (string, int) Hashtbl.t;
}

let truncate s = if String.length s <= 40 then s else String.sub s 0 37 ^ "..."

let of_grammar g =
  let prods = Array.of_list (Grammar.productions g) in
  let nprods = Array.length prods in
  let bases = Alts.create 64 in
  let ids = Hashtbl.create (nprods * 2) in
  let arms = ref [] in
  let narms = ref 0 in
  Array.iteri
    (fun pid (p : Production.t) ->
      Hashtbl.replace ids p.name pid;
      let choice = ref 0 in
      ignore
        (Expr.fold
           (fun () (e : Expr.t) ->
             match e.it with
             | Expr.Alt alts when not (Alts.mem bases alts) ->
                 Alts.replace bases alts !narms;
                 List.iteri
                   (fun i (a : Expr.alt) ->
                     arms :=
                       {
                         arm_prod = pid;
                         arm_choice = !choice;
                         arm_index = i;
                         arm_label = a.label;
                         arm_desc = truncate (Pretty.expr_to_string a.body);
                       }
                       :: !arms;
                     incr narms)
                   alts;
                 incr choice
             | _ -> ())
           () p.expr))
    prods;
  {
    names = Array.map (fun (p : Production.t) -> p.name) prods;
    origins = Array.map (fun (p : Production.t) -> p.origin) prods;
    arms = Array.of_list (List.rev !arms);
    bases;
    ids;
  }

let nprods t = Array.length t.names
let prod_name t i = t.names.(i)
let prod_origin t i = t.origins.(i)
let prod_id t name = Hashtbl.find_opt t.ids name
let narms t = Array.length t.arms
let arm t i = t.arms.(i)

let arms_of t alts =
  match Alts.find_opt t.bases alts with Some base -> base | None -> -1

let pp_arm t ppf i =
  let a = t.arms.(i) in
  Format.fprintf ppf "%s / choice %d / arm %d%s" t.names.(a.arm_prod)
    a.arm_choice a.arm_index
    (match a.arm_label with None -> "" | Some l -> " (" ^ l ^ ")")
