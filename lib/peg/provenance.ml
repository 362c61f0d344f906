(* Identity assignment for observation: production ids in definition
   order (the id space the engine already uses) and global arm ids per
   physical choice. The inliner shares one expansion among its sites,
   so a choice can be reached from several productions; it gets one set
   of arms, owned by the smallest body that reaches it. Arm lookup is
   by physical identity of the [Expr.alt] list — the same node compiled
   twice (matcher + recognizer, or from two sites) maps to the same
   ids. *)

type arm = {
  arm_prod : int;
  arm_choice : int;
  arm_index : int;
  arm_label : string option;
  arm_body : Expr.t;
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

let of_grammar g =
  let prods = Array.of_list (Grammar.productions g) in
  let nprods = Array.length prods in
  let sizes = Array.map (fun (p : Production.t) -> Expr.size p.expr) prods in
  (* Each choice's owner: the smallest body reaching it, the earlier
     production on a tie. *)
  let owners = Alts.create 64 in
  Array.iteri
    (fun pid (p : Production.t) ->
      Expr.fold
        (fun () (e : Expr.t) ->
          match e.it with
          | Expr.Alt alts -> (
              match Alts.find_opt owners alts with
              | Some q when sizes.(q) <= sizes.(pid) -> ()
              | _ -> Alts.replace owners alts pid)
          | _ -> ())
        () p.expr)
    prods;
  let bases = Alts.create 64 in
  let ids = Hashtbl.create (nprods * 2) in
  let arms = ref [] in
  let narms = ref 0 in
  Array.iteri
    (fun pid (p : Production.t) ->
      Hashtbl.replace ids p.name pid;
      let choice = ref 0 in
      Expr.fold
        (fun () (e : Expr.t) ->
          match e.it with
          | Expr.Alt alts
            when Alts.find owners alts = pid && not (Alts.mem bases alts) ->
              Alts.replace bases alts !narms;
              List.iteri
                (fun i (a : Expr.alt) ->
                  arms :=
                    {
                      arm_prod = pid;
                      arm_choice = !choice;
                      arm_index = i;
                      arm_label = a.label;
                      arm_body = a.body;
                    }
                    :: !arms;
                  incr narms)
                alts;
              incr choice
          | _ -> ())
        () p.expr)
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
