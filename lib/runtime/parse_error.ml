open Rats_support

type kind =
  | Syntax
  | Resource_exhausted of { which : Limits.which; at : int; consumed : int }

type t = {
  position : int;
  expected : string list;
  consumed : int;
  kind : kind;
}

(* Expected sets are sets: render order must not leak the trace order
   the engine happened to discover the alternatives in (configurations,
   and warm vs cold runs of a session, reach the farthest point along
   different paths). Sorting makes messages byte-identical across
   runs. *)
let dedup xs = List.sort_uniq String.compare xs

let v ~position ~expected ?consumed () =
  {
    position;
    expected = dedup expected;
    consumed = Option.value consumed ~default:position;
    kind = Syntax;
  }

let resource_exhausted ~which ~at ?position ?(expected = []) ?consumed () =
  let consumed = Option.value consumed ~default:at in
  {
    position = Option.value position ~default:at;
    expected = dedup expected;
    consumed;
    kind = Resource_exhausted { which; at; consumed };
  }

let exhausted_which t =
  match t.kind with
  | Syntax -> None
  | Resource_exhausted { which; _ } -> Some which

let message t =
  match t.kind with
  | Resource_exhausted { which; at; _ } ->
      Printf.sprintf "%s (offset %d)" (Limits.which_message which) at
  | Syntax -> (
      match t.expected with
      | [] -> "parse error"
      | expected ->
          let rec render = function
            | [] -> ""
            | [ x ] -> x
            | [ x; y ] -> x ^ " or " ^ y
            | x :: rest -> x ^ ", " ^ render rest
          in
          "expected " ^ render expected)

let to_diagnostic t =
  Diagnostic.error ~span:(Span.point t.position) (message t)

let pp ?source ppf t =
  (match source with
  | Some src -> Format.fprintf ppf "%a: " (Source.pp_location src) t.position
  | None -> Format.fprintf ppf "offset %d: " t.position);
  Format.fprintf ppf "%s" (message t);
  match source with
  | Some src ->
      Format.fprintf ppf "@,%a" (Source.pp_excerpt src) (Span.point t.position)
  | None -> ()

let to_string ?source t = Format.asprintf "@[<v>%a@]" (pp ?source) t
