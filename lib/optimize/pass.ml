open Rats_peg

type t = {
  name : string;
  doc : string;
  run : Analysis_ctx.t -> Grammar.t -> Grammar.t;
}

let v name doc run = { name; doc; run }

let transients =
  v "transients" "unmemoize productions referenced at most once"
    (fun ctx g -> Passes.mark_transients ~ctx g)

let terminals =
  v "terminals" "unmemoize lexical-level productions"
    (fun ctx g -> Passes.mark_terminals ~ctx g)

let inline =
  v "inline" "inline small non-recursive productions, then prune"
    (fun ctx g -> Passes.inline_pass ~ctx g)

let fold =
  v "fold" "merge structurally identical private productions"
    (fun _ g -> Passes.fold_duplicates g)

let factor =
  v "factor" "factor common prefixes of adjacent alternatives"
    (fun _ g -> Passes.factor_prefixes g)

let prune =
  v "prune" "drop productions unreachable from the start symbol"
    (fun ctx g -> Passes.prune ~ctx g)
