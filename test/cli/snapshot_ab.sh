#!/usr/bin/env bash
# Check that `rml` loads each built-in's build-time snapshot exactly as
# it composes the built-in at run time. Naming the built-in's own root
# module with --root forces run-time composition, so every run is made
# twice, without and with it, and stdout, stderr and the exit code must
# match: `rml compose` raw and -O; on the built-in's demo document
# `rml parse -O`, `rml parse -O --recognize --stats`, `rml coverage -O`
# and `rml profile -O` (time columns blanked and rows sorted, as
# compare.sh does); and `rml parse -O` of a failing document, the demo
# cut to two thirds and ended by a control byte, whose error prints the
# descriptions the snapshot's engine and the run-time one each intern.
#
#   test/cli/snapshot_ab.sh RML [WORK_DIR]
#
# Run from the repository root. Prints one line per differing run on
# stderr and a final count on stdout; exits 1 when any run differs.
set -u
rml=$1
work=${2:-$(mktemp -d)}
mkdir -p "$work"

runs=0
diffs=0
# A profile table with its self ms, total ms and self% blanked, sorted.
strip_profile() {
  sed -E 's/ +[0-9]+\.[0-9]+ +[0-9]+\.[0-9]+ +[0-9]+\.[0-9]+%$/ _/' | sort
}
# ab_with FILTER ROOT ARGS...: the snapshot run, then the run with
# --root ROOT, stdout through FILTER
ab_with() {
  local filter=$1 root=$2 what
  shift 2
  "$rml" "$@" < /dev/null 2> "$work/a.err" | $filter > "$work/a.out"
  echo "${PIPESTATUS[0]}" > "$work/a.code"
  "$rml" "$@" --root "$root" < /dev/null 2> "$work/b.err" | $filter > "$work/b.out"
  echo "${PIPESTATUS[0]}" > "$work/b.code"
  runs=$((runs + 1))
  for what in out err code; do
    if ! cmp -s "$work/a.$what" "$work/b.$what"; then
      diffs=$((diffs + 1))
      echo "DIFF ($what): rml $*" >&2
      break
    fi
  done
}
ab() { ab_with cat "$@"; }

# each built-in, its root module and its demo document; test_integration
# reads this table back and checks it against Run.builtins
while read -r name root demo; do
  ab "$root" compose -b "$name"
  ab "$root" compose -O -b "$name"
  ab "$root" parse -O -b "$name" -i "$demo"
  ab "$root" parse -O --recognize --stats -b "$name" -i "$demo"
  ab "$root" coverage -O -b "$name" -i "$demo"
  ab_with strip_profile "$root" profile -O -b "$name" -i "$demo" --top 100000
  bad="$work/bad.$name"
  { head -c $(($(wc -c < "$demo") * 2 / 3)) "$demo"; printf '\001'; } > "$bad"
  ab "$root" parse -O -b "$name" -i "$bad"
done <<EOF
calc calc.Main test/data/demo.calc
json json.Main test/data/demo.json
minic c.Program test/data/demo.c
minic-ext cx.Program test/data/demo.cx
minijava j.Program test/data/demo.java
rats rats.Syntax grammars/tutorial.rats
path path.Main test/data/demo.path
EOF

echo "$runs runs, $diffs differ"
[ "$diffs" -eq 0 ]
