#!/usr/bin/env bash
# Compare two rml binaries run for run: stdout, stderr and exit code of
# `rml parse` over calc, json, minic and minijava inputs under a fixed
# set of flags, batches with per-document deadlines (with and without
# faults), and the trace, coverage and profile subcommands, each with
# and without -O; the optimized grammar `rml compose -O` prints for
# every builtin; `rml passes`, and `rml optimize` of every builtin
# (summary, --trace, --verify -p, --passes, --dump-after) and of a
# left-recursive grammar file with -L; `rml analyze` of every builtin;
# then the option names of every subcommand's --help=plain. Wall-clock fields (batch "ms" values, the
# stderr summary's latencies, the profile's and the optimizer's time
# columns) are blanked; the profile lists every production, sorted by
# name, since its own order is by time.
#
#   test/cli/compare.sh OLD_RML NEW_RML [WORK_DIR]
#
# Run from the repository root. Prints one line per differing run and
# a final count; exits 1 when any run differs.
set -u
old=$1
new=$2
work=${3:-$(mktemp -d)}
mkdir -p "$work/in"
data=test/data

printf '1 + 2 * 3\n' > "$work/in/good.calc"
printf '1 +\n' > "$work/in/bad.calc"
printf '{"a": [1, 2.5, "x"], "b": {"c": null}}\n' > "$work/in/good.json"
printf '{"a": [1, 2.5,\n' > "$work/in/bad.json"
cp "$data/demo.c" "$work/in/demo.c"
printf 'int main() { return 0 }\n' > "$work/in/bad.c"
cp "$data/demo.java" "$work/in/demo.java"
cp "$data/damaged.java" "$work/in/damaged.java"
for _ in $(seq 200); do cat "$data/demo.java"; done > "$work/in/demo200.java"
# three edits every input survives: insert a space, insert one inside
# the first token, delete it again
printf '0 0  \n1 0  \n# a comment\n1 1\n' > "$work/in/edits.txt"

inputs_for() {
  case $1 in
    calc) echo good.calc bad.calc ;;
    json) echo good.json bad.json ;;
    minic) echo demo.c bad.c ;;
    minijava) echo demo.java damaged.java demo200.java ;;
  esac
}

strip() {
  sed -E 's/"(ms|p50_ms|p99_ms|total_ms)":[0-9.]+/"\1":_/g;
          s/p50 [0-9.]+ms p99 [0-9.]+ms total [0-9.]+ms/p50 _ p99 _ total _/' "$1"
}

# A profile table's rows with their self ms, total ms and self% blanked,
# in name order.
strip_profile() {
  sed -E 's/ +[0-9]+\.[0-9]+ +[0-9]+\.[0-9]+ +[0-9]+\.[0-9]+%$/ _/' "$1" | sort
}

# `rml optimize`: the time column of --trace and of the summary line
strip_optimize() {
  strip "$1" | sed -E 's/^(  .{14}) +[0-9]+\.[0-9]{3}( |$)/\1 _\2/;
                       s/, [0-9]+\.[0-9]+ ms \(use/, _ ms (use/'
}

runs=0
diffs=0
# compare_with FILTER NAME STDIN ARGS...: run both binaries, compare
# stdout through FILTER, stderr through strip, and the exit codes
compare_with() {
  local filter=$1 name=$2 stdin=$3
  shift 3
  local side bin
  for side in old new; do
    if [ "$side" = old ]; then bin=$old; else bin=$new; fi
    "$bin" "$@" < "$stdin" > "$work/$side.out" 2> "$work/$side.err"
    echo $? > "$work/$side.code"
    "$filter" "$work/$side.out" > "$work/$side.out.s"
    strip "$work/$side.err" > "$work/$side.err.s"
  done
  runs=$((runs + 1))
  local what
  for what in out.s err.s code; do
    if ! cmp -s "$work/old.$what" "$work/new.$what"; then
      diffs=$((diffs + 1))
      echo "DIFF ($what): $name"
      break
    fi
  done
}

# compare NAME STDIN ARGS...: stdout with wall-clock fields blanked
compare() { compare_with strip "$@"; }

# compare_profile NAME ARGS...: the blanked, sorted profile
compare_profile() {
  local name=$1
  shift
  compare_with strip_profile "$name" /dev/null "$@"
}

compare passes /dev/null passes
for g in calc json minic minic-ext minijava rats path; do
  while IFS= read -r flags; do
    # shellcheck disable=SC2086
    compare_with strip_optimize "optimize -b $g $flags" /dev/null optimize -b "$g" $flags
  done <<EOF

--trace
--verify -p
--passes inline,prune --trace
--dump-after fold
EOF
done
leftrec="$data/leftrec.rats -r leftrec.Expr"
while IFS= read -r flags; do
  # shellcheck disable=SC2086
  compare_with strip_optimize "optimize leftrec.rats $flags" /dev/null optimize $leftrec $flags
done <<EOF
-L
-L --trace
-L --verify -p
-L --dump-after leftrec
--passes leftrec
-L --passes nosuch
-L --dump-after nosuch
EOF
# shellcheck disable=SC2086
compare "compose leftrec.rats -L -O" /dev/null compose $leftrec -L -O

for g in calc json minic minic-ext minijava rats path; do
  compare "compose -b $g -O" /dev/null compose -b "$g" -O
  compare "analyze -b $g" /dev/null analyze -b "$g"
done

for g in calc json minic minijava; do
  for f in $(inputs_for "$g"); do
    i=$work/in/$f
    while IFS= read -r flags; do
      # shellcheck disable=SC2086
      compare "parse -b $g $f $flags" /dev/null parse -b "$g" -i "$i" $flags
    done <<EOF

-O
-O --stats
-q --stats-json
--recognize --stats
--mmap --stats
--edits $work/in/edits.txt --stats
--trace -c packrat
--trace-ring 8
--fuel 3
--max-depth 2
--timeout 60 --stats
EOF
    compare "parse -b $g --stdin < $f" "$i" parse -b "$g" --stdin
    for o in '' -O; do
      # shellcheck disable=SC2086
      compare "trace -b $g $f $o" /dev/null trace -b "$g" -i "$i" --last 40 $o
      # shellcheck disable=SC2086
      compare "coverage -b $g $f $o" /dev/null coverage -b "$g" -i "$i" $o
      # shellcheck disable=SC2086
      compare_profile "profile -b $g $f $o" profile -b "$g" -i "$i" --top 100000 $o
    done
  done
  manifest=$work/in/$g.manifest
  { for f in $(inputs_for "$g"); do echo "$work/in/$f"; done
    echo "$work/in/missing.$g"; } > "$manifest"
  for faults in seed=7,rate=0.5,trunc@64,fuel@10000 fuel@100000 ''; do
    compare "batch -b $g --faults '$faults'" /dev/null parse -b "$g" \
      --batch "$manifest" ${faults:+--faults "$faults"} --doc-timeout 60
  done
done

# the option names of every subcommand's --help=plain
for c in modules compose optimize passes analyze parse profile trace coverage fmt; do
  for side in old new; do
    if [ "$side" = old ]; then bin=$old; else bin=$new; fi
    "$bin" "$c" --help=plain 2>&1 | grep -oE '^       -[-a-zA-Z]+(, --[-a-z]+)?' \
      | sort > "$work/$side.opts"
  done
  runs=$((runs + 1))
  if ! cmp -s "$work/old.opts" "$work/new.opts"; then
    diffs=$((diffs + 1))
    echo "DIFF (options): $c --help=plain"
  fi
done

echo "$runs runs, $diffs differ"
[ "$diffs" -eq 0 ]
