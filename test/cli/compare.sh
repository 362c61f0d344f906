#!/usr/bin/env bash
# Compare two rml binaries run for run: stdout, stderr and exit code of
# `rml parse` over calc, json, minic and minijava inputs under a fixed
# set of flags, batches with per-document deadlines (with and without
# faults), and the trace, coverage and profile subcommands; then the
# option names of every subcommand's --help=plain. Wall-clock fields
# (batch "ms" values and the stderr summary's latencies) are blanked.
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

runs=0
diffs=0
# compare NAME STDIN ARGS...: run both binaries, compare the three results
compare() {
  local name=$1 stdin=$2
  shift 2
  local side bin
  for side in old new; do
    if [ "$side" = old ]; then bin=$old; else bin=$new; fi
    "$bin" "$@" < "$stdin" > "$work/$side.out" 2> "$work/$side.err"
    echo $? > "$work/$side.code"
    strip "$work/$side.out" > "$work/$side.out.s"
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
    compare "trace -b $g $f" /dev/null trace -b "$g" -i "$i" --last 40
    compare "coverage -b $g $f" /dev/null coverage -b "$g" -i "$i"
    # profile timings differ run to run: compare the exit code alone
    "$old" profile -b "$g" -i "$i" > /dev/null 2>&1; a=$?
    "$new" profile -b "$g" -i "$i" > /dev/null 2>&1; b=$?
    runs=$((runs + 1))
    if [ "$a" != "$b" ]; then diffs=$((diffs + 1)); echo "DIFF (code): profile -b $g $f"; fi
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
for c in modules compose optimize passes analyze parse profile trace coverage generate fmt; do
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
