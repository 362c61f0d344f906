#!/bin/sh
# Seed sweep of the property suite: runs test_props once per QCheck seed
# and prints each seed's failing tests, one line per seed. Not part of
# `dune runtest`, whose runs draw a fresh seed each time.
#
#   test/props_sweep.sh            seeds 1..40 against this checkout
#   test/props_sweep.sh 100        seeds 1..100
#   test/props_sweep.sh 40 EXE     seeds 1..40 against another test_props.exe
#
# Output lines look like "seed 24: engine-equivalence/0 pass-equivalence/1"
# or "seed 1: ok"; the last line counts the seeds with failures.
set -eu
n=${1:-40}
exe=${2:-}
if [ -z "$exe" ]; then
  cd "$(dirname "$0")/.."
  dune build test/test_props.exe
  exe=_build/default/test/test_props.exe
fi
failing=0
seed=1
while [ "$seed" -le "$n" ]; do
  fails=$(QCHECK_SEED=$seed "$exe" --color=never 2>&1 \
    | sed -n 's/^[>│ ]*\[FAIL\] *\([^ ]*\) *\([0-9]*\) .*/\1\/\2/p' \
    | sort -u | tr '\n' ' ' | sed 's/ $//') || true
  if [ -n "$fails" ]; then
    failing=$((failing + 1))
    echo "seed $seed: $fails"
  else
    echo "seed $seed: ok"
  fi
  seed=$((seed + 1))
done
echo "$failing of $n seeds have failures"
