#!/usr/bin/env bash
# Check that a one-shot `rml parse -O` finishes without a major
# collection: rml streams the tree to stdout and keeps the memo arena's
# rows out of the major GC's pacing (DESIGN.md, "A one-shot run does no
# collection work"). Each built-in's demo document, plus a MiniC-ext and
# a MiniJava document of oneshot size (generated once with
# lib/grammars/corpus.ml: `minic_extended` at seed 2 with 4 functions,
# `minijava` at seed 1 with 3 classes), is parsed under
# OCAMLRUNPARAM=v=0x400, which makes the runtime print its GC counters
# on stderr at exit.
#
#   test/cli/gc_quiet.sh RML
#
# Run from the repository root. Prints one line per run that failed or
# collected on stderr and a final count on stdout; exits 1 when any did.
set -u
rml=$1

runs=0
loud=0
while read -r name doc; do
  err=$(OCAMLRUNPARAM=v=0x400 "$rml" parse -O -b "$name" -i "$doc" 2>&1 > /dev/null)
  code=$?
  majors=$(printf '%s\n' "$err" | sed -n 's/^major_collections: //p')
  runs=$((runs + 1))
  if [ "$code" -ne 0 ] || [ "$majors" != 0 ]; then
    loud=$((loud + 1))
    echo "LOUD: rml parse -O -b $name -i $doc: exit $code, major_collections ${majors:-?}" >&2
  fi
done <<EOF
calc test/data/demo.calc
json test/data/demo.json
minic test/data/demo.c
minic-ext test/data/demo.cx
minijava test/data/demo.java
rats grammars/tutorial.rats
path test/data/demo.path
minic-ext test/data/oneshot.cx
minijava test/data/oneshot.java
EOF

echo "$runs runs, $loud with a major collection"
[ "$loud" -eq 0 ]
