#!/bin/sh
# Byte-identity check of the working tree against a git revision.
#
#   bench/parity.sh [REV]     # REV defaults to HEAD; `make parity REV=...`
#
# Builds REV from `git archive` in a `mktemp -d` directory (set TMPDIR to
# choose where) and builds the working tree, runs both ninja_sim binaries
# on the fixed command list below, each side in its own output directory,
# and diffs everything they leave: stdout (minus `wrote <path>` lines),
# stderr, the exit code, and every --trace/--metrics/--spans/--stats file
# and repro. Exits 1 on any difference, 0 when all outputs are identical.
# `run all` dominates the run time (a few minutes per side).
set -eu

rev="${1:-HEAD}"
root=$(git rev-parse --show-toplevel)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT INT TERM

mkdir "$tmp/src"
git -C "$root" archive "$rev" | tar -x -C "$tmp/src"
echo "parity: building $rev"
dune build --root "$tmp/src" bin/ninja_sim.exe
echo "parity: building the working tree"
dune build --root "$root" bin/ninja_sim.exe

# run_side DIR BINARY: every command below, outputs under $tmp/DIR.
run_side() {
  mkdir "$tmp/$1"
  (
    cd "$tmp/$1"
    while IFS='|' read -r name args; do
      echo "parity: $1: ninja_sim $args"
      status=0
      # shellcheck disable=SC2086 # the argument lists hold no quoting
      "$2" $args > "$name.raw" 2> "$name.err" || status=$?
      grep -v '^wrote ' "$name.raw" > "$name.out" || true
      rm "$name.raw"
      echo "exit $status" >> "$name.out"
    done <<EOF
run-all|run all --seed 7 -j 2 --trace run-all.trace --metrics run-all.csv --spans run-all.json
check|check -n 300 --seed 7
serve|serve --seeds 1 --seeds 2 --traffic skewed --auto-swap learned --stats serve.prom
plan|plan --vms 4 --strategy swap
script|script
EOF
  )
}

run_side base "$tmp/src/_build/default/bin/ninja_sim.exe"
run_side work "$root/_build/default/bin/ninja_sim.exe"

if diff -r "$tmp/base" "$tmp/work" > "$tmp/diff"; then
  echo "parity: identical to $rev ($(ls "$tmp/work" | wc -l) files)"
else
  head -n 40 "$tmp/diff"
  echo "parity: outputs differ from $rev"
  exit 1
fi
