#!/bin/sh
# Mutation check: each patch in test/mutants plants one known bug, and the
# test it names must catch it.
#
#   test/mutants/run.sh [REV]     # REV defaults to HEAD; `make mutants`
#
# Extracts `git archive REV` into a `mktemp -d` directory (set TMPDIR to
# choose where). Every patch starts with a header that `git apply` skips:
#   Exe: test/test_engine.exe       the test executable to build
#   Case: rated 2                   alcotest's `test` filter: suite, index
#   Killed by: <test name>          the case that must fail
# First each named case must pass on the clean copy. Then, for each patch:
# apply it, build only its executable, run its case at NINJA_TEST_SEED=1,
# and revert it. Exits 1 if a patch no longer applies, a mutant does not
# build, or its case passes (the mutant survived); 0 when every mutant is
# killed. Not part of `dune runtest`: nothing under test/mutants is a dune
# target.
set -eu

rev="${1:-HEAD}"
root=$(git rev-parse --show-toplevel)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT INT TERM

git -C "$root" archive "$rev" | tar -x -C "$tmp"
cd "$tmp"

field() { sed -n "s/^$1: //p" "$2"; }

# run_case PATCH: build the patch's executable and run its case; the
# case's exit status is the function's.
run_case() {
  exe=$(field Exe "$1")
  dune build --root . "./$exe" 2> build.log || return 125
  # shellcheck disable=SC2046 # the case is a suite name and an index
  NINJA_TEST_SEED=1 timeout 600 "./_build/default/$exe" test $(field Case "$1") > run.log 2>&1
}

status=0
for p in test/mutants/*.patch; do
  if ! run_case "$p"; then
    echo "mutants: $(field 'Killed by' "$p") fails without any mutant"
    exit 1
  fi
done

killed=0 total=0
for p in test/mutants/*.patch; do
  total=$((total + 1))
  name=$(basename "$p" .patch)
  if ! git apply --check "$p" 2> /dev/null; then
    echo "mutants: $name no longer applies"
    status=1
    continue
  fi
  git apply "$p"
  result=0
  run_case "$p" || result=$?
  git apply -R "$p"
  case $result in
    0)
      echo "mutants: $name SURVIVED $(field 'Killed by' "$p")"
      status=1
      ;;
    125)
      echo "mutants: $name does not build"
      cat build.log
      status=1
      ;;
    *)
      echo "mutants: $name killed by $(field 'Killed by' "$p")"
      killed=$((killed + 1))
      ;;
  esac
done
echo "mutants: $killed of $total killed"
exit $status
