#!/bin/sh
# Replay check: a suite whose properties draw their cases from
# NINJA_TEST_SEED (through test/qsuite) prints the same output on two runs
# at one seed, once the run ID and timing lines alcotest adds are set
# aside. Before, each run printed its own `qcheck random seed`.
#
#   test/replay.sh [SEED]     # `make replay`; SEED defaults to 1
#
# Exits 1 if any suite's two runs differ.
set -eu

seed="${1:-1}"
suites="test_engine test_scheduler test_planner test_controlplane test_topology test_flownet
test_telemetry test_faults test_check test_mpi test_vmm test_hardware test_metrics test_workloads"
root=$(git rev-parse --show-toplevel)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT INT TERM

cd "$root"
set --
for t in $suites; do set -- "$@" "./test/$t.exe"; done
dune build "$@" ./bin/ninja_sim.exe
cd _build/default/test

status=0
for t in $suites; do
  for run in 1 2; do
    NINJA_TEST_SEED=$seed "./$t.exe" --color never > "$tmp/raw" 2>&1 || true
    grep -v -e '^This run has ID' -e 'Test Successful in' -e 'tests run' -e 'failures\? in' \
      "$tmp/raw" > "$tmp/$t.$run" || true
  done
  if cmp -s "$tmp/$t.1" "$tmp/$t.2"; then
    echo "replay: $t prints the same output twice at seed $seed"
  else
    echo "replay: $t differs between two runs at seed $seed"
    diff "$tmp/$t.1" "$tmp/$t.2" | head -n 20
    status=1
  fi
done
exit $status
