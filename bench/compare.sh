#!/bin/sh
# Bench regression gate. With no arguments, compare the newest BENCH_N.json
# entry by entry against the best (lowest) wall time the entry recorded in
# any older snapshot; with two arguments, compare the second file against
# the first. Fails when any experiment's wall time regressed by more than
# BENCH_TOLERANCE (default 30%).
#
#   bench/compare.sh                       # newest vs best of all older ones
#   bench/compare.sh BENCH_5.json BENCH_6.json
#   BENCH_TOLERANCE=0.5 bench/compare.sh   # allow 50%
#
# Gating against the best in history rather than the previous snapshot
# stops a slow ratchet: controlplane went from 0.074s (BENCH_6) to 0.127s
# (BENCH_10), +72%, while every single step stayed under the 30% gate.
#
# Entries present only in the newest file are reported and skipped (new
# experiments have no baseline); entries faster than MIN_WALL seconds are
# skipped as noise. Exits 0 when there is nothing to compare.
#
# The 0.1s floor comes from the snapshot history: sub-100ms entries swing
# +/-30% between snapshots with no code changes (ablation-bypass recorded
# 35/49/42/56ms across PRs 5-8), so they measure scheduler noise, not
# regressions.
set -eu

TOL="${BENCH_TOLERANCE:-0.30}"
MIN_WALL="${BENCH_MIN_WALL:-0.1}"

if [ "$#" -eq 2 ]; then
  baselines="$1"
  new="$2"
else
  dir="$(dirname "$0")/.."
  set -- $(ls "$dir"/BENCH_*.json 2>/dev/null | sort -t_ -k2 -n)
  if [ "$#" -lt 2 ]; then
    echo "bench/compare.sh: fewer than two BENCH_N.json files; nothing to compare"
    exit 0
  fi
  baselines=""
  while [ "$#" -gt 1 ]; do
    baselines="$baselines $1"
    shift
  done
  new="$1"
fi

command -v jq >/dev/null 2>&1 || {
  echo "bench/compare.sh: jq not available; skipping bench gate"
  exit 0
}

names=$(for f in $baselines; do printf ' %s' "$(basename "$f")"; done)
echo "bench gate: $(basename "$new") vs the best of${names} (tolerance ${TOL}, floor ${MIN_WALL}s)"

fail=0
for name in $(jq -r '.entries[].name' "$new"); do
  new_wall=$(jq -r --arg n "$name" '.entries[] | select(.name == $n) | .wall_s' "$new")
  # "<wall_s> <file>" of the entry's fastest older snapshot.
  best=$(jq -r --arg n "$name" \
    '.entries[] | select(.name == $n) | "\(.wall_s) \(input_filename)"' $baselines \
    | sort -g | head -n 1)
  if [ -z "$best" ]; then
    echo "  NEW   $name: ${new_wall}s (no baseline, skipped)"
    continue
  fi
  old_wall="${best%% *}"
  old_file="$(basename "${best#* }")"
  verdict=$(jq -n --argjson o "$old_wall" --argjson w "$new_wall" \
    --argjson t "$TOL" --argjson m "$MIN_WALL" \
    'if ($o < $m and $w < $m) then "skip"
     elif $w > $o * (1 + $t) then "regressed"
     else "ok" end' | tr -d '"')
  case "$verdict" in
    regressed)
      echo "  FAIL  $name: ${old_wall}s ($old_file) -> ${new_wall}s (> ${TOL} regression)"
      fail=1
      ;;
    skip) echo "  skip  $name: ${old_wall}s ($old_file) -> ${new_wall}s (below ${MIN_WALL}s floor)" ;;
    *) echo "  ok    $name: ${old_wall}s ($old_file) -> ${new_wall}s" ;;
  esac
done

if [ "$fail" -ne 0 ]; then
  echo "bench gate: wall-time regression detected"
  exit 1
fi
echo "bench gate: ok"
