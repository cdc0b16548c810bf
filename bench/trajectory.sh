#!/bin/sh
# Bench trajectory: chart wall-time across every committed BENCH_N.json,
# with each entry's events executed, event-heap insertions, rate-set
# re-rates, swap pairs priced and flow-monitor link polls where the
# snapshot records them ("-" before BENCH_13, for re-rates before
# BENCH_14, for swap pairs before BENCH_15, and for link polls before
# BENCH_17).
#
#   bench/trajectory.sh              # all snapshots in the repo root
#   bench/trajectory.sh evacuation   # one experiment's trajectory only
#
# Each snapshot is one PR's `dune exec bench/main.exe` run (see
# bench/main.ml); compare.sh gates consecutive pairs, this script shows
# the whole history: total wall per snapshot, then per-experiment rows
# with an ASCII bar scaled to the slowest snapshot of that experiment.
set -eu

only="${1:-}"

dir="$(dirname "$0")/.."
set -- $(ls "$dir"/BENCH_*.json 2>/dev/null | sort -t_ -k2 -n)
if [ "$#" -eq 0 ]; then
  echo "bench/trajectory.sh: no BENCH_N.json snapshots found"
  exit 0
fi

command -v jq >/dev/null 2>&1 || {
  echo "bench/trajectory.sh: jq not available"
  exit 1
}

# One snapshot (a seed checkout) has no trajectory to chart: every bar
# would trivially be the maximum. Degrade to a single-row table of that
# snapshot's entries instead of an empty/degenerate chart.
if [ "$#" -eq 1 ]; then
  f="$1"
  pr=$(jq -r '.pr' "$f")
  w=$(jq -r '.total_wall_s // 0' "$f")
  jobs=$(jq -r '.jobs // 1' "$f")
  printf 'single snapshot (PR %s, -j%s): %ss total wall\n' "$pr" "$jobs" "$w"
  jq -r '.entries[] | [.name, (.wall_s | tostring), (.events // "-" | tostring),
      (.heap_insertions // "-" | tostring), (.rerates // "-" | tostring),
      (.swap_pairs_priced // "-" | tostring), (.link_polls // "-" | tostring)] | @tsv' "$f" \
    | while IFS="$(printf '\t')" read -r name w ev hi rr sp lp; do
        if [ -n "$only" ] && [ "$name" != "$only" ]; then continue; fi
        printf '  %-18s %8.3fs %11s events %11s heap insertions %11s re-rates %11s swap pairs %11s link polls\n' \
          "$name" "$w" "$ev" "$hi" "$rr" "$sp" "$lp"
      done
  exit 0
fi

bar() { # bar <value> <max> — 1..40 hashes proportional to value/max
  jq -n --argjson v "$1" --argjson m "$2" \
    '"#" * (if $m <= 0 then 1 else (($v / $m * 40) | floor + 1) end)' | tr -d '"'
}

if [ -z "$only" ]; then
  echo "total wall seconds per snapshot:"
  max=0
  for f; do
    w=$(jq -r '.total_wall_s' "$f")
    max=$(jq -n --argjson a "$max" --argjson b "$w" 'if $b > $a then $b else $a end')
  done
  for f; do
    pr=$(jq -r '.pr' "$f")
    w=$(jq -r '.total_wall_s' "$f")
    jobs=$(jq -r '.jobs' "$f")
    printf '  PR %-3s %8.3fs -j%-2s %s\n' "$pr" "$w" "$jobs" "$(bar "$w" "$max")"
  done
  echo
fi

# Per-experiment rows over the union of entry names, newest-file order.
# Each row after the first also carries its delta against the previous
# snapshot that measured the same experiment, so a regression reads
# directly off the chart (compare.sh gates it; this names it).
names=$(for f; do jq -r '.entries[].name' "$f"; done | awk '!seen[$0]++')
for name in $names; do
  if [ -n "$only" ] && [ "$name" != "$only" ]; then continue; fi
  max=0
  for f; do
    w=$(jq -r --arg n "$name" '[.entries[] | select(.name == $n) | .wall_s] | first // 0' "$f")
    max=$(jq -n --argjson a "$max" --argjson b "$w" 'if $b > $a then $b else $a end')
  done
  echo "$name: wall, delta, events, heap insertions, re-rates, swap pairs priced, link polls"
  prev=""
  for f; do
    pr=$(jq -r '.pr' "$f")
    w=$(jq -r --arg n "$name" '[.entries[] | select(.name == $n) | .wall_s] | first // empty' "$f")
    if [ -z "$w" ]; then
      printf '  PR %-3s %8s\n' "$pr" "-"
    else
      counts=$(jq -r --arg n "$name" \
        '[.entries[] | select(.name == $n)
          | "\(.events // "-") \(.heap_insertions // "-") \(.rerates // "-") \(.swap_pairs_priced // "-") \(.link_polls // "-")"]
          | first' "$f")
      delta=""
      if [ -n "$prev" ]; then
        delta=$(jq -n --argjson p "$prev" --argjson w "$w" \
          'if $p <= 0 then "" else ((($w - $p) / $p * 100) | if . >= 0 then "+\(. | floor)%" else "\(. | ceil)%" end) end' \
          | tr -d '"')
      fi
      read -r ev hi rr sp lp <<EOF
$counts
EOF
      printf '  PR %-3s %8.3fs %6s %11s %11s %11s %11s %11s %s\n' "$pr" "$w" "$delta" "$ev" "$hi" \
        "$rr" "$sp" "$lp" "$(bar "$w" "$max")"
      prev="$w"
    fi
  done
done
