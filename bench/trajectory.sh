#!/bin/sh
# Bench trajectory: chart wall-time across every committed BENCH_N.json,
# with every counter each snapshot records for an entry, as key=value
# (events, heap insertions, re-rates, ... as far as that snapshot has
# them; everything but the entry's name and its wall and CPU seconds).
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

# An entry's counters, as one line of key=value pairs in row order.
counters='to_entries | map(select(.key | IN("name", "wall_s", "cpu_s") | not))
  | map("\(.key)=\(.value)") | join(" ")'

# One snapshot (a seed checkout) has no trajectory to chart: every bar
# would trivially be the maximum. Degrade to a single-row table of that
# snapshot's entries instead of an empty/degenerate chart.
if [ "$#" -eq 1 ]; then
  f="$1"
  pr=$(jq -r '.pr' "$f")
  w=$(jq -r '.total_wall_s // 0' "$f")
  jobs=$(jq -r '.jobs // 1' "$f")
  printf 'single snapshot (PR %s, -j%s): %ss total wall\n' "$pr" "$jobs" "$w"
  jq -r ".entries[] | [.name, (.wall_s | tostring), ($counters)] | @tsv" "$f" \
    | while IFS="$(printf '\t')" read -r name w counts; do
        if [ -n "$only" ] && [ "$name" != "$only" ]; then continue; fi
        printf '  %-18s %8.3fs %s\n' "$name" "$w" "$counts"
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
  echo "$name: wall, delta, wall bar, counters"
  prev=""
  for f; do
    pr=$(jq -r '.pr' "$f")
    w=$(jq -r --arg n "$name" '[.entries[] | select(.name == $n) | .wall_s] | first // empty' "$f")
    if [ -z "$w" ]; then
      printf '  PR %-3s %8s\n' "$pr" "-"
    else
      counts=$(jq -r --arg n "$name" "[.entries[] | select(.name == \$n) | $counters] | first" "$f")
      delta=""
      if [ -n "$prev" ]; then
        delta=$(jq -n --argjson p "$prev" --argjson w "$w" \
          'if $p <= 0 then "" else ((($w - $p) / $p * 100) | if . >= 0 then "+\(. | floor)%" else "\(. | ceil)%" end) end' \
          | tr -d '"')
      fi
      printf '  PR %-3s %8.3fs %6s %-41s %s\n' "$pr" "$w" "$delta" "$(bar "$w" "$max")" "$counts"
      prev="$w"
    fi
  done
done
