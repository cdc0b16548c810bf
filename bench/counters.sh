#!/bin/sh
# Bench counter check: run `bench/main.exe quick -j 1` in a fresh
# directory and exit 1 unless its deterministic counters equal the newest
# committed BENCH_N.json's, entry by entry.
#
#   bench/counters.sh        # `make counters`
#
# Compared: events, heap_insertions, rerates, swap_pairs_priced,
# swap_pair_costs, link_polls and probe_events. They count simulated
# work, so a change that claims the same work must reproduce them
# exactly; a counter absent from an entry must stay absent. Wall time,
# CPU time and minor and major words are left out: they depend on the machine and
# the compiler (snapshots are written on OCaml 5.1.1, CI runs 5.2), and
# bench/compare.sh gates wall time. Needs jq.
set -eu

root=$(cd "$(dirname "$0")/.." && pwd)
base=$(cd "$root" && ls BENCH_*.json | sort -t_ -k2 -n | tail -n 1)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT INT TERM

dune build --root "$root" ./bench/main.exe
(cd "$tmp" && "$root/_build/default/bench/main.exe" quick -j 1 > bench.out)

# One "entry counter value" line per compared counter of every entry.
rows() {
  jq -r '.entries[] | . as $e
    | ("events", "heap_insertions", "rerates", "swap_pairs_priced", "swap_pair_costs",
       "link_polls", "probe_events")
    | "\($e.name) \(.) \($e[.] // "absent")"' "$1"
}
rows "$root/$base" > "$tmp/want"
rows "$tmp/BENCH_1.json" > "$tmp/got"
if diff "$tmp/want" "$tmp/got" > "$tmp/diff"; then
  echo "bench counters: quick -j 1 reproduces $base ($(wc -l < "$tmp/want") counters)"
else
  echo "bench counters: quick -j 1 differs from $base (< $base, > this tree):"
  cat "$tmp/diff"
  exit 1
fi
