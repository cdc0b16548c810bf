#!/bin/sh
# Dispatch scaling: one fixed request stream served on larger and larger
# leaf-spine datacenters, without and with the online swap policy.
#
#   bench/scaling.sh [REV]     # `make scaling [REV=<rev>]`
#
# Each run is
#   ninja_sim serve --duration 3600 --rate 0.1 --tenants 6
#     --vms-per-tenant V --mem-gb 8 --traffic skewed --seed 1
#     --topology leaf-spine:pods=P,racks=R,hosts=8,ib-pods=P/2,oversub=4,seed=1
#     [--auto-swap declared]
# with (P, R) = (4, 4), (4, 8), (8, 8), (8, 16): 128 to 1,024 hosts, and V
# = 8 per 128 hosts. Every run serves the same 355 requests. Prints one
# row per run: hosts, VMs, requests submitted, the swap policy and wall
# seconds. With REV, also builds `git archive REV` in a `mktemp -d`
# directory (set TMPDIR to choose where), runs the same command there,
# prints its wall time beside, and diffs the two stdouts; exits 1 if any
# differ. The release profile is used on both sides.
set -eu

rev="${1:-}"
root=$(git rev-parse --show-toplevel)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT INT TERM

build() { # build ROOT BUILD_DIR
  DUNE_CACHE=disabled dune build --root "$1" --build-dir "$2" --profile release bin/ninja_sim.exe
}

echo "scaling: building the working tree"
build "$root" "$tmp/work-build"
work="$tmp/work-build/default/bin/ninja_sim.exe"
base=""
if [ -n "$rev" ]; then
  mkdir "$tmp/src"
  git -C "$root" archive "$rev" | tar -x -C "$tmp/src"
  echo "scaling: building $rev"
  build "$tmp/src" "$tmp/src/_build"
  base="$tmp/src/_build/default/bin/ninja_sim.exe"
fi

now() { date +%s%N; }
secs() { awk -v a="$1" -v b="$2" 'BEGIN { printf "%.2f", (b - a) / 1e9 }'; }

# run EXE OUT ARGS...: run one serve command, stdout to OUT; print wall seconds.
run() {
  exe=$1 out=$2
  shift 2
  t0=$(now)
  "$exe" serve "$@" > "$out"
  secs "$t0" "$(now)"
}

status=0
if [ -n "$rev" ]; then
  printf '%6s %5s %8s %-9s %8s %8s  %s\n' hosts VMs requests swap wall "$rev" stdout
else
  printf '%6s %5s %8s %-9s %8s\n' hosts VMs requests swap wall
fi
for swap in none declared; do
  for pr in "4 4" "4 8" "8 8" "8 16"; do
    set -- $pr
    pods=$1 racks=$2
    hosts=$((pods * racks * 8))
    per=$((hosts / 16))
    set -- --duration 3600 --rate 0.1 --tenants 6 --vms-per-tenant "$per" --mem-gb 8 \
      --traffic skewed --seed 1 \
      --topology "leaf-spine:pods=$pods,racks=$racks,hosts=8,ib-pods=$((pods / 2)),oversub=4,seed=1"
    if [ "$swap" = declared ]; then set -- "$@" --auto-swap declared; fi
    name="$hosts-$swap"
    wall=$(run "$work" "$tmp/$name.work" "$@")
    requests=$(sed -n 's/^requests: \([0-9]*\) submitted.*/\1/p' "$tmp/$name.work")
    if [ -n "$rev" ]; then
      base_wall=$(run "$base" "$tmp/$name.base" "$@")
      if cmp -s "$tmp/$name.base" "$tmp/$name.work"; then same=identical; else
        same=DIFFERENT
        status=1
      fi
      printf '%6d %5d %8s %-9s %7ss %7ss  %s\n' "$hosts" $((6 * per)) "$requests" "$swap" \
        "$wall" "$base_wall" "$same"
    else
      printf '%6d %5d %8s %-9s %7ss\n' "$hosts" $((6 * per)) "$requests" "$swap" "$wall"
    fi
  done
done
if [ "$status" -ne 0 ]; then echo "scaling: stdout differs from $rev"; fi
exit $status
