.PHONY: all build test check digests counters parity scaling replay mutants fmt clean

all: build

build:
	dune build @all

test:
	dune runtest

# The gate CI runs: everything compiles and the full suite passes.
check: build test

# The benchmark's digest check (CI job perfbench-digests): every workload
# briefly at seed 1, then one round of dc-serve at four more recorded seeds
# and of fuzz-campaign at two. perfbench/run.py exits 1 when a round's
# simulated results differ from perfbench/digests.txt, and so does this.
digests:
	python3 perfbench/run.py --workload all --seed 1 --seconds 5 --trace 0
	for seed in 0 7 17 42; do \
	  python3 perfbench/run.py --workload dc-serve --seed $$seed --seconds 1 --trace 0 || exit 1; \
	done
	for seed in 0 7; do \
	  python3 perfbench/run.py --workload fuzz-campaign --seed $$seed --seconds 1 --trace 0 || exit 1; \
	done

# Deterministic bench counters (CI job bench-counters): `bench quick -j 1`
# in a temporary directory must reproduce the newest committed
# BENCH_N.json's events, heap insertions, re-rates, swap pairs and pair
# costs, link polls and probe events on every entry. Exits 1 otherwise.
counters:
	bench/counters.sh

# Byte-identity of the working tree against REV (default HEAD): stdout,
# exit codes and every output file of a fixed command list, built from
# `git archive REV` in a temporary directory. Exits 1 on any difference.
parity:
	bench/parity.sh $(REV)

# Dispatch scaling: one fixed serve stream on 128 to 1,024 hosts, with
# and without the online swap policy; prints hosts, VMs, requests and
# wall seconds. With REV, also times a `git archive REV` build and exits 1
# if any stdout differs from it.
scaling:
	bench/scaling.sh $(REV)

# Seeded properties replay: each suite that draws its qcheck cases from
# NINJA_TEST_SEED prints the same output on two runs at one seed.
replay:
	test/replay.sh $(SEED)

# Planted bugs (test/mutants/*.patch) each fail the test they name,
# built from `git archive REV` (default HEAD). Exits 1 if one survives
# or no longer applies. Kept out of `dune runtest`.
mutants:
	test/mutants/run.sh $(REV)

# Advisory: requires ocamlformat, which not every dev box has.
fmt:
	dune fmt

clean:
	dune clean
