#!/usr/bin/env python3
"""Build the simulator benchmark from source, then run it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
        [--out FILE] [--spans FILE]

Run it from the root of a checkout. NAME is mpi-consolidation,
fuzz-campaign, dc-serve or all; see perfbench/README.md for the metrics.
The build goes to .bench_build in the release profile with the dune cache
off, so nothing outside the checkout is read or written and _build is
left alone. Every argument is passed on to perfbench/main.exe, whose
exit status this script returns. The last line of standard output is the
JSON result; build messages go to standard error.
"""

import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
TARGET = "./perfbench/main.exe"


def main():
    if not os.path.isfile("dune-project") or not os.path.isdir("lib"):
        sys.stderr.write("run.py: run from the root of a checkout of the simulator\n")
        return 2
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
         "--profile", "release", TARGET],
        stdout=sys.stderr, env=env)
    if build.returncode != 0:
        sys.stderr.write("run.py: build failed\n")
        return build.returncode
    exe = os.path.join(BUILD_DIR, "default", "perfbench", "main.exe")
    return subprocess.run([exe] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
