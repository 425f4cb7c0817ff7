#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Builds perfbench/bench.exe with dune
(the shared dune cache is disabled, so the build writes only under the
checkout's _build/), then runs it with the given arguments.  Its last
line of output is the result object; see perfbench/README.md.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")


def main():
    missing = [p for p in ("dune-project", "lib", "bin") if not os.path.exists(os.path.join(ROOT, p))]
    if missing:
        sys.stderr.write("perfbench: not a source checkout (missing %s)\n" % ", ".join(missing))
        return 2
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ROOT, "--build-dir", "_build", "./perfbench/bench.exe"],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        sys.stderr.write("perfbench: build failed\n")
        return build.returncode
    sys.stdout.flush()
    return subprocess.run([EXE] + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
