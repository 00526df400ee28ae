#!/usr/bin/env python3
"""Build the simulator benchmark from source and run it.

Run from the root of a checkout:

    python3 simbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The benchmark is built with dune (the shared dune cache is disabled, so
the build writes only under the checkout's _build/), then the arguments
are passed through unchanged.  Build output goes to standard error, so
the last line of standard output is the benchmark's JSON result.
Exits non-zero, without a result, when the checkout or the build is
missing.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TARGET = "./simbench/main.exe"


def fail(msg):
    print("simbench: " + msg, file=sys.stderr)
    return 2


def main():
    for needed in ("dune-project", "lib"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            return fail("%s not found next to simbench/; run from a checkout of "
                        "the repository" % needed)
    dune = shutil.which("dune")
    if dune is None:
        return fail("dune not found on PATH")
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run([dune, "build", "--root", ROOT, TARGET],
                           cwd=ROOT, env=env, stdout=sys.stderr)
    if build.returncode != 0:
        return fail("build failed (exit %d)" % build.returncode)
    exe = os.path.join(ROOT, "_build", "default", "simbench", "main.exe")
    return subprocess.run([exe] + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
