#!/usr/bin/env python3
"""Build rml and rmlbench from source, then run one rmlbench workload.

Run from the root of a rats-ml checkout:

    python3 bench/suite/run.py --workload bulk --seed 3 --seconds 20 --trace 0

The last line of standard output is rmlbench's JSON result: the
end-to-end metrics, or with --trace 1 the per-layer metrics (the chrome
trace goes to _build/rmlbench/). Build output goes to standard error.
"""

import argparse
import os
import subprocess
import sys

BENCH = "_build/default/bench/suite/rmlbench.exe"
WORK = "_build/rmlbench"


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=["oneshot", "bulk", "batch", "edit"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = p.parse_args()

    if not (os.path.isfile("dune-project") and os.path.isdir("lib")
            and os.path.isdir("bin")):
        sys.exit("run.py: not at the root of a rats-ml checkout")

    # The dune cache lives outside the checkout; build without it.
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "bin/rml.exe",
         "bench/suite/rmlbench.exe"],
        stdout=sys.stderr, env=env)
    if build.returncode != 0:
        sys.exit("run.py: build failed")

    cmd = [BENCH, "run", "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--work", WORK]
    if a.trace:
        cmd += ["--trace",
                f"{WORK}/trace-{a.workload}-{a.seed}.json"]
    sys.exit(subprocess.run(cmd).returncode)


if __name__ == "__main__":
    main()
