#!/usr/bin/env python3
"""Build the perfbench program from source and run it.

Run from the root of a checkout:

    python3 perfbench/run.py --workload solve-spd --seed 1 --seconds 20 --trace 0

The Go build keeps its cache, module and config directories under
.bench_build/ in the checkout and uses only the local toolchain. The
arguments pass through to the program, which prints one JSON result line
last. Without the repository's sources next to perfbench/ the build fails
and the script exits non-zero without printing a result.
"""

import os
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(ROOT, ".bench_build")
BIN = os.path.join(BUILD, "perfbench", "perfbench")


def commit():
    """Returns the checkout's commit, or "unknown" outside a git work tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def build():
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        "XDG_CONFIG_HOME": os.path.join(BUILD, "config"),
        "GOTOOLCHAIN": "local",
        "GOFLAGS": "",
        "GOENV": "off",
        "GOWORK": "off",
        "GOPROXY": "off",
        "CGO_ENABLED": "0",
    })
    os.makedirs(os.path.dirname(BIN), exist_ok=True)
    proc = subprocess.run(["go", "build", "-buildvcs=false", "-o", BIN, "."],
                          cwd=HERE, env=env, stdout=sys.stderr)
    return proc.returncode == 0


def main():
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    os.environ["PERFBENCH_COMMIT"] = commit()
    sys.stdout.flush()
    os.execv(BIN, [BIN] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
