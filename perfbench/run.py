#!/usr/bin/env python3
"""Build the mecar benchmark harness and run one workload.

    python3 perfbench/run.py --workload steady|burst|paper --seed N \
        --seconds S --trace 0|1

Run from the root of a mecar checkout. The harness (perfbench/src) and the
library it measures are built from that checkout's sources into
.bench_build/mecar_perf; the first run configures and compiles, later runs
only check that the build is current. Build output goes to stderr, so the
last line of stdout is the harness's JSON result. A traced run (--trace 1)
also writes its spans to .bench_build/mecar_perf/trace-<workload>-<seed>.json.

Exits non-zero without a result when the build or any check fails.
"""

import argparse
import fcntl
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "mecar_perf"
BINARY = BUILD / "mecar_perf"


def build() -> bool:
    # The compiler's scratch files stay inside the checkout too.
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    # Concurrent runs in one checkout must not build into the same tree at
    # once; the lock is released when the file closes.
    with open(BUILD / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (BUILD / "CMakeCache.txt").exists():
            configure = ["cmake", "-S", str(HERE), "-B", str(BUILD),
                         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
            if subprocess.run(configure, stdout=sys.stderr,
                              env=env).returncode != 0:
                return False
        compile_ = ["cmake", "--build", str(BUILD), "--target", "mecar_perf",
                    "-j", "2"]
        return subprocess.run(compile_, stdout=sys.stderr,
                              env=env).returncode == 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["steady", "burst", "paper"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    cmd = [str(BINARY), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--scenarios", str(HERE / "scenarios")]
    if args.trace:
        cmd += ["--trace-out",
                str(BUILD / f"trace-{args.workload}-{args.seed}.json")]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
