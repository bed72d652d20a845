#!/usr/bin/env python3
"""Build the repository benchmark and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --compare BASE_RESULTS CAND_RESULTS

Works from any directory: it changes to the repository root, builds the
`perfbench` package (release, offline) into $CARGO_TARGET_DIR (default
`perfbench/target`) and runs it with the given arguments. The exit code
is the benchmark's, or the build's when the build fails; nothing is
printed on standard output then.
"""

import os
import subprocess
import sys
from pathlib import Path


def main() -> int:
    root = Path(__file__).resolve().parent.parent
    os.chdir(root)
    target = Path(os.environ.get("CARGO_TARGET_DIR", "perfbench/target"))
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", "perfbench/Cargo.toml"],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode
    exe = target / "release" / "perfbench"
    return subprocess.run([str(exe), *sys.argv[1:]]).returncode


if __name__ == "__main__":
    sys.exit(main())
