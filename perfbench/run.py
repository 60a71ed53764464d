#!/usr/bin/env python3
"""Entry point of the repository benchmark.

Builds the release server (`pga-shop-serve`, from the repository's own
workspace) and the benchmark package next to this file, then runs one
benchmark invocation and passes its output and exit code through:

    python3 perfbench/run.py --workload cold-mix --seed 1 --seconds 10 --trace 0

Run it from the repository root. Both builds go to $CARGO_TARGET_DIR
(default: .bench_build/ at the root). Scratch files go to .bench_work/ at
the root and are removed when the run ends.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(target, args):
    """Runs one quiet cargo build into `target`; returns True on success."""
    done = subprocess.run(["cargo", "build", "--release", "--offline", "-q",
                           "--target-dir", target] + args,
                          cwd=ROOT, stdout=sys.stderr)
    return done.returncode == 0


def main():
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")):
        print("perfbench: no Cargo workspace at the repository root", file=sys.stderr)
        return 2
    # The benchmark package has a workspace of its own, so without an
    # explicit target directory cargo would put its binary under
    # perfbench/target/. Both builds name the same directory instead.
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    if not build(target, ["-p", "serve", "--bin", "pga-shop-serve"]):
        print("perfbench: building pga-shop-serve failed", file=sys.stderr)
        return 2
    if not build(target, ["--manifest-path", os.path.join(HERE, "Cargo.toml")]):
        print("perfbench: building the benchmark failed", file=sys.stderr)
        return 2
    release = os.path.join(target, "release")
    cmd = [os.path.join(release, "perfbench")] + sys.argv[1:] + [
        "--server", os.path.join(release, "pga-shop-serve"),
        "--work", os.path.join(ROOT, ".bench_work"),
    ]
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
