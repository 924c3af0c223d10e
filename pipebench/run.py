#!/usr/bin/env python3
"""Build and run the alem pipeline benchmark.

    python3 pipebench/run.py --workload match-abtbuy|learn-cora|serve-tcp \
        --seed N --seconds S --trace 0|1 [--small]

Run from the repository root. Builds the `pipebench` binary and the
`alem-serve` server it spawns (release profile, offline, into
$CARGO_TARGET_DIR or .bench_build), then runs one workload. The last line
of standard output is the JSON result; see pipebench/README.md.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
MANIFEST = os.path.join(HERE, "Cargo.toml")


def main() -> int:
    root = os.getcwd()
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cargo = ["cargo", "build", "--release", "--offline", "--locked", "--quiet",
             "--manifest-path", MANIFEST]
    for extra in (["--bin", "pipebench"], ["-p", "alem-serve", "--bin", "alem-serve"]):
        # Build output goes to standard error; standard output carries
        # only the benchmark's own lines.
        built = subprocess.run(cargo + extra, env=env, stdout=sys.stderr)
        if built.returncode != 0:
            print("run.py: build failed", file=sys.stderr)
            return built.returncode or 1
    binary = os.path.join(target, "release", "pipebench")
    work = os.path.join(root, ".bench_work", str(os.getpid()))
    try:
        return subprocess.run(
            [binary, *sys.argv[1:],
             "--serve-bin", os.path.join(target, "release", "alem-serve"),
             "--work-dir", work],
        ).returncode
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass  # another run still uses it


if __name__ == "__main__":
    sys.exit(main())
