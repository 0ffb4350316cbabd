#!/usr/bin/env python3
"""Builds sharc-perfbench from this checkout and runs one workload.

usage: python3 perfbench/run.py --workload scan|handoff|sharcc|explore \
           --seed N --seconds N --trace 0|1 [more sharc-perfbench flags]

Run it from the root of a checkout. The first call configures and builds
`sharc-perfbench` (Release) under .bench_build/perfbench from the
checkout's own sources; later calls only rebuild what changed. Build
output goes to standard error, so the last line of standard output is the
JSON result. The traced run (--trace 1) writes its spans to
.bench_build/perfbench/spans.jsonl. See perfbench/README.md for the
workloads and metrics.
"""

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "sharc-perfbench")


def build():
    """Configures (once) and builds sharc-perfbench; False on failure."""
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "sharc-perfbench",
                  "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                          cwd=ROOT).returncode != 0:
            return False
    return True


def revision():
    """The git commit when there is one, else a digest of the sources the
    benchmark builds and reads, so a result always names its code."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        git = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if git.returncode == 0 and git.stdout.strip():
            dirty = subprocess.run(
                ["git", "-C", ROOT, "status", "--porcelain", "--", "src",
                 "perfbench", "examples", "tests/fixtures"],
                capture_output=True, text=True).stdout.strip()
            return "git:" + git.stdout.strip() + ("+dirty" if dirty else "")
    digest = hashlib.sha256()
    for top in ("src", "perfbench", "examples/minic", "tests/fixtures"):
        for base, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, ROOT).encode() + b"\0")
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "sources-sha256:" + digest.hexdigest()[:16]


def main():
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 3
    argv = [BINARY] + sys.argv[1:] + [
        "--rev", revision(),
        "--spans-out", os.path.join(BUILD, "spans.jsonl")]
    sys.stdout.flush()
    sys.stderr.flush()
    os.chdir(ROOT)
    os.execv(BINARY, argv)


if __name__ == "__main__":
    sys.exit(main())
