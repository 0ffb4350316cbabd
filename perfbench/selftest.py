#!/usr/bin/env python3
"""Self-test of the benchmark: runs every workload at smoke size through
run.py and checks the result contract, then checks that wrong answers and
bad arguments fail.

usage: python3 perfbench/selftest.py      (from the root of a checkout)

It asserts that
  - each workload, untraced and traced, exits 0 and ends with one JSON
    line holding exactly correct/attempted/failed/metrics;
  - every end-to-end metric (untraced) and every per-layer metric (traced)
    of BENCHMARK.json is printed, in its unit, both in the JSON and in the
    human-readable table with a sample count; end-to-end values are > 0;
  - two runs with the same seed print the same verdict digest;
  - a planted wrong expected verdict makes the run fail (exit 1,
    "correct": false), on sharcc and on explore;
  - zero, non-numeric and over-limit arguments exit 2.
"""

import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SMOKE = ["--size", "1", "--seconds", "1"]
FAILURES = []


def check(cond, what):
    print(("ok: " if cond else "FAIL: ") + what)
    if not cond:
        FAILURES.append(what)


def run(*args):
    return subprocess.run([sys.executable, os.path.join(HERE, "run.py")] +
                          list(args), cwd=ROOT, capture_output=True,
                          text=True)


def result(proc):
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    modes = {"0": spec["end_to_end"], "1": spec["per_layer"]}
    digests = {}
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, metrics in modes.items():
            what = f"{workload} --trace {trace}"
            proc = run("--workload", workload, "--seed", "11", "--trace",
                       trace, *SMOKE)
            check(proc.returncode == 0, f"{what} exits 0")
            if proc.returncode != 0:
                print(proc.stderr.strip()[-2000:])
            res = result(proc)
            check(res is not None and set(res) ==
                  {"correct", "attempted", "failed", "metrics"},
                  f"{what} ends with the JSON result line")
            if not res:
                continue
            check(res["correct"] is True and res["failed"] == 0 and
                  res["attempted"] >= 1, f"{what} is correct")
            table = {m.group(1): (m.group(3), m.group(4)) for m in re.finditer(
                r"^metric (\S+) +(\S+) (\S+) +n=(\d+)$", proc.stdout, re.M)}
            for m in metrics:
                got = res["metrics"].get(m["name"])
                check(got is not None and got["unit"] == m["unit"],
                      f"{what} prints {m['name']} in {m['unit']}")
                check(table.get(m["name"], ("", ""))[0] == m["unit"],
                      f"{what} tables {m['name']} with unit and samples")
                if trace == "0" and got is not None:
                    check(got["value"] > 0, f"{what} {m['name']} > 0")
            check(len(res["metrics"]) == len(metrics),
                  f"{what} prints no metric beyond BENCHMARK.json's")
            digest = re.search(r"^verdict digest: (\S+)", proc.stdout, re.M)
            if digest:
                digests.setdefault(workload, set()).add(digest.group(1))
    for workload, seen in digests.items():
        check(len(seen) == 1, f"{workload}: same seed, same verdict digest")

    for workload, program in (("sharcc", "race_demo.mc"),
                              ("explore", "explore_indep.mc")):
        proc = run("--workload", workload, "--seed", "11", "--trace", "0",
                   "--flip-expectation", program, *SMOKE)
        res = result(proc)
        check(proc.returncode == 1 and res is not None and
              res["correct"] is False and res["failed"] >= 1,
              f"{workload}: a wrong expected verdict for {program} fails "
              f"the run (exit {proc.returncode})")

    # A flag given twice takes its last value, so each bad value is
    # appended to an otherwise valid command line.
    valid = ["--workload", "scan", "--seed", "1", "--trace", "0", *SMOKE]
    for flag, value in (("--seed", "abc"), ("--seed", "-1"),
                        ("--size", "0"), ("--size", "65"),
                        ("--threads", "0"), ("--threads", "99"),
                        ("--seconds", "0"), ("--trace", "2"),
                        ("--workload", "nope")):
        proc = run(*valid, flag, value)
        check(proc.returncode == 2 and not proc.stdout.strip().endswith("}"),
              f"{flag} {value} is rejected with exit 2 "
              f"(got {proc.returncode})")

    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
