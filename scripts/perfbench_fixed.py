#!/usr/bin/env python3
"""Gate the repository benchmark's machine-independent outputs.

Each perfbench run prints a "fixed {...}" line: best costs, rcr, best-state
fingerprints, states created and partition counts. They repeat exactly for
a seed and do not depend on --seconds, so a change that alters any of them
changed what the search explores or recommends. The baseline file holds one
line per (workload, seed):

    <workload> <seed> fixed {...}

--check re-runs every (workload, seed) in the baseline with --seconds 1 and
compares: fingerprints and integer fields must match exactly, cost fields
(names ending in "cost" or "rcr") within bench_diff.py's relative tolerance.
A mismatch prints a GitHub ::error:: annotation and exits non-zero.
--write regenerates the baseline for the listed workloads and seeds.

Usage, from the root of a checkout:

    python3 scripts/perfbench_fixed.py --check bench/baselines/perfbench_fixed.txt
    python3 scripts/perfbench_fixed.py --write bench/baselines/perfbench_fixed.txt
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
from bench_diff import COST_RTOL, close  # noqa: E402

WORKLOADS = ("deep_search", "wide_session", "fleet_session")
SEEDS = (1, 7919)
SECONDS = 1


def fixed_line(workload, seed):
    """Runs one benchmark process; returns its fixed {...} JSON text."""
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(SECONDS)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.exit("perfbench_fixed: %s seed %d failed (exit %d)" %
                 (workload, seed, proc.returncode))
    for line in proc.stdout.splitlines():
        if line.startswith("fixed "):
            return line[len("fixed "):]
    sys.exit("perfbench_fixed: %s seed %d printed no fixed line" %
             (workload, seed))


def read_baseline(path):
    entries = []
    with open(path) as f:
        for line in f:
            if not line.strip() or line.startswith("#"):
                continue
            workload, seed, tag, fixed = line.rstrip("\n").split(" ", 3)
            if tag != "fixed":
                sys.exit("perfbench_fixed: malformed baseline line: " + line)
            entries.append((workload, int(seed), json.loads(fixed)))
    return entries


def is_cost(name):
    return name.endswith("cost") or name.endswith("rcr")


def compare(base, cur):
    """Returns the mismatching fields of one fixed line."""
    problems = []
    for name in sorted(set(base) | set(cur)):
        if name not in base or name not in cur:
            problems.append("%s: present in only one of baseline/current" %
                            name)
            continue
        b, c = base[name], cur[name]
        if is_cost(name):
            if not close(b, c, COST_RTOL):
                problems.append("%s: baseline %.17g != current %.17g "
                                "(rtol %g)" % (name, b, c, COST_RTOL))
        elif b != c:
            problems.append("%s: baseline %s != current %s" % (name, b, c))
    return problems


def check(path):
    failures = 0
    for workload, seed, base in read_baseline(path):
        cur = json.loads(fixed_line(workload, seed))
        problems = compare(base, cur)
        for p in problems:
            print("::error title=perfbench_fixed::%s seed %d %s" %
                  (workload, seed, p))
        failures += len(problems)
        print("perfbench_fixed: %s seed %d %s" %
              (workload, seed, "FAILED" if problems else "matches"))
    return 1 if failures else 0


def write(path):
    lines = ["# perfbench fixed outputs (--seconds %d); regenerate with" %
             SECONDS,
             "# python3 scripts/perfbench_fixed.py --write " +
             os.path.relpath(path, ROOT)]
    for workload in WORKLOADS:
        for seed in SEEDS:
            lines.append("%s %d fixed %s" %
                         (workload, seed, fixed_line(workload, seed)))
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--check", metavar="BASELINE")
    mode.add_argument("--write", metavar="BASELINE")
    args = parser.parse_args()
    if args.check:
        return check(args.check)
    return write(os.path.abspath(args.write))


if __name__ == "__main__":
    sys.exit(main())
