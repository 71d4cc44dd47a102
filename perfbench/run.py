#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload wide_session --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --selftest

The first run configures and builds perfbench/ (the benchmark package, which
compiles the repository's src/ itself) into $CARGO_TARGET_DIR, or
.bench_build when that is unset. The benchmark binary prints a "fixed {...}"
line with the machine-independent outputs (best cost, rcr, fingerprint,
states created, partitions, dispatches; they repeat exactly for a seed),
then the result object as the last line of stdout. --trace 1 prints the
per-layer metrics instead of the end-to-end ones and writes the run's spans
to <build dir>/trace-<workload>-<seed>.json.

Seeds: 1 is the default seed; 7919 is the held-out seed, kept out of tuning
the benchmark and used to confirm its checks on unseen inputs.

--selftest runs every workload (deep_search, wide_session, fleet_session)
at a tiny scale, untraced and traced, and fails unless every run passes its
correctness checks and each workload named in BENCHMARK.json reports
exactly the end-to-end (untraced) or per-layer (traced) metrics listed
there. It takes seconds once the binary is built.
"""

import argparse
import json
import os
import subprocess
import sys

DEFAULT_SEED = 1
HELD_OUT_SEED = 7919
WORKLOADS = ("deep_search", "wide_session", "fleet_session")
RUN_TIMEOUT_S = 170

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    return os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")


def build():
    """Configures (once) and builds the benchmark; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "rdfviews.h")):
        sys.exit("perfbench: repository sources not found under " + ROOT)
    out = build_dir()
    log = sys.stderr
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=log, stderr=log, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", out, "--target", "perfbench",
                    "-j", jobs], stdout=log, stderr=log, check=True)
    return os.path.join(out, "perfbench")


def run(binary, workload, seed, seconds, trace, tiny=False):
    """Runs one benchmark process; returns (exit code, stdout)."""
    out = build_dir()
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           # A relative socket directory keeps within the AF_UNIX limit.
           "--work-dir", os.path.relpath(out)]
    if trace:
        cmd += ["--trace-out",
                os.path.join(out, "trace-%s-%s.json" % (workload, seed))]
    if tiny:
        cmd += ["--tiny", "1"]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print("perfbench: %s timed out" % workload, file=sys.stderr)
        return 1, ""
    return proc.returncode, stdout


def last_result(stdout):
    lines = stdout.strip().splitlines()
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return None


def listed_metrics():
    """Per workload named in BENCHMARK.json, the metric names each trace
    mode must report."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = {trace: sorted(m["name"] for m in spec[key])
             for trace, key in ((0, "end_to_end"), (1, "per_layer"))}
    return {w["name"]: names for w in spec["workloads"]}


def selftest(binary):
    ok = True
    listed = listed_metrics()
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, stdout = run(binary, workload, DEFAULT_SEED, 1, trace,
                               tiny=True)
            result = last_result(stdout)
            passed = code == 0 and result is not None and result["correct"]
            if passed and workload in listed:
                got = sorted(result["metrics"])
                want = listed[workload][trace]
                if got != want:
                    passed = False
                    print("selftest %s trace=%d: metrics differ from "
                          "BENCHMARK.json: missing %s, extra %s" %
                          (workload, trace, sorted(set(want) - set(got)),
                           sorted(set(got) - set(want))))
            ok = ok and passed
            print("selftest %-14s trace=%d %s" %
                  (workload, trace, "ok" if passed else "FAILED"))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")
    try:
        binary = build()
    except (subprocess.CalledProcessError, OSError) as e:
        sys.exit("perfbench: build failed: %s" % e)
    if args.selftest:
        return selftest(binary)
    code, stdout = run(binary, args.workload, args.seed, args.seconds,
                       args.trace)
    if code != 0 or last_result(stdout) is None:
        sys.stderr.write(stdout)
        return code or 1
    sys.stdout.write(stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
