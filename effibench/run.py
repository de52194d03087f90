#!/usr/bin/env python3
"""Build and run the repository benchmark (effibench).

    python3 effibench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 effibench/run.py --all [--seed N --seconds S --trace 0|1]
    python3 effibench/run.py --selftest

Run from the root of a source checkout. The first call configures and
builds the effitest library plus the effibench driver into
.bench_build/effibench (CMake, Release); later calls rebuild
incrementally. The driver's output is passed through; its last line is the
result JSON. With --trace 1 the spans go to .bench_build/trace_<NAME>.json
(Chrome trace-event format). --all runs every workload of BENCHMARK.json
in turn and exits non-zero unless each one exits 0 with correct output.

--selftest runs every workload at smoke size and checks that each metric in
BENCHMARK.json is emitted with its unit, that a deliberately corrupted
output is counted as failed, and that the deterministic counts repeat
exactly across two runs.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "effibench")
BINARY = os.path.join(BUILD, "effibench")
RUN_TIMEOUT = 170


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs,
                  "--target", "effibench"])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the results.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("effibench: build failed: " + " ".join(cmd))


def run(args, capture=False):
    """Run the driver; returns (exit code, stdout text or None)."""
    proc = subprocess.Popen([BINARY] + args, cwd=ROOT,
                            stdout=subprocess.PIPE if capture else None)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.exit("effibench: run timed out: " + " ".join(args))
    return proc.returncode, out.decode() if capture else None


def result_of(text):
    return json.loads(text.strip().splitlines()[-1])


def report_value(text, name):
    for line in text.splitlines():
        fields = line.split()
        if len(fields) >= 2 and fields[0] == name:
            return float(fields[1])
    raise KeyError(name)


def selftest():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    sets = {0: spec["end_to_end"], 1: spec["per_layer"]}
    # Deterministic counts per workload: (name, where it is printed).
    counts = {
        "tune_stream": ["tester_iters_per_chip", "core.stimuli_per_chip"],
        "prep_campaign": ["tester_iters_per_chip", "core.stimuli_per_chip"],
        "analytic_signoff": ["candidates", "analytic.candidates"],
        "fleet_relay": ["stimuli_per_session", "net.stimuli_per_session"],
    }
    problems = []
    for w in spec["workloads"]:
        name = w["name"]
        before = len(problems)
        base = ["--workload", name, "--seed", "2016", "--smoke"]
        texts = {}
        for trace in (0, 1, 1):
            code, text = run(base + ["--trace", str(trace), "--trace-file",
                                     os.path.join(ROOT, ".bench_build",
                                                  "selftest_trace.json")],
                             capture=True)
            if code != 0:
                problems.append(f"{name}: trace={trace} exited {code}")
                continue
            res = result_of(text)
            if not (res["correct"] and res["failed"] == 0
                    and res["attempted"] > 0):
                problems.append(f"{name}: trace={trace} not correct: {res}")
            for m in sets[trace]:
                got = res["metrics"].get(m["name"])
                if got is None or got.get("unit") != m["unit"]:
                    problems.append(f"{name}: metric {m['name']} missing or "
                                    f"without unit {m['unit']}")
            texts.setdefault(trace, []).append(text)
        code, text = run(base + ["--trace", "0", "--corrupt"], capture=True)
        res = result_of(text) if code == 0 else None
        if res is None or res["failed"] < 1 or res["correct"]:
            problems.append(f"{name}: corrupted output not counted: {res}")
        traced = texts.get(1, [])
        for count in counts[name]:
            values = [report_value(t, count) for t in traced]
            if len(values) != 2 or values[0] != values[1]:
                problems.append(f"{name}: {count} does not repeat: {values}")
        print(f"selftest {name}: "
              f"{'ok' if len(problems) == before else 'FAILED'}")
    for p in problems:
        print("selftest FAILED: " + p)
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=2016)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all", action="store_true")
    ap.add_argument("--selftest", action="store_true")
    # Anything else (--smoke, --corrupt) goes to the driver.
    args, extra = ap.parse_known_args()
    build()
    if args.selftest:
        return selftest()
    if args.all:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            names = [w["name"] for w in json.load(f)["workloads"]]
    elif args.workload:
        names = [args.workload]
    else:
        ap.error("--workload or --all is required")
    status = 0
    for name in names:
        code, text = run(["--workload", name, "--seed", str(args.seed),
                          "--seconds", str(args.seconds),
                          "--trace", str(args.trace), "--trace-file",
                          os.path.join(ROOT, ".bench_build",
                                       f"trace_{name}.json")] + extra,
                         capture=args.all)
        if not args.all:
            return code
        print(text, end="", flush=True)
        if code != 0 or not result_of(text)["correct"]:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
