#!/usr/bin/env python3
"""The paper claims gate rejects what it should.

Builds small synthetic reports that satisfy every claim in
bench/baselines/paper_claims.json, checks that check_bench_json.py
accepts them, then doctors one value at a time and requires exit 1 for
each claim kind: a threshold, an ordering inside one report, and an
ordering across reports. It also pins the binomial tolerance on yields
(a small violation passes at 100 chips and fails at 10,000), a missing
chips record, a missing report, and that every bench a claim names is a
committed paper/<bench>.scenario.json.

Usage: claims_test.py <check_bench_json.py> <paper_claims.json> <paper dir>
"""

import copy
import json
import os
import subprocess
import sys
import tempfile

CHECKER, CLAIMS, PAPER_DIR = sys.argv[1:4]
CIRCUITS = ["s9234", "s13207"]


NAMES = {"tpv": "t'v", "y0": "yield_no_buffer", "yt": "yield_proposed",
         "yi": "yield_ideal"}


def metrics(**short) -> dict:
    """Report metric names for short keyword names (yt = yield_proposed)."""
    return {NAMES.get(k, k): v for k, v in short.items()}


def flow_job(**short) -> dict:
    job = metrics(ra=96.0, tv=4.5, tpv=9.0, y0=0.47, yt=0.60, yi=0.62,
                  chips=100)
    job.update(metrics(**short))
    return job


def good_reports() -> dict:
    """bench -> {label -> {metric -> value}}; every claim holds."""
    reports = {}
    for bench in ("table1", "table2", "fig7", "fig8_mux", "fig8_aligned"):
        reports[bench] = {}
    for c in CIRCUITS:
        reports["table1"][c] = flow_job()
        reports["table2"][f"{c}@q0.5000"] = flow_job()
        reports["table2"][f"{c}@q0.8413"] = flow_job(y0=0.85, yt=0.92, yi=0.94)
        reports["fig7"][f"{c}@q0.5000"] = flow_job(y0=0.24, yt=0.31, yi=0.45)
        reports["fig8_mux"][c] = flow_job(tv=6.5)
        reports["fig8_aligned"][c] = flow_job(tv=4.6)
    return reports


def write(reports: dict, directory: str) -> list:
    paths = []
    for bench, labels in reports.items():
        records = [{"circuit": label, "metric": metric, "value": value,
                    "wall_seconds": 0.0}
                   for label, metrics in labels.items()
                   for metric, value in metrics.items()]
        path = os.path.join(directory, f"BENCH_{bench}.json")
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"schema": "effitest-bench-v1", "bench": bench,
                       "git_sha": "test", "threads": 1, "records": records}, f)
        paths.append(path)
    return paths


def run(reports: dict) -> subprocess.CompletedProcess:
    with tempfile.TemporaryDirectory() as tmp:
        return subprocess.run(
            [sys.executable, CHECKER, "--baseline", CLAIMS, *write(reports, tmp)],
            capture_output=True, text=True)


failures = []


def expect(name: str, reports: dict, code: int, needle: str = "") -> None:
    got = run(reports)
    if got.returncode != code or needle not in got.stdout:
        failures.append(f"{name}: exit {got.returncode} (want {code}), "
                        f"want {needle!r} in output:\n{got.stdout}{got.stderr}")


def doctored(edit) -> dict:
    reports = copy.deepcopy(good_reports())
    edit(reports)
    return reports


expect("all claims hold", good_reports(), 0, "all bench JSON checks passed")

# A threshold: ra must stay above 90% on every circuit.
expect("threshold", doctored(
    lambda r: r["table1"]["s13207"].update(metrics(ra=85.0))), 1,
    "iterations per chip (ra)' (")

# An ordering inside one report: yi >= yt at T1, beyond the half-width.
expect("ordering in one report", doctored(
    lambda r: r["table2"]["s9234@q0.5000"].update(metrics(yt=0.9, yi=0.5))),
    1, "proposed method at T1 (yi >= yt)' (")

# An ordering across reports: multiplexing alone must need more
# iterations per path than multiplexing with alignment.
expect("ordering across reports", doctored(
    lambda r: r["fig8_aligned"]["s9234"].update(metrics(tv=7.0))), 1,
    "than multiplexing alone' (")

# A mean across reports: Fig. 7's gap must exceed Table 2's at T1. With
# no gap at all it falls 2 points short: noise at 100 dies, a violation
# at 10,000.
def no_fig7_gap(chips):
    def edit(r):
        for bench in ("fig7", "table2"):
            for job in r[bench].values():
                job.update(metrics(chips=chips))
        for c in CIRCUITS:
            r["fig7"][f"{c}@q0.5000"].update(metrics(yt=0.45, yi=0.45))
    return doctored(edit)


expect("mean across reports at 100 chips", no_fig7_gap(100), 0)
expect("mean across reports at 10000 chips", no_fig7_gap(10000), 1,
       "proposed-vs-ideal gap")

# Yields are compared within binomial half-widths at the report's chips:
# yt 4 points above yi is noise at 100 dies and a violation at 10,000.
def small_violation(chips):
    return doctored(lambda r: r["table2"]["s9234@q0.5000"].update(
        metrics(yt=0.62, yi=0.58, chips=chips)))


expect("binomial slack at 100 chips", small_violation(100), 0)
expect("binomial slack at 10000 chips", small_violation(10000), 1,
       "at T1 (yi >= yt)' (")

# Yield claims need the sample size behind them.
expect("missing chips record", doctored(
    lambda r: r["fig7"]["s9234@q0.5000"].pop("chips")), 1, "no chips record")

# A claim over a report nobody produced fails rather than passing vacuously.
expect("missing report", doctored(lambda r: r.pop("fig7")), 1,
       "no validated report came from bench 'fig7'")

# Every bench a claim names is a committed paper spec.
with open(CLAIMS, encoding="utf-8") as f:
    claims = json.load(f)["claims"]
for claim in claims:
    for key in ("each", "mean", "than"):
        if not isinstance(claim.get(key), str):
            continue
        for term in claim[key].split(" - "):
            bench = term.split(":", 1)[0].strip()
            spec = os.path.join(PAPER_DIR, f"{bench}.scenario.json")
            if not os.path.isfile(spec):
                failures.append(f"claim {claim['claim']!r} names bench "
                                f"{bench!r} but {spec} does not exist")

if failures:
    print("\n\n".join(failures))
    sys.exit(1)
print(f"OK: claims gate checked ({len(claims)} claims)")
