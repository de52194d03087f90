#!/usr/bin/env python3
"""Validate BENCH_*.json bench reports and gate paper metrics and claims
against committed baselines.

The checks below are all exercised by the perf-smoke CI job:

1. Schema validation ("effitest-bench-v1"): every file must be a JSON
   object with the exact top-level keys {schema, bench, git_sha, threads,
   records}; records is a list of objects with keys {circuit, metric,
   value, wall_seconds}, finite numeric value, non-negative wall_seconds.

2. Regression check (--baseline FILE, repeatable; --baselines-dir DIR
   applies every *.json in DIR): each baseline names a bench and a circuit
   and pins paper metrics (ra, t'v, ...) with per-metric tolerance and
   direction. The flow metrics are deterministic for a fixed
   (seed, chips) — bit-identical for any thread count, with every random
   draw specified in-tree rather than by the standard library — so the
   tolerance only absorbs floating-point toolchain drift, not Monte-Carlo
   noise. A value
   worse than baseline-beyond-tolerance fails; a value better by more than
   the tolerance warns (re-record the baseline to bank the win). A
   baseline whose circuit/metric is absent from every validated report
   fails too — committing a baseline obliges CI to keep measuring it.

Baseline format (bench/baselines/s9234.json):

    {
      "bench": "table1",
      "circuit": "s9234",
      "args": "effitest_cli campaign --spec=paper/table1.scenario.json ...",
      "metrics": {
        "ra":  {"value": 96.27, "tol": 1.0, "higher_is_better": true},
        "t'v": {"value": 9.0,   "tol": 0.25, "higher_is_better": false}
      }
    }

3. Paper claims: a baseline file with a "claims" list instead of
   circuit/metrics states the paper's qualitative results as data
   (bench/baselines/paper_claims.json) and is applied in the same
   --baseline / --baselines-dir pass. Each claim compares two
   expressions with one of > >= < <=:

    {"claim": "Fig. 8: multiplexing beats path-wise stepping",
     "each": "fig8_mux:t'v", "op": ">", "than": "fig8_mux:tv"}

   A term is bench:metric[@job]; it reads the record of that metric in
   the report of that bench, under the label circuit[@job] (a campaign
   labels quantile jobs circuit@q0.5000). An expression is one term or
   terms joined by " - "; "than" may also be a number. "each" checks
   the claim on every circuit of the first term's report; "mean"
   compares the means over circuits. So one claim can be a threshold,
   an ordering inside one report, or an ordering across reports.
   Metrics named yield_* are Monte-Carlo proportions: a claim on them
   fails only when it is violated by more than the 95% binomial
   half-width at the report's `chips` record (variances summed over
   the terms, unpaired, so the bound is conservative). Other metrics
   are compared exactly.

4. Equivalence check (--diff A B): both reports must carry the same bench
   name and the same record sequence — circuit, metric and value compared
   EXACTLY (values are bit-identical doubles by the determinism contract,
   so no tolerance) — ignoring only wall_seconds, git_sha and threads,
   the fields allowed to differ between runs. This is how CI proves a
   checkpoint-resumed campaign reproduces the uninterrupted run
   (`effitest_cli campaign --checkpoint ... --resume`).

Usage:
    check_bench_json.py [--baseline FILE ...] [--baselines-dir DIR]
                        BENCH_foo.json [BENCH_bar.json ...]
    check_bench_json.py --diff BENCH_full.json BENCH_resumed.json

Exit status: 0 = all checks passed, 1 = violation, 2 = usage error.
"""

from __future__ import annotations

import argparse
import glob
import json
import math
import os
import sys

SCHEMA_ID = "effitest-bench-v1"
TOP_KEYS = {"schema", "bench", "git_sha", "threads", "records"}
RECORD_KEYS = {"circuit", "metric", "value", "wall_seconds"}


def fail(msg: str) -> None:
    print(f"FAIL: {msg}")
    raise SystemExit(1)


def is_finite_number(v: object) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


def validate_schema(path: str, doc: object) -> dict:
    if not isinstance(doc, dict):
        fail(f"{path}: top level is not a JSON object")
    keys = set(doc.keys())
    if keys != TOP_KEYS:
        fail(
            f"{path}: top-level keys {sorted(keys)} != required {sorted(TOP_KEYS)}"
        )
    if doc["schema"] != SCHEMA_ID:
        fail(f"{path}: schema {doc['schema']!r} != {SCHEMA_ID!r}")
    if not isinstance(doc["bench"], str) or not doc["bench"]:
        fail(f"{path}: bench must be a non-empty string")
    if not isinstance(doc["git_sha"], str) or not doc["git_sha"]:
        fail(f"{path}: git_sha must be a non-empty string")
    if not isinstance(doc["threads"], int) or isinstance(doc["threads"], bool) or doc["threads"] < 0:
        fail(f"{path}: threads must be a non-negative integer")
    if not isinstance(doc["records"], list):
        fail(f"{path}: records must be a list")
    for i, rec in enumerate(doc["records"]):
        where = f"{path}: records[{i}]"
        if not isinstance(rec, dict):
            fail(f"{where} is not an object")
        if set(rec.keys()) != RECORD_KEYS:
            fail(f"{where} keys {sorted(rec.keys())} != {sorted(RECORD_KEYS)}")
        if not isinstance(rec["circuit"], str) or not rec["circuit"]:
            fail(f"{where}: circuit must be a non-empty string")
        if not isinstance(rec["metric"], str) or not rec["metric"]:
            fail(f"{where}: metric must be a non-empty string")
        if not is_finite_number(rec["value"]):
            fail(f"{where}: value must be a finite number")
        if not is_finite_number(rec["wall_seconds"]) or rec["wall_seconds"] < 0:
            fail(f"{where}: wall_seconds must be a finite non-negative number")
    print(
        f"OK: {path}: schema valid "
        f"(bench={doc['bench']}, {len(doc['records'])} records, "
        f"sha={doc['git_sha']}, threads={doc['threads']})"
    )
    return doc


def lookup(doc: dict, circuit: str, metric: str):
    for rec in doc["records"]:
        if rec["circuit"] == circuit and rec["metric"] == metric:
            return rec["value"]
    return None


Z_95 = 1.96
CLAIM_OPS = {
    ">": lambda diff, margin: diff > -margin,
    ">=": lambda diff, margin: diff >= -margin,
    "<": lambda diff, margin: diff < margin,
    "<=": lambda diff, margin: diff <= margin,
}
CLAIM_KEYS = {"claim", "op", "than"}


def report_for(docs: list[dict], bench: str, where: str) -> dict:
    for doc in docs:
        if doc["bench"] == bench:
            return doc
    fail(f"no validated report came from bench {bench!r} (needed by {where})")


def parse_expr(expr, where: str) -> list[tuple[int, str, str, str]]:
    """[(sign, bench, metric, job)] for "b:m[@job] - b:m[@job] ..."."""
    if not isinstance(expr, str) or not expr:
        fail(f"{where}: expression {expr!r} must be a non-empty string")
    terms = []
    for i, text in enumerate(expr.split(" - ")):
        bench, sep, rest = text.strip().partition(":")
        metric, _, job = rest.partition("@")
        if not sep or not bench or not metric:
            fail(f"{where}: term {text!r} is not bench:metric[@job]")
        terms.append((1 if i == 0 else -1, bench, metric, job))
    return terms


def expr_circuits(docs: list[dict], terms, where: str) -> list[str]:
    """Circuits of the first term's report that carry its metric."""
    _, bench, metric, job = terms[0]
    doc = report_for(docs, bench, where)
    circuits = []
    for rec in doc["records"]:
        circuit, _, rec_job = rec["circuit"].partition("@")
        if rec["metric"] == metric and rec_job == job:
            circuits.append(circuit)
    if not circuits:
        fail(f"{where}: no {bench!r} record of {metric!r}"
             + (f" at @{job}" if job else ""))
    return circuits


def eval_expr(docs: list[dict], terms, circuit: str, where: str):
    """(value, binomial variance) of the expression on one circuit."""
    value, var = 0.0, 0.0
    for sign, bench, metric, job in terms:
        doc = report_for(docs, bench, where)
        label = f"{circuit}@{job}" if job else circuit
        v = lookup(doc, label, metric)
        if v is None:
            fail(f"{where}: {bench!r} report has no {metric!r} for {label!r}")
        value += sign * v
        if metric.startswith("yield_"):
            chips = lookup(doc, label, "chips")
            if not chips or chips <= 0:
                fail(f"{where}: {bench!r} report has no chips record for "
                     f"{label!r}, so {metric!r} has no binomial half-width")
            var += v * (1.0 - v) / chips
    return value, var


def expr_values(docs: list[dict], terms, than, circuits: list[str],
                where: str) -> list[tuple[float, float]]:
    """[(value, variance)] per circuit; a number (terms None) is exact."""
    if terms is None:
        return [(than, 0.0)] * len(circuits)
    return [eval_expr(docs, terms, c, where) for c in circuits]


def mean_of(values: list[tuple[float, float]]) -> tuple[float, float]:
    k = len(values)
    return (sum(v for v, _ in values) / k,
            sum(var for _, var in values) / (k * k))


def check_claims(baseline_path: str, base: dict, docs: list[dict]) -> None:
    if not isinstance(base["claims"], list) or not base["claims"]:
        fail(f"{baseline_path}: claims must be a non-empty list")
    for i, claim in enumerate(base["claims"]):
        where = f"{baseline_path}: claims[{i}]"
        if not isinstance(claim, dict):
            fail(f"{where} is not an object")
        scopes = [k for k in ("each", "mean") if k in claim]
        if len(scopes) != 1 or set(claim) != CLAIM_KEYS | set(scopes):
            fail(f"{where}: keys {sorted(claim)} != claim, op, than and "
                 "one of each/mean")
        scope = scopes[0]
        if claim["op"] not in CLAIM_OPS:
            fail(f"{where}: op {claim['op']!r} not in {sorted(CLAIM_OPS)}")
        holds = CLAIM_OPS[claim["op"]]
        where = f"claim {claim['claim']!r} ({baseline_path})"
        lhs = parse_expr(claim[scope], where)
        than = claim["than"]
        rhs = None if is_finite_number(than) else parse_expr(than, where)

        circuits = expr_circuits(docs, lhs, where)
        left = expr_values(docs, lhs, None, circuits, where)
        if scope == "each":
            right = expr_values(docs, rhs, than, circuits, where)
            rows = [(c, *l, *r) for c, l, r in zip(circuits, left, right)]
        else:
            rhs_circuits = (circuits if rhs is None
                            else expr_circuits(docs, rhs, where))
            right = expr_values(docs, rhs, than, rhs_circuits, where)
            rows = [(f"the mean over {len(circuits)} circuits",
                     *mean_of(left), *mean_of(right))]
        for circuit, lv, lvar, rv, rvar in rows:
            margin = Z_95 * math.sqrt(lvar + rvar)
            if not holds(lv - rv, margin):
                fail(f"{where} violated on {circuit}: {claim[scope]} = {lv:.6g} "
                     f"is not {claim['op']} {than} = {rv:.6g} "
                     f"(binomial half-width {margin:.3g})")
        print(f"OK: claim {claim['claim']!r} holds "
              f"({scope} of {len(circuits)} circuits)")


def check_baseline(baseline_path: str, docs: list[dict]) -> None:
    with open(baseline_path, encoding="utf-8") as f:
        base = json.load(f)
    if "claims" in base:
        check_claims(baseline_path, base, docs)
        return
    for key in ("bench", "circuit", "metrics"):
        if key not in base:
            fail(f"{baseline_path}: missing baseline key {key!r}")

    matching = [d for d in docs if d["bench"] == base["bench"]]
    if not matching:
        fail(
            f"no validated report came from bench {base['bench']!r} "
            f"(needed by {baseline_path})"
        )

    for metric, spec in base["metrics"].items():
        expected = spec["value"]
        tol = spec.get("tol", 0.0)
        higher_is_better = spec.get("higher_is_better", True)
        value = None
        for doc in matching:
            value = lookup(doc, base["circuit"], metric)
            if value is not None:
                break
        if value is None:
            fail(
                f"metric {metric!r} for circuit {base['circuit']!r} not found "
                f"in any {base['bench']!r} report"
            )
        regressed = (
            value < expected - tol if higher_is_better else value > expected + tol
        )
        improved = (
            value > expected + tol if higher_is_better else value < expected - tol
        )
        if regressed:
            fail(
                f"{metric}={value} regressed beyond baseline {expected} "
                f"(tol {tol}, higher_is_better={higher_is_better}); "
                f"baseline {baseline_path}"
            )
        if improved:
            print(
                f"WARN: {metric}={value} beats baseline {expected} by more than "
                f"tol {tol} — re-record {baseline_path} to bank the win"
            )
        else:
            print(f"OK: {metric}={value} within {expected} +/- {tol}")


def load_report(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        fail(f"{path}: {exc}")
    return validate_schema(path, doc)


def diff_reports(path_a: str, path_b: str) -> None:
    """Exact-equivalence check, ignoring wall_seconds/git_sha/threads."""
    a, b = load_report(path_a), load_report(path_b)
    if a["bench"] != b["bench"]:
        fail(f"bench name differs: {a['bench']!r} vs {b['bench']!r}")
    ra, rb = a["records"], b["records"]
    if len(ra) != len(rb):
        fail(f"record count differs: {len(ra)} ({path_a}) vs {len(rb)} ({path_b})")
    for i, (x, y) in enumerate(zip(ra, rb)):
        for key in ("circuit", "metric", "value"):
            if x[key] != y[key]:
                fail(
                    f"records[{i}].{key} differs: {x[key]!r} ({path_a}) vs "
                    f"{y[key]!r} ({path_b}) "
                    f"[{x['circuit']}/{x['metric']} vs {y['circuit']}/{y['metric']}]"
                )
    print(
        f"OK: {path_a} and {path_b} are equivalent "
        f"({len(ra)} records, wall_seconds/git_sha/threads ignored)"
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("files", nargs="*", help="BENCH_*.json reports")
    parser.add_argument(
        "--diff",
        nargs=2,
        metavar=("A", "B"),
        help="compare two reports for exact equivalence (only "
        "wall_seconds/git_sha/threads may differ); used by the CI "
        "checkpoint-resume smoke",
    )
    parser.add_argument(
        "--baseline",
        action="append",
        default=[],
        help="baseline JSON pinning paper metrics (see bench/baselines/); "
        "repeatable",
    )
    parser.add_argument(
        "--baselines-dir",
        help="directory of committed baselines; every *.json in it is "
        "applied (the CI shape: each baselined circuit stays gated)",
    )
    args = parser.parse_args()

    if args.diff:
        if args.files or args.baseline or args.baselines_dir:
            parser.error("--diff takes exactly two reports and no other checks")
        diff_reports(*args.diff)
        return
    if not args.files:
        parser.error("no reports given")

    docs = [load_report(path) for path in args.files]

    baselines = list(args.baseline)
    if args.baselines_dir:
        found = sorted(glob.glob(os.path.join(args.baselines_dir, "*.json")))
        if not found:
            fail(f"--baselines-dir {args.baselines_dir}: no *.json baselines")
        baselines.extend(found)
    for baseline in baselines:
        check_baseline(baseline, docs)
    print("all bench JSON checks passed")


if __name__ == "__main__":
    main()
