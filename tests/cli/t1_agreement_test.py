#!/usr/bin/env python3
"""One T1 per circuit and seed, on every surface that prints it.

`run` (T_d unset), `run --quantile=0.5`, a campaign q=0.5 job and `ssta`'s
Monte-Carlo T1 at --chips=2000 all read the same calibration sample
(core::calibration_sample: 2,000 nominal dies on the first fork of
Rng(seed)), so on s9234 at the default seed 2016 they print one T_d,
202.16 ps. `run --quantile=0.5` is the default run: its output equals
`run`'s but for the three wall-clock rows (and the column padding they
may widen). A checkpoint stamped with an older campaign identity is
refused with exit 2, not blended.

Usage: t1_agreement_test.py <effitest_cli> <stale checkpoint fixture>
"""

import os
import re
import shutil
import subprocess
import sys
import tempfile

CLI = sys.argv[1]
STALE = sys.argv[2]
T1 = "202.16"

failures = []


def cli(*argv, expect_rc=0):
    proc = subprocess.run([CLI] + list(argv), capture_output=True, text=True,
                          timeout=300)
    if proc.returncode != expect_rc:
        failures.append("%s: exit %d, expected %d\n%s" % (
            " ".join(argv), proc.returncode, expect_rc, proc.stderr))
    return proc


def row(out, label):
    """The first value after `label` in a table row, or None."""
    m = re.search(r"^\s*" + re.escape(label) + r"\s+(\S+)", out, re.M)
    return m.group(1) if m else None


# Wall-clock rows: everything else in `run`'s table is deterministic.
WALL_CLOCK = re.compile(r"^\s*(prep Tp|align Tt|config Ts) ", re.M)


def deterministic_rows(out):
    # Tokens, not padding: a wall-clock value may widen the value column.
    return [" ".join(line.split()) for line in out.splitlines()
            if not WALL_CLOCK.match(line)]


run = cli("run", "--circuit=s9234", "--chips=50").stdout
run_q = cli("run", "--circuit=s9234", "--chips=50", "--quantile=0.5").stdout
campaign = cli("campaign", "--circuits=s9234", "--quantiles=0.5",
               "--chips=50").stdout
ssta = cli("ssta", "--circuit=s9234", "--chips=2000").stdout

m = re.search(r"^\s*s9234\s+flow\s+0\.5000\s+(\S+)", campaign, re.M)
m_ssta = re.search(r"^\s*T1 = 50% quantile\s+\S+\s+(\S+)", ssta, re.M)
t_d = {
    "run": row(run, "designated period (ps)"),
    "run --quantile=0.5": row(run_q, "designated period (ps)"),
    "campaign --quantiles=0.5": m.group(1) if m else None,
    "ssta --chips=2000 (MC T1)": m_ssta.group(1) if m_ssta else None,
}
for surface, value in t_d.items():
    if value != T1:
        failures.append("%s prints T_d %s, expected %s" % (surface, value, T1))
if len(deterministic_rows(run)) != 16:
    failures.append("run printed %d deterministic lines, expected 16:\n%s"
                    % (len(deterministic_rows(run)), run))
if deterministic_rows(run) != deterministic_rows(run_q):
    failures.append("run --quantile=0.5 differs from run:\n%s\n---\n%s"
                    % (run, run_q))

# The resume reads the checkpoint and fails before it writes a byte, but
# it gets a copy all the same: the fixture is committed.
with tempfile.TemporaryDirectory() as tmp:
    checkpoint = os.path.join(tmp, "stale.json")
    shutil.copyfile(STALE, checkpoint)
    resumed = cli("campaign", "--circuits=s9234", "--quantiles=0.5,0.8413",
                  "--chips=20", "--checkpoint=" + checkpoint, "--resume",
                  expect_rc=2)
    if "checkpoint identity" not in resumed.stderr:
        failures.append("stale checkpoint: no identity mismatch named:\n%s"
                        % resumed.stderr)

if failures:
    print("\n%d FAILED:" % len(failures))
    for f in failures:
        print("  " + f)
    sys.exit(1)
print("one T1 on every surface: %s ps" % T1)
