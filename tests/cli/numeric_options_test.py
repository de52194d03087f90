#!/usr/bin/env python3
"""Rejection matrix for every numeric CLI option.

Regression test: the CLI used to feed option values straight into
std::stoul/std::stod/std::stoull, so `effitest_cli tune --chips=abc`
died with an uncaught std::invalid_argument (exit code dependent on the
runtime's terminate handler) instead of the documented usage exit 2.
Every numeric option of every command must reject malformed and
out-of-range values with exit 2 and an error message naming the offending
option and value, before any circuit is provisioned. The usage text must
name only options its command accepts, and the README's command-line
synopsis must be the verbatim `effitest_cli help` output.

Usage: numeric_options_test.py <effitest_cli> <s27.bench> <README.md>
"""

import json
import re
import subprocess
import sys
import tempfile

CLI = sys.argv[1]
BENCH = sys.argv[2]
README = sys.argv[3]

# Values no unsigned-integer option may accept.
BAD_U64 = ["abc", "12x", "-3", "", "0x10", "99999999999999999999999999"]
# Values no floating-point option may accept ("nan"/"inf" parse as doubles
# but are meaningless as periods/quantiles/inflation factors).
BAD_DOUBLE = ["abc", "12x", "", "nan", "inf", "1e999999"]

# (command-line prefix, option name, bad values). Each prefix is a runnable
# command on the cheapest circuit, so only the bad value can fail it.
S27 = ["--bench=" + BENCH, "--buffers=2"]
# If a bad value slipped through, this balancer would start serving; the
# subprocess timeout turns that into a failure.
BALANCE = ["balance", "--workers=127.0.0.1:9"]
CASES = [
    (["generate", "--circuit=s9234"], "seed", BAD_U64),
    (["info", "--bench=" + BENCH], "buffers", BAD_U64),
    (["info", "--circuit=s9234"], "seed", BAD_U64),
    (["ssta"] + S27, "chips", BAD_U64),
    (["run"] + S27, "chips", BAD_U64),
    (["run"] + S27, "seed", BAD_U64),
    (["run"] + S27, "threads", BAD_U64),
    (["run"] + S27, "td", BAD_DOUBLE),
    (["run"] + S27, "quantile", BAD_DOUBLE),
    (["campaign", "--circuits=s9234"], "chips", BAD_U64),
    (["campaign", "--circuits=s9234"], "seed", BAD_U64),
    (["campaign", "--circuits=s9234"], "threads", BAD_U64),
    (["campaign", "--circuits=s9234"], "stop-after", BAD_U64),
    (["campaign", "--circuits=s9234"], "inflation", BAD_DOUBLE),
    # --quantiles is a comma-separated list; an empty list is legal, but a
    # malformed element anywhere in the list is not.
    (
        ["campaign", "--circuits=s9234"],
        "quantiles",
        [v for v in BAD_DOUBLE if v],
    ),
    (["tune", "--simulate"] + S27, "chips", BAD_U64),
    (["tune", "--simulate"] + S27, "seed", BAD_U64),
    (["tune", "--simulate"] + S27, "threads", BAD_U64),
    (["tune", "--simulate"] + S27, "td", BAD_DOUBLE),
    (["tune", "--simulate"] + S27, "quantile", BAD_DOUBLE),
    (["tune", "--simulate"] + S27, "window", BAD_U64),
    # serve parses every numeric option before provisioning the circuit,
    # so a typo fails in milliseconds rather than after circuit build.
    (["serve"] + S27, "port", BAD_U64 + ["65536", "70000"]),
    (["serve"] + S27, "workers", BAD_U64),
    (["serve"] + S27, "max-pending", BAD_U64),
    (["serve"] + S27, "window", BAD_U64),
    (["serve"] + S27, "max-chips", BAD_U64),
    (["serve"] + S27, "max-sessions", BAD_U64),
    (["serve"] + S27, "io-timeout", BAD_DOUBLE),
    (["serve"] + S27, "status-port", BAD_U64 + ["65536", "70000"]),
    (["ssta"] + S27, "threads", BAD_U64),
    (["tune"] + S27, "connect-retries", BAD_U64),
    (BALANCE, "spawn", BAD_U64),
    (BALANCE, "relay-workers", BAD_U64),
    (BALANCE, "retries", BAD_U64),
    (BALANCE, "max-pending", BAD_U64),
    (BALANCE, "max-sessions", BAD_U64),
    (BALANCE, "io-timeout", BAD_DOUBLE),
    (BALANCE, "status-port", BAD_U64 + ["65536", "70000"]),
    (BALANCE, "probe-interval", BAD_DOUBLE),
    # Well-formed numbers outside the option's range: counts start at 1,
    # quantiles lie in [0, 1], a designated period is positive, a variation
    # inflation at least 1, and seconds are never negative.
    (["ssta"] + S27, "chips", ["0"]),
    (["run"] + S27, "chips", ["0"]),
    (["campaign", "--circuits=s9234"], "chips", ["0"]),
    (["tune", "--simulate"] + S27, "chips", ["0"]),
    (["campaign", "--circuits=s9234"], "stop-after", ["0"]),
    (["serve"] + S27, "workers", ["0"]),
    (BALANCE, "relay-workers", ["0"]),
    (["campaign", "--circuits=s9234"], "quantiles", ["1.5", "-0.5"]),
    (["campaign", "--circuits=s9234"], "inflation", ["0.5", "-1"]),
    (["serve"] + S27, "io-timeout", ["-1"]),
    (BALANCE, "io-timeout", ["-1"]),
    (BALANCE, "probe-interval", ["-0.5"]),
    # An empty circuit list would run zero jobs.
    (["campaign"], "circuits", ["", ","]),
] + [
    (prefix, option, values)
    for prefix in (
        ["run"] + S27,
        ["tune", "--simulate"] + S27,
        ["serve"] + S27,
        ["balance", "--spawn=1"] + S27,
    )
    for option, values in (("quantile", ["1.5", "-0.5"]), ("td", ["-5", "0"]))
]

failures = []


def check(argv, expect_rc, expect_stderr=None):
    try:
        proc = subprocess.run(
            [CLI] + argv, capture_output=True, text=True, timeout=120
        )
    except subprocess.TimeoutExpired:
        # An accepted bad value can leave serve/balance running.
        failures.append("%s: still running after 120 s" % " ".join(argv))
        return
    problems = []
    if proc.returncode != expect_rc:
        problems.append(
            "exit %d, want %d" % (proc.returncode, expect_rc)
        )
    if expect_stderr is not None and expect_stderr not in proc.stderr:
        problems.append(
            "stderr %r does not mention %r" % (proc.stderr, expect_stderr)
        )
    if problems:
        failures.append("%s: %s" % (" ".join(argv), "; ".join(problems)))
    else:
        print("ok: %s" % " ".join(argv))


for prefix, option, bad_values in CASES:
    for value in bad_values:
        argv = prefix + ["--%s=%s" % (option, value)]
        # The error must name the option AND echo the rejected value so the
        # user can see which of several numeric options was mistyped.
        check(argv, 2, "--%s=%s" % (option, value))

# A malformed element buried in an otherwise-valid list is still named.
check(["campaign", "--circuits=s9234", "--quantiles=0.5,abc"], 2,
      "--quantiles=abc")

check(["campaign", "--circuits=s9234", "--quantiles=0.5,1.5"], 2,
      "--quantiles=1.5")

# Options are checked before the circuit is provisioned: a bad number is
# reported as such (exit 2), not as the missing file it comes with (1).
check(["run", "--bench=/nonexistent.bench", "--chips=abc"], 2, "--chips=abc")
check(["tune", "--bench=/nonexistent.bench", "--simulate", "--window=x"], 2,
      "--window=x")

# --connect/--workers targets embed the port after the last ':'; a
# malformed target is rejected before any connection attempt.
for prefix, option in (
    (["tune"] + S27, "connect"),
    (["status"], "connect"),
    (["balance"], "workers"),
):
    for target in ("127.0.0.1:abc", "127.0.0.1:70000", "127.0.0.1:0",
                   "nocolon", ":9", "127.0.0.1:"):
        check(prefix + ["--%s=%s" % (option, target)], 2,
              "--%s=%s" % (option, target))
check(["balance", "--workers=127.0.0.1:9,127.0.0.1:x"], 2,
      "--workers=127.0.0.1:x")

# --log-format takes exactly text|json; every logging-capable command
# rejects anything else with exit 2 naming the option and value.
for prefix in (
    ["ssta"] + S27,
    ["run"] + S27 + ["--chips=1"],
    ["campaign", "--circuits=s9234"],
    ["tune", "--simulate"] + S27,
    ["serve"] + S27,
    BALANCE,
):
    for value in ("bogus", "JSON", ""):
        check(prefix + ["--log-format=%s" % value], 2,
              "--log-format=%s" % value)

# ... and the logging options exist only on ssta/run/campaign/tune/serve/
# balance; the other commands reject them like any unknown option.
check(["generate", "--circuit=s9234", "--log-format=json"], 2,
      "--log-format=json")
check(["info", "--bench=" + BENCH, "--log-file=/tmp/x.log"], 2,
      "--log-file=/tmp/x.log")
check(["circuits", "--log-format=json"], 2, "--log-format=json")

# status accepts --connect only, with the same host:port validation as
# tune --connect.
check(["status", "--connect=127.0.0.1:abc"], 2, "abc")
check(["status", "--connect=nocolon"], 2, "nocolon")
check(["status", "--circuit=s9234"], 2, "--circuit=s9234")

# An enabled log really is written: one valid JSON event per line, and
# --log-file without --log-format defaults to JSON.
with tempfile.NamedTemporaryFile(suffix=".log", mode="r") as log_file:
    check(["run"] + S27 + ["--chips=20", "--log-file=" + log_file.name], 0)
    events = [json.loads(line) for line in log_file.read().splitlines()]
    if not events:
        failures.append("--log-file wrote no events")
    for event in events:
        if event.get("schema") != "effitest-log-v1":
            failures.append("bad log event: %r" % (event,))
    if [e["event"] for e in events if e["component"] == "run"] != [
        "run_begin",
        "run_complete",
    ]:
        failures.append(
            "run did not emit run_begin/run_complete: %r"
            % [e["event"] for e in events]
        )

# Sanity: well-formed numbers on the same paths still succeed, so the
# matrix above is rejecting values rather than whole commands.
check(["generate", "--circuit=s9234", "--seed=5"], 0)
check(["ssta"] + S27 + ["--chips=50"], 0)
# Without buffers every register pair is a static form; ssta still folds
# them into the Clark period, and --tuned finds nothing to tune.
check(["ssta", "--bench=" + BENCH, "--buffers=0", "--chips=50"], 0)
check(["ssta", "--bench=" + BENCH, "--buffers=0", "--chips=50", "--tuned"], 0)


def ssta_monte_carlo(argv):
    """The Monte-Carlo column of `ssta`, by row label."""
    out = subprocess.run([CLI, "ssta"] + argv, capture_output=True,
                         text=True, timeout=120).stdout
    rows = re.findall(r"^\s*(.*?)\s+[-\d.]+\s+([-\d.]+)\s*$", out, re.M)
    return dict(rows)


# Both Monte-Carlo columns of `ssta --tuned` sample the same dies, so
# without buffers, where tuning can change nothing, they print equal; and
# the untuned column is the plain command's.
plain = ssta_monte_carlo(["--bench=" + BENCH, "--buffers=0", "--chips=50"])
mc = ssta_monte_carlo(["--bench=" + BENCH, "--buffers=0", "--chips=50",
                       "--tuned"])
for q in ["T1 = 50% quantile", "T2 = 84.13% quantile"]:
    if q not in mc or mc[q] != mc.get("tuned " + q) or mc[q] != plain.get(q):
        failures.append("ssta --buffers=0 --tuned: %s untuned %s, tuned %s, "
                        "plain %s" % (q, mc.get(q), mc.get("tuned " + q),
                                      plain.get(q)))

# The usage text never names an option its command would reject: every
# --name in `help <command>` is listed there as [--name=...] or [--name],
# and the command knows it with that arity (a value-less option draws the
# "needs a value" hint, a flag with a value the "takes no value" one —
# never "unknown").
def run_help(*argv):
    return subprocess.run(
        [CLI, "help"] + list(argv), capture_output=True, text=True,
        timeout=60,
    ).stdout


commands = re.findall(r"^  ([a-z]+) ", run_help(), re.MULTILINE)
if len(commands) != 11:
    failures.append("help lists %d commands: %r" % (len(commands), commands))
for command in commands:
    usage = run_help(command)
    listed = dict(re.findall(r"\[--([a-z-]+)(=?)", usage))
    for name in sorted(set(re.findall(r"--([a-z][a-z-]*)", usage))):
        if name not in listed:
            failures.append("help %s names --%s but does not list it"
                            % (command, name))
        elif listed[name]:
            check([command, "--" + name], 2, "--%s needs a value" % name)
        else:
            check([command, "--%s=1" % name], 2, "takes no value")

# The README's command-line synopsis is the verbatim `help` output.
with open(README) as readme:
    text = readme.read()
section = text[text.index("## Command-line usage"):]
synopsis = section[section.index("```text\n") + len("```text\n"):]
synopsis = synopsis[:synopsis.index("```")]
if synopsis != run_help():
    failures.append(
        "README.md's command-line synopsis differs from `effitest_cli "
        "help`; paste the help output into it")

if failures:
    print("\n%d FAILED:" % len(failures))
    for f in failures:
        print("  " + f)
    sys.exit(1)
print("\nall %d rejection cases passed" % sum(len(v) for _, _, v in CASES))
