"""Workload command sequences and the theorem-level checks on their outputs.

Each workload is a fixed sequence of ``mirrorint`` CLI invocations that one
client runs in order, each waiting for the previous one (a closed loop with
one client).  The seed only picks among inputs of similar cost, so the
medians of runs with different seeds stay comparable.

The checks follow from the theorems the reports certify, not from frozen
report bytes: exit code 0, integral roots at the exponent D_L computed here
independently, every Zhou instance a true unit-fraction decomposition with
the k-th root integral, every corpus line a pass, every p-adic report a
member.  The one frozen value is the sha256 of the ``series`` coefficients.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from fractions import Fraction

WORKLOADS = ("certify", "zhou-batch", "padic-scan")

CERTIFY_LEVELS = (1, 2, 3)
PADIC_SPEC = "12/4,3,3,2"

# Coefficients of z^-1 q for 12/4,3,3,2 up to z^150, one "num/den" per line.
SERIES_Q_SHA256 = "96fe24025999304138b4231bddb28e7bc02d9f9ae360490bd1697f790c9e3f3a"

# Decompositions of 1 into at most five unit fractions: 1 + 1 + 3 + 14 + 147.
ZHOU_N_MAX = 5
ZHOU_ORDER = 20
ZHOU_TOTAL = 166


def commands(workload: str, seed: int) -> list[list[str]]:
    """The CLI argument lists of one repetition of a workload."""
    rng = random.Random(seed)
    if workload == "certify":
        # One level for both verify commands: the pairs (L, L) for L in 1..3
        # cost the same within about 1%, unlike mixed pairs.
        level = str(rng.choice(CERTIFY_LEVELS))
        return [
            ["verify", "--spec", "6/3,2,1", "--target", "qL", "--L", level,
             "--order", "200"],
            ["verify", "--spec", "12/4,3,3,2", "--target", "qL", "--L", level,
             "--order", "150"],
            ["series", "--spec", "12/4,3,3,2", "--target", "q", "--order", "150"],
            ["corpus"],
        ]
    if workload == "zhou-batch":
        return [["zhou", "--n-max", str(ZHOU_N_MAX), "--order", str(ZHOU_ORDER)]]
    if workload == "padic-scan":
        # Each grid draws its primes from its pool in seeded order: the same
        # grid points, so the same cost, visited in another order.
        def primes(pool):
            pool = list(pool)
            rng.shuffle(pool)
            return [tok for p in pool for tok in ("--p", str(p))]

        base = ["padic", "--spec", PADIC_SPEC, "--what"]
        return [
            base + ["phi"] + primes((2, 3, 5, 7)) + ["--k-max", "25"],
            base + ["s"] + primes((2, 3, 5))
            + ["--k-max", "30", "--s-max", "3", "--m-max", "30"],
            base + ["harmonic"] + primes((2, 3, 5)) + ["--s-max", "2", "--m-max", "20"],
            base + ["lemma24"] + primes((2, 3, 5)) + ["--m-max", "60"],
        ]
    raise ValueError(f"unknown workload {workload!r}")


def root_bound(spec: str, level: int) -> int:
    """D_L = lcm(1..floor(M/L)), computed independently of mirrorint."""
    big_m = max(int(tok) for tok in spec.replace("/", ",").split(","))
    return math.lcm(*range(1, big_m // level + 1))


def _flag(argv: list[str], name: str) -> str:
    return argv[argv.index(name) + 1]


def check(argv: list[str], exit_code, stdout: str) -> tuple[int, list[str]]:
    """Check one command's output; returns (operations attempted, failures).

    The command itself is one operation; each corpus entry, Zhou instance or
    p-adic report row in its output is one more.  Each failure string names
    one failed operation.
    """
    try:
        items, bad_items, problems = _check_output(argv, stdout)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        items, bad_items, problems = 0, [], [f"unreadable report: {exc!r}"]
    if exit_code != 0:
        problems.append(f"exit code {exit_code}")
    command_failure = [f"{' '.join(argv)}: {'; '.join(problems)}"] if problems else []
    return 1 + items, command_failure + bad_items


def _check_output(argv, stdout) -> tuple[int, list[str], list[str]]:
    """(items in the output, failed items, problems of the command itself)."""
    command = argv[0]
    if command == "corpus":
        lines = stdout.splitlines()
        entries, summary = lines[:-1], lines[-1]
        bad = [line for line in entries if not line.startswith("pass ")]
        ok = summary == f"{len(entries)}/{len(entries)} corpus entries passed"
        return len(entries), bad, [] if ok else [f"summary {summary!r}"]
    report = json.loads(stdout)
    if command == "verify":
        spec, level = _flag(argv, "--spec"), int(_flag(argv, "--L"))
        order = int(_flag(argv, "--order"))
        body = report["report"]
        ok = (
            body["integral"] is True
            and body["order_checked"] == order
            and report["root"] == root_bound(spec, level)
        )
        return 0, [], [] if ok else [f"root {report['root']}: {body}"]
    if command == "series":
        text = "\n".join(f"{c['num']}/{c['den']}" for c in report["coefficients"])
        digest = hashlib.sha256(text.encode()).hexdigest()
        return 0, [], [] if digest == SERIES_Q_SHA256 else [f"sha256 {digest}"]
    if command == "zhou":
        rows = report["instances"]
        bad = [f"zhou {row['ks']}" for row in rows if not _zhou_row_ok(row)]
        ok = report["passed"] == report["total"] == len(rows) == ZHOU_TOTAL
        return len(rows), bad, [] if ok else [
            f"passed {report['passed']} of {report['total']}"
        ]
    if command == "padic":
        rows = report["reports"]
        # Only the member flag is checked: the summary rows of --what
        # harmonic/lemma24 carry a placeholder actual_valuation of 0.
        bad = [
            f"padic p={row['prime']} {row['value_description']}"
            for row in rows
            if row["member"] is not True
        ]
        return len(rows), bad, []
    raise ValueError(f"no check for command {command!r}")


def _zhou_row_ok(row) -> bool:
    ks = [int(k) for k in row["ks"].split(",")]
    k = math.lcm(*ks)
    return (
        sum(Fraction(1, ki) for ki in ks) == 1
        and row["k"] == row["exponent"] == k
        and row["ws"] == ",".join(str(k // ki) for ki in ks)
        and row["order"] == ZHOU_ORDER
        and row["case_i"] is True
        and row["integral"] is True
    )
