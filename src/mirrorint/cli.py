"""Command-line front end.

Subcommands: delta, series, verify, exponents, padic, zhou, corpus.  All
reports are emitted as JSON (schema 1) with rationals serialized as decimal
strings {"num": ..., "den": ...} so downstream consumers never hit 64-bit
overflow.  Identical invocations produce byte-identical output.

Exit codes: 0 all checks passed, 1 a verification failed, 2 usage error,
out of memory or a report that cannot be written.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import sys
from fractions import Fraction

from . import landau, mirror, padic, zhou
from ._record import record
from .landau import FactorialRatioSpec
from .series import IntegralityReport

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_USAGE = 2


def parse_spec(text: str) -> FactorialRatioSpec:
    """Parse the "e1,e2,.../f1,f2,..." spec format."""
    parts = text.split("/")
    if len(parts) != 2:
        raise ValueError(f"spec must look like '6/3,2,1', got {text!r}")
    try:
        e = tuple(int(tok) for tok in parts[0].split(","))
        f = tuple(int(tok) for tok in parts[1].split(","))
    except ValueError as exc:
        raise ValueError(f"malformed spec {text!r}: {exc}") from None
    return FactorialRatioSpec(e=e, f=f)


# Below the smallest digit limit Python accepts for int <-> str (640), so
# str() of a chunk never depends on the process-wide setting.
_DECIMAL_CHUNK_DIGITS = 600


def decimal_str(n: int) -> str:
    """str(n) for any size of n, by divide and conquer on powers of ten."""
    if n < 0:
        return "-" + decimal_str(-n)
    # 1233/4096 < log10(2): an underestimate of the digit count.
    digits = n.bit_length() * 1233 >> 12
    if digits < _DECIMAL_CHUNK_DIGITS:
        return str(n)
    low_digits = digits // 2
    high, low = divmod(n, 10**low_digits)
    return decimal_str(high) + decimal_str(low).zfill(low_digits)


def rational_json(x: int | Fraction) -> dict:
    return {"num": decimal_str(x.numerator), "den": decimal_str(x.denominator)}


def valuation_json(v) -> object:
    return "inf" if v == math.inf else int(v)


def integrality_json(report: IntegralityReport) -> dict:
    out = {
        "integral": report.integral,
        "order_checked": report.order_checked,
        "first_bad_index": report.first_bad_index,
    }
    if report.first_bad_coefficient is not None:
        out["first_bad_coefficient"] = rational_json(report.first_bad_coefficient)
    return out


def membership_json(report: padic.PadicMembershipReport) -> dict:
    return {
        "prime": report.prime,
        "required_valuation": report.required_valuation,
        "value_description": report.value_description,
        "actual_valuation": valuation_json(report.actual_valuation),
        "member": report.member,
        "witness": list(report.witness) if report.witness else None,
    }


def profile_json(prof: landau.LandauProfile) -> dict:
    return {
        "breakpoints": [rational_json(b) for b in prof.breakpoints],
        "values": list(prof.values),
        "jumps": [[rational_json(b), j] for b, j in prof.jumps],
    }


def write_report(text: str, output: str | None) -> None:
    """Write text to the file output, or to stdout when output is None.

    stdout is flushed here, so a closed pipe or a full device is a usage
    error like an unwritable file, not a traceback or a failed exit flush.
    """
    try:
        if output:
            with open(output, "w") as handle:
                handle.write(text)
        else:
            sys.stdout.write(text)
            sys.stdout.flush()
    except OSError as exc:
        if not output and sys.stdout is sys.__stdout__:
            # What is still buffered then goes nowhere when the interpreter
            # flushes stdout at exit, instead of failing a second time.
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        raise ValueError(f"cannot write the report: {exc}") from None


def emit(payload: dict, output: str | None) -> None:
    payload = {"schema": SCHEMA_VERSION, **payload}
    write_report(json.dumps(payload, indent=2) + "\n", output)


# ---------------------------------------------------------------------------
# subcommands


def cmd_delta(args) -> int:
    spec = args.spec
    prof = landau.profile(spec)
    verdict = landau.classify(spec)
    emit(
        {
            "command": "delta",
            "spec": str(spec),
            "profile": profile_json(prof),
            "classification": {
                "landau_integral": verdict.landau_integral,
                "case_i": verdict.case_i,
                "negative_witnesses": [
                    rational_json(w) for w in verdict.negative_witnesses
                ],
                "zero_witnesses": [
                    rational_json(w) for w in verdict.zero_witnesses
                ],
            },
        },
        args.output,
    )
    return EXIT_OK


def cmd_series(args) -> int:
    spec = args.spec
    level = args.level if args.target == "qL" else None
    bundle = mirror.build_bundle(spec, args.order)
    if args.target == "F":
        coeffs = bundle.F
    elif args.target == "G":
        coeffs = bundle.g()
    else:
        coeffs = bundle.root_coeffs(level)
    emit(
        {
            "command": "series",
            "spec": str(spec),
            "target": args.target,
            "level": level,
            "order": args.order,
            "coefficients": [rational_json(c) for c in coeffs],
        },
        args.output,
    )
    return EXIT_OK


def cmd_verify(args) -> int:
    spec = args.spec
    verdict = landau.classify(spec)
    root = args.root
    if root is None:
        root = landau.root_bound_dl(spec, args.level) if args.target == "qL" else 1

    if root > 1 and not verdict.case_i:
        emit(
            {
                "command": "verify",
                "spec": str(spec),
                "refused": True,
                "reason": "spec is not in case (i); roots cannot be integral "
                "for almost all primes",
                "zero_witnesses": [
                    rational_json(w) for w in verdict.zero_witnesses
                ],
            },
            args.output,
        )
        return EXIT_FAILED

    level = args.level if args.target == "qL" else None
    report = mirror.build_bundle(spec, args.order).root_integrality(level, root)
    emit(
        {
            "command": "verify",
            "spec": str(spec),
            "target": args.target,
            "level": level,
            "root": root,
            "order": args.order,
            "report": integrality_json(report),
        },
        args.output,
    )
    return EXIT_OK if report.integral else EXIT_FAILED


def cmd_exponents(args) -> int:
    spec = args.spec
    ref = mirror.reference_exponents(spec)
    payload = {
        "command": "exponents",
        "spec": str(spec),
        "D": {
            str(level): landau.root_bound_dl(spec, level)
            for level in range(1, spec.max_entry + 1)
        },
        "Theta": {str(level): v for level, v in sorted(ref.theta_l.items())},
        "Q1_over_Theta": {
            str(level): rational_json(v)
            for level, v in sorted(ref.q_one_over_theta.items())
        },
    }
    if ref.xi is not None:
        payload["Xi"] = rational_json(ref.xi)
        payload["Xi_exponent"] = rational_json(ref.xi_exponent)
        payload["Omega"] = rational_json(ref.omega)
        payload["Omega_exponent"] = rational_json(ref.omega_exponent)
    emit(payload, args.output)
    return EXIT_OK


def cmd_padic(args) -> int:
    spec = args.spec
    reports = []
    for p in args.primes:
        if args.what == "phi":
            reports += padic.phi_membership_scan(
                spec, p, args.a_max, args.k_max, args.level
            )
        elif args.what == "s":
            reports += padic.s_membership_scan(
                spec, p, args.a_max, args.k_max, args.s_max, args.m_max
            )
        elif args.what == "harmonic":
            reports += padic.lemma_harmonic_scan(
                spec, p, args.s_max, args.m_max, args.level
            )
        else:
            reports += padic.lemma24_scan(spec, p, args.m_max, args.level)
    emit(
        {
            "command": "padic",
            "spec": str(spec),
            "what": args.what,
            "reports": [membership_json(r) for r in reports],
        },
        args.output,
    )
    return EXIT_OK if all(r.member for r in reports) else EXIT_FAILED


def _zhou_rows(summary: zhou.BatchSummary) -> list[dict]:
    rows = []
    for v in summary.verdicts:
        report = v.report
        rows.append(
            {
                "ks": ",".join(map(str, v.instance.ks)),
                "k": v.instance.k,
                "ws": ",".join(map(str, v.instance.ws)),
                "case_i": report is not None,
                "exponent": v.instance.k,
                "order": summary.order,
                "integral": bool(report and report.integral),
                "first_bad_index": report.first_bad_index if report else None,
            }
        )
    return rows


def cmd_zhou(args) -> int:
    summary = zhou.batch(args.n_max, args.order)
    rows = _zhou_rows(summary)
    if args.format == "csv":
        import csv  # only this report needs it: off the start-up path

        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
        write_report(buf.getvalue(), args.output)
    else:
        emit(
            {
                "command": "zhou",
                "n_max": args.n_max,
                "order": args.order,
                "total": summary.total,
                "passed": summary.passed,
                "instances": rows,
            },
            args.output,
        )
    return EXIT_OK if summary.all_passed else EXIT_FAILED


# The worked examples from the source material, plus the case-(ii) probe.
CORPUS = (
    ("6/3,2,1", 40, "case_i"),
    ("12/4,3,3,2", 30, "case_i"),
    ("3/1,1,1", 40, "case_i"),
    ("2/1,1", 40, "case_i"),
    ("30,1/15,10,6", 40, "case_ii"),
)
ZHOU_N_MAX = 4
ZHOU_ORDER = 30


@record
class CorpusEntry:
    name: str
    passed: bool
    detail: str


def corpus_runner() -> list[CorpusEntry]:
    """Run the built-in regression corpus and return per-entry verdicts.

    Each spec runs at its own CORPUS order, the Zhou batch at ZHOU_ORDER.
    """
    entries: list[CorpusEntry] = []
    for text, n, kind in CORPUS:
        spec = parse_spec(text)
        verdict = landau.classify(spec)
        if kind == "case_i":
            if not (verdict.landau_integral and verdict.case_i):
                entries.append(
                    CorpusEntry(text, False, "expected case (i) classification")
                )
                continue
            reports = mirror.verify_theorem1(spec, n)
            bad = [level for level, rep in reports.items() if not rep.integral]
            ok = not bad
            entries.append(
                CorpusEntry(
                    text, ok, "all level roots integral" if ok else f"bad levels {bad}"
                )
            )
        else:
            ok = verdict.landau_integral and not verdict.case_i
            witness = (
                mirror.nonintegrality_witness(spec, prime_bound=200, order=n)
                if ok
                else None
            )
            ok = ok and witness is not None
            entries.append(
                CorpusEntry(
                    text,
                    ok,
                    f"witness p={witness.prime} {witness.target} index {witness.index}"
                    if witness
                    else "expected a case-(ii) nonintegrality witness",
                )
            )
    summary = zhou.batch(ZHOU_N_MAX, ZHOU_ORDER)
    for v in summary.verdicts:
        entries.append(
            CorpusEntry(
                f"zhou {','.join(map(str, v.instance.ks))}",
                v.passed,
                f"root {v.instance.k} at order {summary.order}",
            )
        )
    return entries


def cmd_corpus(args) -> int:
    entries = corpus_runner()
    lines = [
        f"{'pass' if e.passed else 'FAIL'}  {e.name}: {e.detail}\n" for e in entries
    ]
    failed = sum(1 for e in entries if not e.passed)
    lines.append(f"{len(entries) - failed}/{len(entries)} corpus entries passed\n")
    write_report("".join(lines), None)
    return EXIT_OK if failed == 0 else EXIT_FAILED


# ---------------------------------------------------------------------------
# argument parsing


def _grid_bound(text: str) -> int:
    """A grid's upper bound; a negative one would make the grid empty."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mirrorint",
        description="Exact integrality certificates for canonical q-coordinates",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--spec", required=True, help="e.g. 6/3,2,1")
        p.add_argument("--output", help="write the report here instead of stdout")

    p = sub.add_parser("delta", help="profile and classify the step function")
    add_common(p)
    p.set_defaults(func=cmd_delta)

    p = sub.add_parser("series", help="print exact coefficients of F, G, q or qL")
    add_common(p)
    p.add_argument("--order", type=int, default=40)
    p.add_argument("--target", choices=["F", "G", "q", "qL"], default="q")
    p.add_argument("--L", dest="level", type=int)
    p.set_defaults(func=cmd_series)

    p = sub.add_parser("verify", help="integrality of a v-th root at an order")
    add_common(p)
    p.add_argument("--order", type=int, default=40)
    p.add_argument("--target", choices=["q", "qL"], default="q")
    p.add_argument("--L", dest="level", type=int)
    p.add_argument("--root", type=int)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("exponents", help="D_L, Theta_L and the shape exponents")
    add_common(p)
    p.set_defaults(func=cmd_exponents)

    p = sub.add_parser("padic", help="membership scans over finite grids")
    add_common(p)
    p.add_argument("--p", dest="primes", type=int, action="append", required=True)
    p.add_argument(
        "--what", choices=["phi", "s", "harmonic", "lemma24"], required=True
    )
    p.add_argument("--L", dest="level", type=int)
    p.add_argument("--a-max", type=_grid_bound, default=6)
    p.add_argument("--k-max", type=_grid_bound, default=10)
    p.add_argument("--s-max", type=_grid_bound, default=2)
    p.add_argument("--m-max", type=_grid_bound, default=10)
    p.set_defaults(func=cmd_padic)

    p = sub.add_parser("zhou", help="batch-verify unit-fraction instances")
    p.add_argument("--n-max", type=int, default=4)
    p.add_argument("--order", type=int, default=30)
    p.add_argument("--out", dest="output")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.set_defaults(func=cmd_zhou)

    p = sub.add_parser("corpus", help="run the built-in regression corpus")
    p.set_defaults(func=cmd_corpus)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else argv
    # Before the subcommand, argparse would read an unknown option's value as it.
    if argv and argv[0].startswith("-") and argv[0] not in ("-h", "--help"):
        parser.error(f"unrecognized arguments: {argv[0]}")
    args = parser.parse_args(argv)
    try:
        for p in getattr(args, "primes", None) or ():
            if not padic.is_prime(p):
                parser.error(f"--p {p} is not prime")
        level = getattr(args, "level", None)
        if getattr(args, "target", None) == "qL" and level is None:
            raise ValueError("--target qL requires --L")
        if hasattr(args, "spec"):
            args.spec = parse_spec(args.spec)
        if level is not None:
            big_m = args.spec.max_entry
            if not 1 <= level <= big_m:
                raise ValueError(f"--L {level} is outside [1, {big_m}]")
        root = getattr(args, "root", None)
        if root is not None and root < 1:
            raise ValueError(f"--root must be >= 1, got {root}")
        return args.func(args)
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except MemoryError:
        # Unwinding has freed what the command held, so the message fits.
        sys.stderr.write("error: out of memory\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
