import json
import math
import os
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mirrorint import cli, mirror, padic
from mirrorint.cli import (
    EXIT_FAILED,
    EXIT_OK,
    EXIT_USAGE,
    corpus_runner,
    decimal_str,
    main,
    parse_spec,
)
from mirrorint.landau import q_ratio
from mirrorint.mirror import MirrorMapBundle, build_bundle
from mirrorint.series import TruncatedSeries


class TestParseSpec:
    def test_simple(self):
        spec = parse_spec("6/3,2,1")
        assert spec.e == (6,) and spec.f == (3, 2, 1)

    def test_worked_example(self):
        spec = parse_spec("12/4,3,3,2")
        assert spec.e == (12,) and spec.f == (4, 3, 3, 2)

    def test_zero_entry_rejected(self):
        with pytest.raises(ValueError):
            parse_spec("6/0,2")

    def test_malformed(self):
        for text in ("6", "6/3/2", "a/1", "6/"):
            with pytest.raises(ValueError):
                parse_spec(text)


class TestExitCodes:
    def test_verify_pass(self, capsys):
        code = main(["verify", "--spec", "6/3,2,1", "--root", "6", "--order", "20"])
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == 1
        assert payload["report"]["integral"] is True

    def test_verify_reports_the_level_it_checked(self, capsys):
        # --L is ignored for --target q, as in series: the check is on q.
        argv = ["--spec", "6/3,2,1", "--target", "q", "--L", "3", "--order", "8"]
        assert main(["verify", *argv]) == EXIT_OK
        verified = json.loads(capsys.readouterr().out)
        assert main(["series", *argv]) == EXIT_OK
        listed = json.loads(capsys.readouterr().out)
        assert verified["level"] is None and listed["level"] is None
        argv[argv.index("q")] = "qL"
        assert main(["verify", *argv]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["level"] == 3

    def test_verify_refuses_case_ii_root(self, capsys):
        code = main(["verify", "--spec", "30,1/15,10,6", "--root", "2", "--order", "10"])
        assert code == EXIT_FAILED
        payload = json.loads(capsys.readouterr().out)
        assert payload["refused"] is True

    def test_zhou_batch(self, capsys):
        code = main(["zhou", "--n-max", "3", "--order", "15"])
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["total"] == 5 and payload["passed"] == 5

    def test_zhou_refuses_six_parts_before_it_starts(self):
        # n = 6 would run for about 85 h: a child process with a timeout turns
        # a batch that starts into a failure.
        src = os.path.dirname(os.path.dirname(padic.__file__))
        argv = ["zhou", "--n-max", "6", "--order", "30"]
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "mirrorint.cli", *argv],
                capture_output=True,
                text=True,
                env={**os.environ, "PYTHONPATH": src},
                timeout=30,
            )
        except subprocess.TimeoutExpired:
            pytest.fail("zhou --n-max 6 started instead of being refused")
        assert proc.returncode == EXIT_USAGE
        assert proc.stderr == "error: n_max must be in [1, 5]\n"
        assert proc.stdout == ""

    @pytest.mark.parametrize("root", ["0", "-3"])
    def test_verify_root_below_one_names_the_flag(self, root, capsys):
        argv = ["verify", "--spec", "6/3,2,1", "--target", "q", "--root", root]
        assert main(argv) == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: --root must be >= 1, got {root}\n"

    def test_seed_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--seed", "7", "corpus"])
        assert exc.value.code == EXIT_USAGE
        assert "--seed" in capsys.readouterr().err

    def test_bad_spec_is_usage_error(self, capsys):
        code = main(["verify", "--spec", "6-3", "--order", "5"])
        assert code == EXIT_USAGE

    def test_composite_p_rejected(self):
        with pytest.raises(SystemExit) as exc:
            main(["padic", "--spec", "6/3,2,1", "--p", "6", "--what", "phi"])
        assert exc.value.code == EXIT_USAGE

    @pytest.mark.parametrize(
        "argv",
        [
            ["series", "--spec", "6/3,2,1", "--target", "qL", "--L", "0", "--order", "5"],
            ["series", "--spec", "6/3,2,1", "--target", "qL", "--L", "7", "--order", "5"],
            ["verify", "--spec", "6/3,2,1", "--target", "qL", "--L", "0", "--root", "6"],
            ["padic", "--spec", "6/3,2,1", "--p", "2", "--what", "phi", "--L", "-1"],
        ],
    )
    def test_level_out_of_range_is_usage_error(self, argv, capsys):
        assert main(argv) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "outside [1, 6]" in captured.err

    @pytest.mark.parametrize("command", ["series", "verify"])
    def test_level_target_without_level_is_usage_error(self, command, capsys):
        assert main([command, "--spec", "6/3,2,1", "--target", "qL"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --target qL requires --L\n"

    def test_corpus_takes_no_order(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["corpus", "--order", "5"])
        assert exc.value.code == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: --order 5" in captured.err

    @pytest.mark.parametrize(
        "what,bound",
        [
            ("phi", "--a-max"),
            ("phi", "--k-max"),
            ("s", "--s-max"),
            ("harmonic", "--s-max"),
            ("harmonic", "--m-max"),
            ("lemma24", "--m-max"),
        ],
    )
    def test_negative_grid_bound_rejected(self, what, bound, capsys):
        # An empty grid would otherwise report member: true.
        with pytest.raises(SystemExit) as exc:
            main(["padic", "--spec", "6/3,2,1", "--p", "2", "--what", what, bound, "-1"])
        assert exc.value.code == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{bound}: must be >= 0, got -1" in captured.err

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--spec", "6/3,2,1", "--target", "q", "--root", "6", "--order", "5",
             "--output"],
            ["zhou", "--n-max", "1", "--format", "csv", "--out"],
        ],
    )
    @pytest.mark.parametrize("where", ["missing directory", "directory"])
    def test_unwritable_report_path_is_usage_error(self, argv, where, tmp_path, capsys):
        path = tmp_path / "missing" / "x" if where == "missing directory" else tmp_path
        assert main(argv + [str(path)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: cannot write the report: ")
        assert str(path) in captured.err

    @pytest.mark.parametrize(
        "argv", [["delta", "--spec", "6/3,2,1"], ["corpus"]]
    )
    @pytest.mark.parametrize("sink", ["closed pipe", "/dev/full"])
    @pytest.mark.parametrize("unbuffered", [False, True])
    def test_failed_stdout_write_is_usage_error(self, argv, sink, unbuffered):
        if sink == "closed pipe":
            read_end, stdout = os.pipe()
            os.close(read_end)
        elif os.path.exists(sink):
            stdout = os.open(sink, os.O_WRONLY)
        else:
            pytest.skip(f"no {sink} here")
        src = os.path.dirname(os.path.dirname(padic.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "mirrorint.cli", *argv],
                stdout=stdout,
                stderr=subprocess.PIPE,
                text=True,
                env=env,
                timeout=120,
            )
        finally:
            os.close(stdout)
        assert proc.returncode == EXIT_USAGE, proc.stderr[-2000:]
        assert proc.stderr.startswith("error: cannot write the report: ")
        assert proc.stderr.count("\n") == 1
        assert "Traceback" not in proc.stderr
        assert "Exception ignored" not in proc.stderr

    def test_huge_coefficients_serialize(self, capsys):
        # Q(10) has more decimal digits than Python's default int->str limit.
        spec = "1806/903,602,258,42,1"
        assert main(["series", "--spec", spec, "--target", "F", "--order", "10"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        top = payload["coefficients"][10]
        assert len(top["num"]) > 4300 and top["den"] == "1"
        assert _parse_decimal(top["num"]) == q_ratio(parse_spec(spec), 10)


class TestPadicScans:
    @pytest.mark.parametrize(
        "s_max,m_max,actual", [("1", "3", 3), ("0", "0", "inf")]
    )
    def test_harmonic_summary_row_is_the_tightest_point(
        self, s_max, m_max, actual, capsys
    ):
        argv = ["padic", "--spec", "6/3,2,1", "--p", "2", "--what", "harmonic"]
        code = main(argv + ["--s-max", s_max, "--m-max", m_max])
        assert code == EXIT_OK
        (row,) = json.loads(capsys.readouterr().out)["reports"]
        assert row["member"] is True
        assert (row["required_valuation"], row["actual_valuation"]) == (3, actual)

    @pytest.mark.parametrize("level", ["2", None])
    def test_lemma24_scans_only_the_given_level(self, level, monkeypatch, capsys):
        # Three more moduli in level 3's walk (M // L = 2 at level 3 alone)
        # make the lemma fail at (s, a, L, m) = (1, 1, 3, 0): the verdict of
        # every level sees it, and the verdict of --L 2 does not.
        real = padic._floor_log
        monkeypatch.setattr(padic, "_floor_log", lambda n, p: real(n, p) + 3 * (n == 2))
        levels = [int(level)] if level else range(1, 7)
        failing = [
            (s, a, lev, m)
            for s in (1, 2)
            for a in range(3**s)
            for lev in levels
            for m in range(6)
            if not padic.lemma24_check(3, s, a, 6, m, lev)
        ]
        assert bool(failing) == (level is None)
        argv = ["padic", "--spec", "6/3,2,1", "--p", "3", "--what", "lemma24"]
        argv += ["--m-max", "5"] + (["--L", level] if level else [])
        assert main(argv) == (EXIT_FAILED if failing else EXIT_OK)
        (row,) = json.loads(capsys.readouterr().out)["reports"]
        assert row["member"] == (not failing)
        assert row["witness"] == (list(failing[0]) if failing else None)
        where = f"L={level}, " if level else ""
        assert row["value_description"] == f"lemma24 grid {where}m<=5"

    def test_harmonic_scan_runs_in_256_mib(self):
        # A child interpreter with its address space capped; the prefix list
        # of harmonic numbers this grid used to fill ran out of memory here.
        resource = pytest.importorskip("resource")
        cap = 256 * 2**20
        _, hard = resource.getrlimit(resource.RLIMIT_AS)
        if hard != resource.RLIM_INFINITY:
            cap = min(cap, hard)
        child = (
            "import resource, sys\n"
            f"resource.setrlimit(resource.RLIMIT_AS, ({cap}, {hard}))\n"
            "from mirrorint.cli import main\n"
            "sys.exit(main(sys.argv[1:]))\n"
        )
        src = os.path.dirname(os.path.dirname(padic.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))

        def run(*argv):
            return subprocess.run(
                [sys.executable, "-c", child, *argv],
                capture_output=True,
                text=True,
                env={**os.environ, "PYTHONPATH": path},
                timeout=300,
            )

        proc = run("padic", "--spec", "12/4,3,3,2", "--p", "7", "--what", "harmonic",
                   "--L", "12", "--s-max", "3", "--m-max", "13")
        assert proc.returncode == 0, proc.stderr[-2000:]
        rows = json.loads(proc.stdout)["reports"]
        assert rows and all(row["member"] is True for row in rows)
        # Work that does not fit is a usage error with a message, not a crash.
        proc = run("delta", "--spec", "30000000/15000000,15000000")
        assert proc.returncode == EXIT_USAGE, proc.stderr[-2000:]
        assert "error:" in proc.stderr and "Traceback" not in proc.stderr
        assert proc.stdout == ""


class TestDeterminism:
    def test_byte_identical_reports(self, capsys):
        main(["exponents", "--spec", "6/3,2,1"])
        first = capsys.readouterr().out
        main(["exponents", "--spec", "6/3,2,1"])
        second = capsys.readouterr().out
        assert first == second

    def test_series_lowest_terms(self, capsys):
        main(["series", "--spec", "2/1,1", "--order", "6", "--target", "F"])
        payload = json.loads(capsys.readouterr().out)
        for entry in payload["coefficients"]:
            num, den = int(entry["num"]), int(entry["den"])
            assert den >= 1
            assert math.gcd(num, den) == 1


class TestProfileExport:
    def test_delta_json_shape(self, capsys):
        code = main(["delta", "--spec", "12/4,3,3,2"])
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        prof = payload["profile"]
        assert prof["breakpoints"][0] == {"num": "0", "den": "1"}
        jump_map = {
            (entry[0]["num"], entry[0]["den"]): entry[1] for entry in prof["jumps"]
        }
        assert jump_map[("1", "3")] == -1
        assert jump_map[("1", "2")] == -1
        assert jump_map[("2", "3")] == -1


class TestCorpusRunner:
    def test_full_corpus_passes(self):
        entries = corpus_runner()
        assert entries, "corpus must not be empty"
        assert all(e.passed for e in entries), [
            (e.name, e.detail) for e in entries if not e.passed
        ]

    def test_injected_corruption_detected(self, monkeypatch):
        # Passing roots never reach the exp kernel, so the corruption goes
        # into G_1, which both certifiers read.
        g = MirrorMapBundle.g

        def corrupted(bundle, level=None):
            out = g(bundle, level)
            if str(bundle.spec) == "6/3,2,1" and level == 1:
                coeffs = list(out)
                coeffs[3] += Fraction(1, 7)
                out = tuple(coeffs)
            return out

        monkeypatch.setattr(MirrorMapBundle, "g", corrupted)
        entries = corpus_runner()
        failing = [e for e in entries if not e.passed]
        assert [e.name for e in failing] == ["6/3,2,1"]

    def test_injected_corruption_on_the_exp_route_detected(self, monkeypatch):
        # A certifier that fails every root sends each one down the exp
        # route, whose output is then corrupted for 6/3,2,1 at level 1.
        calls = []

        def failing_certifier(g, f, v):
            calls.append(v)
            return 1

        level_one = build_bundle(parse_spec("6/3,2,1"), 40).g(1)
        exp_quotient_root = mirror.exp_quotient_root

        def corrupted(g, f, v=1):
            coeffs = list(exp_quotient_root(g, f, v))
            if g == level_one:
                coeffs[3] += Fraction(1, 7)
            return iter(coeffs)

        monkeypatch.setattr(mirror, "dwork_root_index", failing_certifier)
        monkeypatch.setattr(mirror, "exp_quotient_root", corrupted)
        entries = corpus_runner()
        failing = [e for e in entries if not e.passed]
        assert [e.name for e in failing] == ["6/3,2,1"]
        assert calls


def test_startup_imports_no_unneeded_module():
    # Every CLI run pays for what importing the CLI loads: dataclasses (with
    # inspect), csv, copy and typing stay out of a fresh, site-less
    # interpreter.
    src = os.path.dirname(os.path.dirname(padic.__file__))
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); "
        "from mirrorint import cli; cli.build_parser(); "
        "print(*[m for m in sys.argv[2:] if m in sys.modules])"
    )
    unneeded = ["dataclasses", "inspect", "csv", "copy", "typing"]
    proc = subprocess.run(
        [sys.executable, "-I", "-S", "-c", code, src, *unneeded],
        capture_output=True,
        text=True,
        timeout=30,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


def test_commands_build_no_ring_element(monkeypatch, capsys):
    # The bundle hands out coefficient tuples and the certifiers read plain
    # sequences, so no command constructs a TruncatedSeries.
    built = []
    post_init = TruncatedSeries.__post_init__

    def counting(series):
        built.append(series)
        post_init(series)

    monkeypatch.setattr(TruncatedSeries, "__post_init__", counting)
    spec = ["--spec", "6/3,2,1", "--order", "20"]
    commands = [
        ["verify", *spec, "--target", "q"],
        ["verify", *spec, "--target", "qL", "--L", "2"],
        *(["series", *spec, "--target", t, "--L", "2"] for t in ("F", "G", "q", "qL")),
        ["zhou", "--n-max", "3", "--order", "10"],
        ["corpus"],
    ]
    for argv in commands:
        assert main(argv) == EXIT_OK, argv
    capsys.readouterr()
    assert built == []


# One argv per command that takes --spec, with --L where it is accepted.
SPEC_ARGVS = {
    "delta": ["delta", "--spec", "6/3,2,1"],
    "series": [
        "series", "--spec", "6/3,2,1", "--target", "qL", "--L", "2", "--order", "8",
    ],
    "verify": [
        "verify", "--spec", "6/3,2,1", "--target", "qL", "--L", "3", "--order", "8",
    ],
    "exponents": ["exponents", "--spec", "6/3,2,1"],
    "padic": [
        "padic", "--spec", "6/3,2,1", "--p", "3", "--what", "phi", "--L", "2",
        "--a-max", "1", "--k-max", "2",
    ],
}


@pytest.mark.parametrize("command", list(SPEC_ARGVS))
def test_spec_is_parsed_once(command, monkeypatch, capsys):
    # main parses --spec into args.spec; the --L check and the command read it.
    calls = []
    real = cli.parse_spec

    def counting(text):
        calls.append(text)
        return real(text)

    monkeypatch.setattr(cli, "parse_spec", counting)
    assert main(SPEC_ARGVS[command]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["command"] == command
    assert calls == ["6/3,2,1"]


def test_package_reexports_nothing():
    # Submodules are imported by name; the package itself holds no API.
    import mirrorint

    public = [
        name
        for name, value in vars(mirrorint).items()
        if not name.startswith("_") and type(value) is not type(mirrorint)
    ]
    assert public == [] and not hasattr(mirrorint, "__version__")


def test_zhou_csv_output(tmp_path, capsys):
    out = tmp_path / "report.csv"
    code = main(
        ["zhou", "--n-max", "3", "--order", "10", "--format", "csv", "--out", str(out)]
    )
    assert code == EXIT_OK
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("ks,k,ws,case_i,exponent,order,integral")
    assert len(lines) == 6  # header + 5 instances


def _parse_decimal(text):
    """int(text) in chunks, below any int<->str digit limit."""
    value = 0
    for start in range(0, len(text), 500):
        chunk = text[start : start + 500]
        value = value * 10 ** len(chunk) + int(chunk)
    return value


@given(st.integers(min_value=-(10**1300), max_value=10**1300), st.integers(0, 1400))
def test_decimal_str_matches_str(n, k):
    # Sizes below the interpreter's digit limit, where str() is the oracle.
    for m in (n, 10**k, 10**k - 1):
        assert decimal_str(m) == str(m)
