"""Benchmark of the mirrorint CLI, end to end and layer by layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload certify --seed 0 --seconds 35 --trace 0

One client runs a workload's command sequence (see workloads.py) through
``mirrorint.cli.main`` in a fresh interpreter per repetition, waiting for
each repetition to end before it starts the next (a closed loop), until
``--seconds`` have passed.  With ``--trace 0`` it reports the end-to-end
metrics setup_s, wall_s and peak_rss_mb as medians over the repetitions;
with ``--trace 1`` it alternates untraced and traced repetitions and reports
the per-layer metrics of the traced ones (see tracing.py) plus the tracing
overhead.  Every output is checked; the last line of stdout is one JSON
object with the result.  Lines before it give quartiles and sample counts.
"""

from __future__ import annotations

import argparse
import json
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
SPANS_DIR = ROOT / ".perfbench"

MIN_REPS = 3
RUN_DEADLINE_S = 170.0
CHILD_TIMEOUT_S = 120.0


def spawn(mode: str, job=None, timeout: float = CHILD_TIMEOUT_S):
    """Run child.py once; returns (result dict or None, elapsed seconds)."""
    start = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, "-I", str(CHILD), mode],
        stdin=subprocess.PIPE if job is not None else subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        cwd=ROOT,
        text=True,
    )
    try:
        out, _ = proc.communicate(
            None if job is None else json.dumps(job), timeout=max(timeout, 1.0)
        )
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return None, time.monotonic() - start
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    elapsed = time.monotonic() - start
    lines = out.splitlines()
    if proc.returncode != 0 or not lines:
        return None, elapsed
    result = json.loads(lines[-1])
    result["setup_s"] = result["setup_done"] - start
    return result, elapsed


class Run:
    """The repetitions of one benchmark run and what they measured."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.commands = workloads.commands(workload, seed)
        self.start = time.monotonic()
        self.setup_s: list[float] = []
        self.wall_s = {False: [], True: []}
        self.peak_rss_mb: list[float] = []
        self.instances_s: list[float] = []
        self.traces: list[dict] = []
        self.output_bytes: list[int] = []
        self.attempted = 0
        self.failures: list[str] = []
        self.last_rep_s = 0.0

    def elapsed(self) -> float:
        return time.monotonic() - self.start

    def remaining(self) -> float:
        return RUN_DEADLINE_S - self.elapsed()

    def probe_setup(self) -> bool:
        """Time one child that only sets up; False if it failed."""
        result, _ = spawn("probe", timeout=min(30.0, self.remaining()))
        if result is not None:
            self.setup_s.append(result["setup_s"])
        return result is not None

    def repeat(self, trace: bool) -> None:
        job = {
            "commands": self.commands,
            "trace": trace,
            "spans": str(SPANS_DIR / f"spans-{self.workload}.tsv") if trace else None,
        }
        result, elapsed = spawn(
            "run", job, timeout=min(CHILD_TIMEOUT_S, self.remaining())
        )
        self.last_rep_s = elapsed
        if result is None:
            # A repetition that died counts all its commands as failed, and
            # its time as a wall sample.
            self.attempted += len(self.commands)
            self.failures += [f"repetition died after {elapsed:.1f} s"] * len(
                self.commands
            )
            self.wall_s[trace].append(elapsed)
            return
        self.setup_s.append(result["setup_s"])
        self.wall_s[trace].append(result["wall_s"])
        nbytes = 0
        for argv, command in zip(self.commands, result["commands"]):
            attempted, failures = workloads.check(
                argv, command["error"] or command["exit"], command["stdout"]
            )
            self.attempted += attempted
            self.failures += failures
            nbytes += len(command["stdout"].encode())
        self.output_bytes.append(nbytes)
        if trace:
            self.traces.append(result["trace"])
        else:
            self.peak_rss_mb.append(result["peak_rss_mb"])
            self.instances_s += result["instances_s"]


def quartiles(samples: list[float]) -> tuple[float, float, float]:
    if len(samples) < 2:
        return samples[0], samples[0], samples[0]
    q1, _, q3 = statistics.quantiles(samples, n=4)
    return q1, statistics.median(samples), q3


def describe(name: str, unit: str, samples: list[float]) -> str:
    if not samples:
        return f"# {name}: no samples"
    q1, med, q3 = quartiles(samples)
    return f"# {name}: median {med:.6g} {unit}  q1 {q1:.6g}  q3 {q3:.6g}  n {len(samples)}"


def percentile(samples: list[float], pct: int) -> float:
    if len(samples) < 2:
        return samples[0] if samples else 0.0
    return statistics.quantiles(samples, n=100)[pct - 1]


def layer_counts(trace: dict) -> dict:
    """The per-layer counts, which must repeat exactly between repetitions."""
    calls = trace["calls"]
    bundles = calls["mirror.build_bundle"]
    return {
        "landau.q_ratio.calls": calls["landau.q_ratio"],
        "landau.q_ratio.hit_ratio": trace["q_ratio_hit_ratio"],
        "landau.harmonic.calls": calls["landau.harmonic"],
        "landau.harmonic.max_index": trace["max_harmonic_index"],
        "series.mul.calls": calls["series.mul"],
        "series.exp.calls": calls["series.exp"],
        "series.max_coeff_bits": trace["max_coeff_bits"],
        "mirror.build_bundle.calls": bundles,
        "mirror.build_bundle.exp_per_call": (
            trace["exp_in_bundle"] / bundles if bundles else 0.0
        ),
        "padic.vp_rational.calls": calls["padic.vp_rational"],
        "zhou.verify_zhou.calls": calls["zhou.verify_zhou"],
    }


SELF_TIMES = (
    "landau.q_ratio", "landau.harmonic", "landau.classify",
    "series.mul", "series.reciprocal", "series.exp", "series.log",
    "mirror.build_bundle",
    "padic.phi_membership_scan", "padic.s_membership_scan",
    "padic.lemma_harmonic_check", "padic.lemma24_check", "padic.vp_rational",
    "zhou.verify_zhou", "zhou.enumerate_decompositions",
    "cli.main",
)


def median(samples: list[float]) -> float:
    # No samples only when every repetition died, which fails the run.
    return statistics.median(samples) if samples else 0.0


def end_to_end(run: Run) -> dict:
    return {
        "setup_s": (median(run.setup_s), "s"),
        "wall_s": (median(run.wall_s[False]), "s"),
        "peak_rss_mb": (median(run.peak_rss_mb), "MB"),
    }


def per_layer(run: Run, problems: list[str]) -> dict:
    counts = [layer_counts(trace) for trace in run.traces]
    for later in counts[1:]:
        for name, value in later.items():
            if value != counts[0][name]:
                problems.append(f"{name} differs between repetitions: "
                                f"{counts[0][name]} vs {value}")
    units = {"calls": "count", "hit_ratio": "ratio", "max_index": "index",
             "max_coeff_bits": "bits", "exp_per_call": "exp/call"}
    metrics = {
        name: (value, units[name.rsplit(".", 1)[1]])
        for name, value in counts[0].items()
    }
    for name in SELF_TIMES:
        samples = [trace["self_s"][name] for trace in run.traces]
        metrics[f"{name}.self_s"] = (median(samples), "s")
    metrics["zhou.instance_p50_s"] = (percentile(run.instances_s, 50), "s")
    metrics["zhou.instance_p90_s"] = (percentile(run.instances_s, 90), "s")
    metrics["cli.output_bytes"] = (run.output_bytes[0], "bytes")
    metrics["trace.overhead_s"] = (
        median(run.wall_s[True]) - median(run.wall_s[False]), "s"
    )
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit, so spawn() kills the running child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "mirrorint" / "cli.py").is_file():
        sys.stderr.write(f"no mirrorint sources under {ROOT / 'src'}\n")
        return 2

    run = Run(args.workload, args.seed)
    if not run.probe_setup():
        sys.stderr.write("mirrorint.cli could not be imported\n")
        return 1
    trace = bool(args.trace)
    if trace:
        SPANS_DIR.mkdir(exist_ok=True)
    plan = [False, True] if trace else [False]
    enough = 2 if trace else MIN_REPS
    while run.remaining() > 0:
        # Start another repetition only if it should end within --seconds,
        # give or take half a repetition.
        if (
            all(len(run.wall_s[t]) >= enough for t in plan)
            and run.elapsed() + run.last_rep_s / 2 >= args.seconds
        ):
            break
        run.repeat(plan[sum(map(len, run.wall_s.values())) % len(plan)])
        # Set-up samples spread over the run, like the repetitions.
        run.probe_setup()

    problems: list[str] = []
    print(f"# workload {args.workload}, seed {args.seed}: one client, closed loop, "
          f"fresh interpreter per repetition; {run.elapsed():.1f} s")
    for argv_ in run.commands:
        print("#   mirrorint " + " ".join(argv_))
    print(describe("setup_s", "s", run.setup_s))
    print(describe("wall_s", "s", run.wall_s[False]))
    if trace:
        print(describe("wall_s traced", "s", run.wall_s[True]))
    print(describe("peak_rss_mb", "MB", run.peak_rss_mb))
    if run.instances_s:
        print(describe("zhou instance", "s", run.instances_s)
              + f"  p90 {percentile(run.instances_s, 90):.6g}")
    failed = len(run.failures)
    print(f"# failed_ops_frac: {failed / max(run.attempted, 1):.6g} "
          f"({failed} of {run.attempted} operations)")
    for failure in sorted(set(run.failures)):
        print(f"# FAILED {failure}")

    if len(set(run.output_bytes)) > 1:
        problems.append(f"output sizes differ between repetitions: {run.output_bytes}")
    if not trace:
        metrics = end_to_end(run)
    elif run.traces:
        metrics = per_layer(run, problems)
    else:
        metrics = {}
        problems.append("no traced repetition finished")
    for name in sorted({n for t in run.traces for n in t["untraced"]}):
        print(f"# not traced, mirrorint has no {name}")
    for problem in problems:
        print(f"# PROBLEM {problem}")
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": max(run.attempted, 1),
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
