"""One repetition of a workload, in a fresh interpreter.

Run as ``python3 -I child.py probe`` to measure set-up only, or as
``python3 -I child.py run`` with a job on stdin:
``{"commands": [[...], ...], "trace": bool, "spans": path or null}``.
Set-up ends when ``mirrorint.cli`` is imported and ``build_parser()`` has
returned; the parent takes the set-up time from the CLOCK_MONOTONIC stamp
printed here.  The last line of stdout is one JSON object with the result.

Process-global caches of mirrorint start cold in every repetition, as they
do for every CLI user.
"""

import io
import json
import os
import resource
import sys
import time
from contextlib import redirect_stdout

# A regression that needs more memory than this shows up as a failed
# command (MemoryError), not as the host running out of memory.
ADDRESS_SPACE_LIMIT = 1 << 30

resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_LIMIT, ADDRESS_SPACE_LIMIT))

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, SRC)

from mirrorint import cli  # noqa: E402

cli.build_parser()
SETUP_DONE = time.monotonic()

if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
    sys.exit(f"imported {cli.__file__}, not the package under {SRC}")


def run_command(argv):
    """(exit code or None, error text or None, captured stdout)."""
    out = io.StringIO()
    code, error = None, None
    with redirect_stdout(out):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # the failure is reported as a failed op
            error = f"{type(exc).__name__}: {exc}"
    return code, error, out.getvalue()


def time_instances(samples):
    """Time each zhou.verify_zhou call with one perf_counter pair."""
    from mirrorint import zhou
    from tracing import binding_sites

    original = zhou.verify_zhou

    def timed(*args, **kwargs):
        start = time.perf_counter()
        try:
            return original(*args, **kwargs)
        finally:
            samples.append(time.perf_counter() - start)

    sites = binding_sites(original, zhou, "verify_zhou")
    for site, attr in sites:
        setattr(site, attr, timed)

    def restore():
        for site, attr in sites:
            setattr(site, attr, original)

    return restore


def main():
    if sys.argv[1:] == ["probe"]:
        print(json.dumps({"setup_done": SETUP_DONE}))
        return
    job = json.load(sys.stdin)
    sys.path.insert(0, HERE)
    from tracing import Tracer

    instances = []
    untraced = []
    tracer = Tracer() if job["trace"] else None
    if tracer:
        untraced = tracer.install()
        restore = tracer.restore
    else:
        restore = time_instances(instances)
    results = []
    start = time.perf_counter()
    try:
        for argv in job["commands"]:
            results.append(run_command(argv))
    finally:
        wall = time.perf_counter() - start
        restore()
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    trace = None
    if tracer:
        trace = {**tracer.summary(), "untraced": untraced}
        tracer.write_spans(job["spans"])
    for code, error, _ in results:
        if error:
            sys.stderr.write(f"child: {error}\n")
    print(json.dumps({
        "setup_done": SETUP_DONE,
        "wall_s": wall,
        "peak_rss_mb": peak_kb / 1024,
        "commands": [
            {"exit": code, "error": error, "stdout": text}
            for code, error, text in results
        ],
        "instances_s": instances,
        "trace": trace,
    }))


if __name__ == "__main__":
    main()
