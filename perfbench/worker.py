"""One pass of benchmark ops, in a fresh interpreter.

Reads a job from stdin: {"ops": [argv, ...], "trace": bool, "spans_path":
str | null, "meta": {...}}.  Each argv goes to `pinclasses.cli.main` with
the package's lru caches cleared first, so every op starts from the caches
a fresh CLI process would have.  Prints one JSON result line to stdout.

    python3 perfbench/worker.py < job.json
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import resource
import sys
import time
import traceback


def _cpu_s() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


CALIBRATION_LOOPS = 8000


def calibrate() -> float:
    """Seconds for a fixed dict-and-tuple loop: the core's current speed.

    The best of two tries, with the collector off so garbage an op left
    behind is not collected on the clock.
    """
    best = float("inf")
    gc.disable()
    try:
        for _ in range(2):
            start = time.perf_counter()
            acc: dict = {}
            for i in range(CALIBRATION_LOOPS):
                key = (i * 7919 % 1009, i % 97)
                acc[key] = acc.get(key, 0) + i * i % 7
            sorted(acc.items())
            best = min(best, time.perf_counter() - start)
    finally:
        gc.enable()
    return best


def _cache_clearers(modules) -> list:
    """cache_clear of every lru-cached function the package defines."""
    return [
        value.cache_clear
        for module in modules
        for value in vars(module).values()
        if callable(getattr(value, "cache_clear", None))
        and getattr(value, "__module__", None) == module.__name__
    ]


def _run_op(argv, call):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = call(argv)
        except SystemExit as exc:  # argparse rejects bad argv this way
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # an op that raises is a failed op, not a crash
            rc = None
            err.write(traceback.format_exc())
    return rc, out.getvalue(), err.getvalue()


def main() -> int:
    job = json.load(sys.stdin)
    from tracer import Tracer, package_modules

    from pinclasses import cli

    clearers = _cache_clearers(package_modules())
    tracer = None
    if job["trace"]:
        tracer = Tracer()
        tracer.install()
    results = []
    calibration = [calibrate()]
    for i, argv in enumerate(job["ops"]):
        for clear in clearers:
            clear()
        call = cli.main if tracer is None else (lambda a, i=i: tracer.run_op(i, cli.main, a))
        cpu0, t0 = _cpu_s(), time.perf_counter()
        rc, out, err = _run_op(argv, call)
        wall, cpu = time.perf_counter() - t0, _cpu_s() - cpu0
        calibration.append(calibrate())
        results.append({"rc": rc, "stdout": out, "stderr": err, "wall_s": wall, "cpu_s": cpu})
    payload = {
        "ops": results,
        "calibration_s": calibration,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        payload["trace"] = tracer.summary()
        if job.get("spans_path"):
            tracer.write(job["spans_path"], job.get("meta", {}))
    sys.stdout.write(json.dumps(payload) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
